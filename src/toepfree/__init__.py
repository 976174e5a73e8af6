"""toepfree: exact free-probability calculus over Toeplitz matricial algebras.

The package computes moments, free cumulants, R-transforms, and boxed
convolutions of tuples of noncommutative random variables valued in the
commutative algebra C^N of upper-triangular Toeplitz matrices, entirely in
exact rational arithmetic. The independent second code paths that every
principal computation is tested against (lattice Möbius inversion,
explicit matrix products, sums over all of NC(n)) live in the test suite,
in ``tests/oracles.py``, and are not part of the package.

The top-level names are bound lazily (PEP 562): ``import toepfree`` loads
no submodule, and the first use of a name, or of a compute module such as
``toepfree.series``, imports its home module. The compute modules that a
CLI query executes bind the same way, from ``toepfree.library``, the
functions and methods of their layer that no such query calls
(``_from_library`` and ``_defer``).
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "ConfigError",
        "CrossingPartition",
        "DegreeCapExceeded",
        "DimensionMismatch",
        "EngineError",
        "MathDomainError",
        "PreconditionError",
        "ZeroTrace",
    ),
    "extras": (
        "check_even",
        "compress_r_transform",
        "free_family_sparsity",
        "symm_r_transform",
    ),
    "nc_lattice": ("NcPartition", "catalan", "enumerate_nc", "kreweras"),
    "ncpoly": (
        "Generator",
        "NcPolynomial",
        "format_rational",
        "parse_expr",
        "parse_rational",
    ),
    "scalar_space": ("MomentFunctional", "build_space", "builtin_distribution"),
    "series": (
        "boxed_convolution",
        "moment_series",
        "moments_from_r",
        "r_from_moments",
    ),
    "toeplitz_core": (
        "BScalar",
        "BSeries",
        "TVariable",
        "b_add",
        "b_mul",
        "check_freeness",
        "r_transform",
        "t_cumulant",
        "t_mul",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    """Import the home module of a public name, or a compute module itself,
    on first use and keep the value in the package namespace, so that later
    reads skip this hook."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})


def _from_library(module: str, names: str) -> object:
    """The module __getattr__ (PEP 562) of ``module``: each of the
    space-separated names is read from ``library``, executed on the first
    such read, and any other name raises AttributeError."""
    moved = names.split()

    def __getattr__(name: str) -> object:
        if name not in moved:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(import_module(".library", __name__), name)

    return __getattr__


class _Deferred:
    """A class attribute defined on the namespace class of ``library``
    named after its class with a leading underscore, bound on its class in
    place of this one on the first read, when ``library`` is executed."""

    __slots__ = ("owner", "name")

    def __init__(self, owner: type, name: str):
        self.owner, self.name = owner, name

    def __get__(self, obj: object, owner: type | None = None) -> object:
        library = import_module(".library", __name__)
        value = vars(getattr(library, f"_{self.owner.__name__}"))[self.name]
        setattr(self.owner, self.name, value)
        return value.__get__(obj, owner)


def _defer(owner: type, names: str) -> None:
    """Bind each of the space-separated names on owner, a method, property
    or dunder no CLI query calls, to its definition in ``library``."""
    for name in names.split():
        setattr(owner, name, _Deferred(owner, name))
