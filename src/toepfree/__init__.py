"""toepfree: exact free-probability calculus over Toeplitz matricial algebras.

The package computes moments, free cumulants, R-transforms, and boxed
convolutions of tuples of noncommutative random variables valued in the
commutative algebra C^N of upper-triangular Toeplitz matrices, entirely in
exact rational arithmetic. The independent second code paths that every
principal computation is tested against (lattice Möbius inversion,
explicit matrix products, sums over all of NC(n)) live in the test suite,
in ``tests/oracles.py``, and are not part of the package.
"""

from .errors import (
    ConfigError,
    CrossingPartition,
    DegreeCapExceeded,
    DimensionMismatch,
    EngineError,
    InternalConsistencyError,
    MathDomainError,
    NonInvertible,
    PreconditionError,
    ZeroTrace,
)
from .nc_lattice import (
    NcPartition,
    catalan,
    enumerate_nc,
    kreweras,
)
from .ncpoly import (
    Generator,
    NcPolynomial,
    format_rational,
    parse_expr,
    parse_rational,
)
from .scalar_space import (
    MomentFunctional,
    build_space,
    builtin_distribution,
)
from .series import (
    BSeries,
    boxed_convolution,
    check_even,
    check_freeness,
    compress_r_transform,
    free_family_sparsity,
    moment_series,
    moments_from_r,
    r_from_moments,
    r_transform,
    symm_r_transform,
)
from .toeplitz_core import (
    BScalar,
    TVariable,
    b_add,
    b_inv,
    b_mul,
    b_pow,
    chain_product,
    expect,
    t_cumulant,
    t_mul,
)

__version__ = "0.1.0"

__all__ = [
    "BScalar",
    "BSeries",
    "ConfigError",
    "CrossingPartition",
    "DegreeCapExceeded",
    "DimensionMismatch",
    "EngineError",
    "Generator",
    "InternalConsistencyError",
    "MathDomainError",
    "MomentFunctional",
    "NcPartition",
    "NcPolynomial",
    "NonInvertible",
    "PreconditionError",
    "TVariable",
    "ZeroTrace",
    "b_add",
    "b_inv",
    "b_mul",
    "b_pow",
    "boxed_convolution",
    "build_space",
    "builtin_distribution",
    "catalan",
    "chain_product",
    "check_even",
    "check_freeness",
    "compress_r_transform",
    "enumerate_nc",
    "expect",
    "format_rational",
    "free_family_sparsity",
    "kreweras",
    "moment_series",
    "moments_from_r",
    "parse_expr",
    "parse_rational",
    "r_from_moments",
    "r_transform",
    "symm_r_transform",
    "t_cumulant",
    "t_mul",
]
