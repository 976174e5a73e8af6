"""Library routines that no moments, cumulants, R-transform or freeness
query runs.

The evenness predicate; the sparsity pattern of the R-transform of a
free-generator tuple; and the symmetric and compressed R-transforms.
They are built on ``toeplitz_core`` and kept apart from it, so that a
process that runs none of them never compiles them: the CLI imports this
module only for ``check-even``, ``compress`` and ``sparsity``, and the
package namespace binds each name here on first use.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, PreconditionError, ZeroTrace
from .ncpoly import RationalLike, as_fraction, format_rational
from .scalar_space import MomentFunctional
from .toeplitz_core import (
    BScalar,
    BSeries,
    TVariable,
    _check_vars,
    b_mul,
    r_transform,
)


def check_even(functional: MomentFunctional, x: TVariable,
               degree: int | None = None) -> bool:
    """Whether every odd cumulant K_n(X,...,X), n <= D, vanishes.

    Read off the odd coefficients of R; the odd moments E(X^n) vanish
    exactly when these do, degree by degree. The series is checked against
    the word cap up front, like moment_series.
    """
    r = r_transform(functional, [x], degree)
    return all(r.coef((1,) * n).is_zero() for n in range(1, r.degree + 1, 2))


class PatternRow(NamedTuple):
    """One entry of the sparsity pattern of R_A for a free-generator tuple:
    which single-generator cumulant (if any) the entry carries."""

    degree: int
    entry: int
    source: str | None
    value: Fraction

    def to_json_obj(self) -> dict[str, object]:
        return {
            "degree": self.degree,
            "entry": self.entry,
            "source": self.source,
            "value": format_rational(self.value),
        }


def free_family_sparsity(functional: MomentFunctional, a: TVariable,
                         degree: int | None = None
                         ) -> tuple[BSeries, list[PatternRow]]:
    """R_A for A = (a_1, ..., a_N) with free single-generator entries.

    Requires every entry to be a bare generator and the entries' families
    to be pairwise distinct singletons (so the a_j are free). Then entry j
    of the degree-n coefficient of R_A is k_n(a_m, ..., a_m) when n
    divides j-1 with m = (j-1)/n + 1, and zero otherwise; in particular
    the degree-1 coefficient is (phi(a_1), ..., phi(a_N)) and every
    coefficient of degree n >= N is supported only in entry 1. The
    pattern is returned as rows of the computed series, each naming the
    source generator that this rule gives its slot; the tests, not this
    routine, check the series against the theorem.
    """
    gen_ids: list[str] = []
    for j, entry in enumerate(a.entries, start=1):
        terms = entry.terms
        if len(terms) != 1 or terms[0][1] != 1 or len(terms[0][0]) != 1:
            raise PreconditionError(
                f"entry {j} is not a bare generator: {entry}"
            )
        gen_ids.append(terms[0][0][0])
    if len(set(gen_ids)) != len(gen_ids):
        raise PreconditionError("entries repeat a generator")
    families = [functional.generators[g].family for g in gen_ids]
    if len(set(families)) != len(families):
        raise PreconditionError(
            "entries share a scalar family; they must be pairwise free"
        )
    for family, gen_id in zip(families, gen_ids):
        mates = {
            g.id
            for g in functional.generators.values()
            if g.family == family
        }
        if mates != {gen_id}:
            raise PreconditionError(
                f"family {family!r} holds {sorted(mates)}; each entry "
                "must be alone in its family"
            )

    series = r_transform(functional, [a], degree)
    n_entries = a.order
    rows: list[PatternRow] = []
    for n in range(1, series.degree + 1):
        coef = series.coef((1,) * n)
        for j in range(1, n_entries + 1):
            source: str | None = None
            if (j - 1) % n == 0:
                source = gen_ids[(j - 1) // n]
            rows.append(PatternRow(n, j, source, coef.entries[j - 1]))
    return series, rows


def symm_r_transform(functional: MomentFunctional,
                     vars_: Sequence[TVariable], b0: BScalar,
                     degree: int | None = None) -> BSeries:
    """The b0-symmetric R-transform: each degree-n coefficient is the
    tuple cumulant multiplied by b0^(n-1) (b0 is central, so the
    interleaved insertions collapse to a single power)."""
    order = _check_vars(vars_)
    if b0.order != order:
        raise DimensionMismatch(
            f"b0 has order {b0.order}, variables have order {order}"
        )
    r = r_transform(functional, vars_, degree)
    one = BScalar.one(order)
    powers = list(accumulate([b0] * (r.degree - 1), b_mul, initial=one))
    coeffs = {w: b_mul(powers[len(w) - 1], value) for w, value in r.items()}
    return BSeries(r.s, order, r.degree, coeffs)


def nonzero_trace(alpha0: RationalLike) -> Fraction:
    """alpha0 as a Fraction, refused with ZeroTrace if it is 0: the trace
    of a projection that compress_r_transform can scale by."""
    alpha = as_fraction(alpha0)
    if alpha == 0:
        raise ZeroTrace("compression needs a projection of nonzero trace")
    return alpha


def compress_r_transform(r: BSeries, alpha0: RationalLike) -> BSeries:
    """The R-transform after compression by a trace-alpha0 projection:
    each degree-n coefficient is scaled by alpha0^(n-1)."""
    alpha = nonzero_trace(alpha0)
    powers = [alpha**n for n in range(r.degree)]
    coeffs = {w: value.scale(powers[len(w) - 1]) for w, value in r.items()}
    return BSeries(r.s, r.order, r.degree, coeffs)
