"""Truncated formal series over the Toeplitz algebra, and their calculus.

A BSeries assigns a BScalar coefficient to every nonempty index word
(i_1, ..., i_n) over {1..s} of length at most D. Moment series collect
tuple moments, R-transforms collect tuple cumulants; the two determine
each other by Möbius inversion over NC(n). Boxed convolution multiplies
R-transforms the way t_mul multiplies free variables. On top of that sit
the freeness and evenness predicates, the sparsity pattern of R-transforms
of free-generator tuples, symmetric R-transforms, and compression scaling.

Everything here works coefficientwise in exact rational arithmetic; block
products in B are taken in order of increasing block minimum, which is
immaterial because B is commutative but keeps every computation
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from . import nc_lattice
from .errors import (
    DegreeCapExceeded,
    DimensionMismatch,
    InternalConsistencyError,
    NotEven,
    OddLength,
    PreconditionError,
    ZeroTrace,
)
from .ncpoly import RationalLike, as_fraction, format_rational
from .scalar_space import MomentFunctional
from .toeplitz_core import (
    BScalar,
    IndexWord,
    TVariable,
    b_mul,
    b_pow,
    t_cumulant,
    t_moment,
)

__all__ = [
    "BSeries",
    "all_index_words",
    "boxed_convolution",
    "boxed_identity",
    "check_even",
    "check_freeness",
    "compress_r_transform",
    "even_cumulant_restricted",
    "family_assignment",
    "free_family_sparsity",
    "moment_series",
    "moments_from_r",
    "r_from_moments",
    "r_transform",
    "series_add",
    "symm_r_transform",
]


def all_index_words(s: int, degree: int) -> Iterable[IndexWord]:
    """All nonempty words over {1..s} of length <= degree, shortest first,
    lexicographic within a length."""
    for n in range(1, degree + 1):
        yield from product(range(1, s + 1), repeat=n)


def _subword(word: IndexWord, positions: Sequence[int]) -> IndexWord:
    return tuple(word[p - 1] for p in positions)


class BSeries:
    """A truncated B-valued formal series in s noncommuting indeterminates.

    Immutable; zero coefficients are never stored, so two series are equal
    exactly when they agree coefficientwise.
    """

    __slots__ = ("s", "order", "degree", "_coeffs")

    def __init__(
        self,
        s: int,
        order: int,
        degree: int,
        coefficients: Mapping[IndexWord, BScalar],
    ):
        if s < 1:
            raise ValueError(f"need at least one indeterminate, got s={s}")
        if order < 1:
            raise ValueError(f"need a positive Toeplitz order, got {order}")
        if degree < 1:
            raise ValueError(f"need a positive degree bound, got {degree}")
        clean: dict[IndexWord, BScalar] = {}
        for word, value in coefficients.items():
            word = tuple(word)
            if not word or len(word) > degree:
                raise ValueError(
                    f"index word {word} has length outside 1..{degree}"
                )
            if any(not 1 <= i <= s for i in word):
                raise ValueError(
                    f"index word {word} has letters outside 1..{s}"
                )
            if value.order != order:
                raise DimensionMismatch(
                    f"coefficient at {word} has order {value.order}, "
                    f"series has order {order}"
                )
            if not value.is_zero():
                clean[word] = value
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BSeries is immutable")

    def coef(self, word: Iterable[int]) -> BScalar:
        return self._coeffs.get(tuple(word), BScalar.zero(self.order))

    def words(self) -> list[IndexWord]:
        """Supported words, shortest first, lexicographic within a length."""
        return sorted(self._coeffs, key=lambda w: (len(w), w))

    def items(self) -> list[tuple[IndexWord, BScalar]]:
        return [(w, self._coeffs[w]) for w in self.words()]

    def is_zero(self) -> bool:
        return not self._coeffs

    def restrict(self, degree: int) -> "BSeries":
        """The same series truncated to a smaller degree bound."""
        if not 1 <= degree <= self.degree:
            raise ValueError(
                f"restriction degree must be in 1..{self.degree}, "
                f"got {degree}"
            )
        kept = {
            w: v for w, v in self._coeffs.items() if len(w) <= degree
        }
        return BSeries(self.s, self.order, degree, kept)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BSeries):
            return NotImplemented
        return (
            self.s == other.s
            and self.order == other.order
            and self.degree == other.degree
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash(
            (self.s, self.order, self.degree, frozenset(self._coeffs.items()))
        )

    def to_json_obj(self) -> dict[str, object]:
        return {
            "s": self.s,
            "N": self.order,
            "D": self.degree,
            "coefficients": [
                {"word": list(w), "value": self._coeffs[w].to_json_obj()}
                for w in self.words()
            ],
        }

    @staticmethod
    def from_json_obj(obj: Mapping[str, object]) -> "BSeries":
        coeffs = {
            tuple(int(i) for i in row["word"]): BScalar.of(
                as_fraction(v) for v in row["value"]
            )
            for row in obj["coefficients"]  # type: ignore[union-attr]
        }
        return BSeries(
            int(obj["s"]), int(obj["N"]), int(obj["D"]), coeffs
        )

    def __repr__(self) -> str:
        return (
            f"BSeries(s={self.s}, N={self.order}, D={self.degree}, "
            f"{len(self._coeffs)} coefficients)"
        )


def _require_same_shape(f: BSeries, g: BSeries) -> None:
    if (f.s, f.order, f.degree) != (g.s, g.order, g.degree):
        raise DimensionMismatch(
            f"series shapes differ: (s={f.s}, N={f.order}, D={f.degree}) "
            f"vs (s={g.s}, N={g.order}, D={g.degree})"
        )


def _check_vars(vars_: Sequence[TVariable]) -> int:
    if not vars_:
        raise ValueError("need at least one variable")
    order = vars_[0].order
    for v in vars_[1:]:
        if v.order != order:
            raise DimensionMismatch(
                f"variable orders differ: {order} vs {v.order}"
            )
    return order


def _resolve_degree(functional: MomentFunctional, degree: int | None) -> int:
    resolved = functional.degree_cap if degree is None else degree
    if resolved < 1:
        raise ValueError(f"degree must be positive, got {resolved}")
    if resolved > functional.degree_cap:
        raise DegreeCapExceeded(
            f"degree {resolved} exceeds the functional's cap "
            f"{functional.degree_cap}"
        )
    return resolved


def _require_word_cap(
    functional: MomentFunctional, vars_: Sequence[TVariable], degree: int
) -> None:
    """Refuse a series whose scalar words would outgrow the degree cap,
    before any NC(n) sum.

    The longest word behind entry j of a degree-n coefficient follows the
    product recursion on entry degrees, over nonzero entries only:
    L_n[j] = max over k <= j of L_{n-1}[k] + max_i deg x^(i)_{j-k}. The
    bound ignores cancellation between terms.
    """
    absent = float("-inf")  # an entry that is zero in every variable
    entry = [
        max(
            (x.entries[j].degree() for x in vars_ if x.entries[j]),
            default=absent,
        )
        for j in range(vars_[0].order)
    ]
    lengths, longest = entry, max(entry)
    for _ in range(degree - 1):
        lengths = [
            max(lengths[k] + entry[j - k] for k in range(j + 1))
            for j in range(len(entry))
        ]
        longest = max(longest, *lengths)
    if longest > functional.degree_cap:
        raise DegreeCapExceeded(
            f"degree {degree} needs scalar words of length {longest}, "
            f"over the degree cap {functional.degree_cap}"
        )


def moment_series(
    functional: MomentFunctional,
    vars_: Sequence[TVariable],
    degree: int | None = None,
) -> BSeries:
    """M(z_1..z_s): coefficient at (i_1..i_n) is the tuple moment."""
    order = _check_vars(vars_)
    d = _resolve_degree(functional, degree)
    _require_word_cap(functional, vars_, d)
    coeffs = {
        w: t_moment(functional, vars_, w)
        for w in all_index_words(len(vars_), d)
    }
    return BSeries(len(vars_), order, d, coeffs)


def r_transform(
    functional: MomentFunctional,
    vars_: Sequence[TVariable],
    degree: int | None = None,
) -> BSeries:
    """R(z_1..z_s): coefficient at (i_1..i_n) is the tuple cumulant."""
    order = _check_vars(vars_)
    d = _resolve_degree(functional, degree)
    _require_word_cap(functional, vars_, d)
    coeffs = {
        w: t_cumulant(functional, vars_, w)
        for w in all_index_words(len(vars_), d)
    }
    return BSeries(len(vars_), order, d, coeffs)


def _nc_block_product(
    series: BSeries, word: IndexWord, pi: nc_lattice.NcPartition
) -> BScalar:
    """Product over blocks of pi (by block minimum) of the coefficients of
    series at the subwords of word."""
    result = BScalar.one(series.order)
    for block in pi.blocks:
        result = b_mul(result, series.coef(_subword(word, block)))
        if result.is_zero():
            break
    return result


def moments_from_r(r: BSeries) -> BSeries:
    """The zeta direction: M-coef(w) = sum over NC(n) of the block
    products of R-coefficients."""
    coeffs: dict[IndexWord, BScalar] = {}
    for word in all_index_words(r.s, r.degree):
        total = BScalar.zero(r.order)
        for pi in nc_lattice.enumerate_nc(len(word)):
            total = total + _nc_block_product(r, word, pi)
        coeffs[word] = total
    return BSeries(r.s, r.order, r.degree, coeffs)


def r_from_moments(m: BSeries) -> BSeries:
    """The mu direction: R-coef(w) = sum over NC(n) of block products of
    M-coefficients weighted by mu(pi, 1_n); inverts moments_from_r."""
    coeffs: dict[IndexWord, BScalar] = {}
    for word in all_index_words(m.s, m.degree):
        lat = nc_lattice.lattice(len(word))
        mu_top = lat.mu_to_top()
        total = BScalar.zero(m.order)
        for at, pi in enumerate(lat.elements):
            weight = mu_top[at]
            if not weight:
                continue
            total = total + _nc_block_product(m, word, pi).scale(weight)
        coeffs[word] = total
    return BSeries(m.s, m.order, m.degree, coeffs)


def series_add(f: BSeries, g: BSeries) -> BSeries:
    """Coefficientwise B-sum of two series of identical shape."""
    _require_same_shape(f, g)
    coeffs: dict[IndexWord, BScalar] = dict(f.items())
    for word, value in g.items():
        coeffs[word] = coeffs.get(word, BScalar.zero(f.order)) + value
    return BSeries(f.s, f.order, f.degree, coeffs)


def boxed_convolution(f: BSeries, g: BSeries) -> BSeries:
    """(f boxtimes g)-coef(w) = sum over pi in NC(n) of
    [prod over blocks of pi of f] . [prod over blocks of Kr(pi) of g]."""
    _require_same_shape(f, g)
    coeffs: dict[IndexWord, BScalar] = {}
    for word in all_index_words(f.s, f.degree):
        total = BScalar.zero(f.order)
        for pi in nc_lattice.enumerate_nc(len(word)):
            left = _nc_block_product(f, word, pi)
            if left.is_zero():
                continue
            right = _nc_block_product(g, word, nc_lattice.kreweras(pi))
            total = total + b_mul(left, right)
        coeffs[word] = total
    return BSeries(f.s, f.order, f.degree, coeffs)


def boxed_identity(s: int, order: int, degree: int) -> BSeries:
    """The unit for boxed convolution: coefficient (1,0,...,0) at every
    degree-1 word and nothing else (the R-transform of unit tuples)."""
    coeffs = {
        (i,): BScalar.one(order) for i in range(1, s + 1)
    }
    return BSeries(s, order, degree, coeffs)


@dataclass(frozen=True)
class FreenessReport:
    free: bool
    witness: IndexWord | None


def check_freeness(
    functional: MomentFunctional,
    group_a: Sequence[TVariable],
    group_b: Sequence[TVariable],
    degree: int | None = None,
) -> FreenessReport:
    """Whether all mixed cumulants across the two groups vanish.

    Scans every index word of length 2..D over the concatenated family
    (group_a indices first), shortest first and lexicographically within a
    length, and returns the first word with a nonzero cumulant as witness.
    """
    if not group_a or not group_b:
        raise ValueError("both groups must be nonempty")
    combined = list(group_a) + list(group_b)
    _check_vars(combined)
    d = _resolve_degree(functional, degree)
    cut = len(group_a)
    for word in all_index_words(len(combined), d):
        if len(word) < 2:
            continue
        uses_a = any(i <= cut for i in word)
        uses_b = any(i > cut for i in word)
        if not (uses_a and uses_b):
            continue
        if not t_cumulant(functional, combined, word).is_zero():
            return FreenessReport(False, word)
    return FreenessReport(True, None)


def check_even(
    functional: MomentFunctional,
    x: TVariable,
    degree: int | None = None,
) -> bool:
    """Whether every odd cumulant K_n(X,...,X), n <= D, vanishes.

    Computed twice, from cumulants and from moments E(X^n); the two
    characterizations are equivalent degree by degree, so a disagreement
    can only mean an engine bug and raises InternalConsistencyError.
    """
    d = _resolve_degree(functional, degree)
    odd = range(1, d + 1, 2)
    by_cumulants = all(
        t_cumulant(functional, [x], (1,) * n).is_zero() for n in odd
    )
    by_moments = all(
        t_moment(functional, [x], (1,) * n).is_zero() for n in odd
    )
    if by_cumulants != by_moments:
        raise InternalConsistencyError(
            "odd-cumulant and odd-moment evenness tests disagree"
        )
    return by_cumulants


def even_cumulant_restricted(
    functional: MomentFunctional,
    x: TVariable,
    m: int,
) -> BScalar:
    """K_m(X,...,X) computed from even-block partitions only.

    For an even variable the Möbius sum over NC(m) loses nothing when
    restricted to partitions all of whose blocks have even size; this
    computes the restricted sum and verifies it against the full cumulant
    before returning it.
    """
    if m < 1 or m % 2:
        raise OddLength(f"restricted cumulant needs even m, got {m}")
    _resolve_degree(functional, m)
    if not check_even(functional, x, m):
        raise NotEven("variable has a nonvanishing odd moment or cumulant")
    lat = nc_lattice.lattice(m)
    mu_top = lat.mu_to_top()
    total = BScalar.zero(x.order)
    for pi in nc_lattice.enumerate_nc_even(m):
        weight = mu_top[lat.index[pi]]
        if not weight:
            continue
        product_ = BScalar.one(x.order)
        for block in pi.blocks:
            product_ = b_mul(
                product_, t_moment(functional, [x], (1,) * len(block))
            )
            if product_.is_zero():
                break
        total = total + product_.scale(weight)
    full = t_cumulant(functional, [x], (1,) * m)
    if total != full:
        raise InternalConsistencyError(
            "even-block restricted cumulant differs from the full cumulant"
        )
    return total


def family_assignment(
    functional: MomentFunctional,
    named_vars: Mapping[str, TVariable],
) -> dict[str, frozenset[str]]:
    """The scalar families each variable's entries are built over."""
    out: dict[str, frozenset[str]] = {}
    for name, var in named_vars.items():
        families: set[str] = set()
        for entry in var.entries:
            for gen_id in entry.generator_ids():
                families.add(functional.generators[gen_id].family)
        out[name] = frozenset(families)
    return out


@dataclass(frozen=True)
class PatternRow:
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


def free_family_sparsity(
    functional: MomentFunctional,
    a: TVariable,
    degree: int | None = None,
) -> tuple[BSeries, list[PatternRow]]:
    """R_A for A = (a_1, ..., a_N) with free single-generator entries.

    Requires every entry to be a bare generator and the entries' families
    to be pairwise distinct singletons (so the a_j are free). Then entry j
    of the degree-n coefficient of R_A is k_n(a_m, ..., a_m) when n
    divides j-1 with m = (j-1)/n + 1, and zero otherwise; in particular
    the degree-1 coefficient is (phi(a_1), ..., phi(a_N)) and every
    coefficient of degree n >= N is supported only in entry 1. The
    computed series is verified against this pattern entry by entry
    (a mismatch would mean an engine bug), and the pattern is returned as
    rows naming the source generator of each nonzero slot.
    """
    gen_ids: list[str] = []
    for j, entry in enumerate(a.entries, start=1):
        terms = entry.terms
        if (
            len(terms) != 1
            or terms[0][1] != 1
            or len(terms[0][0]) != 1
        ):
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
            value = coef.entries[j - 1]
            source: str | None = None
            expected = Fraction(0)
            if (j - 1) % n == 0:
                m = (j - 1) // n + 1
                source = gen_ids[m - 1]
                expected = functional.cumulant_of_ids((source,) * n)
            if value != expected:
                raise InternalConsistencyError(
                    f"sparsity pattern violated at degree {n}, entry {j}: "
                    f"computed {value}, pattern gives {expected}"
                )
            rows.append(PatternRow(n, j, source, value))
    return series, rows


def symm_r_transform(
    functional: MomentFunctional,
    vars_: Sequence[TVariable],
    b0: BScalar,
    degree: int | None = None,
) -> BSeries:
    """The b0-symmetric R-transform: each degree-n coefficient is the
    tuple cumulant multiplied by b0^(n-1) (b0 is central, so the
    interleaved insertions collapse to a single power)."""
    order = _check_vars(vars_)
    if b0.order != order:
        raise DimensionMismatch(
            f"b0 has order {b0.order}, variables have order {order}"
        )
    d = _resolve_degree(functional, degree)
    _require_word_cap(functional, vars_, d)
    coeffs: dict[IndexWord, BScalar] = {}
    for word in all_index_words(len(vars_), d):
        coeffs[word] = b_mul(
            b_pow(b0, len(word) - 1),
            t_cumulant(functional, vars_, word),
        )
    return BSeries(len(vars_), order, d, coeffs)


def compress_r_transform(r: BSeries, alpha0: RationalLike) -> BSeries:
    """The R-transform after compression by a trace-alpha0 projection:
    each degree-n coefficient is scaled by alpha0^(n-1)."""
    alpha = as_fraction(alpha0)
    if alpha == 0:
        raise ZeroTrace("compression needs a projection of nonzero trace")
    coeffs = {
        word: value.scale(alpha ** (len(word) - 1))
        for word, value in r.items()
    }
    return BSeries(r.s, r.order, r.degree, coeffs)
