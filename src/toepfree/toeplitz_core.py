"""The Toeplitz matricial algebra C^N and its probability space.

A BScalar is an N-tuple of rationals with entrywise sum and the truncated
convolution product whose j-th entry is sum_{k=1}^{j} a_k b_{j+1-k}; it is
isomorphic to the algebra of N x N upper-triangular Toeplitz matrices and
is commutative. It is stored as one positive common denominator and N
integer numerators, so that sums and products run on integers with a
single reduction per result; ``entries`` gives its entries as Fractions.
A TVariable is an N-tuple of noncommutative polynomials
with the same product shape; the conditional expectation E applies phi
entrywise. Moments of many index words are taken along a walk of the word
trie, so words that share a prefix share its chain product.

Cumulants of tuples follow the product recursion: entry j (0-based) of
K_n(X_1, ..., X_n) is the sum, over the compositions k_1 + ... + k_n = j,
of the scalar cumulants kappa_n(x^(1)_{k_1}, ..., x^(n)_{k_n}). The test
suite holds them against Möbius inversion over NC(n) with per-block
B-products of moments, and holds the product against an explicit matrix
embedding (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch, NonInvertible
from .ncpoly import (
    NcPolynomial,
    RationalLike,
    as_fraction,
    format_rational,
    poly_add,
    poly_scale,
    poly_sum_of_products,
)
from .scalar_space import MomentFunctional

IndexWord = tuple[int, ...]


class BScalar:
    """An element (a_1, ..., a_N) of the Toeplitz matricial algebra.

    Stored as one positive denominator ``den`` and a tuple ``nums`` of N
    integer numerators, a_j = nums[j-1] / den, with no factor common to
    den and every numerator; zero is (1, (0, ..., 0)), and equal elements
    hold equal data. ``entries`` is the same element as a tuple of
    Fractions, built on first use. Instances are immutable and hashable.
    """

    __slots__ = ("den", "nums", "_entries")

    #: the common denominator, > 0
    den: int
    #: the integer numerators: entry j is nums[j-1] / den
    nums: tuple[int, ...]

    def __init__(self, entries: Iterable[RationalLike]):
        fracs = [as_fraction(v) for v in entries]
        den = lcm(*(f.denominator for f in fracs))
        nums = tuple(f.numerator * (den // f.denominator) for f in fracs)
        _store(self, den, nums)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BScalar is immutable")

    @staticmethod
    def of(values: Iterable[RationalLike]) -> "BScalar":
        return BScalar(values)

    @staticmethod
    def one(order: int) -> "BScalar":
        return _reduced(1, (1,) + (0,) * (order - 1))

    @staticmethod
    def zero(order: int) -> "BScalar":
        return _reduced(1, (0,) * order)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        if self._entries is None:
            den = self.den
            entries = tuple(Fraction(n, den) for n in self.nums)
            object.__setattr__(self, "_entries", entries)
        return self._entries

    @property
    def order(self) -> int:
        return len(self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def scale(self, c: RationalLike) -> "BScalar":
        frac = as_fraction(c)
        nums = tuple(frac.numerator * n for n in self.nums)
        return _reduced(self.den * frac.denominator, nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BScalar):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.den, self.nums))

    def __add__(self, other: "BScalar") -> "BScalar":
        return b_add(self, other)

    def __sub__(self, other: "BScalar") -> "BScalar":
        return b_add(self, other.scale(-1))

    def __mul__(self, other: "BScalar") -> "BScalar":
        return b_mul(self, other)

    def to_json_obj(self) -> list[str]:
        return [format_rational(x) for x in self.entries]

    def __repr__(self) -> str:
        return f"BScalar({self})"

    def __str__(self) -> str:
        return "(" + ", ".join(format_rational(x) for x in self.entries) + ")"


def _store(b: BScalar, den: int, nums: tuple[int, ...]) -> None:
    """Fill b with den > 0 and nums, divided by their common factor."""
    common = gcd(den, *nums)
    if common != 1:
        den //= common
        nums = tuple([n // common for n in nums])
    object.__setattr__(b, "den", den)
    object.__setattr__(b, "nums", nums)
    object.__setattr__(b, "_entries", None)


def _reduced(den: int, nums: tuple[int, ...]) -> BScalar:
    b = object.__new__(BScalar)
    _store(b, den, nums)
    return b


def _require_same_order(x: BScalar | "TVariable", y: BScalar | "TVariable") -> None:
    if x.order != y.order:
        raise DimensionMismatch(
            f"tuple lengths differ: {x.order} vs {y.order}"
        )


def b_add(x: BScalar, y: BScalar) -> BScalar:
    """Entrywise sum, over the lcm of the two denominators."""
    xs, ys = x.nums, y.nums
    if len(xs) != len(ys):
        _require_same_order(x, y)
    dx, dy = x.den, y.den
    den = lcm(dx, dy)
    sx, sy = den // dx, den // dy
    return _reduced(den, tuple([a * sx + b * sy for a, b in zip(xs, ys)]))


def b_mul(x: BScalar, y: BScalar) -> BScalar:
    """Convolution product: j-th entry sum_{k=1}^{j} x_k y_{(j+1)-k}, on
    the integer numerators over the product of the denominators."""
    xs, ys = x.nums, y.nums
    n = len(xs)
    if n != len(ys):
        _require_same_order(x, y)
    nums = [0] * n
    for i, a in enumerate(xs):
        if a:
            for j in range(i, n):
                nums[j] += a * ys[j - i]
    return _reduced(x.den * y.den, tuple(nums))


def b_pow(x: BScalar, exponent: int) -> BScalar:
    """x to a nonnegative integer power; x^0 is the unit."""
    if exponent < 0:
        raise ValueError("negative powers not supported; use b_inv first")
    result = BScalar.one(x.order)
    for _ in range(exponent):
        result = b_mul(result, x)
    return result


def b_inv(x: BScalar) -> BScalar:
    """Convolution inverse, by forward substitution on the triangular system.

    Requires a nonzero first entry; otherwise the element is not invertible
    (its matrix form has a zero diagonal). With x = a / D, the inverse is
    D e / a_0^N for the integers e with a e = a_0^N: e_0 = a_0^(N-1) and
    e_j = -(sum_{k=1}^{j} a_k e_{j-k}) / a_0, a division that is exact.
    """
    a = x.nums
    a0 = a[0]
    if a0 == 0:
        raise NonInvertible("first entry is zero; no convolution inverse")
    n = len(a)
    e = [a0 ** (n - 1)]
    for j in range(1, n):
        e.append(-sum(a[k] * e[j - k] for k in range(1, j + 1)) // a0)
    den = a0**n
    sign = 1 if den > 0 else -1
    return _reduced(sign * den, tuple(sign * x.den * v for v in e))


@dataclass(frozen=True)
class TVariable:
    """An N-tuple of polynomials: a B-valued random variable."""

    entries: tuple[NcPolynomial, ...]

    @staticmethod
    def of(entries: Iterable[NcPolynomial]) -> "TVariable":
        return TVariable(tuple(entries))

    @staticmethod
    def from_bscalar(b: BScalar) -> "TVariable":
        return TVariable(
            tuple(NcPolynomial.constant(x) for x in b.entries)
        )

    @staticmethod
    def unit(order: int) -> "TVariable":
        return TVariable.from_bscalar(BScalar.one(order))

    @staticmethod
    def zero(order: int) -> "TVariable":
        return TVariable.from_bscalar(BScalar.zero(order))

    @property
    def order(self) -> int:
        return len(self.entries)

    def __add__(self, other: "TVariable") -> "TVariable":
        return t_add(self, other)

    def __mul__(self, other: "TVariable") -> "TVariable":
        return t_mul(self, other)

    def scale(self, c: RationalLike) -> "TVariable":
        return TVariable(tuple(poly_scale(c, p) for p in self.entries))

    def to_json_obj(self) -> list[list[dict[str, object]]]:
        return [p.to_json_obj() for p in self.entries]

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.entries) + ")"


def t_add(x: TVariable, y: TVariable) -> TVariable:
    """Entrywise sum."""
    _require_same_order(x, y)
    return TVariable(
        tuple(poly_add(a, b) for a, b in zip(x.entries, y.entries))
    )


def t_mul(x: TVariable, y: TVariable) -> TVariable:
    """Toeplitz product: j-th entry sum_{k=1}^{j} x_k y_{(j+1)-k}.

    Iterating this over a chain of factors produces exactly the P_j
    polynomials of the product recursion.
    """
    _require_same_order(x, y)
    xs, ys = x.entries, y.entries
    return TVariable(
        tuple(
            poly_sum_of_products((xs[k], ys[j - k]) for k in range(j + 1))
            for j in range(x.order)
        )
    )


def chain_product(vars_: Sequence[TVariable]) -> TVariable:
    """Left-associated t_mul chain; entries are the P_j polynomials."""
    if not vars_:
        raise ValueError("empty product chain")
    return reduce(t_mul, vars_)


def expect(functional: MomentFunctional, x: TVariable) -> BScalar:
    """E(a_1, ..., a_N) = (phi(a_1), ..., phi(a_N))."""
    return BScalar(tuple(functional.phi(p) for p in x.entries))


def _select(vars_: Sequence[TVariable], idx: Sequence[int]) -> list[TVariable]:
    if not idx:
        raise ValueError("index word must be nonempty")
    chosen: list[TVariable] = []
    for i in idx:
        if not 1 <= i <= len(vars_):
            raise ValueError(
                f"index {i} outside 1..{len(vars_)} in index word {tuple(idx)}"
            )
        chosen.append(vars_[i - 1])
    first = chosen[0]
    for other in chosen[1:]:
        _require_same_order(first, other)
    return chosen


def t_moments(
    functional: MomentFunctional,
    vars_: Sequence[TVariable],
    words: Iterable[Sequence[int]],
) -> Iterator[BScalar]:
    """The moment of each index word in turn: E of its product chain.

    The chain products of the last word's prefixes are kept, and each word
    reuses those of the prefix it shares with the word before, so it costs
    one t_mul per letter past that prefix. Given in lexicographic order (a
    preorder of the word trie), the words cost one t_mul per trie node
    below the first level, and no more products are alive at once than the
    longest word has letters.
    """
    path: list[TVariable] = []  # path[k]: product of the first k+1 factors
    last: Sequence[int] = ()
    for idx in words:
        chosen = _select(vars_, idx)
        shared = 0
        for a, b in zip(last, idx):
            if a != b:
                break
            shared += 1
        del path[shared:]
        if not path:
            path.append(chosen[0])
        for factor in chosen[len(path):]:
            path.append(t_mul(path[-1], factor))
        last = idx
        yield expect(functional, path[-1])


def t_moment(
    functional: MomentFunctional,
    vars_: Sequence[TVariable],
    idx: Sequence[int],
) -> BScalar:
    """The (i_1, ..., i_n)-th moment: E of the product chain."""
    return next(t_moments(functional, vars_, (idx,)))


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every tuple of ``parts`` nonnegative integers summing to ``total``,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def composition_terms(
    chain: Sequence[TVariable], j: int
) -> Iterator[tuple[NcPolynomial, ...]]:
    """The argument sequences behind entry j (0-based) of a product chain.

    One sequence (x^(1)_{k_1}, ..., x^(n)_{k_n}) per composition
    k_1 + ... + k_n = j, skipping those with a zero entry: the terms of the
    formal sum Q_j of the product recursion. Multiplying out each sequence
    and summing gives entry j of ``chain_product(chain)``.
    """
    for ks in compositions(j, len(chain)):
        seq = tuple(x.entries[k] for x, k in zip(chain, ks))
        if all(seq):
            yield seq


def t_cumulant(
    functional: MomentFunctional,
    vars_: Sequence[TVariable],
    idx: Sequence[int],
) -> BScalar:
    """The (i_1, ..., i_n)-th cumulant, summed over compositions.

    Entry j is the sum of the scalar multilinear cumulants of the
    ``composition_terms`` of entry j.
    """
    chosen = _select(vars_, idx)
    return BScalar(
        tuple(
            sum(
                map(functional.cumulant, composition_terms(chosen, j)),
                Fraction(0),
            )
            for j in range(chosen[0].order)
        )
    )
