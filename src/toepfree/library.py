"""The library's views of the integer core, which no moments, cumulants,
R-transform or freeness query of the CLI calls.

The core modules hold every value in integers and run the CLI's hot
queries on them; an element of B is a pair of integers (den, nums)
there. This module holds what a program built on the library reads on
top of that core: ``BScalar``, an element of B as one value, with
``b_add`` and ``b_mul``; the Fraction views and the formatting of
polynomials and of variables; their comparison and operators; the
BSeries constructor from a mapping of BScalars, its readers, its
comparison and its JSON reader; ``poly_add``, ``poly_scale``, ``t_mul``
and ``t_cumulant``; ``builtin_distribution`` and the Fraction views of a
MomentFunctional; ``as_fraction`` and ``format_rational``. Each Fraction
view imports ``fractions`` when it is called, so that the rest loads no
``fractions``.

Each class and function here is read from its home module, ``ncpoly``,
``scalar_space`` or ``toeplitz_core``, through that module's
``__getattr__`` (PEP 562), and each method through a deferred class
attribute (``toepfree._defer``) that binds the method defined on the
namespace class of the same name with a leading underscore below. The
package's other modules import from here only inside the routines that
read a view. So a process executes this module on its first read of one
of them, and a CLI query of moments, cumulants, an R-transform or
freeness never does.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NoReturn, Sequence

from .errors import DimensionMismatch
from .ncpoly import (
    _ONE,
    NcPolynomial,
    RationalLike,
    Word,
    _from_ints,
    _ratio,
    poly_mul,
    poly_sum_of_products,
)
from .scalar_space import DEFAULT_DEGREE, MomentFunctional, _distribution
from .toeplitz_core import (
    BSeries,
    IndexWord,
    TVariable,
    _convolve,
    _fill,
    _json_entries,
    t_cumulants,
)

if TYPE_CHECKING:
    from fractions import Fraction


def _immutable(self: object, name: str, value: object) -> NoReturn:
    raise AttributeError(f"{type(self).__name__} is immutable")


# --------------------------------------------------------------------------
# ncpoly
# --------------------------------------------------------------------------


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p'/'p/q' string to an exact rational."""
    from fractions import Fraction

    return Fraction(*_ratio(value))


def format_rational(value: Fraction) -> str:
    """Render exactly, as 'p' for integers and 'p/q' otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


_ZERO = NcPolynomial()


def poly_add(p: NcPolynomial, q: NcPolynomial) -> NcPolynomial:
    """Coefficientwise sum, over the lcm of the two denominators."""
    den = lcm(p.denominator, q.denominator)
    sp, sq = den // p.denominator, den // q.denominator
    total = {w: sp * n for w, n in p.numerators.items()}
    for w, n in q.numerators.items():
        total[w] = total.get(w, 0) + sq * n
    return _from_ints(den, {w: n for w, n in total.items() if n})


def poly_scale(c: RationalLike, p: NcPolynomial) -> NcPolynomial:
    """Scalar multiple c * p."""
    a, q = _ratio(c)
    if not a:
        return _ZERO
    return _from_ints(p.denominator * q, {w: a * n for w, n in p.numerators.items()})


class _NcPolynomial:
    """NcPolynomial's methods that no CLI query calls."""

    __setattr__ = _immutable

    @staticmethod
    def zero() -> NcPolynomial:
        return _ZERO

    @staticmethod
    def one() -> NcPolynomial:
        return _ONE

    @property
    def terms(self) -> tuple[tuple[Word, Fraction], ...]:
        if self._terms is None:
            from fractions import Fraction

            den = self.denominator
            terms = [(w, Fraction(n, den)) for w, n in self.numerators.items()]
            terms.sort(key=lambda term: (len(term[0]), term[0]))
            object.__setattr__(self, "_terms", tuple(terms))
        return self._terms

    def coeff(self, word: Iterable[str]) -> Fraction:
        from fractions import Fraction

        return Fraction(self.numerators.get(tuple(word), 0), self.denominator)

    def is_zero(self) -> bool:
        return not self.numerators

    def __iter__(self) -> Iterator[tuple[Word, Fraction]]:
        return iter(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        return (
            self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        return hash((self.denominator, frozenset(self.numerators.items())))

    def __add__(self, other: NcPolynomial) -> NcPolynomial:
        return poly_add(self, other)

    def __sub__(self, other: NcPolynomial) -> NcPolynomial:
        return poly_add(self, poly_scale(-1, other))

    def __neg__(self) -> NcPolynomial:
        return poly_scale(-1, self)

    def __mul__(self, other: NcPolynomial) -> NcPolynomial:
        return poly_mul(self, other)

    def __rmul__(self, scalar: RationalLike) -> NcPolynomial:
        return poly_scale(scalar, self)

    def __repr__(self) -> str:
        return f"NcPolynomial({self})"

    def __str__(self) -> str:
        if not self.numerators:
            return "0"
        parts: list[str] = []
        for word, coeff in self.terms:
            body = "*".join(word)
            if not word:
                piece = format_rational(abs(coeff))
            elif abs(coeff) == 1:
                piece = body
            else:
                piece = f"{format_rational(abs(coeff))}*{body}"
            if not parts:
                parts.append(piece if coeff > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if coeff > 0 else f"- {piece}")
        return " ".join(parts)

    def to_json_obj(self) -> list[dict[str, object]]:
        return [
            {"word": list(word), "coeff": format_rational(coeff)}
            for word, coeff in self.terms
        ]


# --------------------------------------------------------------------------
# scalar_space
# --------------------------------------------------------------------------


def builtin_distribution(
    kind: str,
    gen_id: str,
    degree_cap: int = DEFAULT_DEGREE,
    **params: object,
) -> dict[tuple[str, ...], Fraction]:
    """The cumulant-table fragment of one generator for a named law.

    Kinds: ``semicircular`` (param ``variance``: k_2 = v), ``free_poisson``
    (param ``rate``: k_n = rate for every n <= degree_cap), ``constant``
    (param ``value``: k_1 = c), and ``custom`` (param ``cumulants``: a
    mapping from id-tuples to rationals, passed through).
    """
    from fractions import Fraction

    return {key: Fraction(*value) for key, value in
            _distribution(gen_id, degree_cap, {**params, "kind": kind}).items()
            if value[0]}


class _MomentFunctional:
    """MomentFunctional's methods that no CLI query calls."""

    @cached_property
    def families(self) -> dict[str, dict[tuple[str, ...], Fraction]]:
        """The cumulant table of each family, as Fractions, built on the
        first read."""
        from fractions import Fraction

        return {family: {key: Fraction(*r) for key, r in table.items()}
                for family, table in self._ratios.items()}

    def cumulant_words(self, words: tuple[Word, ...]) -> Fraction:
        """The cumulant with one plain word per slot: cumulant_numerator
        over den^m, m the letters of the words."""
        from fractions import Fraction

        return Fraction(self.cumulant_numerator(words),
                        self.den ** sum(map(len, words)))


# --------------------------------------------------------------------------
# toeplitz_core
# --------------------------------------------------------------------------


def _require_same_order(x: BScalar | TVariable, y: BScalar | TVariable) -> None:
    if x.order != y.order:
        raise DimensionMismatch(
            f"tuple lengths differ: {x.order} vs {y.order}"
        )


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

    def __new__(cls, entries: Iterable[RationalLike]) -> BScalar:
        ratios = [_ratio(v) for v in entries]
        den = lcm(*(q for _, q in ratios))
        return _reduced(den, [p * (den // q) for p, q in ratios])

    __setattr__ = _immutable

    @staticmethod
    def of(values: Iterable[RationalLike]) -> BScalar:
        return BScalar(values)

    @staticmethod
    def one(order: int) -> BScalar:
        return _reduced(1, (1,) + (0,) * (order - 1))

    @staticmethod
    def zero(order: int) -> BScalar:
        return _reduced(1, (0,) * order)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        if self._entries is None:
            from fractions import Fraction

            den = self.den
            entries = tuple(Fraction(n, den) for n in self.nums)
            object.__setattr__(self, "_entries", entries)
        return self._entries

    @property
    def order(self) -> int:
        return len(self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def scale(self, c: RationalLike) -> BScalar:
        p, q = _ratio(c)
        return _reduced(self.den * q, [p * n for n in self.nums])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BScalar):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.den, self.nums))

    def __add__(self, other: BScalar) -> BScalar:
        return b_add(self, other)

    def __sub__(self, other: BScalar) -> BScalar:
        return b_add(self, other.scale(-1))

    def __mul__(self, other: BScalar) -> BScalar:
        return b_mul(self, other)

    def __repr__(self) -> str:
        return f"BScalar({self})"

    def __str__(self) -> str:
        return "(" + ", ".join(_json_entries(self.den, self.nums)) + ")"

    def to_json_obj(self) -> list[str]:
        return _json_entries(self.den, self.nums)


def _lowest(den: int, nums: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """den > 0 and nums divided by their common factor: the one form of an
    element of B in lowest terms, zero being (1, (0, ..., 0))."""
    common = gcd(den, *nums)
    return den // common, tuple([n // common for n in nums])


def _reduced(den: int, nums: Sequence[int]) -> BScalar:
    """The BScalar of den > 0 and nums, in lowest terms: every BScalar is
    made here."""
    b = object.__new__(BScalar)
    den, nums = _lowest(den, nums)
    object.__setattr__(b, "den", den)
    object.__setattr__(b, "nums", nums)
    object.__setattr__(b, "_entries", None)
    return b


def b_mul(x: BScalar, y: BScalar) -> BScalar:
    """Convolution product: j-th entry sum_{k=1}^{j} x_k y_{(j+1)-k}, on
    the integer numerators over the product of the denominators."""
    _require_same_order(x, y)
    return _reduced(x.den * y.den, _convolve(x.nums, y.nums))


def b_add(x: BScalar, y: BScalar) -> BScalar:
    """Entrywise sum, over the lcm of the two denominators."""
    xs, ys = x.nums, y.nums
    if len(xs) != len(ys):
        _require_same_order(x, y)
    dx, dy = x.den, y.den
    den = lcm(dx, dy)
    sx, sy = den // dx, den // dy
    return _reduced(den, [a * sx + b * sy for a, b in zip(xs, ys)])


class _TVariable:
    """TVariable's methods that no CLI query calls."""

    __setattr__ = _immutable

    def __mul__(self, other: TVariable) -> TVariable:
        return t_mul(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TVariable):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def to_json_obj(self) -> list[list[dict[str, object]]]:
        return [p.to_json_obj() for p in self.entries]

    def __repr__(self) -> str:
        return f"TVariable({self})"

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.entries) + ")"


def t_mul(x: TVariable, y: TVariable) -> TVariable:
    """Toeplitz product: j-th entry sum_{k=1}^{j} x_k y_{(j+1)-k}.

    Iterating this over a chain of factors produces exactly the P_j
    polynomials of the product recursion.
    """
    _require_same_order(x, y)
    xs, ys = x.entries, y.entries
    return TVariable(
        poly_sum_of_products((xs[k], ys[j - k]) for k in range(j + 1))
        for j in range(x.order)
    )


def t_cumulant(
    functional: MomentFunctional,
    vars_: Sequence[TVariable],
    idx: Sequence[int],
) -> BScalar:
    """The (i_1, ..., i_n)-th cumulant: one word of ``t_cumulants``."""
    return _reduced(*next(t_cumulants(functional, vars_, (idx,))))


class _BSeries:
    """BSeries's methods that no CLI query calls."""

    def __init__(self, s: int, order: int, degree: int,
                 coefficients: Mapping[IndexWord, BScalar]):
        if s < 1:
            raise ValueError(f"need at least one indeterminate, got s={s}")
        if order < 1:
            raise ValueError(f"need a positive Toeplitz order, got {order}")
        if degree < 1:
            raise ValueError(f"need a positive degree bound, got {degree}")
        terms: dict[IndexWord, tuple[int, tuple[int, ...]]] = {}
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
                terms[word] = (value.den, value.nums)
        _fill(self, s, order, degree, terms, None)

    __setattr__ = _immutable

    def coef(self, word: Iterable[int]) -> BScalar:
        term = self._terms.get(tuple(word))
        if term is None:
            return BScalar.zero(self.order)
        return _reduced(*term)

    def items(self) -> list[tuple[IndexWord, BScalar]]:
        return [(w, self.coef(w)) for w in self.words()]

    def is_zero(self) -> bool:
        return not self._terms

    def _key(self) -> tuple[int, int, int, dict]:
        """s, order, degree and each word's (den, nums) in lowest terms,
        built without a BScalar: what == and hash compare."""
        terms = {word: _lowest(*term) for word, term in self._terms.items()}
        return self.s, self.order, self.degree, terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BSeries):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        *shape, terms = self._key()
        return hash((*shape, frozenset(terms.items())))

    @staticmethod
    def from_json_obj(obj: Mapping[str, object]) -> BSeries:
        coeffs = {
            tuple(int(i) for i in row["word"]): BScalar.of(row["value"])
            for row in obj["coefficients"]  # type: ignore[union-attr]
        }
        return BSeries(int(obj["s"]), int(obj["N"]), int(obj["D"]), coeffs)

    def __repr__(self) -> str:
        return (
            f"BSeries(s={self.s}, N={self.order}, D={self.degree}, "
            f"{len(self._terms)} coefficients)"
        )
