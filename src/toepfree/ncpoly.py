"""Noncommutative polynomials over abstract generators, plus a parser.

The model algebra A is the free unital algebra on a declared set of
generators: elements are finite rational linear combinations of words
(sequences of generator ids), multiplied by word concatenation. A small
recursive-descent parser turns expression strings into polynomials.

Everything here is immutable and exact. A polynomial is stored as one
positive common denominator and integer numerators, so that products and
sums run on integers with a single reduction per result; ``terms`` and
``coeff`` give its coefficients as ``Fraction``s. Every rational the
engine reads, a literal, an int or a Fraction, becomes a pair of integers
(``_ratio``), so no module imports ``fractions`` until a Fraction is
asked for.
"""

from __future__ import annotations

import re
import sys
from math import gcd, lcm
from typing import (TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple,
                    NoReturn, TypeAlias)

from .errors import EngineError

if TYPE_CHECKING:
    from fractions import Fraction

#: A word is a tuple of generator ids; the empty word is the unit of A.
Word = tuple[str, ...]

#: a string, so that no module imports fractions to define it
RationalLike: TypeAlias = "Fraction | int | str"


class Generator(NamedTuple("Generator", [("id", str), ("family", str)])):
    """An abstract generator of the model algebra, tagged with its family."""

    __slots__ = ()

    def __new__(cls, id: str, family: str) -> "Generator":
        if not id:
            raise ValueError("generator id must be nonempty")
        if not family:
            raise ValueError(f"generator {id!r} has empty family")
        return super().__new__(cls, id, family)


def _ratio(value: RationalLike | tuple[int, int]) -> tuple[int, int]:
    """value as integers (p, q), q > 0, with value p/q, not always in
    lowest terms: from an int, a Fraction or a 'p'/'p/q' string. A pair
    with q > 0 is returned as it is: the engine passes its own pairs
    through here."""
    if isinstance(value, str):
        return _parse_ratio(value)
    if isinstance(value, tuple) and value[1] > 0:
        return value
    try:  # an int or a Fraction, read without importing fractions
        return value.numerator, value.denominator
    except AttributeError:
        raise TypeError(f"not an exact rational: {value!r}") from None


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p'/'p/q' string to an exact rational."""
    from fractions import Fraction

    return Fraction(*_ratio(value))


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with integer p and positive integer q."""
    from fractions import Fraction

    return Fraction(*_parse_ratio(text))


def _parse_ratio(text: str) -> tuple[int, int]:
    """parse_rational of text as integers (p, q). A literal that int()
    refuses is named by its length when it is long: it may be valid, but
    longer than the interpreter converts."""
    num, slash, den = text.strip().partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError:
        shown = repr(text) if len(text) <= 80 else f"of {len(text)} characters"
        raise ValueError(f"bad rational literal {shown}") from None
    if q == 0:
        raise ZeroDenominatorError(f"zero denominator in {text!r}")
    if q < 0:
        raise ValueError(f"denominator must be positive in {text!r}")
    return p, q


def format_rational(value: Fraction) -> str:
    """Render exactly, as 'p' for integers and 'p/q' otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class NcPolynomial:
    """A finite rational linear combination of words, in canonical form.

    Stored as one positive denominator D and a table {word: n_w} of
    nonzero integer numerators, the coefficient of w being n_w / D, with
    no factor common to D and every n_w; equal polynomials hold equal
    data. ``terms`` is the same polynomial as (word, Fraction) pairs
    ordered by degree, then lexicographically on letters, built on first
    use. Instances are immutable and hashable (they serve as memo keys
    throughout the engine).
    """

    __slots__ = ("denominator", "numerators", "_terms", "_hash")

    #: the common denominator D > 0
    denominator: int
    #: the nonzero integer numerators, read only: word w has coefficient
    #: n_w / D
    numerators: Mapping[Word, int]

    def __init__(self, terms: Mapping[Word, RationalLike] | None = None):
        ratios = {tuple(w): _ratio(c) for w, c in (terms or {}).items()}
        den = lcm(*(q for _, q in ratios.values()))
        _store(self, den, {w: p * (den // q) for w, (p, q) in ratios.items() if p})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("NcPolynomial is immutable")

    @staticmethod
    def zero() -> "NcPolynomial":
        return _ZERO

    @staticmethod
    def one() -> "NcPolynomial":
        return _ONE

    @staticmethod
    def constant(value: RationalLike) -> "NcPolynomial":
        return NcPolynomial({(): value})

    @staticmethod
    def generator(gen_id: str) -> "NcPolynomial":
        return _from_ints(1, {(gen_id,): 1})

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

    def degree(self) -> int:
        """Maximum word length; 0 for constants and for the zero polynomial."""
        return max(map(len, self.numerators), default=0)

    def is_zero(self) -> bool:
        return not self.numerators

    def __iter__(self) -> Iterator[tuple[Word, Fraction]]:
        return iter(self.terms)

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        return (
            self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        if self._hash is None:
            key = (self.denominator, frozenset(self.numerators.items()))
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        return poly_add(self, other)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return poly_add(self, poly_scale(-1, other))

    def __neg__(self) -> "NcPolynomial":
        return poly_scale(-1, self)

    def __mul__(self, other: "NcPolynomial") -> "NcPolynomial":
        return poly_mul(self, other)

    def __rmul__(self, scalar: RationalLike) -> "NcPolynomial":
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


def _store(poly: NcPolynomial, den: int, nums: dict[Word, int]) -> None:
    """Fill poly with den > 0 and the nonzero nums, divided by their
    common factor."""
    common = gcd(den, *nums.values())
    if common != 1:
        den //= common
        nums = {w: n // common for w, n in nums.items()}
    object.__setattr__(poly, "denominator", den)
    object.__setattr__(poly, "numerators", nums)
    object.__setattr__(poly, "_terms", None)
    # hashed on first use: most products are never memo keys
    object.__setattr__(poly, "_hash", None)


def _from_ints(den: int, nums: dict[Word, int]) -> NcPolynomial:
    poly = object.__new__(NcPolynomial)
    _store(poly, den, nums)
    return poly


_ZERO = NcPolynomial()
_ONE = _from_ints(1, {(): 1})


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


def poly_mul(p: NcPolynomial, q: NcPolynomial) -> NcPolynomial:
    """Free-algebra product: word concatenation, extended bilinearly."""
    return poly_sum_of_products(((p, q),))


def poly_sum_of_products(
    pairs: Iterable[tuple[NcPolynomial, NcPolynomial]]
) -> NcPolynomial:
    """The sum of p * q over the pairs, in integers.

    D is the lcm of the pairs' denominators Dp * Dq; each pair's products
    of numerators are brought to it by the one factor D // (Dp * Dq) and
    collected in one term table, and only the result is reduced.
    """
    pairs = [(p, q) for p, q in pairs if p.numerators and q.numerators]
    den = lcm(*(p.denominator * q.denominator for p, q in pairs))
    total: dict[Word, int] = {}
    get = total.get
    for p, q in pairs:
        right = tuple(q.numerators.items())
        scale = den // (p.denominator * q.denominator)
        for w1, n1 in p.numerators.items():
            n1 *= scale
            for w2, n2 in right:
                word = w1 + w2
                total[word] = get(word, 0) + n1 * n2
    return _from_ints(den, {w: n for w, n in total.items() if n})


# --------------------------------------------------------------------------
# Expression parser
#
# expr   := ['-'] term (('+' | '-') term)*
# term   := factor ('*' factor)*
# factor := rational-literal | identifier | '(' expr ')'
#
# Rational literals are 'p' or 'p/q' (integer p, positive integer q);
# identifiers are [A-Za-z_][A-Za-z0-9_]* and must be declared generators.
# Whitespace is insignificant; multiplication preserves written order.
# --------------------------------------------------------------------------


class ExpressionError(EngineError):
    """Base class for expression-string problems; carries a position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class LexicalError(ExpressionError):
    """A character that belongs to no token."""


class ParseError(ExpressionError):
    """Token stream does not match the grammar."""


class UnknownSymbolError(ExpressionError):
    """An identifier that is not a declared generator."""


class ZeroDenominatorError(ExpressionError):
    """A rational literal with denominator zero."""


#: a token: (kind, text, position), kind one of 'int', 'ident', 'op' and
#: 'end', which closes every token list, with empty text at the length
_Token: TypeAlias = "tuple[str, str, int]"

#: after any space: digits (exactly those int() reads), an identifier, an
#: operator, or any other character, which is refused
_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d]\w*)|([-+*/()])|(\S))")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(text):
        kind, at = match.lastindex, match.start(match.lastindex)
        if kind == 4:
            raise LexicalError(f"bad character {match[4]!r} at position {at}", at)
        tokens.append((("int", "ident", "op")[kind - 1], match[kind], at))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over a token list; an operator is known by its
    text alone, which no other kind of token can have."""

    def __init__(self, tokens: list[_Token], symbols: frozenset[str]):
        self.tokens = tokens
        self.symbols = symbols
        self.pos = 0

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        """The next token, consumed unless it is the end."""
        tok = self._peek()
        self.pos += tok[0] != "end"
        return tok

    def _fail(self, message: str, at: int | None = None) -> NoReturn:
        """Raise ParseError at position at, by default the next token's."""
        at = self._peek()[2] if at is None else at
        raise ParseError(f"{message} at position {at}", at)

    def parse(self) -> NcPolynomial:
        result = self.expr()
        kind, text, _ = self._peek()
        if kind != "end":
            self._fail(f"unexpected {text!r}")
        return result

    def expr(self) -> NcPolynomial:
        negate = self._peek()[1] == "-"
        self.pos += negate
        total = self.term()
        if negate:
            total = poly_scale(-1, total)
        while (op := self._peek()[1]) in ("+", "-"):
            self._next()
            rhs = self.term()
            total = poly_add(total, rhs if op == "+" else poly_scale(-1, rhs))
        return total

    def term(self) -> NcPolynomial:
        product = self.factor()
        while self._peek()[1] == "*":
            self._next()
            product = poly_mul(product, self.factor())
        return product

    def factor(self) -> NcPolynomial:
        kind, text, at = self._next()
        if kind == "end":
            self._fail("unexpected end of expression")
        if kind == "int":
            return self._rational(text, at)
        if kind == "ident":
            if text not in self.symbols:
                raise UnknownSymbolError(
                    f"unknown symbol {text!r} at position {at}", at
                )
            return NcPolynomial.generator(text)
        if text == "(":
            inner = self.expr()
            _, closing, at = self._next()
            if closing != ")":
                self._fail("expected ')'", at)
            return inner
        self._fail(f"unexpected {text!r}", at)

    def _rational(self, text: str, at: int) -> NcPolynomial:
        numerator, denominator = self._int(text, at), 1
        if self._peek()[1] == "/":
            self._next()
            kind, text, at = self._next()
            if kind != "int":
                self._fail("expected integer denominator after '/'")
            denominator = self._int(text, at)
            if denominator == 0:
                raise ZeroDenominatorError(f"zero denominator at position {at}", at)
        return NcPolynomial.constant((numerator, denominator))

    def _int(self, digits: str, at: int) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than the interpreter converts
            self._fail(f"integer of {len(digits)} digits exceeds the limit of "
                       f"{sys.get_int_max_str_digits()} digits", at)


def parse_expr(
    text: str, symbols: Iterable[Generator | str]
) -> NcPolynomial:
    """Parse an expression string over the declared generators.

    ``symbols`` may contain Generator objects or bare id strings. Raises
    LexicalError, ParseError, UnknownSymbolError, or ZeroDenominatorError,
    each carrying the offending position.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    ids = frozenset(
        s.id if isinstance(s, Generator) else str(s) for s in symbols
    )
    parser = _Parser(_tokenize(text), ids)
    try:
        return parser.parse()
    except RecursionError:
        pass  # raised below, outside the handler, so no traceback is chained
    parser._fail("expression nested too deeply")
