"""Noncommutative polynomials over abstract generators, plus a parser.

The model algebra A is the free unital algebra on a declared set of
generators: elements are finite rational linear combinations of words
(sequences of generator ids), multiplied by word concatenation. A small
recursive-descent parser turns expression strings into polynomials, in
time linear in the expression's length plus ``EXPANSION_CAP``: it
refuses a monomial longer than ``errors.MAX_DEGREE``, and an expression
whose products, sums and scalings would form more than ``EXPANSION_CAP``
terms beyond one per token, before it forms them.

Everything here is immutable and exact. A polynomial is stored as one
positive common denominator and integer numerators, so that products and
sums run on integers with a single reduction per result; ``terms`` and
``coeff`` give its coefficients as ``Fraction``s. Every rational the
engine reads, a literal, an int or a Fraction, becomes a pair of integers
(``_ratio``), so no module imports ``fractions`` until a Fraction is
asked for. The Fraction views, formatting, comparison and the operators
of ``NcPolynomial``, and ``poly_add``, ``poly_scale``, ``as_fraction`` and
``format_rational``, are defined in ``library`` and bound here on first
use, so that a query that calls none of them never compiles them.
"""

from __future__ import annotations

import re
import sys
from math import gcd, lcm
from typing import (TYPE_CHECKING, Iterable, Mapping, NamedTuple, NoReturn,
                    TypeAlias)

from . import _defer, _from_library
from .errors import MAX_DEGREE, EngineError

if TYPE_CHECKING:
    from fractions import Fraction

#: A word is a tuple of generator ids; the empty word is the unit of A.
Word = tuple[str, ...]

#: a string, so that no module imports fractions to define it
RationalLike: TypeAlias = "Fraction | int | str"

__getattr__ = _from_library(__name__, "as_fraction format_rational poly_add "
                                      "poly_scale")


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


class NcPolynomial:
    """A finite rational linear combination of words, in canonical form.

    Stored as one positive denominator D and a table {word: n_w} of
    nonzero integer numerators, the coefficient of w being n_w / D, with
    no factor common to D and every n_w; equal polynomials hold equal
    data. ``terms`` is the same polynomial as (word, Fraction) pairs
    ordered by degree, then lexicographically on letters, built on first
    use. Instances are immutable and hashable.
    """

    __slots__ = ("denominator", "numerators", "_terms")

    #: the common denominator D > 0
    denominator: int
    #: the nonzero integer numerators, read only: word w has coefficient
    #: n_w / D
    numerators: Mapping[Word, int]

    def __init__(self, terms: Mapping[Word, RationalLike] | None = None):
        ratios = {tuple(w): _ratio(c) for w, c in (terms or {}).items()}
        den = lcm(*(q for _, q in ratios.values()))
        _store(self, den, {w: p * (den // q) for w, (p, q) in ratios.items() if p})

    @staticmethod
    def constant(value: RationalLike) -> "NcPolynomial":
        return NcPolynomial({(): value})

    @staticmethod
    def generator(gen_id: str) -> "NcPolynomial":
        return _from_ints(1, {(gen_id,): 1})

    def degree(self) -> int:
        """Maximum word length; 0 for constants and for the zero polynomial."""
        return max(map(len, self.numerators), default=0)

    def __bool__(self) -> bool:
        return bool(self.numerators)


_defer(NcPolynomial, "__setattr__ zero one terms coeff is_zero __iter__ __eq__ "
                     "__hash__ __add__ __sub__ __neg__ __mul__ __rmul__ "
                     "__repr__ __str__ to_json_obj")


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


def _from_ints(den: int, nums: dict[Word, int]) -> NcPolynomial:
    poly = object.__new__(NcPolynomial)
    _store(poly, den, nums)
    return poly


_ONE = _from_ints(1, {(): 1})
_MINUS_ONE = _from_ints(1, {(): -1})


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
# Whitespace is insignificant; multiplication preserves written order. A
# monomial longer than MAX_DEGREE letters is refused with an
# ExpansionError, and so is an expression whose products, and whose sums
# and scalings of polynomials of more than one term, form more than
# EXPANSION_CAP terms in all: a parse writes at most EXPANSION_CAP terms
# beyond one per token.
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


class ExpansionError(ExpressionError):
    """A monomial longer than MAX_DEGREE letters, or an expression that
    forms more than EXPANSION_CAP terms."""


#: the most terms the parser forms in one expression, beyond one per token
EXPANSION_CAP = 2**14


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
        self.formed = 0

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

    def _form(self, terms: int, at: int) -> None:
        """Count terms about to be formed; refuse them past EXPANSION_CAP."""
        self.formed += terms
        if self.formed > EXPANSION_CAP:
            raise ExpansionError(f"expansion of {self.formed} terms exceeds "
                                 f"expansion cap {EXPANSION_CAP} at position "
                                 f"{at}", at)

    def parse(self) -> NcPolynomial:
        result = self.expr()
        kind, text, _ = self._peek()
        if kind != "end":
            self._fail(f"unexpected {text!r}")
        return result

    def expr(self) -> NcPolynomial:
        """A sum, each term paired with 1 or -1, collected in one term
        table; a lone term is returned as it is."""
        _, op, at = self._peek()
        sign = _MINUS_ONE if op == "-" else _ONE
        self.pos += sign is _MINUS_ONE
        terms = [(self.term(), sign)]
        while (op := self._peek()[1]) in ("+", "-"):
            self._next()
            terms.append((self.term(), _ONE if op == "+" else _MINUS_ONE))
        if len(terms) == 1 and sign is _ONE:
            return terms[0][0]
        self._form(sum(n for t, _ in terms if (n := len(t.numerators)) > 1), at)
        return poly_sum_of_products(terms)

    def term(self) -> NcPolynomial:
        """A product. Its constant factors are multiplied apart, as one
        fraction applied once at the end; before each other factor is
        multiplied in, the product is refused if its longest monomial (of
        as many letters as the factors' longest, summed: the free algebra
        has no zero divisors) would exceed MAX_DEGREE letters, or the
        terms it forms would take the expression past EXPANSION_CAP, and
        so is the copy that scales a product of more than one term by its
        constants. So at most MAX_DEGREE factors are multiplied, each
        into a bounded product."""
        num, den, product, letters = 1, 1, _ONE, 0
        start = self._peek()[2]
        while True:
            factor = self.factor()
            length = factor.degree()
            if not length:  # a constant, or 0
                num *= factor.numerators.get((), 0)
                den *= factor.denominator
            elif product is _ONE:
                product, letters = factor, length
            else:
                letters += length
                if letters > MAX_DEGREE:
                    raise ExpansionError(f"monomial of length {letters} exceeds "
                                         f"degree cap {MAX_DEGREE} at position "
                                         f"{at}", at)
                self._form(len(product.numerators) * len(factor.numerators), at)
                product = poly_mul(product, factor)
            if self._peek()[1] != "*":
                if num == den == 1:
                    return product
                if num and len(product.numerators) > 1:
                    self._form(len(product.numerators), start)
                return _from_ints(den * product.denominator, {
                    w: num * n for w, n in product.numerators.items() if num})
            at = self._next()[2]

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
