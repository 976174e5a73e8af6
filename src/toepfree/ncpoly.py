"""Noncommutative polynomials over abstract generators, plus a parser.

The model algebra A is the free unital algebra on a declared set of
generators: elements are finite rational linear combinations of words
(sequences of generator ids), multiplied by word concatenation. A small
recursive-descent parser turns expression strings into polynomials.

Everything here is immutable and exact. A polynomial is stored as one
positive common denominator and integer numerators, so that products and
sums run on integers with a single reduction per result; ``terms`` and
``coeff`` give its coefficients as ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import EngineError

#: A word is a tuple of generator ids; the empty word is the unit of A.
Word = tuple[str, ...]

RationalLike = Fraction | int | str


class Generator(NamedTuple("Generator", [("id", str), ("family", str)])):
    """An abstract generator of the model algebra, tagged with its family."""

    __slots__ = ()

    def __new__(cls, id: str, family: str) -> "Generator":
        if not id:
            raise ValueError("generator id must be nonempty")
        if not family:
            raise ValueError(f"generator {id!r} has empty family")
        return super().__new__(cls, id, family)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p'/'p/q' string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with integer p and positive integer q."""
    body = text.strip()
    num, slash, den = body.partition("/")
    try:
        p = int(num)
    except ValueError:
        raise ValueError(f"bad rational literal {text!r}") from None
    if not slash:
        return Fraction(p)
    try:
        q = int(den)
    except ValueError:
        raise ValueError(f"bad rational literal {text!r}") from None
    if q == 0:
        raise ZeroDenominatorError(f"zero denominator in {text!r}")
    if q < 0:
        raise ValueError(f"denominator must be positive in {text!r}")
    return Fraction(p, q)


def format_rational(value: Fraction) -> str:
    """Render exactly, as 'p' for integers and 'p/q' otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _term_key(term: tuple[Word, Fraction]) -> tuple[int, Word]:
    return (len(term[0]), term[0])


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
        fracs: dict[Word, Fraction] = {}
        if terms:
            for word, coeff in terms.items():
                frac = as_fraction(coeff)
                if frac:
                    fracs[tuple(word)] = frac
        den = lcm(*(f.denominator for f in fracs.values()))
        nums = {w: f.numerator * den // f.denominator for w, f in fracs.items()}
        _store(self, den, nums)

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
        return NcPolynomial({(): as_fraction(value)})

    @staticmethod
    def generator(gen_id: str) -> "NcPolynomial":
        return NcPolynomial({(gen_id,): Fraction(1)})

    @property
    def terms(self) -> tuple[tuple[Word, Fraction], ...]:
        if self._terms is None:
            den = self.denominator
            terms = [(w, Fraction(n, den)) for w, n in self.numerators.items()]
            terms.sort(key=_term_key)
            object.__setattr__(self, "_terms", tuple(terms))
        return self._terms

    def coeff(self, word: Iterable[str]) -> Fraction:
        n = self.numerators.get(tuple(word))
        return Fraction(0) if n is None else Fraction(n, self.denominator)

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
_ONE = NcPolynomial({(): Fraction(1)})


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
    frac = as_fraction(c)
    if not frac:
        return _ZERO
    a = frac.numerator
    nums = {w: a * n for w, n in p.numerators.items()}
    return _from_ints(p.denominator * frac.denominator, nums)


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


class _Token(NamedTuple):
    kind: str  # 'int' | 'ident' | 'op'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise LexicalError(f"bad character {ch!r} at position {i}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], symbols: frozenset[str], length: int):
        self.tokens = tokens
        self.symbols = symbols
        self.pos = 0
        self.length = length

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token | None:
        tok = self._peek()
        if tok is not None:
            self.pos += 1
        return tok

    def _fail(self, message: str) -> None:
        tok = self._peek()
        at = tok.pos if tok is not None else self.length
        raise ParseError(f"{message} at position {at}", at)

    def parse(self) -> NcPolynomial:
        result = self.expr()
        if self._peek() is not None:
            self._fail(f"unexpected {self._peek().text!r}")
        return result

    def expr(self) -> NcPolynomial:
        negate = False
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self._next()
            negate = True
        total = self.term()
        if negate:
            total = poly_scale(-1, total)
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return total
            self._next()
            rhs = self.term()
            if tok.text == "-":
                rhs = poly_scale(-1, rhs)
            total = poly_add(total, rhs)

    def term(self) -> NcPolynomial:
        product = self.factor()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op" or tok.text != "*":
                return product
            self._next()
            product = poly_mul(product, self.factor())

    def factor(self) -> NcPolynomial:
        tok = self._next()
        if tok is None:
            self._fail("unexpected end of expression")
        if tok.kind == "int":
            return NcPolynomial.constant(self._rational(tok))
        if tok.kind == "ident":
            if tok.text not in self.symbols:
                raise UnknownSymbolError(
                    f"unknown symbol {tok.text!r} at position {tok.pos}",
                    tok.pos,
                )
            return NcPolynomial.generator(tok.text)
        if tok.kind == "op" and tok.text == "(":
            inner = self.expr()
            closing = self._next()
            if closing is None or closing.kind != "op" or closing.text != ")":
                self.pos -= closing is not None
                self._fail("expected ')'")
            return inner
        self.pos -= 1
        self._fail(f"unexpected {tok.text!r}")
        raise AssertionError("unreachable")

    def _rational(self, tok: _Token) -> Fraction:
        numerator = int(tok.text)
        nxt = self._peek()
        if nxt is None or nxt.kind != "op" or nxt.text != "/":
            return Fraction(numerator)
        self._next()
        den_tok = self._next()
        if den_tok is None or den_tok.kind != "int":
            self._fail("expected integer denominator after '/'")
        denominator = int(den_tok.text)
        if denominator == 0:
            raise ZeroDenominatorError(
                f"zero denominator at position {den_tok.pos}", den_tok.pos
            )
        return Fraction(numerator, denominator)


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
    parser = _Parser(_tokenize(text), ids, len(text))
    try:
        return parser.parse()
    except RecursionError:
        pass  # raised below, outside the handler, so no traceback is chained
    parser._fail("expression nested too deeply")
