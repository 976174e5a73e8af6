"""The Toeplitz matricial algebra C^N and its probability space.

A BScalar is an N-tuple of rationals with entrywise sum and the truncated
convolution product whose j-th entry is sum_{k=1}^{j} a_k b_{j+1-k}: the
commutative algebra B of N x N upper-triangular Toeplitz matrices. It is
stored as one positive common denominator and N integer numerators, so
sums and products run on integers. A TVariable is an N-tuple of
noncommutative polynomials with the same product.

Cumulants are B-multilinear (Speicher, Mem. AMS 627, 1998): writing each
variable as X = sum over words w of A[w] w with A[w] in B, K_n is the sum
over word tuples of the scalar cumulant kappa(w_1, ..., w_n) times the
B-product of the A_m[w_m]. The cumulants of many index words are taken
along a walk of the word trie, so words that share a prefix share its
work. The expectation E, which applies phi entrywise, is K_1,
``t_cumulant(functional, [x], (1,))``: kappa_1 of a word is phi of that
word. The test suite holds K_n against Möbius inversion of moments and
against the sum over compositions of each entry, and the product against
an explicit matrix embedding (``tests/oracles.py``).

A BSeries is a truncated formal series with a coefficient in B at each
index word, held as integers (den, nums) per word and read as a BScalar.
The R-transform collects the cumulants of every index word up to a
degree, and the freeness predicate scans the mixed ones; both are sums
of t_cumulants, checked against the degree cap and the word cap before
any word is made. Moments of index words are not summed here: they are
read off the R-transform by the series calculus
(``series.moment_series``), which a process compiles only when it runs
one of its maps.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DegreeCapExceeded, DimensionMismatch
from .ncpoly import NcPolynomial, RationalLike, _ratio, poly_sum_of_products
from .scalar_space import MomentFunctional

if TYPE_CHECKING:
    from fractions import Fraction

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
        ratios = [_ratio(v) for v in entries]
        den = lcm(*(q for _, q in ratios))
        _store(self, den, tuple(p * (den // q) for p, q in ratios))

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

    def scale(self, c: RationalLike) -> "BScalar":
        p, q = _ratio(c)
        return _reduced(self.den * q, tuple(p * n for n in self.nums))

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
        return _json_entries(self.den, self.nums)

    def __repr__(self) -> str:
        return f"BScalar({self})"

    def __str__(self) -> str:
        return "(" + ", ".join(_json_entries(self.den, self.nums)) + ")"


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


def _json_entries(den: int, nums: Iterable[int]) -> list[str]:
    """format_rational of each num / den, den > 0: the JSON of a BScalar,
    read off any den and nums that hold it, reduced or not."""
    out = []
    for num in nums:
        common = gcd(num, den)
        num, q = num // common, den // common
        out.append(str(num) if q == 1 else f"{num}/{q}")
    return out


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


class TVariable:
    """An N-tuple of polynomials: a B-valued random variable.

    ``entries`` holds the N polynomials. Instances are immutable and
    hashable, and compare by their entries.
    """

    __slots__ = ("entries",)

    entries: tuple[NcPolynomial, ...]

    def __init__(self, entries: Iterable[NcPolynomial]):
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TVariable is immutable")

    @staticmethod
    def of(entries: Iterable[NcPolynomial]) -> "TVariable":
        return TVariable(entries)

    @property
    def order(self) -> int:
        return len(self.entries)

    def __mul__(self, other: "TVariable") -> "TVariable":
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


def t_cumulants(
    functional: MomentFunctional,
    vars_: Sequence[TVariable],
    words: Iterable[Sequence[int]],
) -> Iterator[BScalar]:
    """The cumulant of each index word in turn, summed over word tuples.

    For n >= 2 the empty word reads 0 and is left out. Tuple prefixes are
    built along the word trie: one whose B-product is 0 is cut, and so is
    one that mixes families, unless a word of some variable spans two
    families and could link them. Each word's sum runs on integers: A[w]
    is held over den^|w|, den the functional's, so that a tuple's product
    of them times the integer cumulant_numerator of its words is its term.
    """
    cap, generators = functional.degree_cap, functional.generators

    def family_of(word: tuple[str, ...]) -> str | None:
        found = {getattr(generators.get(g), "family", None) for g in word}
        return found.pop() if len(found) == 1 else None

    tables = []  # per variable: the terms ((w,), family, A[w]), longest w
    for x in vars_:
        _require_same_order(vars_[0], x)
        support = dict.fromkeys(w for p in x.entries for w in p.numerators)
        terms = [((w,), family_of(w), BScalar(
            (p.numerators.get(w, 0), p.denominator * functional.den ** len(w))
            for p in x.entries)) for w in support]
        tables.append((terms, max(map(len, support), default=0)))
    # a word with no family of its own can link words of two families
    cut = all(f is not None for t, _ in tables for (w,), f, _ in t if w)

    def step(states: list, i: int) -> list:
        grown = []
        for prefix, family, x in states:
            for (word,), f, y in tables[i - 1][0]:
                if word and prefix[-1] and not (cut and f != family):
                    product = b_mul(x, y)
                    if not product.is_zero():
                        grown.append((prefix + (word,), family, product))
        return grown

    # path[k]: the tuple prefixes of the first k+1 indices of the last word;
    # in lexicographic order (a trie preorder) each trie node costs one step
    path: list[list] = []
    last: Sequence[int] = ()
    for idx in words:
        if not idx:
            raise ValueError("index word must be nonempty")
        shared = 0
        for a, b in zip(last, idx):
            if a != b:
                break
            shared += 1
        del path[shared:]
        for i in idx[len(path):]:
            # a letter is checked once per trie node, where the walk steps
            if not 1 <= i <= len(vars_):
                raise ValueError(
                    f"index {i} outside 1..{len(vars_)} in index word {tuple(idx)}"
                )
            # the first slot keeps the empty word, for n = 1 only
            path.append(step(path[-1], i) if path else tables[i - 1][0])
        last = idx
        if len(idx) > cap or sum(tables[i - 1][1] for i in idx) > cap:
            _refuse(cap, [vars_[i - 1] for i in idx])
        total, common = [0] * vars_[0].order, 1
        for prefix, _, product in path[-1]:
            a = functional.cumulant_numerator(prefix)
            if a:
                b = product.den
                if common % b:
                    scale = b // gcd(common, b)
                    total = [t * scale for t in total]
                    common *= scale
                a *= common // b
                total = [t + a * x for t, x in zip(total, product.nums)]
        yield _reduced(common, tuple(total))


def _most_letters(rows: Sequence[list[float]]) -> list[list[float]]:
    """most[m][r]: the most letters slots m, m+1, ... hold with entries
    k_m + k_{m+1} + ... = r, where entry k of slot m holds at most
    rows[m][k] letters (-inf: none); the last row is 0 at r = 0 only."""
    order = len(rows[0])
    most = [[0] + [float("-inf")] * (order - 1)]
    for row in reversed(rows):
        after = most[0]
        most.insert(0, [
            max(row[k] + after[r - k] for k in range(r + 1)) for r in range(order)
        ])
    return most


def _refuse(cap: int, chosen: Sequence[TVariable]) -> None:
    """Raise DegreeCapExceeded if the index word of ``chosen`` is refused.

    Entry j of its cumulant sums, over the k_1 + ... + k_n = j with every
    x^(m)_{k_m} nonzero, the cumulants of the tuples of one nonempty word
    from each x^(m)_{k_m}. It is refused when n exceeds the cap and such k
    exist, or when such a tuple has more letters than the cap; the message
    gives the length of the first one by j, then k lexicographically, then
    the words in each entry's order.
    """
    n, order = len(chosen), chosen[0].order
    if n > cap:
        low = (next((k for k, p in enumerate(x.entries) if p), order) for x in chosen)
        if sum(low) < order:
            raise DegreeCapExceeded(f"cumulant arity {n} exceeds degree cap {cap}")
        return
    lens = [[[len(w) for w in p.numerators if w] for p in x.entries] for x in chosen]
    top = [[max(ws, default=float("-inf")) for ws in row] for row in lens]
    most = _most_letters(top)
    over = [r for r in range(order) if most[0][r] > cap]
    if not over:
        return
    # the first k, lexicographically, that some word tuple takes over the cap
    r, ks, held = over[0], [], 0
    for m, row in enumerate(top):
        k = next(k for k in range(r + 1) if held + row[k] + most[m + 1][r - k] > cap)
        ks.append(k)
        held += row[k]
        r -= k
    length = 0  # then the first such tuple, word by word
    for m, k in enumerate(ks):
        held -= top[m][k]
        length += next(w for w in lens[m][k] if length + w + held > cap)
    raise DegreeCapExceeded(f"word of length {length} exceeds degree cap {cap}")


def t_cumulant(
    functional: MomentFunctional,
    vars_: Sequence[TVariable],
    idx: Sequence[int],
) -> BScalar:
    """The (i_1, ..., i_n)-th cumulant: one word of ``t_cumulants``."""
    return next(t_cumulants(functional, vars_, (idx,)))


#: The most index words of its top length D that one request may ask for:
#: s^D over s letters. A series, a degree table or a freeness scan makes
#: the words of every length up to D, fewer than 2 s^D of them for s > 1,
#: so the cap bounds their time and the walk's memory before any is made.
WORD_CAP = 2**14


def all_index_words(s: int, degree: int) -> Iterable[IndexWord]:
    """All nonempty words over {1..s} of length <= degree, shortest first,
    lexicographic within a length."""
    for n in range(1, degree + 1):
        yield from product(range(1, s + 1), repeat=n)


class BSeries:
    """A truncated B-valued formal series in s noncommuting indeterminates.

    Immutable; zero coefficients are never stored, so two series are equal
    exactly when they agree coefficientwise. ``_terms`` maps each
    supported word to integers (den, nums), the coefficient's entry j
    being nums[j-1] / den, not always in lowest terms; every read builds
    its BScalar from them, or prints them as they are. ``_pack`` lies
    outside equality and hashing: None, or the series calculus' (lam,
    rows, beta), which only ``series._packed`` and ``series._decoded``
    read and set (see there).
    """

    __slots__ = ("s", "order", "degree", "_terms", "_pack")

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

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BSeries is immutable")

    def coef(self, word: Iterable[int]) -> BScalar:
        term = self._terms.get(tuple(word))
        if term is None:
            return BScalar.zero(self.order)
        return _reduced(term[0], tuple(term[1]))

    def words(self) -> list[IndexWord]:
        """Supported words, shortest first, lexicographic within a length."""
        return sorted(self._terms, key=lambda w: (len(w), w))

    def items(self) -> list[tuple[IndexWord, BScalar]]:
        return [(w, self.coef(w)) for w in self.words()]

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BSeries):
            return NotImplemented
        return (self.s, self.order, self.degree, self.items()) == (
            other.s, other.order, other.degree, other.items())

    def __hash__(self) -> int:
        return hash((self.s, self.order, self.degree, tuple(self.items())))

    def to_json_obj(self) -> dict[str, object]:
        coefficients = [{"word": list(w), "value": _json_entries(*self._terms[w])}
                        for w in self.words()]
        return {"s": self.s, "N": self.order, "D": self.degree,
                "coefficients": coefficients}

    @staticmethod
    def from_json_obj(obj: Mapping[str, object]) -> "BSeries":
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


def _fill(f: BSeries, *values: object) -> BSeries:
    """Set f's slots, in their order, with no check; returns f."""
    for name, value in zip(BSeries.__slots__, values):
        object.__setattr__(f, name, value)
    return f


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


def _require_word_count(s: int, degree: int) -> None:
    """Refuse a request for more than WORD_CAP words of length degree
    over s letters before any word is made."""
    if s**degree > WORD_CAP:
        raise DegreeCapExceeded(
            f"{s**degree} index words of length {degree} in {s} letters "
            f"exceed the word cap {WORD_CAP}"
        )


def _require_word_cap(functional: MomentFunctional,
                      vars_: Sequence[TVariable], degree: int) -> None:
    """Refuse a series whose scalar words would outgrow the degree cap,
    before any coefficient is computed.

    The longest word behind entry j of a degree-n coefficient follows the
    product recursion on entry degrees, over nonzero entries only:
    L_n[j] = max over k <= j of L_{n-1}[k] + max_i deg x^(i)_{j-k}. The
    bound ignores cancellation between terms.
    """
    entry = [max((x.entries[j].degree() for x in vars_ if x.entries[j]),
                 default=float("-inf")) for j in range(vars_[0].order)]
    # row m of the table holds L_{degree-m}
    longest = max(max(row) for row in _most_letters([entry] * degree)[:-1])
    if longest > functional.degree_cap:
        raise DegreeCapExceeded(
            f"degree {degree} needs scalar words of length {longest}, "
            f"over the degree cap {functional.degree_cap}"
        )


def check_series_request(functional: MomentFunctional,
                         vars_: Sequence[TVariable],
                         degree: int | None) -> tuple[int, int]:
    """The checks made before any coefficient of a series in vars_ is
    computed: equal variable orders, a degree within the functional's cap,
    at most WORD_CAP index words of that length and scalar words within
    the cap. Returns the order and the degree."""
    order = _check_vars(vars_)
    d = _resolve_degree(functional, degree)
    _require_word_count(len(vars_), d)
    _require_word_cap(functional, vars_, d)
    return order, d


def r_transform(functional: MomentFunctional, vars_: Sequence[TVariable],
                degree: int | None = None) -> BSeries:
    """R(z_1..z_s): coefficient at (i_1..i_n) is the tuple cumulant."""
    order, d = check_series_request(functional, vars_, degree)
    # lexicographic order walks the word trie, sharing prefix products
    words = sorted(all_index_words(len(vars_), d))
    terms = {w: (v.den, v.nums) for w, v in
             zip(words, t_cumulants(functional, vars_, words)) if not v.is_zero()}
    return _fill(object.__new__(BSeries), len(vars_), order, d, terms, None)


class FreenessReport(NamedTuple):
    free: bool
    witness: IndexWord | None


def check_freeness(functional: MomentFunctional,
                   group_a: Sequence[TVariable], group_b: Sequence[TVariable],
                   degree: int | None = None) -> FreenessReport:
    """Whether all mixed cumulants across the two groups vanish.

    Scans every index word of length 2..D over the concatenated family
    (group_a indices first), shortest first and lexicographically within a
    length, and returns the first word with a nonzero cumulant as witness.
    """
    if not group_a or not group_b:
        raise ValueError("both groups must be nonempty")
    combined = [*group_a, *group_b]
    _check_vars(combined)
    d = _resolve_degree(functional, degree)
    _require_word_count(len(combined), d)
    cut = len(group_a)
    words = [word for word in all_index_words(len(combined), d)
             if min(word) <= cut < max(word)]
    for word, value in zip(words, t_cumulants(functional, combined, words)):
        if not value.is_zero():
            return FreenessReport(False, word)
    return FreenessReport(True, None)
