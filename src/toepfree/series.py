"""The calculus of truncated formal series over the Toeplitz algebra.

A BSeries (``toeplitz_core``) assigns a coefficient in B to every
nonempty index word (i_1, ..., i_n) over {1..s} of length at most D.
R-transforms collect tuple cumulants, and moment series collect tuple
moments. The two determine each other through the sum over NC(n) of
block products, which holds coefficientwise for B-valued series
(Speicher, Mem. AMS 627, 1998, Ch. 3), so the moment series of variables
is read off their R-transform. Boxed convolution multiplies R-transforms
the way t_mul multiplies free variables, through the sum over pi in
NC(n) paired with its Kreweras complement. All three maps are summed by
the first block of pi: a sum over the blocks V that hold position 1 of
the coefficient at w|V times values on the regions V leaves, memoized on
shorter words, so no NC(n) is enumerated (Nica-Speicher, Lectures on the
Combinatorics of Free Probability, Lectures 10, 11 and 17). One walk
over the words, shortest first, sums them (_walk): a word's blocks that
end before its last position are its prefixes', so a word of length n
costs O(n) region values, not O(n^2). Words are integer ids, so every
coefficient, memo and region is a list read. A shape's plan, its words
with every word's prefix and suffix ids, is made once per process for
the few shapes in use (_words_by_id); the walk keeps each word's blocks
in one store by id and reads them through the plan. The sums are
homogeneous: scaled by lam^|w| for one lam per input series, every value
is integral and is packed into one integer, entry j in a k-bit slot j
(Kronecker substitution), so a B-product is one integer product cut mod
2^(Nk) and a sum one addition; a stored weight is cut once, where it is
stored.

The R-transform and the freeness predicate are sums of cumulants and are
defined in ``toeplitz_core``, so that a query that runs none of the
three maps never compiles this module. They are listed in ``__all__``
here with BSeries and can be imported from here. The evenness predicate,
the sparsity pattern and the symmetric and compressed R-transforms are
in ``extras``.

Everything here is exact. B is commutative, so the scalar recursions hold
verbatim for B-valued coefficients, in any order of B-products.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd, lcm
from operator import mul
from typing import Callable, Iterator, Sequence

from .errors import DEFAULT_DEGREE_CAP, DegreeCapExceeded, DimensionMismatch
from .scalar_space import MomentFunctional
from .toeplitz_core import (
    BSeries,
    IndexWord,
    TVariable,
    _fill,
    _require_word_count,
    all_index_words,
    check_freeness,
    check_series_request,
    r_transform,
)

__all__ = [
    "BSeries",
    "all_index_words",
    "boxed_convolution",
    "check_freeness",
    "check_series_request",
    "moment_series",
    "moments_from_r",
    "r_from_moments",
    "r_transform",
]


def moment_series(functional: MomentFunctional, vars_: Sequence[TVariable],
                  degree: int | None = None) -> BSeries:
    """M(z_1..z_s): coefficient at (i_1..i_n) is the tuple moment, read
    off the R-transform by moments_from_r. M_n needs every R_k with
    k <= n, so the whole series is checked and computed."""
    return moments_from_r(r_transform(functional, vars_, degree))


def _root(b: int) -> int:
    """The least q of which b > 1 is a power."""
    for e in range(b.bit_length(), 1, -1):
        q = 1 << -(-b.bit_length() // e)  # at least the e-th root of b
        while (y := ((e - 1) * q + b // q ** (e - 1)) // e) < q:
            q = y
        if q**e == b:
            return q
    return b


def _scale(f: BSeries) -> int:
    """An integer lam with den(w) | lam^|w| for every word w of f, den(w)
    the denominator f's terms hold at w.

    The denominators split into pairwise coprime bases by gcds (factor
    refinement); each base is taken as its least root q, and lam holds
    q^ceil(v/n) for v the largest power of q in the denominator of a word
    of length n. That is the least such lam when every q is a prime, as it
    is unless two primes only ever come together, so no prime, however
    large, makes lam^|w| wider than the denominators need."""
    dens: dict[int, int] = {}
    for word, (den, _) in f._terms.items():
        dens[len(word)] = lcm(dens.get(len(word), 1), den)
    bases: list[int] = []
    todo = list({den for den, _ in f._terms.values()} - {1})
    while todo:
        x = todo.pop()
        for b in bases:
            while x % b == 0:
                x //= b
        for i, b in enumerate(bases):
            if (g := gcd(x, b)) > 1:
                del bases[i]
                todo += [y for y in (b // g, g, x // g) if y > 1]
                break
        else:
            if x > 1:
                bases.append(x)
    lam = 1
    for q in map(_root, bases):
        need = 0
        for n, den in dens.items():
            v = 0
            while den % q == 0:
                den, v = den // q, v + 1
            need = max(need, -(-v // n))
        lam *= q**need
    return lam


class _Plan(list):
    """The words of one shape at their ids, with the ids every walk reads:
    ids = (heads, tails), where heads[x] holds the ids of word x's nonempty
    prefixes (x's own last) and tails[x] those of its suffixes (x's own
    first, the empty word's last). None of it depends on a coefficient,
    so every map and walk of a shape shares one plan."""


@lru_cache(maxsize=4)
def _words_by_id(s: int, degree: int) -> _Plan:
    """The plan of the words over {1..s} of length <= degree: id(()) = 0
    and id(w + (c,)) = s id(w) + c count them shortest first. Made on
    first use, by the first map of the shape, and kept for the last four
    shapes in use, so a process holds a bounded number of plans."""
    plan = _Plan([(), *all_index_words(s, degree)])
    plan.ids = heads, tails = [()], [(0,)]
    for x in range(1, len(plan)):
        p, c = divmod(x - 1, s)
        heads.append((*heads[p], x))
        tails.append((*[t * s + c + 1 for t in tails[p]], 0))
    return plan


def _zeta_terms(order: int, n: int) -> int:
    """Cat(n) C(N + n - 2, n - 1), the terms of every value the walk of
    moments_from_r forms for a word of length n at order N (see _packed)."""
    return comb(2 * n, n) // (n + 1) * comb(order + n - 2, n - 1)


def _mobius_terms(order: int, n: int) -> int:
    """2^(n-1) S(n) C(N + n - 2, n - 1), the terms of every value the walk
    of r_from_moments forms (see _packed). S(n), the sum over pi in NC(n)
    of |mu(pi, 1_n)|, is the large Schroeder number 1, 2, 6, 22, 90, ...:
    the sum over i < n of C(n - 1 + i, 2i) Cat(i)."""
    schroder = sum(comb(n - 1 + i, 2 * i) * comb(2 * i, i) // (i + 1)
                   for i in range(n))
    return 2 ** (n - 1) * schroder * comb(order + n - 2, n - 1)


def _boxed_terms(order: int, n: int) -> int:
    """Cat(n) C(N + n - 1, n), the terms of every value the walks of
    boxed_convolution form for a word of length n (see _packed)."""
    return comb(2 * n, n) // (n + 1) * comb(order + n - 1, n)


def _packed(words: list[IndexWord], terms: Callable[[int, int], int],
            *series: BSeries) -> tuple[int, int, list[list[int]]]:
    """Each series f packed: entry j of lam_f^|w| f(w), an integer, in the
    k-bit slot j of one weight, listed at the ids of words (0 where f has
    no coefficient). Returns lam, the product of the lam_f, k and the
    packed series. f keeps lam_f = _scale(f), its rows and beta_f in its
    cache slot _pack (see BSeries), or, made by a map, the map's lam and
    the rows it decoded from, with beta_f once it is packed, so no series
    is scaled or measured twice.

    The width is the calling map's: terms(N, n) is its count below, and

        k = max over n <= D of (bit length of terms(N, n) + beta n) + 2,

    beta the sum of the beta_f, where lam_f^|w| f(w) has entries below
    2^(beta_f |w|). The scaled maps are homogeneous, so every value the
    walk forms for a word of length n (a block weight, a flow into a
    position, a closed or an open sum, a value of the map) expands into a
    sum of products of scaled inputs whose lengths add up to at most n per
    series. A product of m factors has C(j + m - 1, m - 1) <= P(m) =
    C(N + m - 2, m - 1) paths to its entry j < N, one per way to split j
    over the factors (P grows with m), each path below 2^(beta n).
    terms(N, n) bounds the products times their paths, and grows with n,
    so every entry of every value is below terms(N, n) 2^(beta n), which
    is below 2^(k-2). Then truncated products lie within 2^(Nk-1) of 0, so
    they are their balanced residues mod 2^(Nk), and entries are balanced
    k-bit digits. The walk cuts a sum of products once rather than each
    product: an integer product is the truncated product mod 2^(Nk), and
    reduction mod 2^(Nk) commutes with sums and products, so the sum's
    balanced residue is the same weight.

    The counts, with Cat(n) = |NC(n)| (Nica-Speicher, Lectures on the
    Combinatorics of Free Probability, Lectures 9-10 and 17-18):

    M <- R, _zeta_terms = Cat(n) P(n). m(w) sums over pi in NC(n) the
    product of r(w|V) over the blocks V of pi: Cat(n) products of |pi| <= n
    factors. A block weight or flow at position b sums the product of m
    over the gaps of a first block still open at b; with each gap's m
    expanded over its NC, these are the products of distinct noncrossing
    partitions of w[:b+1] without the open block's r factor, at most
    Cat(b + 1). A closed or an open sum is a sub-sum of m(w): over the pi
    whose first block holds position n - 1, or over all.

    R <- M, _mobius_terms = 2^(n-1) S(n) P(n). r(w) sums over pi in NC(n)
    mu(pi, 1_n) times the product of m(w|V) over the blocks: S(n) products
    counted with |mu|, of at most n factors, S(n) = sum over pi of
    |mu(pi, 1_n)| = sum over sigma = Kr(pi) of the product of Cat(|W| - 1)
    over the blocks W of sigma. The open sum of w sums, over the at most
    2^(n-1) first blocks V != [n] that hold position 0, r(w|V) times m of
    the gaps, each gap an input row; a closed sum does the same over the V
    that also hold n - 1, and a block weight or flow over the first blocks
    open at b, without r. Each V gives at most S(|V|) <= S(n) products of
    at most n factors, as r(w) does.

    Boxtimes, _boxed_terms = Cat(n) P(n + 1), beta = beta_f + beta_g.
    c(w) sums over pi in NC(n) the product of f over the blocks of pi times
    that of g over the blocks of Kr(pi): Cat(n) products of
    |pi| + |Kr(pi)| = n + 1 factors, the f- and the g-lengths adding up to
    n each. Expanded, D at a word of length q is d_q products of q factors,
    the g-lengths adding up to q and the f-lengths to q - 1, as its scale
    is, and E is the same with f and g swapped: d_1 = 1 and d_q sums over
    the compositions of q - 1 the product of d over the parts, so
    sum d_q z^q = z / (1 - sum d_q z^q) and d_q = Cat(q - 1), and the
    factors number 1 + (q - 1). A block weight or flow of either walk is
    part of such a sum at a prefix, without the open block's coefficient,
    and c(w) is E's open sum; Cat(q - 1) P(q) <= Cat(q) P(q + 1).

    Ids and kept rows change no sum: ids only name the words, every lam_f
    that clears f's denominators gives the same values over lam^n, and
    beta_f is read off the rows in use.
    """
    lam, beta, scaled = 1, 0, []
    for f in series:
        lam_f, rows, beta_f = f._pack or (_scale(f), None, None)
        if rows is None:
            powers = [lam_f**n for n in range(f.degree + 1)]
            rows = {w: [c * (powers[len(w)] // den) for c in nums]
                    for w, (den, nums) in f._terms.items()}
        if beta_f is None:
            beta_f = max((-(-max(max(c), -min(c)).bit_length() // len(w))
                          for w, c in rows.items()), default=0)
            object.__setattr__(f, "_pack", (lam_f, rows, beta_f))
        beta += beta_f
        lam *= lam_f
        scaled.append(rows)
    k = 2 + max(terms(series[0].order, n).bit_length() + beta * n
                for n in range(1, series[0].degree + 1))
    tables = []
    for rows in scaled:
        tables.append(table := [])
        for w in words:
            x = 0
            for c in reversed(rows.get(w, ())):
                x = (x << k) + c
            table.append(x)
    return lam, k, tables


def _decoded(f: BSeries, lam: int, k: int, words: list[IndexWord],
             packed: list[int]) -> BSeries:
    """The series of f's shape whose coefficient at words[x], x > 0, is the
    packed weight packed[x] read as balanced k-bit digits, over lam^|w|.
    Zeros are dropped. Its terms are (lam^|w|, digits), and its cache
    _pack holds (lam, rows, None), the rows being the same digit lists; no
    BScalar is built."""
    half, low = 1 << (k - 1), (1 << k) - 1
    # half carried into every digit but the last makes each nonnegative
    carry = sum(half << j * k for j in range(f.order - 1))
    powers = [lam**n for n in range(f.degree + 1)]
    terms, rows = {}, {}
    for x in range(1, len(packed)):
        if value := packed[x]:
            w = words[x]
            rows[w] = nums = []
            terms[w] = (powers[len(w)], nums)
            value += carry
            for _ in range(f.order - 1):
                nums.append((value & low) - half)
                value >>= k
            nums.append(value)
    return _fill(object.__new__(BSeries), f.s, f.order, f.degree, terms,
                 (lam, rows, None))


def _walk(f: BSeries, k: int, coeffs: list[int], table: list[int],
          shift: int, closed: list[int],
          per_letter: bool = False) -> Iterator[tuple[int, int]]:
    """The first-block sums of every word w of f's shape (over {1..f.s},
    of length at most f.degree), shortest first, on the ids of
    _words_by_id: coeffs, table and closed are lists at ids. A generator,
    it stores each word's closed sum, over the blocks V that hold its first
    and its last position,

        closed[w] = sum over V = {v_1 = 0 < ... < v_k = len(w) - 1} of
                    coeffs[w|V] * prod over j < k of region(v_j, v_{j+1}),

    then yields w's id with its open sum, over the V that hold position 0,

        sum over a < len(w) of closed[w[:a+1]] * region(a, len(w)),

    and waits, so that the caller can store what later regions read.
    Positions are 0-based; region(a, b) = table[w[a + shift : b]], the
    letters after (shift 1) or from (shift 0) position a, up to b. Set
    per_letter when it also reads the letter at b, table[w[a + 1 : b + 1]]:
    then the blocks grow per letter, and the open sum is 0.

    A word's blocks that end before its last position are its prefixes':
    those of w ending at position b are the blocks w[:b+1] ends at its
    last. So one store, by word id and for the walk's whole run, keeps the
    blocks each word ends at its last position (the ids of their letters
    with the sums of their region products), and a word's blocks are read
    through its prefixes' ids, which the shape's plan (_words_by_id) holds
    with its suffixes' ids; no word copies its prefix's blocks. A word
    stores only its flow, the blocks of its parent times the regions into
    its last position, merged by ids (a top-length word, which nothing
    grows from, stores none and only sums them). Its row, region(a,
    len(w)) for a < len(w), is read once and serves its open sum and its
    children's flow. A zero region cuts off its blocks.

    Every weight is packed in span = N k bits, k the width _packed proves
    for the calling map: a sum is + and a sum of products x is cut mod t^N
    as ((x + H) & M) - H, H = 2^(span-1), M = 2^span - 1. A flow is merged
    uncut, and each of its weights is cut once, where the store takes it;
    each closed and each open sum is cut as it is formed. Reduction mod
    2^span is a ring homomorphism (see _packed), so every stored weight
    and every value is the same balanced residue as with every sum cut.
    """
    s, top, span = f.s, f.degree, f.order * k
    high, mask = 1 << (span - 1), (1 << span) - 1
    heads, tails = _words_by_id(s, top).ids
    ends, rows = {}, {0: ()}

    def inflow(blocks, row):
        into = {} if blocks else {0: 1}
        for x, y in zip(blocks, row):
            if y:
                for key, weight in ends[x].items():
                    into[key] = into.get(key, 0) + weight * y
        return into

    for parent, blocks in enumerate(heads[: (len(heads) - 1) // s]):
        n = len(blocks) + 1
        if not per_letter:
            flow = inflow(blocks, rows.pop(parent))
        for c in range(1, s + 1):
            x = parent * s + c
            if per_letter:
                flow = inflow(blocks, [table[t] for t in tails[x][1:n]])
            total = 0
            if n < top:
                ends[x] = stored = {}
                for key, weight in flow.items():
                    stored[key := key * s + c] = weight = (
                        ((weight + high) & mask) - high)
                    total += weight * coeffs[key]
            else:  # no word grows from a top-length word's blocks
                for key, weight in flow.items():
                    total += weight * coeffs[key * s + c]
            closed[x] = ((total + high) & mask) - high
            if not per_letter:
                rows[x] = row = [table[t] for t in tails[x][shift : n + shift]]
                total = sum(map(mul, map(closed.__getitem__, heads[x]), row))
            yield x, 0 if per_letter else ((total + high) & mask) - high


def _require_calculus_cap(f: BSeries) -> None:
    """Refuse a series past the degree cap or the word cap before any
    word is summed."""
    cap = DEFAULT_DEGREE_CAP
    if f.degree > cap:
        raise DegreeCapExceeded(
            f"series degree {f.degree} exceeds the degree cap {cap}"
        )
    _require_word_count(f.s, f.degree)


def moments_from_r(r: BSeries) -> BSeries:
    """The zeta direction, M-coef(w) = sum over pi in NC(n) of the block
    products of R-coefficients, summed by the first block V of pi:
    m(w) = sum over V holding position 1 of r(w|V) * prod m(gaps of V),
    each gap being a shorter word (an empty gap counts 1): the walk's
    open sum over r, with the gaps as regions."""
    _require_calculus_cap(r)
    words = _words_by_id(r.s, r.degree)
    lam, k, (coeffs,) = _packed(words, _zeta_terms, r)
    m = [1] + [0] * (len(words) - 1)
    for x, value in _walk(r, k, coeffs, m, 1, [0] * len(words)):
        m[x] = value
    return _decoded(r, lam, k, words, m)


def r_from_moments(m: BSeries) -> BSeries:
    """The mu direction; inverts moments_from_r. The zeta recursion
    solved for its V = [n] term:
    r(w) = m(w) - sum over V holding position 1, V != [n], of
    r(w|V) * prod m(gaps of V). No Möbius value is needed."""
    _require_calculus_cap(m)
    words = _words_by_id(m.s, m.degree)
    lam, k, (held,) = _packed(words, _mobius_terms, m)
    held[0] = 1
    r, closed = [0] * len(words), [0] * len(words)
    for x, value in _walk(m, k, r, held, 1, closed):
        # the walk summed w before r(w) was stored, so its sums lack
        # exactly the V = [n] term, r(w) times empty gaps
        if value := held[x] - value:
            r[x] = value
            # close that block, of weight 1, for the longer words
            closed[x] += value
    return _decoded(m, lam, k, words, r)


def boxed_convolution(f: BSeries, g: BSeries) -> BSeries:
    """(f boxtimes g)-coef(w) = sum over pi in NC(n) of
    [prod over blocks of pi of f] . [prod over blocks of Kr(pi) of g],
    summed by the first block V = {v_1 < ... < v_k} of pi:

        c(w) = sum over V of f(w|V) * prod over s of D(w[v_s .. v_{s+1}-1])

    (v_{k+1} = n + 1), where D(x_0..x_m) sums g over the Kreweras blocks
    the first block leaves in that region, and E is the same sum with the
    roles of f and g swapped:

        D(x_0..x_m) = sum over W holding 0 and m of g(x|W)
                      * prod over consecutive a < b in W of E(x[a+1 .. b]),
        E(y_1..y_q) = sum over U holding 1 and q of f(y|U)
                      * prod over consecutive a < b in U of D(y[a .. b-1]).

    D and E are the closed sums of two walks advanced in lockstep, word by
    word, each reading the other's shorter words. Split at v_k, c(w) is
    the sum over a of E(w[..a]) D(w[a..]), E's open sum; it reads D(w)
    itself, so the walk of D goes first. D and E are scaled by
    lam_f^(|x|-1) lam_g^|x| and lam_f^|y| lam_g^(|y|-1), so c(w) comes out
    times (lam_f lam_g)^n."""
    if (f.s, f.order, f.degree) != (g.s, g.order, g.degree):
        raise DimensionMismatch(
            f"series shapes differ: (s={f.s}, N={f.order}, D={f.degree}) "
            f"vs (s={g.s}, N={g.order}, D={g.degree})"
        )
    _require_calculus_cap(f)
    words = _words_by_id(f.s, f.degree)
    lam, k, (fs, gs) = _packed(words, _boxed_terms, f, g)
    d, e, c = [0] * len(words), [0] * len(words), [0] * len(words)
    walks = zip(_walk(f, k, gs, e, 1, d, True), _walk(f, k, fs, d, 0, e))
    for _, (x, value) in walks:
        c[x] = value
    return _decoded(f, lam, k, words, c)
