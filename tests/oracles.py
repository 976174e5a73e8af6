"""Reference routes that only the tests use.

The lattice of NC(n) as an order: ``block_of`` (each element's block),
``leq``, ``zeta``, ``delta``, the ``NcLattice`` of one n with its
refinement order and its Möbius function computed by the recursion
mu(theta, pi) = -sum over theta <= sigma < pi of mu(theta, sigma),
``mobius`` on a pair, ``interleave`` of two partitions on odd and even
slots, the extremes ``zero_partition``/``one_partition`` and the
even-block enumeration ``enumerate_nc_even``. The library builds no order
relation: it reads mu off the Kreweras complement in closed form
(``nc_lattice.mobius_to_top`` and ``nc_lattice.mobius_intervals``).

``cumulant_words_mobius`` computes the scalar cumulant of plain words by
Möbius inversion of moments,

    kappa(w_1, ..., w_n) = sum over pi in NC(n) of mu(pi, 1_n)
                           * prod over blocks V of phi(w_V),

where w_V concatenates the words of the slots in V. The library takes the
same cumulant from the table by a first-block recursion over the slots;
this route shares none of that code, and takes its moments from
``phi_word_nc``.
``t_cumulant_mobius`` is the same inversion for the B-valued cumulant of
Toeplitz variables, with per-block B-products of moments taken from
``oracle_moments``; the library sums the cumulant B-multilinearly over
word tuples. ``cumulant_multilinear`` is the scalar cumulant of
polynomials expanded slot by slot into word cumulants, and
``t_cumulant_compositions`` sums it over the compositions of each entry
of a B-valued cumulant.

``phi_word_nc`` is phi of a word as the sum over every pi in NC(n) of the
products of block cumulants read off the table. ``phi_partition`` is the
product over the blocks of pi of phi of the block products of polynomial
arguments, each phi summed by ``phi_word_nc``. ``oracle_moments`` is the
B-valued moment of index words on the phi side: E of a chain of explicit
matrix products (``t_mul_oracle``), with ``phi_word_nc`` for every scalar
word, and ``oracle_moment_series`` collects it into a series. The library
reads every moment off the R-transform instead (``moments_from_r``), so
no oracle here takes a moment from the package.

``moments_from_r_nc``, ``r_from_moments_mobius`` and
``boxed_convolution_kreweras`` are the series calculus written as sums
over every pi in NC(n): the zeta sum, the mu(pi, 1_n)-weighted sum and the
Kreweras-complement sum. The library sums the same series by first-block
recursion and never enumerates NC(n). ``boxed_identity`` is the unit of
boxed convolution, ``series_add`` the coefficientwise sum of two series,
and ``family_assignment`` the scalar families behind each variable.
``even_cumulant_restricted`` is K_m(X, ..., X) of an even variable summed
over the even-block partitions only, with closed-form Möbius weights.

``poly_sum_of_products_fraction`` is the sum of products of polynomials
with every coefficient a ``Fraction``: the library sums the same products
on integer numerators over one common denominator. ``poly_from_json`` and
``variables_from_json`` read a polynomial and a variable back from their
JSON.

``b_mul_fraction`` and ``b_add_fraction`` are the product and the sum of
the Toeplitz algebra on tuples of ``Fraction`` entries: the library runs
both on integer numerators over one common denominator.
``t_mul_oracle`` is the Toeplitz product of variables through explicit
matrix multiplication, and ``centrality_commutes`` checks that an embedded
element of B commutes with a variable under it. ``from_bscalar`` embeds
an element of B as a constant variable (``zero_variable`` embeds 0),
``t_add`` is the entrywise sum of variables, ``chain_product`` the
left-associated ``t_mul`` chain, and ``expect`` the B-valued expectation
E, which applies phi entrywise, taken as K_1.
"""

import itertools
import weakref
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, prod

from toepfree import nc_lattice
from toepfree.errors import DegreeCapExceeded, DimensionMismatch, MathDomainError
from toepfree.extras import check_even
from toepfree.nc_lattice import NcPartition
from toepfree.ncpoly import NcPolynomial, poly_add, poly_mul
from toepfree.series import BSeries, all_index_words
from toepfree.toeplitz_core import BScalar, TVariable, b_mul, t_cumulant, t_mul


class NotEven(MathDomainError):
    """An even-only operation was applied to a non-even variable."""


class OddLength(MathDomainError):
    """An even-length-only operation received an odd length."""


# --------------------------------------------------------------------------
# the lattice NC(n) as an order
# --------------------------------------------------------------------------


def zero_partition(n):
    """0_n: the all-singletons partition (lattice minimum)."""
    return NcPartition(n, tuple((i,) for i in range(1, n + 1)))


def one_partition(n):
    """1_n: the single-block partition (lattice maximum)."""
    return NcPartition(n, (tuple(range(1, n + 1)),))


def enumerate_nc_even(m):
    """All partitions in NC(m) whose blocks all have even size."""
    if m % 2 != 0:
        raise OddLength(f"even-block partitions require even size, got {m}")
    return [
        p
        for p in nc_lattice.enumerate_nc(m)
        if all(len(b) % 2 == 0 for b in p.blocks)
    ]


def _require_same_n(theta, pi):
    if theta.n != pi.n:
        raise DimensionMismatch(
            f"partitions of different ground sets: {theta.n} vs {pi.n}"
        )


def block_of(pi):
    """Map each element to the index of its block in canonical order."""
    return {x: i for i, block in enumerate(pi.blocks) for x in block}


def leq(theta, pi):
    """Refinement order: every block of theta lies inside a block of pi."""
    _require_same_n(theta, pi)
    of_pi = block_of(pi)
    return all(
        len({of_pi[x] for x in block}) == 1 for block in theta.blocks
    )


def zeta(theta, pi):
    """zeta(theta, pi) = 1 if theta <= pi else 0."""
    return Fraction(1) if leq(theta, pi) else Fraction(0)


def delta(theta, pi):
    """delta(theta, pi) = 1 if theta == pi else 0."""
    _require_same_n(theta, pi)
    return Fraction(1) if theta == pi else Fraction(0)


class NcLattice:
    """NC(n) with its order relation and Möbius function.

    ``below[i]`` is the set of indices j with element j <= element i, and
    ``above[i]`` the dual; intervals are intersections of the two.
    """

    def __init__(self, n):
        self.n = n
        self.elements = nc_lattice.enumerate_nc(n)
        self.index = {p: i for i, p in enumerate(self.elements)}
        size = len(self.elements)
        # labels[j][x] = block index of element x in partition j
        labels = []
        for p in self.elements:
            lab = [0] * (n + 1)
            for b, block in enumerate(p.blocks):
                for x in block:
                    lab[x] = b
            labels.append(lab)
        # chains[i] = adjacent same-block element pairs of partition i;
        # theta_i <= pi_j iff every chained pair shares a block of pi_j
        chains = [
            [(b[k], b[k + 1]) for b in p.blocks for k in range(len(b) - 1)]
            for p in self.elements
        ]
        self.below = [set() for _ in range(size)]
        self.above = [set() for _ in range(size)]
        for i in range(size):
            pairs = chains[i]
            for j in range(size):
                lab = labels[j]
                if all(lab[x] == lab[y] for x, y in pairs):
                    self.below[j].add(i)
                    self.above[i].add(j)
        self._mu = {}
        self._mu_to_top = None

    def interval(self, lo, hi):
        """Indices of elements sigma with lo <= sigma <= hi."""
        return self.above[lo] & self.below[hi]

    def mu(self, lo, hi):
        """Möbius function on the interval [lo, hi], by index."""
        if lo == hi:
            return Fraction(1)
        if lo not in self.below[hi]:
            return Fraction(0)
        key = (lo, hi)
        cached = self._mu.get(key)
        if cached is not None:
            return cached
        total = Fraction(0)
        for mid in self.interval(lo, hi):
            if mid != hi:
                total -= self.mu(lo, mid)
        self._mu[key] = total
        return total

    def mu_to_top(self):
        """mu(sigma, 1_n) for every sigma, indexed like ``elements``."""
        if self._mu_to_top is None:
            top = self.index[one_partition(self.n)]
            self._mu_to_top = [
                self.mu(i, top) for i in range(len(self.elements))
            ]
        return self._mu_to_top


@lru_cache(maxsize=None)
def lattice(n):
    return NcLattice(n)


def mobius(theta, pi):
    """Möbius function of the interval [theta, pi] in NC(n), by the
    recursion; 0 whenever theta is not below pi."""
    _require_same_n(theta, pi)
    lat = lattice(theta.n)
    return lat.mu(lat.index[theta], lat.index[pi])


def interleave(pi, sigma):
    """The partition of {1,...,2n} with pi on odd and sigma on even slots.

    Raises CrossingPartition if the union crosses (i.e. sigma is not below
    the Kreweras complement of pi).
    """
    _require_same_n(pi, sigma)
    n = pi.n
    blocks = [tuple(2 * x - 1 for x in b) for b in pi.blocks]
    blocks += [tuple(2 * x for x in b) for b in sigma.blocks]
    return NcPartition.from_blocks(2 * n, blocks)


# --------------------------------------------------------------------------
# arithmetic, moments and the series calculus
# --------------------------------------------------------------------------


def poly_sum_of_products_fraction(pairs):
    """The sum of p * q over the pairs in Fraction arithmetic, as
    (word, coefficient) terms ordered by degree, then by letters, with
    the zero coefficients dropped."""
    terms = {}
    for p, q in pairs:
        for w1, c1 in p.terms:
            for w2, c2 in q.terms:
                word = w1 + w2
                terms[word] = terms.get(word, Fraction(0)) + c1 * c2
    return tuple(
        sorted(
            ((w, c) for w, c in terms.items() if c),
            key=lambda term: (len(term[0]), term[0]),
        )
    )


def poly_from_json(obj):
    """A polynomial read back from the {word, coeff} terms that
    ``NcPolynomial.to_json_obj`` writes."""
    return NcPolynomial({tuple(t["word"]): t["coeff"] for t in obj})


def b_mul_fraction(xs, ys):
    """The convolution product of two tuples of Fractions: entry j is
    sum over k <= j of xs[k] * ys[j - k]."""
    return tuple(
        sum((xs[k] * ys[j - k] for k in range(j + 1)), Fraction(0))
        for j in range(len(xs))
    )


def b_add_fraction(xs, ys):
    """The entrywise sum of two tuples of Fractions."""
    return tuple(a + b for a, b in zip(xs, ys))


def _table_cumulant(functional, family_of, letters):
    """kappa of a block of letters: the table entry of their family, or 0
    when they mix families."""
    family = family_of[letters[0]]
    for g in letters:
        if family_of[g] != family:
            return Fraction(0)
    return functional.families.get(family, {}).get(letters, Fraction(0))


def phi_word_nc(functional, word):
    """phi(w) = sum over pi in NC(n) of prod over blocks V of kappa(w|V).
    A block's kappa is looked up once per word, though many pi share it."""
    if not word:
        return Fraction(1)
    family_of = {g: gen.family for g, gen in functional.generators.items()}
    kappa = {}
    total = Fraction(0)
    for pi in nc_lattice.enumerate_nc(len(word)):
        product = Fraction(1)
        for block in pi.blocks:
            if block not in kappa:
                letters = tuple(word[i - 1] for i in block)
                kappa[block] = _table_cumulant(functional, family_of, letters)
            product *= kappa[block]
            if not product:
                break
        else:
            total += product
    return total


def cumulant_words_mobius(functional, words):
    """The cumulant with one plain word per slot, by Möbius inversion."""
    lat = lattice(len(words))
    mu_top = lat.mu_to_top()
    total = Fraction(0)
    for at, pi in enumerate(lat.elements):
        value = mu_top[at]
        for block in pi.blocks:
            if not value:
                break
            letters = tuple(g for i in block for g in words[i - 1])
            value *= phi_word_nc(functional, letters)
        total += value
    return total


def _nc_block_product(series, word, pi):
    """Product over blocks of pi (by block minimum) of the coefficients of
    series at the subwords of word."""
    result = BScalar.one(series.order)
    for block in pi.blocks:
        result = b_mul(result, series.coef(tuple(word[p - 1] for p in block)))
        if result.is_zero():
            break
    return result


def moments_from_r_nc(r):
    """M-coef(w) = sum over NC(n) of the block products of R-coefficients."""
    coeffs = {}
    for word in all_index_words(r.s, r.degree):
        total = BScalar.zero(r.order)
        for pi in nc_lattice.enumerate_nc(len(word)):
            total = total + _nc_block_product(r, word, pi)
        coeffs[word] = total
    return BSeries(r.s, r.order, r.degree, coeffs)


def r_from_moments_mobius(m):
    """R-coef(w) = sum over NC(n) of block products of M-coefficients
    weighted by mu(pi, 1_n)."""
    coeffs = {}
    for word in all_index_words(m.s, m.degree):
        lat = lattice(len(word))
        mu_top = lat.mu_to_top()
        total = BScalar.zero(m.order)
        for at, pi in enumerate(lat.elements):
            weight = mu_top[at]
            if not weight:
                continue
            total = total + _nc_block_product(m, word, pi).scale(weight)
        coeffs[word] = total
    return BSeries(m.s, m.order, m.degree, coeffs)


def boxed_convolution_kreweras(f, g):
    """(f boxtimes g)-coef(w) = sum over pi in NC(n) of
    [prod over blocks of pi of f] . [prod over blocks of Kr(pi) of g]."""
    coeffs = {}
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


# --------------------------------------------------------------------------
# block products, Toeplitz products and B-valued cumulants
# --------------------------------------------------------------------------


def phi_partition(functional, pi, args):
    """phi_pi: the product over blocks of phi of the block products.

    Valid as a plain product because scalars are central.
    """
    if pi.n != len(args):
        raise DimensionMismatch(
            f"partition of {pi.n} points vs {len(args)} arguments"
        )
    total = Fraction(1)
    for block in pi.blocks:
        product = NcPolynomial.one()
        for i in block:
            product = poly_mul(product, args[i - 1])
        total *= sum(
            (c * phi_word_nc(functional, w) for w, c in product.terms),
            Fraction(0),
        )
        if not total:
            return total
    return total


def t_mul_oracle(x, y):
    """The Toeplitz product through explicit matrix multiplication.

    Embeds both tuples as N x N upper-triangular Toeplitz matrices, runs a
    full matrix product, checks the result is again upper-triangular
    Toeplitz, and reads off its defining tuple.
    """
    if x.order != y.order:
        raise DimensionMismatch(
            f"tuple lengths differ: {x.order} vs {y.order}"
        )
    n = x.order

    def matrix(t):
        return [
            [
                t.entries[c - r] if c >= r else NcPolynomial.zero()
                for c in range(n)
            ]
            for r in range(n)
        ]

    mx, my = matrix(x), matrix(y)
    product = [
        [
            reduce(
                poly_add,
                (poly_mul(mx[r][k], my[k][c]) for k in range(n)),
                NcPolynomial.zero(),
            )
            for c in range(n)
        ]
        for r in range(n)
    ]
    for r in range(n):
        for c in range(n):
            expected = (
                product[0][c - r] if c >= r else NcPolynomial.zero()
            )
            if product[r][c] != expected:
                raise AssertionError(
                    "matrix product is not upper-triangular Toeplitz"
                )
    return TVariable(tuple(product[0]))


def from_bscalar(b):
    """The constant variable whose entries are those of the BScalar b."""
    return TVariable(NcPolynomial.constant(x) for x in b.entries)


def zero_variable(order):
    """The variable of ``order`` zero entries."""
    return from_bscalar(BScalar.zero(order))


def t_add(x, y):
    """Entrywise sum of two variables of one order."""
    if x.order != y.order:
        raise DimensionMismatch(
            f"tuple lengths differ: {x.order} vs {y.order}"
        )
    return TVariable(poly_add(a, b) for a, b in zip(x.entries, y.entries))


def chain_product(vars_):
    """Left-associated t_mul chain; entries are the P_j polynomials."""
    if not vars_:
        raise ValueError("empty product chain")
    return reduce(t_mul, vars_)


def expect(functional, x):
    """E(a_1, ..., a_N) = (phi(a_1), ..., phi(a_N)), taken as K_1(X)."""
    return t_cumulant(functional, [x], (1,))


def centrality_commutes(b, x):
    """Whether the embedded BScalar commutes with x under t_mul."""
    embedded = from_bscalar(b)
    return t_mul(embedded, x) == t_mul(x, embedded)


#: per model, dropped with it: phi_word_nc of each scalar word, and the
#: moment of each sequence of variables
_MEMO = weakref.WeakKeyDictionary()


def oracle_moments(functional, vars_, words):
    """The moment of each nonempty index word: E of its chain of matrix
    products (``t_mul_oracle``), with phi of each scalar word summed over
    NC(n) (``phi_word_nc``). Chains are shared by prefix within one call.
    Values are memoized per model, phi by scalar word and moments by the
    sequence of variables (compared by value), so later calls reuse them."""
    phi, moments = _MEMO.setdefault(functional, ({}, {}))
    chains = {}

    def chain(seq):
        if seq not in chains:
            chains[seq] = (
                seq[0] if len(seq) == 1 else t_mul_oracle(chain(seq[:-1]), seq[-1])
            )
        return chains[seq]

    out = []
    for word in words:
        seq = tuple(vars_[i - 1] for i in word)
        if seq not in moments:
            entries = []
            for poly in chain(seq).entries:
                total = Fraction(0)
                for w, c in poly.terms:
                    if w not in phi:
                        phi[w] = phi_word_nc(functional, w)
                    total += c * phi[w]
                entries.append(total)
            moments[seq] = BScalar(entries)
        out.append(moments[seq])
    return out


def oracle_moment_series(functional, vars_, degree):
    """The moment series up to ``degree``, every coefficient taken from
    ``oracle_moments``."""
    words = list(all_index_words(len(vars_), degree))
    coeffs = dict(zip(words, oracle_moments(functional, vars_, words)))
    return BSeries(len(vars_), vars_[0].order, degree, coeffs)


def variables_from_json(obj):
    """A variable read back from ``TVariable.to_json_obj``: one list of
    {word, coeff} terms per entry."""
    return TVariable(tuple(poly_from_json(entry) for entry in obj))


def compositions(total, parts):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def composition_terms(chain, j):
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


def cumulant_multilinear(functional, args):
    """The scalar cumulant kappa_n(p_1, ..., p_n) of polynomials by
    multilinear expansion: the sum over one word from each slot of the
    product of their coefficients times ``cumulant_words`` of the words.

    For n >= 2 a constant term reads 0 wherever it stands, so it is
    dropped before the expansion. The values are brought to the lcm of
    their denominators, so the sum runs on integer numerators and one
    Fraction is built at the end.
    """
    n = len(args)
    if n == 0:
        raise ValueError("cumulant needs at least one argument")
    cap = functional.degree_cap
    if n > cap:
        raise DegreeCapExceeded(f"cumulant arity {n} exceeds degree cap {cap}")
    slots = [[word for word in p.numerators if word or n == 1] for p in args]
    num, common = 0, 1
    for words in itertools.product(*slots):
        value = functional.cumulant_words(words)
        if value:
            b = value.denominator
            if common % b:
                step = b // gcd(common, b)
                num *= step
                common *= step
            weight = prod(p.numerators[w] for p, w in zip(args, words))
            num += weight * value.numerator * (common // b)
    return Fraction(num, common * prod(p.denominator for p in args))


def t_cumulant_compositions(functional, vars_, idx):
    """The cumulant summed over compositions: entry j is the sum of the
    scalar multilinear cumulants (``cumulant_multilinear``) of the
    ``composition_terms`` of entry j."""
    chosen = [vars_[i - 1] for i in idx]
    return BScalar(
        sum(
            (
                cumulant_multilinear(functional, args)
                for args in composition_terms(chosen, j)
            ),
            Fraction(0),
        )
        for j in range(chosen[0].order)
    )


def t_cumulant_mobius(functional, vars_, idx):
    """The cumulant by Möbius inversion over NC(n) in B.

    K_n = sum over pi of E-hat(pi) mu(pi, 1_n), where E-hat(pi) is the
    plain B-product (blocks ordered by minima) of the per-block moments.
    Plain products are valid because every BScalar is central. The
    moments of the distinct block subwords are taken from
    ``oracle_moments`` in one call.
    """
    order = vars_[0].order
    lat = lattice(len(idx))
    mu_top = lat.mu_to_top()
    weighted = [
        (weight, [tuple(idx[p - 1] for p in block) for block in pi.blocks])
        for weight, pi in zip(mu_top, lat.elements)
        if weight
    ]
    subwords = sorted({sub for _, blocks in weighted for sub in blocks})
    moments = dict(zip(subwords, oracle_moments(functional, vars_, subwords)))

    total = BScalar.zero(order)
    for weight, blocks in weighted:
        product = BScalar.one(order)
        for sub in blocks:
            product = b_mul(product, moments[sub])
            if product.is_zero():
                break
        total = total + product.scale(weight)
    return total


def even_cumulant_restricted(functional, x, m):
    """K_m(X,...,X) computed from even-block partitions only.

    For an even variable the Möbius sum over NC(m) loses nothing when
    restricted to partitions all of whose blocks have even size; this
    computes the restricted sum, with the weights mu(pi, 1_m) in closed
    form, and checks it against the full cumulant before returning it.
    """
    if m < 1 or m % 2:
        raise OddLength(f"restricted cumulant needs even m, got {m}")
    if not check_even(functional, x, m):
        raise NotEven("variable has a nonvanishing odd moment or cumulant")
    moments = oracle_moments(functional, [x], [(1,) * n for n in range(1, m + 1)])
    total = BScalar.zero(x.order)
    for pi in enumerate_nc_even(m):
        product = BScalar.one(x.order)
        for block in pi.blocks:
            product = b_mul(product, moments[len(block) - 1])
            if product.is_zero():
                break
        total = total + product.scale(nc_lattice.mobius_to_top(pi))
    if total != t_cumulant(functional, [x], (1,) * m):
        raise AssertionError(
            "even-block restricted cumulant differs from the full cumulant"
        )
    return total


# --------------------------------------------------------------------------
# series helpers
# --------------------------------------------------------------------------


def boxed_identity(s, order, degree):
    """The unit for boxed convolution: coefficient (1,0,...,0) at every
    degree-1 word and nothing else (the R-transform of unit tuples)."""
    coeffs = {(i,): BScalar.one(order) for i in range(1, s + 1)}
    return BSeries(s, order, degree, coeffs)


def series_add(f, g):
    """Coefficientwise B-sum of two series of identical shape."""
    if (f.s, f.order, f.degree) != (g.s, g.order, g.degree):
        raise DimensionMismatch(
            f"series shapes differ: (s={f.s}, N={f.order}, D={f.degree}) "
            f"vs (s={g.s}, N={g.order}, D={g.degree})"
        )
    coeffs = dict(f.items())
    for word, value in g.items():
        coeffs[word] = coeffs.get(word, BScalar.zero(f.order)) + value
    return BSeries(f.s, f.order, f.degree, coeffs)


def family_assignment(functional, named_vars):
    """The scalar families each variable's entries are built over."""
    out = {}
    for name, var in named_vars.items():
        families = set()
        for entry in var.entries:
            for word in entry.numerators:
                for gen_id in word:
                    families.add(functional.generators[gen_id].family)
        out[name] = frozenset(families)
    return out
