"""Reference routes that only the tests use.

``cumulant_words_mobius`` computes the scalar cumulant of plain words by
Möbius inversion of moments,

    kappa(w_1, ..., w_n) = sum over pi in NC(n) of mu(pi, 1_n)
                           * prod over blocks V of phi(w_V),

where w_V concatenates the words of the slots in V. The library reads the
same cumulant off the table by the products-as-arguments sum; this route
shares none of that code, and takes its moments from ``phi_word_nc``.

``phi_word_nc`` is phi of a word as the sum over every pi in NC(n) of the
products of block cumulants read off the table. The library sums the same
moment by first-block recursion and never enumerates NC(n).

``moments_from_r_nc``, ``r_from_moments_mobius`` and
``boxed_convolution_kreweras`` are the series calculus written as sums
over every pi in NC(n): the zeta sum, the mu(pi, 1_n)-weighted sum and the
Kreweras-complement sum. The library sums the same series by first-block
recursion and never enumerates NC(n).

``poly_sum_of_products_fraction`` is the sum of products of polynomials
with every coefficient a ``Fraction``: the library sums the same products
on integer numerators over one common denominator.

``b_mul_fraction`` and ``b_add_fraction`` are the product and the sum of
the Toeplitz algebra on tuples of ``Fraction`` entries: the library runs
both on integer numerators over one common denominator.
"""

from fractions import Fraction

from toepfree import nc_lattice
from toepfree.series import BSeries, all_index_words
from toepfree.toeplitz_core import BScalar, b_mul


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


def _table_cumulant(functional, letters):
    """kappa of a block of letters: the table entry of their family, or 0
    when they mix families."""
    families = {functional.generators[g].family for g in letters}
    if len(families) != 1:
        return Fraction(0)
    return functional.spec.value(families.pop(), tuple(letters))


def phi_word_nc(functional, word):
    """phi(w) = sum over pi in NC(n) of prod over blocks V of kappa(w|V)."""
    if not word:
        return Fraction(1)
    total = Fraction(0)
    for pi in nc_lattice.enumerate_nc(len(word)):
        product = Fraction(1)
        for block in pi.blocks:
            product *= _table_cumulant(
                functional, tuple(word[i - 1] for i in block)
            )
            if not product:
                break
        total += product
    return total


def cumulant_words_mobius(functional, words):
    """The cumulant with one plain word per slot, by Möbius inversion."""
    lat = nc_lattice.lattice(len(words))
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
