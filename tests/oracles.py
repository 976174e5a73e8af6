"""Reference routes that only the tests use.

``cumulant_words_mobius`` computes the scalar cumulant of plain words by
Möbius inversion of moments,

    kappa(w_1, ..., w_n) = sum over pi in NC(n) of mu(pi, 1_n)
                           * prod over blocks V of phi(w_V),

where w_V concatenates the words of the slots in V. The library reads the
same cumulant off the table by the products-as-arguments sum; this route
shares none of that code beyond ``phi_word``.
"""

from fractions import Fraction

from toepfree import nc_lattice


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
            value *= functional.phi_word(letters)
        total += value
    return total
