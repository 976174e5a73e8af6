"""The scalar noncommutative probability space (A, phi).

A distribution is specified by a table of joint free cumulants per family
(cross-family cumulants are identically zero, so distinct families are free
by construction). Every value is read off that table. A cumulant whose
slots hold words (products of generators) is a cumulant with products as
arguments (Krawczyk-Speicher; Nica-Speicher, Lectures on the Combinatorics
of Free Probability, Lecture 11), taken by the moment-cumulant formula over
its slots. Summed by the block V that holds slot 1, the partitions of each
gap that V leaves sum to phi of the product of the gap's slots, so for
n >= 2 slots

    kappa(w_1, ..., w_n) = phi(w_1 ... w_n)
                           - sum over V with 1 in V, V != [n],
                             of kappa(w|V) prod over the gaps G of V
                             of phi(product of the slots in G),

and phi(u) = kappa_1(u) is the same sum over the letters of u, with the
V = [n] term kept. Slots of one letter each are a table lookup.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DegreeCapExceeded
from .ncpoly import Generator, RationalLike, Word, as_fraction

#: Default truncation degree for moments and series.
DEFAULT_DEGREE = 6
#: Largest supported truncation degree. It bounds the letters of a word
#: cumulant, so each first-block sum of cumulant_words visits at most
#: 2^7 = 128 blocks V. errors.DEFAULT_DEGREE_CAP (10) bounds another
#: cost, the size of NC(n), and the two differ on purpose: raising this
#: to 10 would accept config caps 9 and 10, lowering that to 8 would
#: refuse ``nc list --n 9`` and ``10``.
MAX_DEGREE = 8

CumulantTable = Mapping[tuple[str, ...], RationalLike]


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
    if kind == "semicircular":
        variance = as_fraction(params.pop("variance", 1))  # type: ignore[arg-type]
        table = {(gen_id, gen_id): variance}
    elif kind == "free_poisson":
        rate = as_fraction(params.pop("rate", 1))  # type: ignore[arg-type]
        table = {
            (gen_id,) * n: rate for n in range(1, degree_cap + 1)
        }
    elif kind == "constant":
        value = as_fraction(params.pop("value", 0))  # type: ignore[arg-type]
        table = {(gen_id,): value}
    elif kind == "custom":
        raw = params.pop("cumulants", {})
        if not isinstance(raw, Mapping):
            raise ValueError("custom distribution needs a cumulants mapping")
        table = {
            tuple(str(g) for g in key): as_fraction(val)  # type: ignore[arg-type]
            for key, val in raw.items()
        }
    else:
        raise ValueError(f"unknown distribution kind {kind!r}")
    if params:
        raise ValueError(
            f"unexpected parameters for {kind!r}: {sorted(params)}"
        )
    return {key: val for key, val in table.items() if val}


class MomentFunctional:
    """The linear functional phi on A, given by per-family joint free
    cumulant tables.

    Keys of each family table are tuples of that family's generator ids
    (length 1..degree_cap); missing tuples mean cumulant zero, and zero
    values are dropped. Cross-family joint cumulants are identically zero
    and are never stored. Carries the generator table (ids with their
    families) and a per-instance memo of word cumulants, which holds word
    tuples of at most degree_cap letters over the declared generators and
    is freed together with the functional. Dict mutations are single
    atomic assignments, so shared use across threads yields identical
    results.
    """

    def __init__(
        self,
        generators: Iterable[Generator],
        families: Mapping[str, CumulantTable],
        degree_cap: int = DEFAULT_DEGREE,
    ):
        self.families: dict[str, dict[tuple[str, ...], Fraction]] = {
            family: {
                tuple(key): value
                for key, val in table.items()
                if (value := as_fraction(val))
            }
            for family, table in families.items()
        }
        self.generators: dict[str, Generator] = {}
        for gen in generators:
            if gen.id in self.generators:
                raise ValueError(f"duplicate generator id {gen.id!r}")
            self.generators[gen.id] = gen
        if not 1 <= degree_cap <= MAX_DEGREE:
            raise ValueError(
                f"degree cap must be in 1..{MAX_DEGREE}, got {degree_cap}"
            )
        for family, table in self.families.items():
            for key in table:
                if not 1 <= len(key) <= degree_cap:
                    raise ValueError(
                        f"cumulant key {key} has length outside "
                        f"1..{degree_cap}"
                    )
                for gen_id in key:
                    gen = self.generators.get(gen_id)
                    if gen is None:
                        raise ValueError(
                            f"cumulant key {key} references undeclared "
                            f"generator {gen_id!r}"
                        )
                    if gen.family != family:
                        raise ValueError(
                            f"cumulant key {key} of family {family!r} "
                            f"references generator {gen_id!r} of family "
                            f"{gen.family!r}"
                        )
        self.degree_cap = degree_cap
        self._word_cumulant_memo: dict[tuple[Word, ...], Fraction] = {}

    def _block_cumulant(self, letters: tuple[str, ...]) -> Fraction:
        """kappa(V): the joint cumulant of a block of generator letters."""
        families = {self.generators[g].family for g in letters}
        if len(families) != 1:
            return Fraction(0)
        return self.families.get(families.pop(), {}).get(letters, Fraction(0))

    def cumulant_words(self, words: tuple[Word, ...]) -> Fraction:
        """The cumulant with one plain word per slot, memoized.

        Products as arguments, by the first-block recursion of the module
        docstring; every value it reaches is memoized too. An empty word
        is the constant 1: kappa_1(1) = 1, and kappa_n(..., 1, ...) = 0
        for n >= 2.
        """
        cached = self._word_cumulant_memo.get(words)
        if cached is not None:
            return cached
        if not words:
            raise ValueError("cumulant needs at least one argument")
        letters = tuple(gen_id for word in words for gen_id in word)
        if len(letters) > self.degree_cap:
            raise DegreeCapExceeded(
                f"word of length {len(letters)} exceeds degree cap "
                f"{self.degree_cap}"
            )
        for gen_id in letters:
            if gen_id not in self.generators:
                raise ValueError(f"undeclared generator {gen_id!r} in word")
        return self._cumulant(words)

    def _cumulant(self, words: tuple[Word, ...]) -> Fraction:
        """cumulant_words of checked words, past its memo lookup."""
        if not all(words):
            total = Fraction(len(words) == 1)
        elif all(len(word) == 1 for word in words):
            total = self._block_cumulant(tuple(word[0] for word in words))
        elif len(words) == 1:
            total = self._first_block_sum(tuple((g,) for g in words[0]), True)
        else:
            product = (tuple(g for word in words for g in word),)
            total = self._word_cumulant_memo.get(product)
            if total is None:
                total = self._cumulant(product)
            total -= self._first_block_sum(words, False)
        self._word_cumulant_memo[words] = total
        return total

    def _first_block_sum(self, slots: tuple[Word, ...],
                         whole: bool) -> Fraction:
        """The sum over the blocks V that hold slot 1 (V = [n] only if
        ``whole``) of kappa(slots|V) times phi of each gap's product."""
        memo, n = self._word_cumulant_memo, len(slots)
        blocks = [((0,), slots[:1])]  # (V, slots|V)
        for i in range(1, n):
            blocks += [(v + (i,), key + slots[i:i + 1]) for v, key in blocks]
        if not whole:
            blocks.pop()  # [n], the last block made
        total = Fraction(0)
        for block, key in blocks:
            value = memo.get(key)
            if value is None:
                value = self._cumulant(key)
            if not value:
                continue
            for a, b in zip(block, block[1:] + (n,)):
                if b - a > 1:
                    gap = (tuple(g for word in slots[a + 1:b] for g in word),)
                    phi = memo.get(gap)
                    value *= self._cumulant(gap) if phi is None else phi
                    if not value:
                        break
            total += value
        return total


def build_space(
    family_tables: Mapping[str, Mapping[str, Mapping[str, object]]],
    degree_cap: int = DEFAULT_DEGREE,
) -> MomentFunctional:
    """Assemble a MomentFunctional from ``family_tables``, mapping family
    name to {generator id: {kind, **params}} distribution descriptors
    (the CLI path). A functional of explicit generators and raw cumulant
    tables is ``MomentFunctional(generators, families, degree_cap)``.
    """
    gens: list[Generator] = []
    merged: dict[str, dict[tuple[str, ...], Fraction]] = {}
    for family, gen_dists in family_tables.items():
        table: dict[tuple[str, ...], Fraction] = {}
        for gen_id, dist in gen_dists.items():
            gens.append(Generator(gen_id, family))
            kind = str(dist.get("kind", ""))
            params = {k: v for k, v in dist.items() if k != "kind"}
            fragment = builtin_distribution(kind, gen_id, degree_cap, **params)
            for key, val in fragment.items():
                table[key] = table.get(key, Fraction(0)) + val
        merged[family] = table
    return MomentFunctional(gens, merged, degree_cap)
