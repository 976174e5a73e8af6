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

The Fraction views, ``builtin_distribution`` and the functional's
``families`` and ``cumulant_words``, are defined in ``library`` and bound
here on first use, so that a query that reads none of them never
compiles them.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Mapping, TypeAlias

from . import _defer, _from_library
from .errors import MAX_DEGREE, DegreeCapExceeded
from .ncpoly import Generator, RationalLike, Word, _ratio

#: Default truncation degree for moments and series.
DEFAULT_DEGREE = 6

CumulantTable: TypeAlias = "Mapping[tuple[str, ...], RationalLike]"

__getattr__ = _from_library(__name__, "builtin_distribution")


def _distribution(gen_id: str, degree_cap: int, params: dict[str, object]
                  ) -> dict[tuple[str, ...], tuple[int, int]]:
    """builtin_distribution of the descriptor params, {kind, **params},
    with each value as integers (p, q), q > 0, and zeros kept; it pops
    what it reads."""
    kind = str(params.pop("kind", ""))
    if kind == "semicircular":
        table = {(gen_id, gen_id): _ratio(params.pop("variance", 1))}
    elif kind == "free_poisson":
        rate = _ratio(params.pop("rate", 1))
        table = {(gen_id,) * n: rate for n in range(1, degree_cap + 1)}
    elif kind == "constant":
        table = {(gen_id,): _ratio(params.pop("value", 0))}
    elif kind == "custom":
        raw = params.pop("cumulants", {})
        if not isinstance(raw, Mapping):
            raise ValueError("custom distribution needs a cumulants mapping")
        table = {
            tuple(str(g) for g in key): _ratio(val) for key, val in raw.items()
        }
    else:
        raise ValueError(f"unknown distribution kind {kind!r}")
    if params:
        raise ValueError(
            f"unexpected parameters for {kind!r}: {sorted(params)}"
        )
    return table


class MomentFunctional:
    """The linear functional phi on A, given by per-family joint free
    cumulant tables.

    Keys of each family table are tuples of that family's generator ids
    (length 1..degree_cap); missing tuples mean cumulant zero, and zero
    values are dropped. Cross-family joint cumulants are identically zero
    and are never stored, so one table by key serves every family. Every
    value is held in integers: ``den`` is a positive integer that clears
    the tables, and a cumulant whose key has b letters is held as
    kappa den^b. By homogeneity, a word cumulant of m letters in all is
    then an integer over den^m; the per-instance memo of word cumulants
    holds those integers, for word tuples of at most degree_cap letters
    over the declared generators, and is freed together with the
    functional. ``families`` and ``cumulant_words`` give Fractions. Dict
    mutations are single atomic assignments, so shared use across threads
    yields identical results.
    """

    def __init__(
        self,
        generators: Iterable[Generator],
        families: Mapping[str, CumulantTable],
        degree_cap: int = DEFAULT_DEGREE,
    ):
        # per family, each nonzero value as integers (p, q)
        self._ratios = {
            family: {tuple(key): r for key, val in table.items()
                     if (r := _ratio(val))[0]}
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
        for family, table in self._ratios.items():
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
        tables = self._ratios.values()
        #: a positive integer that clears every table value
        self.den = den = lcm(*(q for table in tables for _, q in table.values()))
        self._kappa = {key: p * den ** len(key) // q
                       for table in tables for key, (p, q) in table.items()}
        self._word_cumulant_memo: dict[tuple[Word, ...], int] = {}

    def cumulant_numerator(self, words: tuple[Word, ...]) -> int:
        """The cumulant with one plain word per slot times den^m, m the
        letters of the words: an integer, memoized.

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

    def _cumulant(self, words: tuple[Word, ...]) -> int:
        """cumulant_numerator of checked words, past its memo lookup."""
        if not all(words):
            total = int(len(words) == 1)
        elif all(len(word) == 1 for word in words):
            total = self._kappa.get(tuple(word[0] for word in words), 0)
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

    def _first_block_sum(self, slots: tuple[Word, ...], whole: bool) -> int:
        """The sum over the blocks V that hold slot 1 (V = [n] only if
        ``whole``) of kappa(slots|V) times phi of each gap's product, each
        factor over den to the power of its letters, so the sum over den^m
        too."""
        memo, n = self._word_cumulant_memo, len(slots)
        blocks = [((0,), slots[:1])]  # (V, slots|V)
        for i in range(1, n):
            blocks += [(v + (i,), key + slots[i:i + 1]) for v, key in blocks]
        if not whole:
            blocks.pop()  # [n], the last block made
        total = 0
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


_defer(MomentFunctional, "families cumulant_words")


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
    merged: dict[str, dict[tuple[str, ...], tuple[int, int]]] = {}
    for family, gen_dists in family_tables.items():
        table = merged[family] = {}
        for gen_id, dist in gen_dists.items():
            gens.append(Generator(gen_id, family))
            for key, (p, q) in _distribution(gen_id, degree_cap,
                                             dict(dist)).items():
                a, b = table.get(key, (0, 1))
                table[key] = (a * q + p * b, b * q)
    return MomentFunctional(gens, merged, degree_cap)
