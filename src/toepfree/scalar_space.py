"""The scalar noncommutative probability space (A, phi).

A distribution is specified by a table of joint free cumulants per family
(cross-family cumulants are identically zero, so distinct families are free
by construction). Every value is read off that table; no moment is summed
here. A cumulant whose slots hold words (products of generators) is a
cumulant with products as arguments (Krawczyk-Speicher; Nica-Speicher,
Lectures on the Combinatorics of Free Probability, Thm 11.12): if sigma is
the interval partition that the slots cut out of the m concatenated
letters, then

    kappa(w_1, ..., w_n) = sum over pi in NC(m) with pi v sigma = 1_m
                           of prod over blocks V of kappa(V).

For one letter per slot, sigma = 0_m and the only term is pi = 1_m: a
single table lookup. For one slot, every pi links it, so kappa_1(w) is
phi(w), the sum over all of NC(m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, prod
from typing import Iterable, Mapping, Sequence

from . import nc_lattice
from .errors import DegreeCapExceeded
from .ncpoly import (
    Generator,
    NcPolynomial,
    RationalLike,
    Word,
    as_fraction,
)

#: Default truncation degree for moments and series.
DEFAULT_DEGREE = 6
#: Largest supported truncation degree (NC(8) has 1430 elements).
MAX_DEGREE = 8

_ZERO = Fraction(0)

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


@dataclass(frozen=True)
class CumulantSpec:
    """Per-family joint free cumulant tables, with a degree cap.

    Keys of each family table are tuples of that family's generator ids
    (length 1..degree_cap); missing tuples mean cumulant zero. Cross-family
    joint cumulants are identically zero and are never stored.
    """

    families: Mapping[str, Mapping[tuple[str, ...], Fraction]]
    degree_cap: int = DEFAULT_DEGREE

    @staticmethod
    def build(
        families: Mapping[str, CumulantTable],
        degree_cap: int = DEFAULT_DEGREE,
    ) -> "CumulantSpec":
        frozen = {
            family: {
                tuple(key): as_fraction(val)
                for key, val in table.items()
                if as_fraction(val)
            }
            for family, table in families.items()
        }
        return CumulantSpec(frozen, degree_cap)

    def value(self, family: str, ids: tuple[str, ...]) -> Fraction:
        return self.families.get(family, {}).get(ids, Fraction(0))


class MomentFunctional:
    """The linear functional phi on A, derived from a CumulantSpec.

    Carries the generator table (ids with their families) and a
    per-instance memo table for word cumulants. Dict mutations are single
    atomic assignments, so shared use across threads yields identical
    results.
    """

    def __init__(
        self,
        generators: Iterable[Generator],
        spec: CumulantSpec,
    ):
        self.generators: dict[str, Generator] = {}
        for gen in generators:
            if gen.id in self.generators:
                raise ValueError(f"duplicate generator id {gen.id!r}")
            self.generators[gen.id] = gen
        if not 1 <= spec.degree_cap <= MAX_DEGREE:
            raise ValueError(
                f"degree cap must be in 1..{MAX_DEGREE}, got {spec.degree_cap}"
            )
        for family, table in spec.families.items():
            for key in table:
                if not 1 <= len(key) <= spec.degree_cap:
                    raise ValueError(
                        f"cumulant key {key} has length outside "
                        f"1..{spec.degree_cap}"
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
        self.spec = spec
        self.degree_cap = spec.degree_cap
        self._word_cumulant_memo: dict[tuple[Word, ...], Fraction] = {}

    def _block_cumulant(self, letters: tuple[str, ...]) -> Fraction:
        """kappa(V): the joint cumulant of a block of generator letters."""
        families = {self.generators[g].family for g in letters}
        if len(families) != 1:
            return Fraction(0)
        return self.spec.value(next(iter(families)), letters)

    def cumulant(self, args: Sequence[NcPolynomial]) -> Fraction:
        """The multilinear free cumulant k_n(args), expanded into word
        cumulants."""
        args = tuple(args)
        n = len(args)
        if n == 0:
            raise ValueError("cumulant needs at least one argument")
        if n > self.degree_cap:
            raise DegreeCapExceeded(
                f"cumulant arity {n} exceeds degree cap {self.degree_cap}"
            )
        # multilinear expansion: every slot splits into its terms, and the
        # cumulant of each word combination is shared across calls; most
        # combinations mix families and read 0, so their weights are
        # skipped. For n >= 2 a constant term reads 0 wherever it stands,
        # so it is dropped before the expansion.
        slots = [
            [word for word in p.numerators if word]
            if n >= 2 and () in p.numerators
            else p.numerators
            for p in args
        ]
        terms = []
        for words in product(*slots):
            value = self.cumulant_words(words)
            if value:
                nums = [p.numerators[word] for p, word in zip(args, words)]
                terms.append((prod(nums), value))
        return _weighted_sum(terms, (p.denominator for p in args))

    def cumulant_words(self, words: tuple[Word, ...]) -> Fraction:
        """The cumulant with one plain word per slot, memoized.

        Products as arguments: the sum over the pi that link all slots of
        the block cumulants of the concatenated letters. An empty word is
        the constant 1: kappa_1(1) = 1, and kappa_n(..., 1, ...) = 0 for
        n >= 2.
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
        if not all(words):
            total = Fraction(len(words) == 1)
        else:
            total = Fraction(0)
            for blocks in _linking_partitions(tuple(map(len, words))):
                value = Fraction(1)
                for block in blocks:
                    value *= self._block_cumulant(
                        tuple(letters[i] for i in block)
                    )
                    if not value:
                        break
                total += value
        self._word_cumulant_memo[words] = total
        return total

    def cumulant_of_ids(self, ids: Sequence[str]) -> Fraction:
        """Convenience: the cumulant of a tuple of single generators."""
        return self.cumulant(
            tuple(NcPolynomial.generator(g) for g in ids)
        )


def _weighted_sum(
    terms: Iterable[tuple[int, Fraction]], denominators: Iterable[int]
) -> Fraction:
    """The sum of weight * value over the terms, divided by the product
    of the denominators.

    The values are brought to the lcm of their denominators, so the sum
    runs on integers and one Fraction is built at the end; a zero sum,
    the common case for cumulants, builds none.
    """
    num, common = 0, 1
    for weight, value in terms:
        a = value.numerator
        if a:
            b = value.denominator
            if common % b:
                step = b // gcd(common, b)
                num *= step
                common *= step
            num += weight * a * (common // b)
    return Fraction(num, common * prod(denominators)) if num else _ZERO


@lru_cache(maxsize=None)
def _linking_partitions(
    lengths: tuple[int, ...],
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The pi in NC(m) with pi v sigma = 1_m, as blocks of 0-based letter
    positions, where sigma cuts m = sum(lengths) letters into consecutive
    slots of these lengths.

    The join is 1_m exactly when the blocks of pi link the slots into one
    component. There are at most 2^(m-1) length tuples for each m.
    """
    m = sum(lengths)
    if all(length == 1 for length in lengths):
        return ((tuple(range(m)),),)
    slot_of = [s for s, length in enumerate(lengths) for _ in range(length)]
    linking = []
    for pi in nc_lattice.enumerate_nc(m, cap=nc_lattice.HARD_DEGREE_CAP):
        components: list[set[int]] = []
        for block in pi.blocks:
            merged = {slot_of[i - 1] for i in block}
            apart = []
            for component in components:
                if component & merged:
                    merged |= component
                else:
                    apart.append(component)
            components = [*apart, merged]
        if len(components) == 1:
            linking.append(
                tuple(tuple(i - 1 for i in block) for block in pi.blocks)
            )
    return tuple(linking)


def build_space(
    family_tables: Mapping[str, Mapping[str, Mapping[str, object]]]
    | None = None,
    degree_cap: int = DEFAULT_DEGREE,
    *,
    families: Mapping[str, CumulantTable] | None = None,
    generators: Iterable[Generator] | None = None,
) -> MomentFunctional:
    """Assemble a MomentFunctional.

    Two entry points: pass ``family_tables`` mapping family name to
    {generator id: {kind, **params}} distribution descriptors (the CLI
    path), or pass explicit ``generators`` plus raw ``families`` cumulant
    tables (the programmatic path).
    """
    if family_tables is not None:
        gens: list[Generator] = []
        merged: dict[str, dict[tuple[str, ...], Fraction]] = {}
        for family, gen_dists in family_tables.items():
            table: dict[tuple[str, ...], Fraction] = {}
            for gen_id, dist in gen_dists.items():
                gens.append(Generator(gen_id, family))
                kind = str(dist.get("kind", ""))
                params = {k: v for k, v in dist.items() if k != "kind"}
                fragment = builtin_distribution(
                    kind, gen_id, degree_cap, **params
                )
                for key, val in fragment.items():
                    table[key] = table.get(key, Fraction(0)) + val
            merged[family] = {k: v for k, v in table.items() if v}
        spec = CumulantSpec.build(merged, degree_cap)
        return MomentFunctional(gens, spec)
    if generators is None or families is None:
        raise ValueError(
            "pass either family_tables or both generators and families"
        )
    spec = CumulantSpec.build(families, degree_cap)
    return MomentFunctional(generators, spec)
