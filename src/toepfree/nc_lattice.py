"""Noncrossing partitions NC(n): enumeration, Kreweras complement, Möbius.

Provides the canonical enumeration of noncrossing partitions, the Kreweras
complement, and the Möbius function of NC(n) in closed form.

NC(n) is built by the Catalan recursion on the least element: it is a
singleton, or it shares its block with a later element e, and then the
elements strictly between are partitioned on their own while those from e
on are partitioned with the least element joined to the block of e. A
partition given as blocks is checked in one left-to-right pass over a
stack of open blocks: each element lies in the innermost open block or
opens a new one.

Every interval of NC(n) is a product of full lattices NC(k), so each
Möbius value is a product of signed Catalan numbers, and no order relation
is built. The refinement order, zeta / delta, the recursive Möbius
function, interleaving and the even-block enumeration are reference routes
in the test suite (``tests/oracles.py``).

All values are immutable and all functions are pure; the enumeration of
each NC(n) is kept in an ``lru_cache``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DEFAULT_DEGREE_CAP, CrossingPartition, DegreeCapExceeded


def catalan(n: int) -> int:
    """The n-th Catalan number C_n = binom(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError(f"catalan undefined for n={n}")
    return math.comb(2 * n, n) // (n + 1)


def _is_noncrossing(blocks: Sequence[tuple[int, ...]]) -> bool:
    """True iff no a<b<c<d has {a,c} and {b,d} in two different blocks.

    One left-to-right pass keeps a stack of the open blocks, innermost on
    top. Each element must lie in the innermost open block or open a new
    one, and a block closes at its greatest element. The blocks must be
    sorted tuples.
    """
    block_of = {x: block for block in blocks for x in block}
    open_blocks: list[tuple[int, ...]] = []
    for x in sorted(block_of):
        block = block_of[x]
        if x == block[0]:
            open_blocks.append(block)
        elif open_blocks[-1] is not block:
            return False
        if x == block[-1]:
            open_blocks.pop()
    return True


class NcPartition(NamedTuple):
    """A noncrossing partition of {1, ..., n} in canonical form.

    Blocks are stored sorted internally and ordered by their minima; two
    partitions are equal iff their canonical forms are equal.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> "NcPartition":
        """Canonicalize and validate a partition given as iterables."""
        cleaned: list[tuple[int, ...]] = []
        for b in blocks:
            block = tuple(sorted(set(b)))
            if not block:
                raise ValueError("empty block in partition")
            cleaned.append(block)
        canon = tuple(sorted(cleaned, key=lambda b: b[0]))
        seen: set[int] = set()
        for block in canon:
            for x in block:
                if not 1 <= x <= n:
                    raise ValueError(f"element {x} outside 1..{n}")
                if x in seen:
                    raise ValueError(f"element {x} appears in two blocks")
                seen.add(x)
        if len(seen) != n:
            raise ValueError(f"blocks cover {len(seen)} of {n} elements")
        if not _is_noncrossing(canon):
            raise CrossingPartition(f"blocks {canon} cross")
        return NcPartition(n, canon)

    def to_json_obj(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    def __str__(self) -> str:
        return "{" + ",".join(
            "(" + ",".join(str(x) for x in b) + ")" for b in self.blocks
        ) + "}"


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"ground-set size must be positive, got {n}")
    if n > DEFAULT_DEGREE_CAP:
        raise DegreeCapExceeded(
            f"NC({n}) exceeds the degree cap {DEFAULT_DEGREE_CAP}"
        )


def _generate_nc(elements: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """All noncrossing partitions of an ordered ground set, in no order.

    The Catalan recursion on the least element: it is a singleton, or its
    block continues at some later element e. Then the elements strictly
    between form an independent noncrossing partition, and the least
    element joins the block of e in a noncrossing partition of the rest
    from e on. Each partition's blocks come ordered by their minima.
    """
    if not elements:
        return [()]
    first, rest = elements[0], elements[1:]
    out = [((first,), *p) for p in _generate_nc(rest)]
    for i in range(len(rest)):
        out.extend(
            ((first, *block), *inner, *others)
            for inner, (block, *others) in product(
                _generate_nc(rest[:i]), _generate_nc(rest[i:])
            )
        )
    return out


@lru_cache(maxsize=None)
def _enumerate_nc_cached(n: int) -> tuple[NcPartition, ...]:
    raw = _generate_nc(tuple(range(1, n + 1)))
    return tuple(NcPartition(n, blocks) for blocks in sorted(raw))


def enumerate_nc(n: int) -> list[NcPartition]:
    """All of NC(n), in lexicographic order on canonical block lists."""
    _check_n(n)
    return list(_enumerate_nc_cached(n))


def kreweras(pi: NcPartition) -> NcPartition:
    """The Kreweras complement of pi, as the permutation pi^(-1) gamma.

    Read each block of pi as the cycle that runs through it in increasing
    order, and let gamma be the long cycle (1 2 ... n). The cycles of
    pi^(-1) gamma are the blocks of Kr(pi) (Nica-Speicher, Lectures on the
    Combinatorics of Free Probability, Lecture 18).
    """
    n = pi.n
    pred = [0] * (n + 1)  # pred[b]: the predecessor of b in its cycle of pi
    for block in pi.blocks:
        for a, b in zip(block[-1:] + block[:-1], block):
            pred[b] = a
    seen = [False] * (n + 1)
    blocks = []
    for start in range(1, n + 1):  # each new cycle opens at its minimum
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = pred[x % n + 1]
        if cycle:
            blocks.append(tuple(sorted(cycle)))
    return NcPartition(n, tuple(blocks))


def mobius_to_top(pi: NcPartition) -> int:
    """mu(pi, 1_n), read off the block sizes of the Kreweras complement.

    The interval [pi, 1_n] is isomorphic to [0_n, Kr(pi)], which is the
    product of the full lattices NC(|W|) over the blocks W of Kr(pi), so
    mu(pi, 1_n) is the product of their signed Catalan numbers
    (-1)^(|W|-1) C_(|W|-1).
    """
    return math.prod(
        (-1) ** (len(w) - 1) * catalan(len(w) - 1)
        for w in kreweras(pi).blocks
    )


def mobius_intervals(n: int) -> Iterator[tuple[NcPartition, NcPartition, int]]:
    """Every pair sigma <= pi of NC(n) with its Möbius value mu(sigma, pi).

    The pi come in enumeration order, and the sigma below each pi in
    enumeration order too. The interval [sigma, pi] is the product over
    the blocks V of pi of the intervals [sigma|V, 1_V] (Speicher,
    Multiplicative functions on the lattice of non-crossing partitions,
    Math. Ann. 298, 1994). So the sigma below pi are the products of one
    partition of NC(|V|) per block, relabelled onto V, and mu(sigma, pi)
    is the product of their ``mobius_to_top`` values. No order relation
    of NC(n) is built.
    """
    # to_top[m]: (blocks, mu(rho, 1_m)) for every rho in NC(m)
    to_top: dict[int, list[tuple[tuple[tuple[int, ...], ...], int]]] = {}
    for pi in enumerate_nc(n):
        factors = []
        for block in pi.blocks:
            m = len(block)
            if m not in to_top:
                to_top[m] = [
                    (rho.blocks, mobius_to_top(rho))
                    for rho in _enumerate_nc_cached(m)
                ]
            factors.append(
                [
                    (tuple(tuple(block[x - 1] for x in b) for b in rho), mu)
                    for rho, mu in to_top[m]
                ]
            )
        below = []
        for choice in product(*factors):
            blocks = sorted(b for part, _ in choice for b in part)
            mu = math.prod(mu for _, mu in choice)
            below.append((NcPartition(n, tuple(blocks)), mu))
        # enumeration order is the order of the canonical block lists
        below.sort(key=lambda row: row[0].blocks)
        for sigma, mu in below:
            yield sigma, pi, mu
