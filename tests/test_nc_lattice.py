"""Lattice-layer tests: enumeration, order, Möbius, Kreweras, interleaving.

Every structural claim is checked against an independent brute-force oracle:
noncrossing partitions against a filter over all set partitions with the
quadruple crossing definition, Catalan numbers against their recurrence,
the recursive Möbius function of the oracle lattice (``oracles.NcLattice``)
against the defining convolution identity, the library's closed-form
Möbius table against that recursion, and the Kreweras complement against
an exhaustive search for the coarsest compatible partition. The order,
zeta / delta, interleaving and the even-block enumeration are oracles in
``tests/oracles.py``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    OddLength,
    block_of,
    delta,
    enumerate_nc_even,
    interleave,
    lattice,
    leq,
    mobius,
    one_partition,
    zero_partition,
    zeta,
)
from toepfree.errors import (
    CrossingPartition,
    DegreeCapExceeded,
    DimensionMismatch,
)
from toepfree.nc_lattice import (
    NcPartition,
    catalan,
    enumerate_nc,
    kreweras,
    mobius_intervals,
    mobius_to_top,
)

F = Fraction


# --------------------------------------------------------------------------
# independent oracles
# --------------------------------------------------------------------------


def all_set_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every set partition of {1..n}, canonical blocks, by direct assignment."""
    parts: list[list[list[int]]] = [[]]
    for x in range(1, n + 1):
        grown: list[list[list[int]]] = []
        for p in parts:
            for at in range(len(p)):
                grown.append(
                    [b + [x] if i == at else b for i, b in enumerate(p)]
                )
            grown.append(p + [[x]])
        parts = grown
    return [
        tuple(sorted((tuple(b) for b in p), key=lambda b: b[0]))
        for p in parts
    ]


def crossing_by_definition(blocks) -> bool:
    """The textbook test: some a < b < c < d with a,c together, b,d together
    in a different block."""
    of: dict[int, int] = {}
    for i, block in enumerate(blocks):
        for x in block:
            of[x] = i
    points = sorted(of)
    n = len(points)
    for ai in range(n):
        for bi in range(ai + 1, n):
            for ci in range(bi + 1, n):
                for di in range(ci + 1, n):
                    a, b, c, d = points[ai], points[bi], points[ci], points[di]
                    if of[a] == of[c] and of[b] == of[d] and of[a] != of[b]:
                        return True
    return False


def catalan_by_recurrence(n: int) -> int:
    vals = [1]
    for m in range(n):
        vals.append(sum(vals[i] * vals[m - i] for i in range(m + 1)))
    return vals[n]


# --------------------------------------------------------------------------
# enumeration
# --------------------------------------------------------------------------


def test_enumeration_matches_set_partition_filter():
    for n in range(1, 9):  # up to Bell(8) = 4,140 set partitions
        expected = {
            p for p in all_set_partitions(n) if not crossing_by_definition(p)
        }
        got = {p.blocks for p in enumerate_nc(n)}
        assert got == expected


def test_counts_are_catalan():
    for n in range(1, 9):
        assert len(enumerate_nc(n)) == catalan(n)


def test_catalan_closed_form_matches_recurrence():
    for n in range(13):
        assert catalan(n) == catalan_by_recurrence(n)
    with pytest.raises(ValueError):
        catalan(-1)


def test_enumeration_is_sorted_and_duplicate_free():
    for n in range(1, 7):
        parts = enumerate_nc(n)
        keys = [p.blocks for p in parts]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_single_crossing_partition_absent_at_n4():
    assert len(enumerate_nc(4)) == 14
    assert ((1, 3), (2, 4)) not in {p.blocks for p in enumerate_nc(4)}
    assert len(all_set_partitions(4)) == 15


def test_enumeration_rejects_bad_sizes():
    with pytest.raises(ValueError):
        enumerate_nc(0)
    with pytest.raises(DegreeCapExceeded, match=r"^NC\(11\) exceeds the degree cap 10$"):
        enumerate_nc(11)


# --------------------------------------------------------------------------
# canonical form and validation
# --------------------------------------------------------------------------


def test_from_blocks_canonicalizes():
    p = NcPartition.from_blocks(4, [[4, 3], [2, 1]])
    assert p.blocks == ((1, 2), (3, 4))
    assert str(p) == "{(1,2),(3,4)}"
    assert p.to_json_obj() == [[1, 2], [3, 4]]
    assert block_of(p) == {1: 0, 2: 0, 3: 1, 4: 1}


def test_partition_is_an_immutable_value():
    p = NcPartition.from_blocks(4, [[4, 3], [2, 1]])
    q = NcPartition(4, ((1, 2), (3, 4)))
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != NcPartition(4, ((1,), (2,), (3, 4)))
    assert repr(p) == "NcPartition(n=4, blocks=((1, 2), (3, 4)))"
    with pytest.raises(AttributeError):
        p.blocks = ((1, 2, 3, 4),)
    with pytest.raises(AttributeError):
        p.n = 3


def test_from_blocks_rejects_crossings_and_bad_covers():
    with pytest.raises(CrossingPartition):
        NcPartition.from_blocks(4, [[1, 3], [2, 4]])
    with pytest.raises(ValueError):
        NcPartition.from_blocks(3, [[1, 2]])  # misses 3
    with pytest.raises(ValueError):
        NcPartition.from_blocks(3, [[1, 2], [2, 3]])  # reuses 2
    with pytest.raises(ValueError):
        NcPartition.from_blocks(3, [[1, 2, 3], []])  # empty block
    with pytest.raises(ValueError):
        NcPartition.from_blocks(3, [[1, 2, 3, 4]])  # out of range


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 10))
def test_property_from_blocks_accepts_exactly_the_noncrossing(data, n):
    """A random set partition, its blocks listed by label and unsorted,
    is accepted iff the quadruple definition finds no crossing."""
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    by_label: dict[int, list[int]] = {}
    for x, label in enumerate(labels, 1):
        by_label.setdefault(label, []).insert(0, x)
    canon = tuple(sorted(tuple(sorted(b)) for b in by_label.values()))
    if crossing_by_definition(canon):
        with pytest.raises(CrossingPartition):
            NcPartition.from_blocks(n, by_label.values())
    else:
        assert NcPartition.from_blocks(n, by_label.values()).blocks == canon


def test_extremes():
    assert zero_partition(3).blocks == ((1,), (2,), (3,))
    assert one_partition(3).blocks == ((1, 2, 3),)


# --------------------------------------------------------------------------
# order, zeta, delta, Möbius
# --------------------------------------------------------------------------


def test_leq_is_a_partial_order_on_nc4():
    parts = enumerate_nc(4)
    for p in parts:
        assert leq(zero_partition(4), p)
        assert leq(p, one_partition(4))
        assert leq(p, p)
    # antisymmetry
    for p in parts:
        for q in parts:
            if leq(p, q) and leq(q, p):
                assert p == q
    # transitivity
    for p in parts:
        ups = [q for q in parts if leq(p, q)]
        for q in ups:
            for r in parts:
                if leq(q, r):
                    assert leq(p, r)


def test_zeta_delta_values():
    a = NcPartition.from_blocks(3, [[1, 2], [3]])
    b = one_partition(3)
    assert zeta(a, b) == 1
    assert zeta(b, a) == 0
    assert delta(a, a) == 1
    assert delta(a, b) == 0
    with pytest.raises(DimensionMismatch):
        leq(a, one_partition(4))


def test_convolution_identity_on_all_intervals():
    """zeta * mu = delta and mu * zeta = delta on every interval, n <= 6."""
    for n in range(1, 7):
        lat = lattice(n)
        size = len(lat.elements)
        for hi in range(size):
            for lo in lat.below[hi]:
                inner = lat.interval(lo, hi)
                right = sum(
                    (lat.mu(mid, hi) for mid in inner), Fraction(0)
                )
                left = sum(
                    (lat.mu(lo, mid) for mid in inner), Fraction(0)
                )
                expected = Fraction(1) if lo == hi else Fraction(0)
                assert right == expected
                assert left == expected


def test_mobius_bottom_to_top_is_signed_catalan():
    for n in range(1, 8):
        value = mobius(zero_partition(n), one_partition(n))
        assert value == Fraction((-1) ** (n - 1) * catalan(n - 1))


def test_mobius_small_values():
    assert mobius(zero_partition(2), one_partition(2)) == -1
    assert mobius(zero_partition(4), one_partition(4)) == -5
    a = NcPartition.from_blocks(3, [[1, 2], [3]])
    assert mobius(a, a) == 1
    assert mobius(a, one_partition(3)) == -1
    # incomparable pairs give 0
    b = NcPartition.from_blocks(3, [[1], [2, 3]])
    assert mobius(a, b) == 0
    assert mobius(one_partition(3), zero_partition(3)) == 0


def test_closed_form_mobius_table_matches_recursion():
    """Every row of the closed-form table, pairs and order included, is a
    pair sigma <= pi of the oracle lattice with its recursive Möbius
    value, and every such pair is a row, for n <= 7."""
    for n in range(1, 8):
        lat = lattice(n)
        expected = [
            (lat.elements[lo], hi, lat.mu(lo, hi_at))
            for hi_at, hi in enumerate(lat.elements)
            for lo in sorted(lat.below[hi_at])
        ]
        assert list(mobius_intervals(n)) == expected
        top = lat.index[one_partition(n)]
        for at, pi in enumerate(lat.elements):
            assert mobius_to_top(pi) == lat.mu(at, top)
    assert sum(1 for _ in mobius_intervals(7)) == 7752


def test_interval_contents():
    lat = lattice(4)
    bottom = lat.index[zero_partition(4)]
    top = lat.index[one_partition(4)]
    assert lat.interval(bottom, top) == set(range(len(lat.elements)))
    assert lat.interval(top, bottom) == set()
    assert lat.interval(top, top) == {top}


# --------------------------------------------------------------------------
# Kreweras complement
# --------------------------------------------------------------------------


def kreweras_by_exhaustion(pi: NcPartition) -> NcPartition:
    """The coarsest sigma whose interleaving with pi stays noncrossing,
    found by brute force over all of NC(n)."""
    compatible = []
    for sigma in enumerate_nc(pi.n):
        try:
            interleave(pi, sigma)
        except CrossingPartition:
            continue
        compatible.append(sigma)
    best = min(compatible, key=lambda s: len(s.blocks))
    # the compatible set must have a unique maximum: everything below it
    assert all(leq(s, best) for s in compatible)
    return best


def test_kreweras_matches_exhaustive_coarsest():
    for n in range(1, 7):
        for pi in enumerate_nc(n):
            assert kreweras(pi) == kreweras_by_exhaustion(pi)


def test_kreweras_extremes_and_known_value():
    for n in range(1, 8):
        assert kreweras(zero_partition(n)) == one_partition(n)
        assert kreweras(one_partition(n)) == zero_partition(n)
    assert kreweras(
        NcPartition.from_blocks(3, [[1, 2], [3]])
    ) == NcPartition.from_blocks(3, [[1], [2, 3]])


def test_kreweras_is_a_bijection_with_size_identity():
    for n in range(1, 8):
        parts = enumerate_nc(n)
        images = {kreweras(p) for p in parts}
        assert len(images) == len(parts)
        assert images == set(parts)
        for p in parts:
            assert len(p.blocks) + len(kreweras(p).blocks) == n + 1


def test_kreweras_squared_is_a_rotation_not_identity():
    # applying the complement twice rotates every point down by one
    pi = NcPartition.from_blocks(3, [[1, 2], [3]])
    twice = kreweras(kreweras(pi))
    assert twice == NcPartition.from_blocks(3, [[1, 3], [2]])
    assert twice != pi


# --------------------------------------------------------------------------
# interleaving
# --------------------------------------------------------------------------


def test_interleave_examples():
    assert interleave(one_partition(2), zero_partition(2)).blocks == (
        (1, 3),
        (2,),
        (4,),
    )
    assert interleave(zero_partition(2), one_partition(2)).blocks == (
        (1,),
        (2, 4),
        (3,),
    )


def test_interleave_rejects_crossing_unions():
    pi = one_partition(2)  # occupies slots 1, 3
    with pytest.raises(CrossingPartition):
        interleave(pi, one_partition(2))  # slots 2, 4 would cross
    with pytest.raises(DimensionMismatch):
        interleave(one_partition(2), one_partition(3))


def test_interleave_with_kreweras_never_crosses():
    for n in range(1, 7):
        for pi in enumerate_nc(n):
            merged = interleave(pi, kreweras(pi))
            assert merged.n == 2 * n


# --------------------------------------------------------------------------
# even-block sublattice
# --------------------------------------------------------------------------


def test_even_enumeration_is_the_parity_filter():
    for m in (2, 4, 6, 8):
        expected = [
            p
            for p in enumerate_nc(m)
            if all(len(b) % 2 == 0 for b in p.blocks)
        ]
        assert enumerate_nc_even(m) == expected


def test_even_enumeration_m4_explicit():
    assert [p.blocks for p in enumerate_nc_even(4)] == [
        ((1, 2), (3, 4)),
        ((1, 2, 3, 4),),
        ((1, 4), (2, 3)),
    ]


def test_even_enumeration_rejects_odd_sizes():
    with pytest.raises(OddLength):
        enumerate_nc_even(3)
    with pytest.raises(OddLength):
        enumerate_nc_even(1)


# --------------------------------------------------------------------------
# property-based checks
# --------------------------------------------------------------------------


def nc_element(draw, n: int) -> NcPartition:
    parts = enumerate_nc(n)
    return parts[draw(st.integers(0, len(parts) - 1))]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 6))
def test_property_mobius_zero_off_order(data, n):
    theta = nc_element(data.draw, n)
    pi = nc_element(data.draw, n)
    if leq(theta, pi):
        assert zeta(theta, pi) == 1
    else:
        assert mobius(theta, pi) == 0


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 6))
def test_property_kreweras_reverses_order(data, n):
    theta = nc_element(data.draw, n)
    pi = nc_element(data.draw, n)
    if leq(theta, pi):
        assert leq(kreweras(pi), kreweras(theta))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 6))
def test_property_interleave_block_count(data, n):
    pi = nc_element(data.draw, n)
    merged = interleave(pi, kreweras(pi))
    assert len(merged.blocks) == len(pi.blocks) + len(kreweras(pi).blocks)
