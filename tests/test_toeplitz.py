"""Toeplitz-algebra tests: products, compositions, the cumulant walk and
its two reference paths.

The product is validated against an explicit matrix embedding
(``oracles.t_mul_oracle``), the composition terms against direct
multiplication of the product chain, and the cumulant walk against the sum
over compositions (``oracles.t_cumulant_compositions``), refusals
included, and against an independent Möbius-inversion path
(``oracles.t_cumulant_mobius``). The moment-cumulant lattice formula is
then re-derived in the test itself as a third, engine-free reference.
"""

import itertools
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    b_add_fraction,
    b_mul_fraction,
    centrality_commutes,
    chain_product,
    composition_terms,
    compositions,
    expect,
    from_bscalar,
    t_cumulant_compositions,
    t_cumulant_mobius,
    t_mul_oracle,
    variables_from_json,
    zero_variable,
)
from toepfree import nc_lattice
from toepfree.errors import DegreeCapExceeded, DimensionMismatch
from toepfree.ncpoly import (
    NcPolynomial,
    format_rational,
    poly_add,
    poly_mul,
    poly_scale,
)
from toepfree.scalar_space import MomentFunctional, build_space
from toepfree.series import BSeries, moment_series
from toepfree.toeplitz_core import (
    BScalar,
    TVariable,
    b_add,
    b_mul,
    t_cumulant,
    t_cumulants,
    t_mul,
)

F = Fraction
gen = NcPolynomial.generator


def word(w: tuple[str, ...]) -> NcPolynomial:
    return NcPolynomial({w: 1})


IDS = ["a1", "b1", "a2", "b2", "a3", "b3"]


def rand_fraction(rng: random.Random) -> F:
    return F(rng.randint(-4, 4), rng.randint(1, 3))


def rand_bscalar(rng: random.Random, n: int) -> BScalar:
    return BScalar.of([rand_fraction(rng) for _ in range(n)])


def rand_poly(rng: random.Random, ids=tuple(IDS)) -> NcPolynomial:
    p = NcPolynomial.zero()
    for _ in range(rng.randint(1, 3)):
        w = tuple(rng.choice(ids) for _ in range(rng.randint(0, 2)))
        p = poly_add(p, poly_scale(F(rng.randint(-3, 3)), word(w)))
    return p


def rand_tvariable(rng: random.Random, n: int) -> TVariable:
    return TVariable.of([rand_poly(rng) for _ in range(n)])


# --------------------------------------------------------------------------
# BScalar arithmetic
# --------------------------------------------------------------------------


def test_b_mul_golden_n4():
    x = BScalar.of([1, 2, 0, 0])
    y = BScalar.of([3, 0, 1, 0])
    assert b_mul(x, y) == BScalar.of([3, 6, 1, 2])
    assert b_mul(x, y) == b_mul(y, x)
    with pytest.raises(DimensionMismatch):
        b_add(x, BScalar.one(3))
    with pytest.raises(DimensionMismatch):
        b_mul(x, BScalar.one(3))


def test_bscalar_ring_laws_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        a, b, c = (rand_bscalar(rng, n) for _ in range(3))
        assert b_mul(a, b) == b_mul(b, a)
        assert b_mul(a, b_mul(b, c)) == b_mul(b_mul(a, b), c)
        assert b_mul(a, b_add(b, c)) == b_add(b_mul(a, b), b_mul(a, c))
        assert b_mul(a, BScalar.one(n)) == a


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.data(),
)
def test_property_b_mul_commutes(n, data):
    frac = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    a = BScalar.of(data.draw(st.lists(frac, min_size=n, max_size=n)))
    b = BScalar.of(data.draw(st.lists(frac, min_size=n, max_size=n)))
    assert b_mul(a, b) == b_mul(b, a)
    assert (a + b) == (b + a)
    assert (a - a).is_zero()
    assert a.scale(2) == a + a


def test_bscalar_json():
    assert BScalar.of([F(1, 2), -3]).to_json_obj() == ["1/2", "-3"]
    assert str(BScalar.of([1, 2])) == "(1, 2)"


def test_bscalar_json_reads_den_and_nums():
    """to_json_obj, formatted from den and nums, equals format_rational of
    each Fraction entry, on elements mixing zero, negative, integer and
    fractional entries, with and without a common denominator."""
    rng = random.Random(1907)
    pool = [
        lambda: 0,
        lambda: rng.randint(-9, 9),
        lambda: F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
        lambda: F(rng.choice([-1, 1]) * rng.randint(1, 5), 6),
    ]
    for _ in range(400):
        b = BScalar.of([rng.choice(pool)() for _ in range(rng.randint(1, 6))])
        assert b.to_json_obj() == [format_rational(x) for x in b.entries], b
    assert BScalar.zero(3).to_json_obj() == ["0", "0", "0"]
    assert BScalar.of([F(-4, 6), F(3, 6), -2]).to_json_obj() == ["-2/3", "1/2", "-2"]


def test_bscalar_stored_form_golden():
    x = BScalar.of([F(1, 2), F(-1, 3), 0])
    assert (x.den, x.nums) == (6, (3, -2, 0))
    assert x.entries == (F(1, 2), F(-1, 3), F(0))
    assert (BScalar.zero(2).den, BScalar.zero(2).nums) == (1, (0, 0))
    assert (BScalar.one(3).den, BScalar.one(3).nums) == (1, (1, 0, 0))
    halves = BScalar((F(2, 4), F(6, 4)))
    assert (halves.den, halves.nums) == (2, (1, 3))
    # every denominator cancels: the sum is stored over 1
    total = b_add(x, BScalar.of([F(1, 2), F(1, 3), 1]))
    assert (total.den, total.nums) == (1, (1, 0, 1))
    difference = x - x
    assert (difference.den, difference.nums) == (1, (0, 0, 0))
    with pytest.raises(AttributeError):
        x.den = 1


def test_tvariable_is_an_immutable_value():
    x = TVariable.of([gen("a"), NcPolynomial.constant(2)])
    y = TVariable([gen("a"), NcPolynomial.constant(F(4, 2))])
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != TVariable.of([gen("a"), NcPolynomial.constant(3)])
    assert repr(x) == f"TVariable({x})"
    with pytest.raises(AttributeError):
        x.entries = ()
    # not a tuple: no length, and an int times it is no repetition
    assert not isinstance(x, tuple)
    with pytest.raises(TypeError):
        len(x)
    with pytest.raises(TypeError):
        2 * x


def _is_canonical(b: BScalar) -> bool:
    """A positive denominator sharing no factor with all the numerators."""
    return b.den > 0 and gcd(b.den, *b.nums) == 1 and len(b.nums) == b.order


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5), st.data())
def test_property_integer_form_matches_fraction_oracle(n, data):
    """Every result of the B arithmetic is in canonical form, has the
    entries the Fraction oracle gives, and hashes like the same value
    built by another route."""
    frac = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    xe, ye = (
        tuple(data.draw(st.lists(frac, min_size=n, max_size=n)))
        for _ in range(2)
    )
    c = data.draw(frac)
    x, y = BScalar.of(xe), BScalar.of(ye)
    series = BSeries(1, n, 2, {(1,): x, (1, 1): y})
    back = BSeries.from_json_obj(json.loads(json.dumps(series.to_json_obj())))
    results = [
        (x, xe),
        (BScalar.of(str(v) for v in ye), ye),
        (b_mul(x, y), b_mul_fraction(xe, ye)),
        (b_add(x, y), b_add_fraction(xe, ye)),
        (x.scale(c), tuple(c * v for v in xe)),
        (x - y, tuple(a - b for a, b in zip(xe, ye))),
        (back.coef((1,)), xe),
        (back.coef((1, 1)), ye),
    ]
    for got, expected in results:
        assert _is_canonical(got)
        assert got.entries == tuple(expected)
        # the same value from its Fraction entries
        rebuilt = BScalar.of(expected)
        assert got == rebuilt and hash(got) == hash(rebuilt)
    # equal values reached by different routes
    routes = [
        (b_mul(x, y), b_mul(y, x)),
        (b_add(x, y), b_add(y, x)),
        (b_add(x - y, y), x),
        (x.scale(2), x + x),
        (b_mul(x, BScalar.one(n)), x),
        (back, series),
    ]
    for left, right in routes:
        assert left == right and hash(left) == hash(right)


# --------------------------------------------------------------------------
# TVariable products and the matrix oracle
# --------------------------------------------------------------------------


def test_triple_product_entries_n2():
    x1 = TVariable.of([gen("a1"), gen("b1")])
    x2 = TVariable.of([gen("a2"), gen("b2")])
    x3 = TVariable.of([gen("a3"), gen("b3")])
    triple = chain_product([x1, x2, x3])
    assert triple.entries[0] == word(("a1", "a2", "a3"))
    assert triple.entries[1] == (
        word(("a1", "a2", "b3"))
        + word(("a1", "b2", "a3"))
        + word(("b1", "a2", "a3"))
    )


def test_product_shape_n4_symbolic():
    """Entry j of a generic N=4 product is sum_k x_k y_{(j+1)-k}."""
    xs = [gen(f"x{i}") for i in range(1, 5)]
    ys = [gen(f"y{i}") for i in range(1, 5)]
    got = t_mul(TVariable.of(xs), TVariable.of(ys))
    for j in range(1, 5):
        expected = NcPolynomial.zero()
        for k in range(1, j + 1):
            expected = expected + word((f"x{k}", f"y{j + 1 - k}"))
        assert got.entries[j - 1] == expected


def test_t_mul_matches_matrix_oracle_random():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 5)
        u, v = rand_tvariable(rng, n), rand_tvariable(rng, n)
        assert t_mul(u, v) == t_mul_oracle(u, v)


def test_t_mul_associative_random():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 4)
        u, v, w = (rand_tvariable(rng, n) for _ in range(3))
        assert t_mul(t_mul(u, v), w) == t_mul(u, t_mul(v, w))


def test_embedded_scalars_are_central():
    rng = random.Random(10)
    for _ in range(25):
        n = rng.randint(1, 4)
        b = rand_bscalar(rng, n)
        u = rand_tvariable(rng, n)
        assert centrality_commutes(b, u)


def test_unit_and_zero_tuples():
    rng = random.Random(11)
    u = rand_tvariable(rng, 3)
    unit = from_bscalar(BScalar.one(3))
    assert t_mul(u, unit) == u
    assert t_mul(unit, u) == u
    prod = t_mul(u, zero_variable(3))
    assert all(p.is_zero() for p in prod.entries)
    with pytest.raises(DimensionMismatch):
        t_mul(u, from_bscalar(BScalar.one(2)))
    with pytest.raises(ValueError):
        chain_product([])


def test_tvariable_json_roundtrip():
    rng = random.Random(12)
    u = rand_tvariable(rng, 3)
    assert variables_from_json(u.to_json_obj()) == u


# --------------------------------------------------------------------------
# compositions: the terms Q_j of the product recursion
# --------------------------------------------------------------------------


def multiply_out(terms) -> NcPolynomial:
    total = NcPolynomial.zero()
    for seq in terms:
        product = NcPolynomial.one()
        for poly in seq:
            product = poly_mul(product, poly)
        total = poly_add(total, product)
    return total


def test_q_tuples_triple_n2():
    x1 = TVariable.of([gen("a1"), gen("b1")])
    x2 = TVariable.of([gen("a2"), gen("b2")])
    x3 = TVariable.of([gen("a3"), gen("b3")])
    chain = [x1, x2, x3]
    assert list(composition_terms(chain, 0)) == [
        (gen("a1"), gen("a2"), gen("a3"))
    ]
    assert list(composition_terms(chain, 1)) == [
        (gen("a1"), gen("a2"), gen("b3")),
        (gen("a1"), gen("b2"), gen("a3")),
        (gen("b1"), gen("a2"), gen("a3")),
    ]


def test_composition_terms_repeat_equal_sequences():
    a = gen("a1")
    x = TVariable.of([a, a])
    assert list(composition_terms([x, x], 1)) == [(a, a), (a, a)]
    assert multiply_out(composition_terms([x, x], 1)) == poly_scale(
        2, word(("a1", "a1"))
    )
    # a zero entry drops every composition that uses it
    y = TVariable.of([a, NcPolynomial.zero()])
    assert list(composition_terms([y, y], 1)) == []
    assert list(compositions(2, 3)) == [
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)
    ]


def test_composition_terms_multiply_out_to_product_chain():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 4)
        length = rng.randint(1, 4)
        chain = [rand_tvariable(rng, n) for _ in range(length)]
        idx = tuple(rng.randint(1, length) for _ in range(rng.randint(1, 4)))
        chosen = [chain[i - 1] for i in idx]
        product = chain_product(chosen)
        for j in range(n):
            assert multiply_out(composition_terms(chosen, j)) == (
                product.entries[j]
            )


def test_t_cumulant_validates_index_words(functional):
    """An empty word, a letter outside 1..s (the first such letter is
    named, wherever it sits in the word) and variables of different orders
    are refused with these messages. t_cumulants checks the orders once
    per call and each letter once per node of its word trie: words before
    a bad one are still summed, and a bad letter after a prefix shared
    with the word before is caught."""
    x = TVariable.of([gen("s")])
    y = TVariable.of([gen("s") + gen("s")])
    refused = [
        ([x], (), ValueError, "index word must be nonempty"),
        ([x], (2,), ValueError, "index 2 outside 1..1 in index word (2,)"),
        ([x, y], (1, 3, 0), ValueError,
         "index 3 outside 1..2 in index word (1, 3, 0)"),
        ([x, y], (2, 1, 0), ValueError,
         "index 0 outside 1..2 in index word (2, 1, 0)"),
        ([x, from_bscalar(BScalar.one(2))], (1, 2),
         DimensionMismatch, "variable orders differ: 1 vs 2"),
    ]
    for vars_, idx, error, message in refused:
        with pytest.raises(error) as err:
            t_cumulant(functional, vars_, idx)
        assert str(err.value) == message
    values = t_cumulants(functional, [x, y], [(1, 2), (1, 2, 5)])
    assert next(values) == _pair(t_cumulant(functional, [x, y], (1, 2)))
    with pytest.raises(ValueError) as err:
        next(values)
    assert str(err.value) == "index 5 outside 1..2 in index word (1, 2, 5)"


# --------------------------------------------------------------------------
# moments, cumulants, and the two independent paths
# --------------------------------------------------------------------------


@pytest.fixture
def functional() -> MomentFunctional:
    return build_space(
        {
            "sf": {"s": {"kind": "semicircular", "variance": F(1, 2)}},
            "pf": {"p": {"kind": "free_poisson", "rate": 2}},
            "cf": {"c": {"kind": "constant", "value": F(3, 2)}},
        },
        degree_cap=6,
    )


@pytest.fixture
def pool(functional) -> list[TVariable]:
    s, p, c = gen("s"), gen("p"), gen("c")
    return [
        TVariable.of([s, p, NcPolynomial.zero()]),
        TVariable.of([p, NcPolynomial.one(), s]),
        TVariable.of([poly_add(s, c), NcPolynomial.zero(), p]),
    ]


def test_semicircular_singleton_moment_and_cumulant():
    fn = build_space(
        {"sf": {"s": {"kind": "semicircular", "variance": 1}}},
        degree_cap=8,
    )
    x = TVariable.of([gen("s"), NcPolynomial.zero()])
    assert moment_series(fn, [x], 2).coef((1, 1)) == BScalar.of([1, 0])
    assert expect(fn, t_mul(x, x)) == BScalar.of([1, 0])
    assert t_cumulant(fn, [x], (1, 1)) == BScalar.of([1, 0])
    assert t_cumulant_mobius(fn, [x], (1, 1)) == BScalar.of([1, 0])
    assert t_cumulant(fn, [x], (1, 1, 1)).is_zero()


def test_expect_is_entrywise_phi(functional, pool):
    x = pool[0]
    assert expect(functional, x) == BScalar.of([0, 2, 0])


def test_expect_bimodule_law(functional, pool):
    rng = random.Random(14)
    for x in pool:
        b1 = rand_bscalar(rng, 3)
        b2 = rand_bscalar(rng, 3)
        sandwich = t_mul(
            from_bscalar(b1), t_mul(x, from_bscalar(b2))
        )
        assert expect(functional, sandwich) == b_mul(
            b1, b_mul(expect(functional, x), b2)
        )


def test_cumulant_paths_agree_random(functional, pool):
    rng = random.Random(15)
    for arity in range(1, 5):
        for _ in range(6):
            idx = tuple(rng.randint(1, 3) for _ in range(arity))
            a = t_cumulant(functional, pool, idx)
            b = t_cumulant_mobius(functional, pool, idx)
            assert a == b, idx


#: words for random entries: the constant, letters of three families (u
#: and v share a custom family), words within one family, and the words
#: s*p, p*s that span two families
WALK_WORDS = (
    (), ("s",), ("p",), ("u",), ("v",), ("s", "s"), ("s", "s", "s"),
    ("u", "v"), ("v", "u", "v"), ("p", "p"), ("s", "p"), ("p", "s"),
)


def _pair(value):
    """The integers (den, nums) of a BScalar: what t_cumulants yields."""
    return value.den, value.nums


def _cumulant_or_refusal(compute):
    try:
        return compute()
    except DegreeCapExceeded as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_cumulant_walk_matches_compositions(data):
    """t_cumulants equals the sum over compositions value for value and
    refusal for refusal (the same DegreeCapExceeded message), whatever the
    order the index words are walked in."""
    cap = data.draw(st.integers(3, 6), label="cap")
    fn = build_space(
        {
            "f1": {"s": {"kind": "semicircular", "variance": F(2, 3)}},
            "f2": {"p": {"kind": "free_poisson", "rate": F(3, 2)}},
            "f3": {
                "u": {"kind": "custom", "cumulants": {
                    ("u", "v"): F(1, 2), ("v", "u"): F(-1, 3),
                    ("u", "u", "v"): 2, ("v",): 1,
                }},
                "v": {"kind": "custom", "cumulants": {}},
            },
        },
        degree_cap=cap,
    )
    order = data.draw(st.integers(1, 4), label="N")
    linking = data.draw(st.booleans(), label="linking")
    pool = WALK_WORDS if linking else WALK_WORDS[:-2]
    coefficient = st.builds(
        F, st.integers(1, 3) | st.integers(-3, -1), st.integers(1, 3)
    )
    entry = st.one_of(
        st.just({}),
        st.dictionaries(st.sampled_from(pool), coefficient, min_size=1, max_size=3),
    )
    vars_ = [
        TVariable.of([NcPolynomial(data.draw(entry)) for _ in range(order)])
        for _ in range(data.draw(st.integers(1, 3), label="s"))
    ]
    longest = data.draw(st.integers(1, 4), label="longest")
    words = [
        w
        for n in range(1, longest + 1)
        for w in itertools.product(range(1, len(vars_) + 1), repeat=n)
    ]
    walk = data.draw(st.sampled_from(("sorted", "shortest", "each", "again")))
    if walk == "sorted":
        words.sort()
    elif walk == "again":
        words += words[::3]
    want = [
        _cumulant_or_refusal(
            lambda w=w: _pair(t_cumulant_compositions(fn, vars_, w)))
        for w in words
    ]
    got = []
    while len(got) < len(words):
        rest = words[len(got):] if walk != "each" else words[len(got):][:1]
        values = t_cumulants(fn, vars_, rest)
        for _ in rest:
            got.append(_cumulant_or_refusal(lambda: next(values)))
            if isinstance(got[-1], str):
                break  # a refused word ends the walk; resume after it
    assert got == want


def test_cumulant_walk_links_families_through_a_later_slot():
    """X holds words of one family each; the first entry of Z is s*p, which
    links an s-slot and a p-slot: kappa(p, s, s*p) = kappa_2(s) kappa_2(p)
    through the blocks {p, p} and {s, s}. So the prefixes of X, X that mix
    families must survive until the slot of Z, in every walk order."""
    fn = build_space(
        {
            "semi": {"s": {"kind": "semicircular", "variance": F(5, 4)}},
            "pois": {"p": {"kind": "free_poisson", "rate": F(2, 3)}},
        },
        degree_cap=8,
    )
    s, p = gen("s"), gen("p")
    x = TVariable.of([poly_scale(F(-8, 5), s), poly_scale(F(-2, 5), p), s])
    z = TVariable.of([poly_scale(F(-5, 6), word(("s", "p"))), s, p])
    words = [w for n in (1, 2, 3, 4) for w in itertools.product((1, 2), repeat=n)]
    want = [t_cumulant_compositions(fn, [x, z], w) for w in words]
    assert not want[words.index((1, 1, 2))].is_zero()
    want = [_pair(value) for value in want]
    assert list(t_cumulants(fn, [x, z], sorted(words))) == [
        want[words.index(w)] for w in sorted(words)
    ]
    assert list(t_cumulants(fn, [x, z], words)) == want


def test_moment_cumulant_lattice_formula(functional, pool):
    """E(X_{i1}...X_{in}), taken as E of the product chain, equals the
    NC(n) sum of blockwise cumulant products, recomputed here from
    scratch."""
    rng = random.Random(16)
    for arity in range(1, 5):
        for _ in range(4):
            idx = tuple(rng.randint(1, 3) for _ in range(arity))
            lhs = expect(functional, chain_product([pool[i - 1] for i in idx]))
            total = BScalar.zero(3)
            for pi in nc_lattice.enumerate_nc(arity):
                prod = BScalar.one(3)
                for block in pi.blocks:
                    sub = tuple(idx[t - 1] for t in block)
                    prod = b_mul(prod, t_cumulant(functional, pool, sub))
                total = b_add(total, prod)
            assert lhs == total, idx


def test_moment_of_unit_tuple(functional):
    unit = from_bscalar(BScalar.one(3))
    assert moment_series(functional, [unit], 3).coef((1, 1, 1)) == BScalar.one(3)
    assert expect(functional, chain_product([unit] * 3)) == BScalar.one(3)
    assert t_cumulant(functional, [unit], (1,)) == BScalar.one(3)
    assert t_cumulant(functional, [unit], (1, 1)).is_zero()


def test_moment_validates_indices(functional, pool):
    """Index words are checked by the cumulant walk, which every moment
    goes through."""
    with pytest.raises(ValueError):
        t_cumulant(functional, pool, ())
    with pytest.raises(ValueError):
        t_cumulant(functional, pool, (4,))
