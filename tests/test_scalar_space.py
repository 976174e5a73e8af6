"""Scalar-model tests: the functional phi, free cumulants, and builders.

phi is read through the paper's E on N = 1 variables (``oracles.expect``,
which is K_1 and takes kappa_1 of each word by the first-block recursion
over its letters), and compared with the full NC(n) sum (``oracles.phi_word_nc``).
The multilinear cumulant kappa_n(p_1, ..., p_n) is read the same way, as
K_n of the N = 1 variables (p_1), ..., (p_n) (``t_cumulant``).
The central tests are the roundtrip (feed in a cumulant table, recover
every cumulant exactly) and the comparison of the cumulant of random word
tuples with Möbius inversion of moments (``oracles.cumulant_words_mobius``).
Named laws are pinned against their textbook moment sequences, and
cross-family cumulants are checked to vanish together with the product
factorizations that freeness forces.
"""

import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toepfree.cli import load_config
from toepfree.errors import DegreeCapExceeded, DimensionMismatch
from toepfree.nc_lattice import NcPartition, catalan
from toepfree.ncpoly import (
    Generator,
    NcPolynomial,
    as_fraction,
    parse_expr,
    parse_rational,
    poly_add,
    poly_scale,
)
from toepfree.scalar_space import (
    MomentFunctional,
    builtin_distribution,
    build_space,
)
from toepfree.toeplitz_core import BScalar, TVariable, t_cumulant, t_cumulants

from oracles import (
    cumulant_words_mobius,
    expect,
    phi_partition,
    phi_word_nc,
    t_cumulant_compositions,
)

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"
gen = NcPolynomial.generator


def phi(fn: MomentFunctional, p: NcPolynomial) -> F:
    """phi(p) as the one entry of E on the N = 1 variable (p)."""
    return expect(fn, TVariable.of([p])).entries[0]


def phi_word(fn: MomentFunctional, word: tuple[str, ...]) -> F:
    return phi(fn, NcPolynomial({word: 1}))


def kappa(fn: MomentFunctional, args: tuple[NcPolynomial, ...]) -> F:
    """kappa_n(args) as the one entry of K_n on the N = 1 variables
    (p_1), ..., (p_n)."""
    vars_ = [TVariable.of([p]) for p in args]
    return t_cumulant(fn, vars_, tuple(range(1, len(args) + 1))).entries[0]


@pytest.fixture
def semi() -> MomentFunctional:
    return build_space(
        {"sf": {"s": {"kind": "semicircular", "variance": 1}}},
        degree_cap=8,
    )


@pytest.fixture
def mixed() -> MomentFunctional:
    return build_space(
        {
            "sf": {"s": {"kind": "semicircular", "variance": 1}},
            "pf": {"p": {"kind": "free_poisson", "rate": 1}},
            "cf": {"c": {"kind": "constant", "value": 3}},
        },
        degree_cap=6,
    )


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------


def test_builtin_distribution_tables():
    assert builtin_distribution("semicircular", "s", variance=F(1, 2)) == {
        ("s", "s"): F(1, 2)
    }
    assert builtin_distribution("free_poisson", "p", 3, rate=2) == {
        ("p",): F(2),
        ("p", "p"): F(2),
        ("p", "p", "p"): F(2),
    }
    assert builtin_distribution("constant", "c", value="5/3") == {
        ("c",): F(5, 3)
    }
    assert builtin_distribution(
        "custom", "x", cumulants={("x", "x"): "1/4"}
    ) == {("x", "x"): F(1, 4)}
    # zero cumulants are dropped
    assert builtin_distribution("constant", "c", value=0) == {}


def test_builtin_distribution_rejects_bad_input():
    with pytest.raises(ValueError):
        builtin_distribution("gaussian", "x")
    with pytest.raises(ValueError):
        builtin_distribution("semicircular", "s", rate=1)
    with pytest.raises(ValueError):
        builtin_distribution("custom", "x", cumulants=[1, 2])


def test_functional_validates_spec():
    gens = [Generator("a", "f"), Generator("b", "g")]
    with pytest.raises(ValueError):  # duplicate id
        MomentFunctional([Generator("a", "f"), Generator("a", "f")], {}, 3)
    with pytest.raises(ValueError):  # cap out of range
        MomentFunctional(gens, {}, 0)
    with pytest.raises(ValueError):  # cap above the hard maximum
        MomentFunctional(gens, {}, 9)
    with pytest.raises(ValueError):  # key longer than the cap
        MomentFunctional(gens, {"f": {("a",) * 4: 1}}, 3)
    with pytest.raises(ValueError):  # key references undeclared generator
        MomentFunctional(gens, {"f": {("z",): 1}}, 3)
    with pytest.raises(ValueError):  # key references a foreign family
        MomentFunctional(gens, {"f": {("b",): 1}}, 3)
    # values are coerced to Fractions and zeros dropped before the checks
    fn = MomentFunctional(gens, {"f": {("a",): "1/2", ("a", "a"): 0}}, 3)
    assert fn.families == {"f": {("a",): F(1, 2)}}
    MomentFunctional(gens, {"f": {("a",) * 4: 0, ("z",): "0/5"}}, 3)


def test_build_space_requires_one_entry_point():
    """build_space takes distribution descriptors only; a functional of
    raw cumulant tables is built by MomentFunctional itself."""
    with pytest.raises(TypeError):
        build_space(families={"f": {}})  # type: ignore[call-arg]
    fn = MomentFunctional([Generator("a", "f")], {"f": {("a",): F(2)}}, 4)
    assert phi_word(fn, ("a",)) == 2


# --------------------------------------------------------------------------
# moments of the named laws
# --------------------------------------------------------------------------


def test_semicircular_moments_are_catalan(semi):
    for k in range(1, 5):
        assert phi_word(semi, ("s",) * (2 * k)) == catalan(k)
    for n in (1, 3, 5, 7):
        assert phi_word(semi, ("s",) * n) == 0


def test_free_poisson_rate_one_moments_are_catalan():
    fn = build_space(
        {"pf": {"p": {"kind": "free_poisson", "rate": 1}}}, degree_cap=6
    )
    for n in range(1, 7):
        assert phi_word(fn, ("p",) * n) == catalan(n)


def test_constant_moments_are_powers(mixed):
    for n in range(1, 7):
        assert phi_word(mixed, ("c",) * n) == F(3) ** n


def test_phi_word_edges(mixed):
    assert phi_word(mixed, ()) == 1
    with pytest.raises(DegreeCapExceeded):
        phi_word(mixed, ("s",) * 7)
    with pytest.raises(ValueError):
        phi_word(mixed, ("nope",))
    # the checks still run once the cumulant memo holds the word's prefix
    assert phi_word(mixed, ("s", "p") * 3) == phi_word(mixed, ("s", "p") * 3)
    with pytest.raises(DegreeCapExceeded):
        phi_word(mixed, ("s", "p") * 3 + ("s",))
    with pytest.raises(ValueError):
        phi_word(mixed, ("s", "p", "nope"))


def test_phi_word_matches_nc_oracle():
    """E of a word against the NC(n) sum, on random words up to the
    cap of 8 over a semicircular, a free-Poisson and a constant generator
    and a custom joint family of two generators."""
    rng = random.Random(4051)
    cap = 8
    fn = build_space(
        {
            "joint": {
                "g1": {
                    "kind": "custom",
                    "cumulants": random_joint_spec(rng, ("g1", "g2"), cap),
                },
                "g2": {"kind": "custom", "cumulants": {}},
            },
            "pf": {"p": {"kind": "free_poisson", "rate": F(2, 3)}},
            "sf": {"s": {"kind": "semicircular", "variance": F(3, 2)}},
            "cf": {"c": {"kind": "constant", "value": F(-1, 2)}},
        },
        degree_cap=cap,
    )
    ids = ("g1", "g2", "p", "s", "c")
    words = {
        tuple(rng.choice(ids) for _ in range(rng.randint(0, cap)))
        for _ in range(120)
    }
    words |= {("g1", "g2") * 4, ("s", "p") * 4, ("p",) * 8}
    for word in sorted(words, key=lambda w: (-len(w), w)):
        assert phi_word(fn, word) == phi_word_nc(fn, word), word
    assert max(map(len, words)) == cap


def test_phi_is_linear(semi):
    p = poly_add(
        poly_scale(F(1, 2), NcPolynomial({("s", "s"): 1})),
        NcPolynomial.constant(3),
    )
    assert phi(semi, p) == F(1, 2) * 1 + 3
    assert phi(semi, NcPolynomial.zero()) == 0
    # value used widely downstream: phi(s*s + 1) = 2
    assert phi(semi, gen("s") * gen("s") + NcPolynomial.one()) == 2


def test_phi_partition_examples(semi):
    pi = NcPartition.from_blocks(3, [[1, 3], [2]])
    s = gen("s")
    assert phi_partition(semi, pi, (s, s, s)) == 0  # phi(ss) * phi(s)
    pi2 = NcPartition.from_blocks(4, [[1, 2], [3, 4]])
    assert phi_partition(semi, pi2, (s, s, s, s)) == 1
    with pytest.raises(DimensionMismatch):
        phi_partition(semi, pi, (s, s))


# --------------------------------------------------------------------------
# cumulants
# --------------------------------------------------------------------------


def test_semicircular_cumulants(semi):
    s = gen("s")
    assert kappa(semi, (s, s)) == 1
    for n in (1, 3, 4, 5, 6):
        assert kappa(semi, (s,) * n) == 0


def test_cross_family_cumulants_vanish(mixed):
    s, p = gen("s"), gen("p")
    assert kappa(mixed, (s, p)) == 0
    assert kappa(mixed, (s, p, s)) == 0
    assert kappa(mixed, (p, p, s, p)) == 0


def test_cumulants_with_constant_slots_vanish(mixed):
    one = NcPolynomial.one()
    s = gen("s")
    for args in ((s, one), (one, s), (s, one, s), (one, one)):
        assert kappa(mixed, args) == 0
    # arity 1 on a constant is just phi
    assert kappa(mixed, (NcPolynomial.constant(F(7, 2)),)) == F(7, 2)


def test_cumulant_edges(mixed):
    with pytest.raises(ValueError):
        kappa(mixed, ())
    with pytest.raises(
        DegreeCapExceeded, match="^cumulant arity 7 exceeds degree cap 6$"
    ):
        kappa(mixed, (gen("s"),) * 7)


def test_cumulant_is_multilinear(mixed):
    s, p = gen("s"), gen("p")
    combo = poly_add(poly_scale(2, s), poly_scale(F(-1, 3), p))
    lhs = kappa(mixed, (combo, s))
    rhs = 2 * kappa(mixed, (s, s)) + F(-1, 3) * kappa(mixed, (p, s))
    assert lhs == rhs
    lhs3 = kappa(mixed, (s, combo, p))
    rhs3 = 2 * kappa(mixed, (s, s, p)) + F(-1, 3) * kappa(mixed, (s, p, p))
    assert lhs3 == rhs3


def test_cumulant_agrees_with_word_path(mixed):
    words = (("s",), ("p", "p"), ("s", "s"))
    args = tuple(NcPolynomial({w: 1}) for w in words)
    assert kappa(mixed, args) == mixed.cumulant_words(words)


def random_slots(rng: random.Random, ids: tuple[str, ...], cap: int):
    """A tuple of one to four words holding 0..cap letters in all, cut at
    random points, so that a slot may be empty or hold every letter."""
    arity = rng.randint(1, 4)
    letters = rng.randint(0, cap)
    cuts = sorted(rng.randint(0, letters) for _ in range(arity - 1))
    lengths = [b - a for a, b in zip([0, *cuts], [*cuts, letters])]
    return tuple(tuple(rng.choice(ids) for _ in range(n)) for n in lengths)


def test_cumulant_words_match_mobius_oracle():
    """Products as arguments against Möbius inversion of moments, on
    random word tuples over a custom joint family, a free-Poisson, a
    semicircular and a constant generator, and over the one family of
    the third-cumulant golden model, whose joint third cumulants each mix
    three of its six generators. Slots hold products of up to the cap's letter
    count, empty words (constants) and letters from several families;
    tuples at the cap are drawn, and one letter more is refused."""
    rng = random.Random(2031)
    cap = 6
    joint = random_joint_spec(rng, ("g1", "g2"), cap)
    mixed = build_space(
        {
            "joint": {
                "g1": {"kind": "custom", "cumulants": joint},
                "g2": {"kind": "custom", "cumulants": {}},
            },
            "pf": {"p": {"kind": "free_poisson", "rate": F(2, 3)}},
            "sf": {"s": {"kind": "semicircular", "variance": F(3, 2)}},
            "cf": {"c": {"kind": "constant", "value": F(-1, 2)}},
        },
        degree_cap=cap,
    )
    k3 = load_config(str(GOLDEN / "k3_config.json")).functional
    assert k3.degree_cap == cap
    # k3's random words seldom meet its three-letter cumulants; these do
    k3_products = (
        (("a11", "a12"), ("a13",)),
        (("a11",), ("a12", "a13")),
        (("a11", "a12", "a13", "a21"), ("a12", "a13")),
        (("a11", "a12"), ("a13", "a11"), ("a22", "a13")),
    )
    for fn, draws, fixed in ((mixed, 200, ()), (k3, 120, k3_products)):
        ids = tuple(fn.generators)
        seen = set(fixed)
        for words in fixed:
            assert fn.cumulant_words(words) == cumulant_words_mobius(
                fn, words
            ) != 0, words
        while len(seen) < draws:
            words = random_slots(rng, ids, cap)
            seen.add(words)
            assert fn.cumulant_words(words) == cumulant_words_mobius(
                fn, words
            ), words
            if sum(map(len, words)) == cap:
                with pytest.raises(DegreeCapExceeded):
                    fn.cumulant_words((*words, ids[:1]))
        # the draw covers products, constants and single letters throughout
        many = [ws for ws in seen if len(ws) > 1]
        assert any(len(w) == cap for ws in seen for w in ws)
        assert any(sum(map(len, ws)) == cap for ws in many)
        assert any(not w for ws in many for w in ws)
        assert any(all(len(w) == 1 for w in ws) for ws in many)
        assert any(
            fn.cumulant_words(ws) for ws in many if any(len(w) > 1 for w in ws)
        )


#: a Mersenne prime: a table over it holds integers of 61 bits per letter
M61 = 2**61 - 1


def prime_space() -> MomentFunctional:
    """A semicircular of variance 1/101, a free Poisson of rate 2/103, and
    a joint custom family over 2^61 - 1, whose tables no small integer
    clears."""
    return build_space(
        {
            "sf": {"s": {"kind": "semicircular", "variance": "1/101"}},
            "pf": {"p": {"kind": "free_poisson", "rate": "2/103"}},
            "cf": {
                "c": {"kind": "custom", "cumulants": {
                    ("c",): F(1, M61), ("c", "c"): F(-3, M61),
                    ("c", "d", "c"): F(5, M61)}},
                "d": {"kind": "custom", "cumulants": {
                    ("d",): F(7, 11), ("c", "d"): F(M61 - 2, M61)}},
            },
        },
        degree_cap=6,
    )


def test_large_prime_denominators_match_the_oracles():
    """With large prime denominators the integer scalar layer is still
    exact: den is the product of 101, 103, 11 and 2^61 - 1, the cumulants
    of random word tuples (products in the slots) agree with Möbius
    inversion of moments, and t_cumulants of variables with products such
    as s*p as entries agree with the sum over compositions."""
    fn = prime_space()
    assert fn.den == 101 * 103 * 11 * M61
    rng = random.Random(6101)
    ids = tuple(fn.generators)
    seen = set()
    while len(seen) < 120:
        words = random_slots(rng, ids, fn.degree_cap)
        seen.add(words)
        assert fn.cumulant_words(words) == cumulant_words_mobius(fn, words), words
    assert any(fn.cumulant_words(ws) for ws in seen if len(ws) > 1)
    ids = list(fn.generators)
    entries = [
        ["s*p + 1/7", "p*s - 2/3*c", "c*d"],
        ["p + 1/13*d*c", "1/5*s*s", "0"],
        ["c", "d - 3/101*s", "p*s"],
    ]
    vars_ = [TVariable.of([parse_expr(e, ids) for e in row]) for row in entries]
    idx = [w for n in (1, 2, 3) for w in product((1, 2, 3), repeat=n)]
    got = list(t_cumulants(fn, vars_, sorted(idx)))
    for word, value in zip(sorted(idx), got):
        want = t_cumulant_compositions(fn, vars_, word)
        assert value == (want.den, want.nums), word
    assert any(any(nums) for _, nums in got)


def test_public_rationals_are_fractions():
    """The engine holds its rationals as integers, and every public
    accessor still returns a Fraction, built when it is read: table
    values, word cumulants, parsed literals, polynomial coefficients and
    the entries of a BScalar."""
    fn = prime_space()
    families = fn.families
    assert families["sf"] == {("s", "s"): F(1, 101)}
    assert families["cf"][("c", "d")] == F(M61 - 2, M61)
    values = [v for table in families.values() for v in table.values()]
    values += builtin_distribution("free_poisson", "p", 2, rate="2/103").values()
    values += [fn.cumulant_words((("s", "p"), ("p", "s"))),
               fn.cumulant_words(((),)), parse_rational("4/6"),
               as_fraction(3), as_fraction(F(1, 2))]
    poly = parse_expr("3/4*s*p - 2", ids := list(fn.generators))
    values += [c for _, c in poly.terms] + [poly.coeff(("s", "p")),
                                            poly.coeff(("p",))]
    values += BScalar.of([1, "2/3", F(-1, 5)]).entries
    x = TVariable.of([parse_expr("s*p", ids), parse_expr("c", ids)])
    values += t_cumulant(fn, [x, x], (1, 2)).entries
    assert values and all(type(v) is F for v in values), values


def test_cumulant_expansion_matches_mobius_and_skips_constants(monkeypatch):
    """kappa_n of polynomials, read as K_n at N = 1, against the
    multilinear expansion with Möbius inversion of each word combination,
    on seeded affine and s*p arguments; for arity n >= 2 no word tuple
    with an empty slot (a constant term, whose cumulant is 0) reaches
    cumulant_numerator, which t_cumulants reads."""
    rng = random.Random(6113)
    fn = build_space(
        {
            "sf": {"s": {"kind": "semicircular", "variance": F(3, 2)}},
            "pf": {"p": {"kind": "free_poisson", "rate": F(2, 3)}},
        },
        degree_cap=6,
    )

    def rational():
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    def argument():
        if rng.random() < 0.7:
            return NcPolynomial(
                {(): rational(), ("s",): rational(), ("p",): rational()}
            )
        return NcPolynomial({("s", "p"): rational(), ("p", "s"): rational()})

    calls = []
    words_of = MomentFunctional.cumulant_numerator

    def recording(self, words):
        calls.append(words)
        return words_of(self, words)

    monkeypatch.setattr(MomentFunctional, "cumulant_numerator", recording)
    arities = set()
    for _ in range(40):
        arity = rng.randint(1, 3)
        args = tuple(argument() for _ in range(arity))
        if sum(a.degree() for a in args) > fn.degree_cap:
            continue
        want = F(0)
        for combo in product(*(a.terms for a in args)):
            weight = F(1)
            for _, c in combo:
                weight *= c
            want += weight * cumulant_words_mobius(
                fn, tuple(w for w, _ in combo)
            )
        assert kappa(fn, args) == want, args
        arities.add(arity)
    assert arities == {1, 2, 3}
    multi = [words for words in calls if len(words) >= 2]
    assert multi and all(all(words) for words in multi)
    assert ((),) in calls
    assert kappa(fn, (NcPolynomial.constant(F(5, 2)),)) == F(5, 2)


def test_cumulant_words_edges(mixed):
    assert mixed.cumulant_words(((),)) == 1
    assert mixed.cumulant_words((("s",), ())) == 0
    # letters s p | p s: pi = {1,4}{2,3} and {1,4}{2}{3} link both slots,
    # so the value is k2(s,s) (k2(p,p) + k1(p)^2) = 2
    assert mixed.cumulant_words((("s", "p"), ("p", "s"))) == 2
    with pytest.raises(DegreeCapExceeded):
        mixed.cumulant_words((("s",) * 4, ("s",) * 3))
    with pytest.raises(DegreeCapExceeded):
        mixed.cumulant_words((("s",) * 4, (), ("s",) * 3))
    with pytest.raises(ValueError):
        mixed.cumulant_words((("nope",),))


# --------------------------------------------------------------------------
# the roundtrip: cumulant table -> moments -> cumulants
# --------------------------------------------------------------------------


def random_joint_spec(rng: random.Random, ids: tuple[str, ...], cap: int):
    table = {}
    for n in range(1, cap + 1):
        for key in product(ids, repeat=n):
            if rng.random() < 0.4:
                table[key] = F(rng.randint(-3, 3), rng.randint(1, 3))
    return table


def test_cumulant_table_recovery_joint_family():
    rng = random.Random(2024)
    ids = ("g1", "g2")
    table = random_joint_spec(rng, ids, 4)
    fn = MomentFunctional([Generator(i, "fam") for i in ids], {"fam": table}, 4)
    for n in range(1, 5):
        for key in product(ids, repeat=n):
            slots = tuple((g,) for g in key)
            assert fn.cumulant_words(slots) == table.get(key, F(0))


def test_freeness_forces_product_factorization(mixed):
    s, p = gen("s"), gen("p")
    # phi(xy) = phi(x) phi(y) for free x, y
    assert phi(mixed, s * p) == phi(mixed, s) * phi(mixed, p)
    x = s * s + NcPolynomial.one()
    y = p + NcPolynomial.constant(2)
    assert phi(mixed, x * y) == phi(mixed, x) * phi(mixed, y)
    # the classic degree-4 alternating formula for free x, y
    lhs = phi(mixed, s * p * s * p)
    rhs = (
        phi(mixed, s * s) * phi(mixed, p) ** 2
        + phi(mixed, s) ** 2 * phi(mixed, p * p)
        - phi(mixed, s) ** 2 * phi(mixed, p) ** 2
    )
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
)
def test_property_first_slot_linearity(c1, c2):
    fn = build_space(
        {
            "sf": {"s": {"kind": "semicircular", "variance": 1}},
            "pf": {"p": {"kind": "free_poisson", "rate": 1}},
        },
        degree_cap=4,
    )
    s, p = gen("s"), gen("p")
    combo = poly_add(poly_scale(c1, s), poly_scale(c2, p))
    for tail in ((s,), (s, p), (p, p, s)):
        lhs = kappa(fn, (combo, *tail))
        rhs = c1 * kappa(fn, (s, *tail)) + c2 * kappa(fn, (p, *tail))
        assert lhs == rhs
