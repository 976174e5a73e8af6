"""Series-layer tests: truncated B-valued series and the free-probability
transforms built on them.

The two lattice directions (moments from cumulants, cumulants from moments)
are verified as mutual inverses on random series, and they and boxed
convolution are compared with their NC(n) sums in ``oracles``; moment
series are compared with per-word chains of matrix products; additivity
and boxed multiplicativity are checked with both sides computed through
independent code paths; the sparsity, evenness, and compression results
each get their own oracle-backed suite.
"""

import collections
import gc
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    NotEven,
    OddLength,
    b_add_fraction,
    b_mul_fraction,
    boxed_convolution_kreweras,
    boxed_identity,
    even_cumulant_restricted,
    family_assignment,
    from_bscalar,
    moments_from_r_nc,
    oracle_moment_series,
    r_from_moments_mobius,
    series_add,
    t_add,
    t_cumulant_mobius,
    t_mul_oracle,
    zero_variable,
)
from toepfree import cli, extras, library, nc_lattice, toeplitz_core
from toepfree import series as series_module
from toepfree.errors import (
    DegreeCapExceeded,
    DimensionMismatch,
    PreconditionError,
    ZeroTrace,
)
from toepfree.ncpoly import NcPolynomial, poly_add, poly_scale
from toepfree.scalar_space import MomentFunctional, build_space
from toepfree.extras import (
    PatternRow,
    check_even,
    compress_r_transform,
    free_family_sparsity,
    symm_r_transform,
)
from toepfree.series import (
    BSeries,
    all_index_words,
    boxed_convolution,
    check_freeness,
    check_series_request,
    moment_series,
    moments_from_r,
    r_from_moments,
    r_transform,
)
from toepfree.toeplitz_core import (
    BScalar,
    FreenessReport,
    TVariable,
    b_add,
    b_mul,
    t_cumulant,
    t_mul,
)

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"
gen = NcPolynomial.generator
zero = NcPolynomial.zero()


def random_series(
    rng: random.Random,
    s: int,
    order: int,
    degree: int,
    density: float = 1.0,
    max_den: int = 2,
) -> BSeries:
    """A random series; each word has a coefficient with probability
    density (a dense series draws no extra random numbers), its entries
    over denominators 1..max_den."""
    coeffs = {}
    for w in all_index_words(s, degree):
        if density < 1 and rng.random() >= density:
            continue
        coeffs[w] = BScalar.of(
            [F(rng.randint(-3, 3), rng.randint(1, max_den)) for _ in range(order)]
        )
    return BSeries(s, order, degree, coeffs)


# --------------------------------------------------------------------------
# the BSeries container
# --------------------------------------------------------------------------


def test_all_index_words_order():
    assert list(all_index_words(2, 2)) == [
        (1,),
        (2,),
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
    ]


def test_constructor_validates_shape():
    good = BScalar.of([1, 2])
    with pytest.raises(ValueError):
        BSeries(0, 2, 2, {})
    with pytest.raises(ValueError):
        BSeries(1, 0, 2, {})
    with pytest.raises(ValueError):
        BSeries(1, 2, 0, {})
    with pytest.raises(ValueError):
        BSeries(1, 2, 2, {(): good})  # empty word
    with pytest.raises(ValueError):
        BSeries(1, 2, 2, {(1, 1, 1): good})  # too long
    with pytest.raises(ValueError):
        BSeries(1, 2, 2, {(2,): good})  # letter outside 1..s
    with pytest.raises(DimensionMismatch):
        BSeries(1, 3, 2, {(1,): good})  # wrong coefficient order


def test_zero_coefficients_are_never_stored():
    a = BSeries(1, 2, 3, {(1,): BScalar.zero(2), (1, 1): BScalar.of([1, 0])})
    b = BSeries(1, 2, 3, {(1, 1): BScalar.of([1, 0])})
    assert a == b and hash(a) == hash(b)
    assert a.words() == [(1, 1)]
    assert a.coef((1,)).is_zero()
    assert not a.is_zero()
    assert BSeries(1, 2, 3, {}).is_zero()


def test_words_sorted_and_items():
    s = BSeries(
        2,
        1,
        2,
        {
            (2, 1): BScalar.of([1]),
            (1,): BScalar.of([2]),
            (1, 2): BScalar.of([3]),
        },
    )
    assert s.words() == [(1,), (1, 2), (2, 1)]
    assert s.items()[0] == ((1,), BScalar.of([2]))


def test_json_shape_and_roundtrip():
    s = BSeries(2, 2, 2, {(1, 2): BScalar.of([F(1, 2), -1])})
    obj = s.to_json_obj()
    assert obj == {
        "s": 2,
        "N": 2,
        "D": 2,
        "coefficients": [{"word": [1, 2], "value": ["1/2", "-1"]}],
    }
    assert BSeries.from_json_obj(obj) == s
    assert "BSeries" in repr(s)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 4), st.integers())
def test_property_json_roundtrip(s, order, degree, seed):
    series = random_series(random.Random(seed), s, order, degree)
    assert BSeries.from_json_obj(series.to_json_obj()) == series


def test_immutability():
    s = BSeries(1, 1, 1, {})
    with pytest.raises(AttributeError):
        s.degree = 2


# --------------------------------------------------------------------------
# moment_series / r_transform
# --------------------------------------------------------------------------


@pytest.fixture
def fn_semi():
    return build_space(
        {"sf": {"s": {"kind": "semicircular", "variance": 1}}}, degree_cap=6
    )


def test_semicircular_tuple_series(fn_semi):
    x = TVariable.of([gen("s"), zero])
    m = moment_series(fn_semi, [x], 4)
    r = r_transform(fn_semi, [x], 4)
    assert m.coef((1, 1)) == BScalar.of([1, 0])
    assert m.coef((1, 1, 1, 1)) == BScalar.of([2, 0])
    assert r.words() == [(1, 1)]
    assert r.coef((1, 1)) == BScalar.of([1, 0])


def test_constant_tuple_series():
    fn = build_space(
        {"cf": {"c": {"kind": "constant", "value": F(3, 2)}}}, degree_cap=5
    )
    c = TVariable.of([gen("c"), zero, zero])
    m = moment_series(fn, [c], 5)
    r = r_transform(fn, [c], 5)
    for n in range(1, 6):
        assert m.coef((1,) * n) == BScalar.of([F(3, 2) ** n, 0, 0])
    assert r.words() == [(1,)]
    assert r.coef((1,)) == BScalar.of([F(3, 2), 0, 0])


def test_zero_variable_series(fn_semi):
    z = zero_variable(2)
    assert moment_series(fn_semi, [z], 3).is_zero()
    assert r_transform(fn_semi, [z], 3).is_zero()


def test_degree_resolution(fn_semi):
    x = TVariable.of([gen("s"), zero])
    assert moment_series(fn_semi, [x]).degree == 6  # defaults to the cap
    with pytest.raises(DegreeCapExceeded):
        moment_series(fn_semi, [x], 7)
    with pytest.raises(ValueError):
        moment_series(fn_semi, [x], 0)
    with pytest.raises(ValueError):
        moment_series(fn_semi, [])
    with pytest.raises(DimensionMismatch):
        moment_series(fn_semi, [x, TVariable.of([gen("s")])], 2)


# --------------------------------------------------------------------------
# the two lattice directions
# --------------------------------------------------------------------------


def test_word_cap_is_checked_before_any_sum(monkeypatch):
    """The pre-flight bound follows entry degrees through the product
    recursion: for X = (s, s*p) the longest scalar word at degree n is
    n + 1, not n times the largest entry degree."""
    fn = build_space(
        {
            "sf": {"s": {"kind": "semicircular", "variance": 1}},
            "pf": {"p": {"kind": "free_poisson", "rate": F(1, 2)}},
        },
        degree_cap=8,
    )
    x = TVariable.of([gen("s"), gen("s") * gen("p")])
    r = r_transform(fn, [x], 7)  # 7 * 2 = 14 > 8, yet every word fits
    for n in range(1, 5):
        assert r.coef((1,) * n) == t_cumulant_mobius(fn, [x], (1,) * n)
    assert moment_series(fn, [x], 7).degree == 7

    def boom(*args, **kwargs):
        raise AssertionError("computed past the pre-flight check")

    assert not hasattr(MomentFunctional, "cumulant")
    monkeypatch.setattr(MomentFunctional, "cumulant_numerator", boom)
    for build in (r_transform, moment_series):
        with pytest.raises(DegreeCapExceeded) as err:
            build(fn, [x], 8)
        assert str(err.value) == (
            "degree 8 needs scalar words of length 9, over the degree cap 8"
        )
    with pytest.raises(DegreeCapExceeded, match="length 9"):
        symm_r_transform(fn, [x], BScalar.of([1, 1]), 8)


def test_cumulant_path_never_inverts_moments(monkeypatch, tmp_path, capsys):
    """With the series maps between moments and cumulants, the
    closed-form Möbius entries and the Kreweras complement disabled, and
    no lattice order and no scalar moment in the package, r_transform,
    the cumulants table and check_freeness still give the closed form of
    X = c + s*alpha + p*beta: K_1 = c + r*beta and, for n >= 2,
    K_n = v*alpha_1*alpha_2 [n = 2] + r*beta_1*...*beta_n."""
    v, rate = F(3, 2), F(2, 3)
    config = {
        "N": 3,
        "degree_cap": 6,
        "families": [
            {"name": "semi", "generators": [{"id": "s", "distribution": {
                "kind": "semicircular", "variance": "3/2"}}]},
            {"name": "pois", "generators": [{"id": "p", "distribution": {
                "kind": "free_poisson", "rate": "2/3"}}]},
        ],
        "variables": [
            {"name": "X", "entries": ["1 + s", "2*p", "1/2*s"]},
            {"name": "Y", "entries": ["p", "-1*s", "3 + p"]},
            {"name": "A", "entries": ["s", "2*s", "0"]},
            {"name": "B", "entries": ["p", "0", "1/3*p"]},
        ],
    }
    # (c, alpha, beta) of each variable
    parts = {
        "X": ([1, 0, 0], [1, 0, F(1, 2)], [0, 2, 0]),
        "Y": ([0, 0, 3], [0, -1, 0], [1, 0, 1]),
    }
    parts = {
        name: tuple(BScalar.of(b) for b in bs) for name, bs in parts.items()
    }

    def closed_form(names):
        beta = BScalar.one(3)
        for name in names:
            beta = b_mul(beta, parts[name][2])
        value = beta.scale(rate)
        if len(names) == 1:
            value = value + parts[names[0]][0]
        if len(names) == 2:
            alpha = b_mul(parts[names[0]][1], parts[names[1]][1])
            value = value + alpha.scale(v)
        return value

    def boom(*args, **kwargs):
        raise AssertionError("the cumulant path went through moments")

    # the package builds no lattice order: its Möbius values come only
    # from the closed form, which goes through the Kreweras complement
    assert not hasattr(nc_lattice, "lattice")
    assert not hasattr(nc_lattice, "NcLattice")
    monkeypatch.setattr(nc_lattice, "mobius_to_top", boom)
    monkeypatch.setattr(nc_lattice, "mobius_intervals", boom)
    monkeypatch.setattr(nc_lattice, "kreweras", boom)
    assert not hasattr(MomentFunctional, "phi_word")
    monkeypatch.setattr(series_module, "moments_from_r", boom)
    monkeypatch.setattr(series_module, "r_from_moments", boom)

    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    assert cli.main(
        ["cumulants", "--vars", "X,Y", "--degree", "4", "--config", str(path)]
    ) == 0
    table = json.loads(capsys.readouterr().out)
    assert len(table["rows"]) == 16
    for row in table["rows"]:
        names = tuple("XY"[i - 1] for i in row["word"])
        assert row["value"] == closed_form(names).to_json_obj(), names

    model = cli.load_config(str(path))
    fn, named = model.functional, model.variables
    r = r_transform(fn, [named["X"], named["Y"]], 4)
    for word in all_index_words(2, 4):
        assert r.coef(word) == closed_form(tuple("XY"[i - 1] for i in word))

    assert check_freeness(fn, [named["A"]], [named["B"]], 5).free
    report = check_freeness(fn, [named["X"]], [named["Y"]], 4)
    assert report.witness == (1, 2)


def test_cli_cumulant_path_skips_mixed_family_tuples(
    monkeypatch, tmp_path, capsys
):
    """On a model whose entries are single generators (the shape of the
    benchmark's cumulant model), rtransform, cumulants and check-free
    succeed with no multilinear MomentFunctional.cumulant in the package,
    and every scalar cumulant they read is of a word tuple within one
    family."""
    config = {
        "N": 3,
        "degree_cap": 8,
        "families": [
            {"name": "semi", "generators": [{"id": "s", "distribution": {
                "kind": "semicircular", "variance": "5/4"}}]},
            {"name": "pois", "generators": [{"id": "p", "distribution": {
                "kind": "free_poisson", "rate": "2/3"}}]},
        ],
        "variables": [
            {"name": "X", "entries": ["-8/5*s", "-2/5*p", "-7/2*s"]},
            {"name": "Y", "entries": ["8/3*p", "1/3*s", "7/8*p"]},
            {"name": "A", "entries": ["1/7*s", "-6/5*s", "4/3*s"]},
            {"name": "B", "entries": ["5/9*p", "-1/4*p", "3/2*p"]},
        ],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    family = {"s": "semi", "p": "pois"}
    read = []
    cumulant_numerator = MomentFunctional.cumulant_numerator

    def recorded(self, words):
        read.append(words)
        return cumulant_numerator(self, words)

    monkeypatch.setattr(MomentFunctional, "cumulant_numerator", recorded)
    assert not hasattr(MomentFunctional, "cumulant")
    for argv in (
        ["rtransform", "--vars", "X,Y", "--degree", "6"],
        ["cumulants", "--vars", "X,Y", "--degree", "5"],
        ["check-free", "--a", "A", "--b", "B", "--degree", "6"],
    ):
        assert cli.main([*argv, "--config", str(path)]) == 0, argv
    assert '"free": true' in capsys.readouterr().out
    assert read
    for words in read:
        assert len({family[g] for word in words for g in word}) == 1, words


def test_directions_are_mutual_inverses_random():
    rng = random.Random(11)
    for _ in range(25):
        s, order, degree = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 5)
        f = random_series(rng, s, order, degree)
        assert r_from_moments(moments_from_r(f)) == f
        assert moments_from_r(r_from_moments(f)) == f


def test_series_calculus_matches_nc_oracles():
    """The first-block recursions equal the NC(n) sums they replace: the
    zeta sum, the mu-weighted sum and the Kreweras-complement sum."""
    rng = random.Random(31)
    for s in (1, 2, 3):
        for order in (1, 2, 3, 4):
            for density in (0.3, 1.0):
                degree = rng.randint(1, 5) if s < 3 else rng.randint(1, 4)
                f = random_series(rng, s, order, degree, density)
                g = random_series(rng, s, order, degree, density)
                e = boxed_identity(s, order, degree)
                assert moments_from_r(f) == moments_from_r_nc(f)
                assert r_from_moments(f) == r_from_moments_mobius(f)
                assert boxed_convolution(f, g) == boxed_convolution_kreweras(f, g)
                assert boxed_convolution(f, e) == boxed_convolution_kreweras(f, e)
                assert boxed_convolution(e, f) == boxed_convolution_kreweras(e, f)
    f = random_series(rng, 3, 2, 5, 0.5)
    g = random_series(rng, 3, 2, 5, 0.5)
    assert moments_from_r(f) == moments_from_r_nc(f)
    assert r_from_moments(f) == r_from_moments_mobius(f)
    assert boxed_convolution(f, g) == boxed_convolution_kreweras(f, g)


def test_series_calculus_aligns_coprime_denominators():
    """Entries over the denominators 1..9, so that the kernel's sums align
    coprime denominators such as 5, 7, 8 and 9 over their lcm, at Toeplitz
    orders 1 and 5: all three maps still equal their NC(n) sums."""
    rng = random.Random(9241)
    for order in (1, 5):
        for s, degree, density in ((1, 5, 1.0), (2, 4, 1.0), (2, 5, 0.4)):
            f = random_series(rng, s, order, degree, density, max_den=9)
            g = random_series(rng, s, order, degree, density, max_den=9)
            dens = {v.den for _, v in f.items()}
            assert len(dens) > 3, dens
            assert moments_from_r(f) == moments_from_r_nc(f)
            assert r_from_moments(f) == r_from_moments_mobius(f)
            assert boxed_convolution(f, g) == boxed_convolution_kreweras(f, g)


def test_series_calculus_drops_a_sum_that_cancels():
    """A first-block sum that cancels to exactly zero comes back as the
    packed zero, which decodes to no stored word, and the maps do not
    store it: m(1,1) = r(1,1) + r(1)^2, r(1,1) = m(1,1) - m(1)^2, and
    (f boxtimes g)(1,1) = f(1,1) g(1)^2 + f(1)^2 g(1,1)."""
    half = BScalar.of([1, F(1, 2)])
    r = BSeries(1, 2, 2, {(1,): half, (1, 1): BScalar.of([-1, -1])})
    m = moments_from_r(r)
    assert m.words() == [(1,)] and m == moments_from_r_nc(r)
    words = series_module._words_by_id(1, 2)
    lam, k, (packed,) = series_module._packed(
        words, series_module._zeta_terms, r)
    sums = [1, 0, 0]
    for x, value in series_module._walk(r, k, packed, sums, 1, [0, 0, 0]):
        sums[x] = value
    assert words[2] == (1, 1) and sums[2] == 0
    assert series_module._decoded(r, lam, k, words, [0, 0, sums[2]]).is_zero()
    square = BSeries(1, 2, 2, {(1,): half, (1, 1): BScalar.of([1, 1])})
    assert r_from_moments(square).words() == [(1,)]
    assert r_from_moments(square) == r_from_moments_mobius(square)
    one = BScalar.of([1, 0])
    f = BSeries(1, 2, 2, {(1,): one, (1, 1): half})
    g = BSeries(1, 2, 2, {(1,): one, (1, 1): half.scale(-1)})
    assert _printed(boxed_convolution(f, g)) == ["1", "0"]
    assert boxed_convolution(f, g).words() == [(1,)]
    assert boxed_convolution(f, g) == boxed_convolution_kreweras(f, g)


def test_series_calculus_stays_fused(monkeypatch):
    """The three maps sum every word on integer numerators inside the
    first-block kernel: with the BScalar product and sum disabled, they
    still return the values of the NC(n) oracles (taken beforehand)."""
    rng = random.Random(6323)
    cases = []
    for s, order, degree in ((1, 3, 5), (2, 2, 4), (3, 1, 3)):
        f = random_series(rng, s, order, degree, max_den=9)
        g = random_series(rng, s, order, degree, 0.5, max_den=9)
        want = (
            moments_from_r_nc(f),
            r_from_moments_mobius(f),
            boxed_convolution_kreweras(f, g),
        )
        cases.append((f, g, want))

    def boom(*args, **kwargs):
        raise AssertionError("a series map built a BScalar product or sum")

    # b_mul and b_add are defined in library, where the BScalar operators
    # read them
    monkeypatch.setattr(library, "b_mul", boom)
    monkeypatch.setattr(library, "b_add", boom)
    # series binds no b_mul of its own now; the patch guards any it gains
    monkeypatch.setattr(series_module, "b_mul", boom, raising=False)
    with pytest.raises(AssertionError, match="product or sum"):
        BScalar.one(2) + BScalar.one(2)
    for f, g, want in cases:
        got = (moments_from_r(f), r_from_moments(f), boxed_convolution(f, g))
        assert got == want


def test_series_maps_build_no_bscalar(monkeypatch, tmp_path, capsys):
    """A map returns its decoded terms and no BScalar coefficient: with
    every BScalar construction made to raise, moments_from_r,
    r_from_moments chained on its output and boxed_convolution return and
    print their JSON, and == and hash compare and hash their terms; once
    the patch is off, their coefficients, built on each read, equal the
    NC(n) oracles'. Under the same patch the hot CLI queries on the golden
    lines of cumulants, rtransform, check-free and moments, in JSON and
    CSV, exit 0 and print the golden bytes: t_cumulants and everything
    that reads it run on integer pairs. The moments table prints its rows,
    zero rows included, off the moment series' terms and builds no
    coefficient of that series."""
    rng = random.Random(4409)
    r = random_series(rng, 2, 3, 5, max_den=9)
    g = random_series(rng, 2, 3, 5, 0.6, max_den=9)

    def boom(*args, **kwargs):
        raise AssertionError("built a BScalar")

    moments, k3 = str(GOLDEN / "moments_config.json"), str(GOLDEN / "k3_config.json")
    golden = {
        "k3_cumulants.json": ["cumulants", "--vars", "A1,A2,A3",
                              "--degree", "3", "--config", k3],
        "rtransform_xz_d2.json": ["rtransform", "--vars", "X,Z",
                                  "--degree", "2", "--config", moments],
        "check_free_k3.json": ["check-free", "--a", "A1,A2", "--b", "A3",
                               "--config", k3],
        "moments_d4.json": ["moments", "--vars", "X,Y", "--degree", "4",
                            "--config", moments],
        "moments_d4.csv": ["moments", "--vars", "X,Y", "--degree", "4",
                           "--config", moments, "--format", "csv"],
    }
    with monkeypatch.context() as patch:
        # every BScalar, built by its constructor or by a reader, is made
        # by library._reduced
        patch.setattr(library, "_reduced", boom)
        with pytest.raises(AssertionError, match="built a BScalar"):
            BScalar.of([1, 2, 3])
        for name, argv in golden.items():
            assert cli.main(argv) == 0, name
            assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
        m = moments_from_r(r)
        back = r_from_moments(m)
        box = boxed_convolution(r, g)
        printed = [json.dumps(out.to_json_obj()) for out in (m, back, box)]
        assert not m.is_zero() and repr(m).endswith(" 62 coefficients)")
        assert back == r and r == back and hash(back) == hash(r)
        assert m != back and box != r and {m, back, box, r} == {m, box, r}
    assert m == moments_from_r_nc(r)
    assert back == r_from_moments_mobius(m) == r
    assert box == boxed_convolution_kreweras(r, g)
    for text, out in zip(printed, (m, back, box)):
        assert text == json.dumps(out.to_json_obj())

    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "N": 2,
        "degree_cap": 6,
        "families": [{"name": "semi", "generators": [{"id": "s",
            "distribution": {"kind": "semicircular", "variance": 1}}]}],
        "variables": [{"name": "X", "entries": ["s", "1/3"]},
                      {"name": "Y", "entries": ["2*s", "0"]}],
    }))
    with monkeypatch.context() as patch:
        # a series builds a BScalar coefficient in coef, which items reads
        patch.setattr(BSeries, "coef", boom)
        assert cli.main(["moments", "--vars", "X,Y", "--degree", "3",
                         "--config", str(path)]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
    model = cli.load_config(str(path))
    pair = [model.variables["X"], model.variables["Y"]]
    want = moment_series(model.functional, pair, 3)
    words = list(itertools.product((1, 2), repeat=3))
    assert [tuple(row["word"]) for row in rows] == words
    assert [row["value"] for row in rows] == [
        want.coef(w).to_json_obj() for w in words]
    assert ["0", "0"] in [row["value"] for row in rows]
    assert any("/" in x for row in rows for x in row["value"])


def test_series_calculus_leaves_no_cyclic_garbage():
    """With the cyclic collector off, nothing the three series maps build
    is left in a reference cycle: their memos are freed on return."""
    rng = random.Random(5309)
    f = random_series(rng, 2, 3, 5)
    g = random_series(rng, 2, 3, 5)
    calls = (
        lambda: boxed_convolution(f, g),
        lambda: moments_from_r(f),
        lambda: r_from_moments(f),
    )
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_series_calculus_cap_is_checked_before_any_word(monkeypatch):
    """All three maps refuse a series over the degree cap up front, and a
    series at the cap gets past the check into the first-block walk."""

    def boom(*args, **kwargs):
        raise AssertionError("summed a word")

    monkeypatch.setattr(series_module, "_walk", boom)
    cap = nc_lattice.DEFAULT_DEGREE_CAP

    def chain(degree):
        return BSeries(
            1, 2, degree,
            {(1,) * n: BScalar.of([1, n]) for n in range(1, degree + 1)},
        )

    maps = (moments_from_r, r_from_moments, lambda f: boxed_convolution(f, f))
    for apply in maps:
        with pytest.raises(DegreeCapExceeded) as err:
            apply(chain(cap + 1))
        assert str(err.value) == (
            f"series degree {cap + 1} exceeds the degree cap {cap}"
        )
        with pytest.raises(AssertionError, match="summed a word"):
            apply(chain(cap))


@settings(max_examples=40, deadline=None)
@given(
    s=st.integers(1, 3),
    order=st.integers(1, 4),
    degree=st.integers(1, 5),
    density=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**32),
)
def test_series_walk_matches_nc_oracles_on_random_series(
    s, order, degree, density, seed
):
    """On random series, sparse or dense, the walk's three maps equal their
    sums over NC(n): zeta, Moebius, and boxed convolution in both argument
    orders."""
    rng = random.Random(seed)
    f = random_series(rng, s, order, degree, density, max_den=5)
    g = random_series(rng, s, order, degree, density, max_den=5)
    assert moments_from_r(f) == moments_from_r_nc(f)
    assert r_from_moments(f) == r_from_moments_mobius(f)
    assert boxed_convolution(f, g) == boxed_convolution_kreweras(f, g)
    assert boxed_convolution(g, f) == boxed_convolution_kreweras(g, f)


def test_boxed_convolution_with_a_prefix_cut_off():
    """g(1) = 0 makes the region after position 0 of every word that
    starts with letter 1 zero in the walk of E, so no block of E reaches
    position 1 there and E(1, c) = 0; the sums still come out right. At
    (1, 1) only pi = {1}{2}, Kr(pi) = {12}, survives: f(1)^2 g(1, 1), and
    at (1, 1, 1) only pi = 0_3: f(1)^3 g(1, 1, 1)."""
    f = BSeries(2, 2, 3, {
        (1,): BScalar.of([2, 1]),
        (2,): BScalar.of([1, F(1, 3)]),
        (1, 1): BScalar.of([F(1, 2), 0]),
        (1, 2): BScalar.of([1, -1]),
        (2, 1, 1): BScalar.of([3, 0]),
    })
    g = BSeries(2, 2, 3, {
        (2,): BScalar.of([1, 2]),
        (1, 1): BScalar.of([3, 0]),
        (2, 1): BScalar.of([0, 1]),
        (1, 1, 1): BScalar.of([5, F(1, 2)]),
    })
    got = boxed_convolution(f, g)
    assert got == boxed_convolution_kreweras(f, g)
    f1 = f.coef((1,))
    assert got.coef((1,)).is_zero()
    assert got.coef((1, 1)) == b_mul(b_mul(f1, f1), g.coef((1, 1)))
    assert got.coef((1, 1, 1)) == b_mul(
        b_mul(f1, b_mul(f1, f1)), g.coef((1, 1, 1))
    )
    assert boxed_convolution(g, f) == boxed_convolution_kreweras(g, f)


def test_walk_evaluates_linear_regions_per_word():
    """The walk takes each word's blocks from its prefix and keeps each
    word's row of regions: on a dense s = 2, D = 6 series, the region
    table is read exactly once per word u and position a < |u|, at the id
    of u[a+1:], for u's open sum and for the blocks of u's children
    alike, so a word costs O(|w|) regions, not the O(|w|^2) of summing it
    from position 0. A per-letter walk reads u[a+1:] once per a < |u| - 1.
    The sums are still moments_from_r's."""
    rng = random.Random(3111)
    f = random_series(rng, 2, 2, 6)
    words = series_module._words_by_id(2, 6)
    ids = {word: x for x, word in enumerate(words)}
    lam, k, (packed,) = series_module._packed(
        words, series_module._zeta_terms, f)
    reads = []

    class Counted(list):
        def __getitem__(self, x):
            reads.append(x)
            return super().__getitem__(x)

    sums = Counted([0] * len(words))
    sums[0] = 1
    walked = series_module._walk(f, k, packed, sums, 1, [0] * len(words))
    for x, value in walked:
        sums[x] = value
    counted = list(reads)
    assert series_module._decoded(f, lam, k, words, sums) == moments_from_r(f)
    want = [ids[u[a + 1 :]] for u in words for a in range(len(u))]
    assert collections.Counter(counted) == collections.Counter(want)
    assert len(counted) == sum(map(len, words))

    reads.clear()
    ones = Counted([1] * len(words))
    walked = series_module._walk(f, k, packed, ones, 1, [0] * len(words), True)
    assert [words[x] for x, _ in walked] == words[1:]
    want = [ids[u[a + 1 :]] for u in words for a in range(len(u) - 1)]
    assert collections.Counter(reads) == collections.Counter(want)
    assert len(reads) <= sum(map(len, words))


def test_series_requests_refuse_oversized_word_sets(
    monkeypatch, tmp_path, capsys
):
    """A request for more than WORD_CAP words of its top length is refused
    before any word is made, with one error line that names the number:
    the degree tables, the series commands, check-free and the three
    series maps. A request of exactly WORD_CAP words passes the check."""

    def boom(*args, **kwargs):
        raise AssertionError("made a word")

    monkeypatch.setattr(cli, "product", boom)
    monkeypatch.setattr(cli, "t_cumulants", boom)
    # r_transform and check_freeness make their words in toeplitz_core
    monkeypatch.setattr(toeplitz_core, "all_index_words", boom)
    monkeypatch.setattr(toeplitz_core, "t_cumulants", boom)
    monkeypatch.setattr(series_module, "_walk", boom)

    def no_table(*args, **kwargs):
        raise AssertionError("built a word table")

    monkeypatch.setattr(series_module, "_words_by_id", no_table)
    config = {
        "N": 2,
        "degree_cap": 8,
        "families": [
            {"name": "semi", "generators": [{"id": "s", "distribution": {
                "kind": "semicircular", "variance": 1}}]},
        ],
        "variables": [
            {"name": "X", "entries": ["s", "1"]},
            {"name": "Y", "entries": ["2*s", "0"]},
        ],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    eight = ",".join(["X", "Y"] * 4)
    message = (
        "error: degree-cap-exceeded: 16777216 index words of length 8 "
        f"in 8 letters exceed the word cap {toeplitz_core.WORD_CAP}\n"
    )
    for argv in (
        ["cumulants", "--vars", eight],
        ["moments", "--vars", eight],
        ["rtransform", "--vars", eight],
        ["boxconv", "--left", eight, "--right", eight],
        ["check-free", "--a", "X,Y,X,Y", "--b", "Y,X,Y,X"],
    ):
        assert cli.main([*argv, "--degree", "8", "--config", str(path)]) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", message), argv

    loaded = cli.load_config(str(path))
    fn, x = loaded.functional, loaded.variables["X"]
    assert toeplitz_core.WORD_CAP == 4**7
    assert check_series_request(fn, [x] * 4, 7) == (2, 7)
    with pytest.raises(DegreeCapExceeded, match="^65536 index words of len"):
        check_series_request(fn, [x] * 4, 8)
    wide = BSeries(toeplitz_core.WORD_CAP + 1, 1, 1, {})
    for apply in (
        moments_from_r, r_from_moments, lambda f: boxed_convolution(f, f)
    ):
        with pytest.raises(DegreeCapExceeded) as err:
            apply(wide)
        assert str(err.value) == (
            f"{toeplitz_core.WORD_CAP + 1} index words of length 1 in "
            f"{toeplitz_core.WORD_CAP + 1} letters exceed the word cap "
            f"{toeplitz_core.WORD_CAP}"
        )
        with pytest.raises(AssertionError, match="built a word table"):
            apply(BSeries(toeplitz_core.WORD_CAP, 1, 1, {}))
    monkeypatch.undo()
    monkeypatch.setattr(series_module, "all_index_words", boom)
    for apply in (
        moments_from_r, r_from_moments, lambda f: boxed_convolution(f, f)
    ):
        with pytest.raises(AssertionError, match="made a word"):
            apply(BSeries(toeplitz_core.WORD_CAP, 1, 1, {}))


def test_series_calculus_never_enumerates_nc(monkeypatch, tmp_path, capsys):
    """With NC(n) enumeration and the Kreweras complement disabled, and no
    lattice order in the package, the maps still invert each other, the boxed
    identity stays neutral and the boxconv command gives its hand value."""

    def boom(*args, **kwargs):
        raise AssertionError("the series calculus went through NC(n)")

    assert not hasattr(nc_lattice, "lattice")
    assert not hasattr(nc_lattice, "NcLattice")
    monkeypatch.setattr(nc_lattice, "enumerate_nc", boom)
    monkeypatch.setattr(nc_lattice, "kreweras", boom)

    rng = random.Random(41)
    for _ in range(10):
        s, order, degree = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
        f = random_series(rng, s, order, degree, rng.choice((0.3, 1.0)))
        e = boxed_identity(s, order, degree)
        assert r_from_moments(moments_from_r(f)) == f
        assert moments_from_r(r_from_moments(f)) == f
        assert boxed_convolution(f, e) == f
        assert boxed_convolution(e, f) == f

    config = {
        "N": 2,
        "degree_cap": 6,
        "families": [
            {"name": "semi", "generators": [{"id": "s", "distribution": {
                "kind": "semicircular", "variance": 1}}]},
        ],
        "variables": [
            {"name": "X", "entries": ["s", "0"]},
            {"name": "C", "entries": ["2", "1/3"]},
        ],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    assert cli.main(
        ["boxconv", "--left", "X", "--right", "C", "--degree", "4",
         "--config", str(path)]
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    got = {tuple(row["word"]): row["value"] for row in obj["coefficients"]}
    rc = BScalar.of([2, F(1, 3)])
    assert got[(1, 1)] == b_mul(BScalar.of([1, 0]), b_mul(rc, rc)).to_json_obj()


def test_json_output_builds_no_csv_rows(monkeypatch, tmp_path, capsys):
    """The flat CSV rows are built only for --format csv: with the word
    formatter they need disabled, every command that prints a table or a
    series still prints its JSON, and CSV output reaches it."""

    def boom(*args, **kwargs):
        raise AssertionError("built a CSV row")

    monkeypatch.setattr(cli, "_compact", boom)
    config = {
        "N": 2,
        "degree_cap": 4,
        "families": [
            {"name": "a", "generators": [{"id": "s", "distribution": {
                "kind": "semicircular", "variance": 1}}]},
            {"name": "b", "generators": [{"id": "p", "distribution": {
                "kind": "free_poisson", "rate": 1}}]},
        ],
        "variables": [
            {"name": "X", "entries": ["s", "1"]},
            {"name": "A", "entries": ["s", "p"]},
        ],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    for argv in (
        ["moments", "--vars", "X"],
        ["cumulants", "--vars", "X"],
        ["rtransform", "--vars", "X"],
        ["boxconv", "--left", "X", "--right", "X"],
        ["compress", "--var", "X", "--alpha", "1/2"],
        ["sparsity", "--var", "A"],
        ["check-free", "--a", "X", "--b", "X"],
        ["check-even", "--var", "X"],
        ["nc", "list", "--n", "3"],
        ["nc", "mobius", "--n", "3"],
    ):
        tail = [] if argv[0] == "nc" else ["--degree", "3", "--config", str(path)]
        assert cli.main([*argv, *tail]) == 0, argv
        json.loads(capsys.readouterr().out)
    with pytest.raises(AssertionError, match="built a CSV row"):
        cli.main(["rtransform", "--vars", "X", "--degree", "3",
                  "--config", str(path), "--format", "csv"])


@pytest.mark.parametrize("command", ["moments", "cumulants"])
def test_degree_table_computes_only_printed_words(
    monkeypatch, tmp_path, capsys, command
):
    """moments/cumulants --degree d print the s^d words of length d in
    lexicographic order and call no t_cumulant. The
    cumulant walk yields one result per printed word, in order, and
    computes no shorter word. moments build one R-transform and read one
    moment series off it, both at degree d, and make no Toeplitz product.
    On this model of single-letter entries neither enumerates NC(n)."""
    calls = []
    t_cumulant_ = toeplitz_core.t_cumulant

    def counted(*args):
        calls.append("t_cumulant")
        return t_cumulant_(*args)

    for module in (cli, series_module, toeplitz_core, extras):
        monkeypatch.setattr(module, "t_cumulant", counted, raising=False)
    walked = []
    walk = toeplitz_core.t_cumulants

    def counted_walk(functional, vars_, words):
        words = list(words)
        for word, value in zip(words, walk(functional, vars_, words)):
            walked.append(word)
            yield value

    monkeypatch.setattr(cli, "t_cumulants", counted_walk)
    built, calls_t_mul, calls_nc = [], [], []
    r_transform_ = series_module.r_transform
    moments_from_r_ = series_module.moments_from_r
    t_mul_, enumerate_nc = toeplitz_core.t_mul, nc_lattice.enumerate_nc

    def counted_r_transform(functional, vars_, degree=None):
        r = r_transform_(functional, vars_, degree)
        built.append(("r_transform", r.degree))
        return r

    def counted_moments_from_r(r):
        built.append(("moments_from_r", r.degree))
        return moments_from_r_(r)

    def counted_t_mul(x, y):
        calls_t_mul.append(None)
        return t_mul_(x, y)

    def counted_enumerate_nc(*args, **kwargs):
        calls_nc.append(args)
        return enumerate_nc(*args, **kwargs)

    monkeypatch.setattr(series_module, "r_transform", counted_r_transform)
    monkeypatch.setattr(series_module, "moments_from_r", counted_moments_from_r)
    monkeypatch.setattr(toeplitz_core, "t_mul", counted_t_mul)
    monkeypatch.setattr(nc_lattice, "enumerate_nc", counted_enumerate_nc)

    config = {
        "N": 3,
        "degree_cap": 6,
        "families": [
            {"name": "semi", "generators": [{"id": "s", "distribution": {
                "kind": "semicircular", "variance": 1}}]},
            {"name": "pois", "generators": [{"id": "p", "distribution": {
                "kind": "free_poisson", "rate": "1/2"}}]},
        ],
        "variables": [
            {"name": "X", "entries": ["s", "1", "p"]},
            {"name": "Y", "entries": ["p", "s", "0"]},
        ],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    for degree in (1, 3, 4):
        calls.clear()
        walked.clear()
        built.clear()
        calls_t_mul.clear()
        calls_nc.clear()
        assert cli.main(
            [command, "--vars", "X,Y", "--degree", str(degree),
             "--config", str(path)]
        ) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        printed = [tuple(row["word"]) for row in rows]
        assert printed == list(itertools.product((1, 2), repeat=degree))
        assert calls == []
        assert calls_t_mul == []
        assert calls_nc == []
        if command == "cumulants":
            assert walked == printed
            assert built == []
        else:
            assert walked == []
            assert built == [("r_transform", degree), ("moments_from_r", degree)]


def random_affine_vars(rng: random.Random, s: int, order: int) -> list:
    """s variables whose entries are 0, c + a*s + b*p or c*s*p + d*p*s,
    with small random rationals."""

    def rational():
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    def entry():
        kind = rng.choice(("zero", "affine", "affine", "sp"))
        if kind == "zero":
            return zero
        if kind == "affine":
            return NcPolynomial(
                {(): rational(), ("s",): rational(), ("p",): rational()}
            )
        return NcPolynomial({("s", "p"): rational(), ("p", "s"): rational()})

    return [
        TVariable.of([entry() for _ in range(order)]) for _ in range(s)
    ]


def _affine_space(rng: random.Random) -> MomentFunctional:
    return build_space(
        {
            "sf": {"s": {"kind": "semicircular",
                         "variance": F(rng.randint(1, 4), rng.randint(1, 3))}},
            "pf": {"p": {"kind": "free_poisson",
                         "rate": F(rng.randint(1, 4), rng.randint(1, 3))}},
        },
        degree_cap=8,
    )


def test_moment_series_matches_oracle_chain():
    """Moments read off the R-transform against a per-word chain of
    matrix products with phi summed over NC(n), on seeded models with
    affine and s*p entries."""
    rng = random.Random(5077)
    shapes = set()
    for _ in range(8):
        s, order = rng.randint(1, 3), rng.randint(1, 4)
        degree = 3 if s == 3 else 4
        fn = _affine_space(rng)
        vars_ = random_affine_vars(rng, s, order)
        assert moment_series(fn, vars_, degree) == oracle_moment_series(
            fn, vars_, degree
        ), (s, order, degree)
        shapes.add((s, order))
    assert {s for s, _ in shapes} == {1, 2, 3}


def _count_fraction_arithmetic(patch):
    """Patch Fraction's products and sums (both operand orders) to count
    their calls; returns the live counts."""
    counts = {"mul": 0, "add": 0}

    def counting(name, original):
        def counted(self, other):
            counts[name] += 1
            return original(self, other)

        return counted

    for name in counts:
        for method in (f"__{name}__", f"__r{name}__"):
            patch.setattr(
                Fraction, method, counting(name, getattr(Fraction, method))
            )
    return counts


def test_toeplitz_product_uses_no_fraction_arithmetic(monkeypatch):
    """One t_mul of two affine N = 3 variables runs on integers alone: no
    Fraction is multiplied or added inside it. The moment series of
    degree 4 still matches the oracle chain."""
    rng = random.Random(4409)
    fn = _affine_space(rng)

    def affine():
        return NcPolynomial(
            {
                (): F(rng.randint(1, 3), rng.randint(2, 5)),
                ("s",): F(rng.randint(-3, 3) or 1, rng.randint(2, 5)),
                ("p",): F(rng.randint(-3, 3) or 1, rng.randint(2, 5)),
            }
        )

    x, y = (TVariable.of([affine() for _ in range(3)]) for _ in range(2))
    with monkeypatch.context() as patch:
        counts = _count_fraction_arithmetic(patch)
        xy = t_mul(x, y)
        assert F(1) * F(1) + F(1) == 2  # the counters are live
        assert counts == {"mul": 1, "add": 1}
    assert xy == t_mul_oracle(x, y)
    assert moment_series(fn, [x, y], 4) == oracle_moment_series(fn, [x, y], 4)


def test_series_calculus_uses_no_fraction_arithmetic(monkeypatch):
    """One b_mul and one b_add of N = 3 scalars, and the three series maps
    at degree 3, run on integers alone: no Fraction is multiplied or added
    inside them. The maps still match their NC(n) oracles."""
    rng = random.Random(5107)
    x, y = (
        BScalar.of([F(rng.randint(-9, 9), rng.randint(2, 9)) for _ in range(3)])
        for _ in range(2)
    )
    r = random_series(rng, 2, 3, 3)
    g = random_series(rng, 2, 3, 3, max_den=9)
    with monkeypatch.context() as patch:
        counts = _count_fraction_arithmetic(patch)
        xy, x_plus_y = b_mul(x, y), b_add(x, y)
        m = moments_from_r(r)
        r_back = r_from_moments(g)
        boxed = boxed_convolution(r, g)
        assert counts == {"mul": 0, "add": 0}
        assert F(1) * F(1) + F(1) == 2  # the counters are live
        assert counts == {"mul": 1, "add": 1}
    assert xy.entries == b_mul_fraction(x.entries, y.entries)
    assert x_plus_y.entries == b_add_fraction(x.entries, y.entries)
    assert m == moments_from_r_nc(r)
    assert r_back == r_from_moments_mobius(g)
    assert boxed == boxed_convolution_kreweras(r, g)


def test_moment_path_never_enumerates_nc(monkeypatch, tmp_path, capsys):
    """With NC(n) enumeration and the Kreweras complement disabled, and no
    lattice order and no MomentFunctional.cumulant in the package, the
    moments command and moment_series give the oracle's values on a model
    with s*p entries, whose scalar cumulants take products as arguments,
    and on one whose entries are affine in single generators, so that
    every scalar cumulant has one letter per slot."""
    assert not hasattr(nc_lattice, "lattice")

    def boom(*args, **kwargs):
        raise AssertionError("the moment path went through NC(n) or cumulant")

    for x_entries in (["1 + s", "2*s*p - p*s", "1/2*p"],
                      ["1 + s", "2*s - p", "1/2*p"]):
        config = {
            "N": 3,
            "degree_cap": 8,
            "families": [
                {"name": "semi", "generators": [{"id": "s", "distribution": {
                    "kind": "semicircular", "variance": "3/2"}}]},
                {"name": "pois", "generators": [{"id": "p", "distribution": {
                    "kind": "free_poisson", "rate": "2/3"}}]},
            ],
            "variables": [
                {"name": "X", "entries": x_entries},
                {"name": "Y", "entries": ["p - 2", "0", "s + 3*p"]},
            ],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(config))
        loaded = cli.load_config(str(path))
        vars_ = [loaded.variables["X"], loaded.variables["Y"]]
        want = oracle_moment_series(loaded.functional, vars_, 4)
        assert any(not want.coef(w).is_zero() for w in all_index_words(2, 4))

        with monkeypatch.context() as patch:
            patch.setattr(nc_lattice, "kreweras", boom)
            patch.setattr(nc_lattice, "enumerate_nc", boom)
            assert not hasattr(MomentFunctional, "cumulant")
            assert moment_series(loaded.functional, vars_, 4) == want
            assert cli.main(
                ["moments", "--vars", "X,Y", "--degree", "4",
                 "--config", str(path)]
            ) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [tuple(row["word"]) for row in rows] == [
            w for w in all_index_words(2, 4) if len(w) == 4
        ]
        for row in rows:
            assert row["value"] == want.coef(row["word"]).to_json_obj(), row


@pytest.fixture
def fn_mix():
    return build_space(
        {
            "sf": {"s": {"kind": "semicircular", "variance": F(1, 2)}},
            "pf": {"p": {"kind": "free_poisson", "rate": 2}},
        },
        degree_cap=5,
    )


@pytest.fixture
def pool_mix(fn_mix):
    return [
        TVariable.of([gen("s"), gen("p")]),
        TVariable.of([poly_add(gen("p"), NcPolynomial.one()), gen("s")]),
    ]


def test_series_inversion_matches_direct_computation(fn_mix, pool_mix):
    m = moment_series(fn_mix, pool_mix, 4)
    r = r_transform(fn_mix, pool_mix, 4)
    assert moments_from_r(r) == m
    assert r_from_moments(m) == r


def test_semicircular_fourth_moment_via_zeta(fn_semi):
    x = TVariable.of([gen("s")])
    assert moments_from_r(r_transform(fn_semi, [x], 4)).coef(
        (1, 1, 1, 1)
    ) == BScalar.of([2])


def test_truncation_coherence(fn_mix, pool_mix):
    big = moment_series(fn_mix, pool_mix, 5)
    for d in (1, 2, 3, 4):
        small = moment_series(fn_mix, pool_mix, d)
        assert small.degree == d
        assert small.items() == [(w, v) for w, v in big.items() if len(w) <= d]


# --------------------------------------------------------------------------
# the packed first-block kernel
# --------------------------------------------------------------------------


def _printed(out):
    """The entries a map's output prints off its terms, once they are
    checked to be the bytes its BScalar coefficients print."""
    assert out._pack is not None
    text = json.dumps(out.to_json_obj())
    want = BSeries(out.s, out.order, out.degree, dict(out.items()))
    assert text == json.dumps(want.to_json_obj())
    return [x for row in json.loads(text)["coefficients"] for x in row["value"]]


def _series_over(rng, s, order, degree, dens, bits):
    """A dense series whose entries are numerators of random sign below
    2^bits in absolute value over denominators drawn from dens."""
    return BSeries(s, order, degree, {
        w: BScalar.of(
            [F(rng.randint(1 - 2**bits, 2**bits - 1), rng.choice(dens))
             for _ in range(order)]
        )
        for w in all_index_words(s, degree)
    })


@pytest.mark.parametrize(
    ("s", "order", "degree", "dens", "bits"),
    [
        (2, 2, 4, (10_007, 1, 3), 3),
        (1, 1, 6, (2**61 - 1, 2), 3),
        (2, 2, 4, (12, 909, 2**20, 72), 3),
        (2, 2, 4, (1, 2, 3), 120),
        (1, 5, 5, (1, 5, 7), 3),
        (1, 8, 4, (2, 3), 4),
    ],
    ids=["prime-10007", "prime-2^61-1", "non-powers", "2^120-numerators",
         "order-5", "order-8"],
)
def test_packed_kernel_matches_nc_oracles(s, order, degree, dens, bits):
    """The packed maps equal their NC(n) sums over denominators with large
    prime factors (bases the scale splits off by gcds alone), denominators
    that are not perfect powers, numerators up to 2^120 of mixed signs,
    and Toeplitz orders 1, 2, 5 and 8. Each output, with entries of both
    signs over a lam that holds the large primes, prints the JSON of its
    BScalar coefficients off its rows."""
    rng = random.Random(f"{s}{order}{degree}{dens}{bits}")
    f = _series_over(rng, s, order, degree, dens, bits)
    g = _series_over(rng, s, order, degree, dens[::-1], bits)
    outs = (moments_from_r(f), r_from_moments(f), boxed_convolution(f, g))
    primes = [p for p in dens if p in (10_007, 2**61 - 1)]
    for out in outs:
        assert {x[0] == "-" for x in _printed(out)} == {True, False}
        assert all(out._pack[0] % p == 0 for p in primes)
    assert outs[0] == moments_from_r_nc(f)
    assert outs[1] == r_from_moments_mobius(f)
    assert outs[2] == boxed_convolution_kreweras(f, g)


@pytest.mark.parametrize("order", [1, 2, 3, 8, 12])
def test_packed_kernel_is_exact_without_cancellation(order, monkeypatch):
    """A worst case for the slot width: every entry positive and as large
    as its per-letter bit size allows (2^(3n) - 1 at a word of length n,
    integers, so the scale is 1), at s = 1, D = 6 and at s = 2, D = 5. No
    term cancels, and all three maps still equal their NC(n) sums; at
    s = 1 the moment series, whose entries grow the most, also goes back
    to R and into boxed convolution with r. The moments stay below the
    proven bound 2^(k-2) of M <- R's top slot and, on one of the two
    shapes, come within 4 bits of it, so a width narrowed past its proof
    overflows here. (At D = 6 and N = 12 they leave 5 bits: the count
    gives every pi in NC(n) the paths of 0_n, whose n factors have the
    most ways to split an entry index.) The outputs' integral entries
    print the JSON of their BScalar coefficients off the rows.

    The walk cuts a stored block weight once and each closed and open sum
    as it forms it, so every closed sum it writes and every value it
    yields, in walks of both kinds, is a balanced residue mod 2^(Nk),
    below 2^(Nk-1) in absolute value; a sum of truncated products left
    uncut carries their high digits and is not."""
    walk, walked = series_module._walk, collections.Counter()

    def balanced(f, k, coeffs, table, shift, closed, per_letter=False):
        half = 1 << (f.order * k - 1)
        for x, value in walk(f, k, coeffs, table, shift, closed, per_letter):
            assert -half <= closed[x] < half and -half <= value < half
            walked[per_letter] += 1
            yield x, value

    monkeypatch.setattr(series_module, "_walk", balanced)
    slack = []
    for s, degree in ((1, 6), (2, 5)):
        r = BSeries(s, order, degree, {
            w: BScalar.of([2 ** (3 * len(w)) - 1] * order)
            for w in all_index_words(s, degree)
        })
        m = moments_from_r(r)
        outs = (m, r_from_moments(r), boxed_convolution(r, r))
        assert all("/" not in x for out in outs for x in _printed(out))
        assert m == moments_from_r_nc(r)
        assert outs[1] == r_from_moments_mobius(r)
        assert outs[2] == boxed_convolution_kreweras(r, r)
        if s == 1:
            assert r_from_moments(m) == r == r_from_moments_mobius(m)
            assert boxed_convolution(m, r) == boxed_convolution_kreweras(m, r)
        words = series_module._words_by_id(s, degree)
        _, k, _ = series_module._packed(words, series_module._zeta_terms, r)
        assert {value.den for _, value in m.items()} == {1}
        top = max(abs(value.nums[-1]).bit_length() for _, value in m.items())
        assert top <= k - 2
        slack.append(k - 2 - top)
    assert min(slack) <= 4, slack
    assert walked[True] and walked[False]


def test_slot_width_counts_match_the_lattice():
    """The closed forms behind the packed kernel's slot widths. For
    n <= 8 at order 1: Cat(n) = |NC(n)| for M <- R and boxed convolution,
    and 2^(n-1) S(n) for R <- M, S(n) the sum over NC(n) of
    |mu(pi, 1_n)|. For n <= 6 at orders N <= 5, the factor each count
    gains is the number of ways to split the entry index j < N over the
    n factors of a term (n + 1 for boxed convolution), most for j = N - 1,
    counted over all tuples of digits below N."""
    splits = {}
    for order in range(1, 6):
        for factors in range(1, 8):
            sums = collections.Counter(
                map(sum, itertools.product(range(order), repeat=factors))
            )
            splits[order, factors] = max(sums[j] for j in range(order))
    for n in range(1, 9):
        partitions = nc_lattice.enumerate_nc(n)
        catalan = len(partitions)
        schroder = sum(abs(nc_lattice.mobius_to_top(pi)) for pi in partitions)
        assert series_module._zeta_terms(1, n) == catalan
        assert series_module._boxed_terms(1, n) == catalan
        assert series_module._mobius_terms(1, n) == 2 ** (n - 1) * schroder
        for order in range(1, 6) if n <= 6 else ():
            paths = splits[order, n]
            assert series_module._zeta_terms(order, n) == catalan * paths
            assert series_module._boxed_terms(order, n) == (
                catalan * splits[order, n + 1])
            assert series_module._mobius_terms(order, n) == (
                2 ** (n - 1) * schroder * paths)


def test_packed_scale_is_tight_per_prime():
    """The scale takes p^ceil(v/n) of every prime p: 12 at length 1, 909 =
    3^2 * 101 at length 2 and 2^20 at length 4 give 2^5 * 3 * 101, though
    2 only comes as 4 = 2^2 and 101 is split off by gcds alone."""
    f = BSeries(1, 2, 4, {
        (1,): BScalar.of([F(1, 12), 0]),
        (1, 1): BScalar.of([F(1, 909), 1]),
        (1, 1, 1, 1): BScalar.of([0, F(-3, 2**20)]),
    })
    assert series_module._scale(f) == 2**5 * 3 * 101


@pytest.mark.parametrize(
    ("variance", "lam"),
    [(F(1, 101), 101), (F(1, 2**61 - 1), 2**61 - 1), (F(1, 36), 6)],
)
def test_packed_scale_of_moments_stays_per_letter(variance, lam):
    """The moments of a semicircular element of variance 1/p have
    denominators p^(n/2) at length n; the scale stays p^(1/2) per letter
    rounded up, p, for a large prime p as for a small one, and not the
    p^(D/2) that taking each length's denominator whole would give."""
    r = BSeries(1, 1, 8, {(1, 1): BScalar.of([variance])})
    m = moments_from_r(r)
    assert m.coef((1,) * 8) == BScalar.of([14 * variance**4])
    assert series_module._scale(r) == series_module._scale(m) == lam
    mixed = BSeries(2, 1, 6, {
        (1, 1): BScalar.of([variance]),
        (2, 2): BScalar.of([F(2, 103)]),
        (1, 2, 2, 1): BScalar.of([F(1, 7)]),
    })
    assert series_module._scale(moments_from_r(mixed)) == lam * 103 * 7


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(1, 4),
    degree=st.integers(1, 5),
    rows=st.lists(
        st.tuples(
            st.lists(st.sampled_from([2, 3, 5, 7, 97, 101, 10_007]),
                     max_size=6),
            st.integers(-(2**70), 2**70),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_property_packed_scale_clears_every_denominator(order, degree, rows):
    """For every stored word w, den(w) divides lam^|w|, and the packed
    series decodes back to itself at the width of each map."""
    words = list(all_index_words(2, degree))
    coeffs = {}
    for at, (primes, num) in enumerate(rows):
        den = 1
        for p in primes:
            den *= p
        entries = [F(num * (j + 1) + j, den) for j in range(order)]
        coeffs[words[at * 7 % len(words)]] = BScalar.of(entries)
    f = BSeries(2, order, degree, coeffs)
    words = series_module._words_by_id(2, degree)
    for terms in (series_module._zeta_terms, series_module._mobius_terms,
                  series_module._boxed_terms):
        lam, k, (packed,) = series_module._packed(words, terms, f)
        for word, value in f.items():
            assert lam ** len(word) % value.den == 0, (word, value.den, lam)
        assert series_module._decoded(f, lam, k, words, packed) == f


def test_series_scale_cache_is_not_observable(monkeypatch):
    """A series keeps its scaled rows in a private slot, _pack, and a map's
    output holds there the rows it was decoded from: repeated and chained
    calls, and calls on equal series rebuilt from JSON (nothing kept),
    agree; the slot is outside == and hash and cannot be set; a chained
    map does not scale its input again; a map's output, packed from the
    rows it carries, decodes back to itself; and an output answers ==,
    hash, coef, items, words, is_zero, repr and to_json_obj as the series
    built from its coefficients does."""
    rng = random.Random(7717)
    f = random_series(rng, 2, 3, 4, 0.7, max_den=9)
    g = random_series(rng, 2, 3, 4, 0.7, max_den=9)

    def fresh(h):
        return BSeries.from_json_obj(json.loads(json.dumps(h.to_json_obj())))

    m = moments_from_r(f)
    box = boxed_convolution(f, g)
    assert moments_from_r(f) == m == moments_from_r(fresh(f))
    assert r_from_moments(m) == f == r_from_moments(fresh(m))
    assert moments_from_r(r_from_moments(m)) == m
    assert boxed_convolution(f, g) == box
    assert box == boxed_convolution(fresh(f), fresh(g))
    assert boxed_convolution(m, box) == boxed_convolution(fresh(m), fresh(box))
    assert box == boxed_convolution_kreweras(f, g)

    assert f._pack is not None and fresh(f)._pack is None
    assert f == fresh(f) and hash(f) == hash(fresh(f))
    assert {m: 1}[fresh(m)] == 1
    with pytest.raises(AttributeError, match="immutable"):
        f._pack = None
    with pytest.raises(AttributeError, match="immutable"):
        m.degree = 2

    words = series_module._words_by_id(2, 4)
    # each output packed with the width of the map that would read it next
    for out, terms in ((m, series_module._mobius_terms),
                       (r_from_moments(m), series_module._zeta_terms),
                       (box, series_module._boxed_terms)):
        assert out._pack is not None
        lam, k, (packed,) = series_module._packed(words, terms, out)
        assert series_module._decoded(out, lam, k, words, packed) == out

    # an output reads as the series built from its coefficients, zero
    # outputs included
    zero = BSeries(2, 3, 4, {})
    reads = (
        lambda h, want: h == want and want == h,
        lambda h, want: hash(h) == hash(want),
        lambda h, want: all(h.coef(w) == want.coef(w) for w in words[1:]),
        lambda h, want: h.items() == want.items(),
        lambda h, want: h.words() == want.words(),
        lambda h, want: h.is_zero() == want.is_zero(),
        lambda h, want: repr(h) == repr(want),
        lambda h, want: (json.dumps(h.to_json_obj())
                         == json.dumps(want.to_json_obj())),
    )
    for make in (lambda: moments_from_r(f), lambda: r_from_moments(m),
                 lambda: boxed_convolution(f, g), lambda: moments_from_r(zero),
                 lambda: boxed_convolution(f, zero)):
        out = make()
        want = BSeries(out.s, out.order, out.degree, dict(out.items()))
        for read in reads:
            assert read(make(), want)

    # the word plans of alternating shapes, cold and warm, in one process
    plans = series_module._words_by_id
    assert plans.cache_parameters()["maxsize"] is not None
    shapes = ((2, 5), (1, 6), (3, 3), (2, 5))
    pairs = [(random_series(rng, s, 2, degree, 0.8, max_den=7),
              random_series(rng, s, 2, degree, 0.8, max_den=7))
             for s, degree in shapes]

    def maps(h, k):
        return moments_from_r(h), r_from_moments(h), boxed_convolution(h, k)

    cold = []
    for h, k in pairs:
        plans.cache_clear()
        cold.append(maps(fresh(h), fresh(k)))
    plans.cache_clear()
    for (h, k), want in zip(pairs, cold):
        got = maps(fresh(h), fresh(k))
        assert got == want == (moments_from_r_nc(h), r_from_moments_mobius(h),
                               boxed_convolution_kreweras(h, k))
        assert [json.dumps(out.to_json_obj()) for out in got] == [
            json.dumps(out.to_json_obj()) for out in want]
    assert plans.cache_info().currsize <= plans.cache_parameters()["maxsize"]

    def boom(*args, **kwargs):
        raise AssertionError("scaled a series again")

    monkeypatch.setattr(series_module, "_scale", boom)
    assert r_from_moments(moments_from_r(f)) == f
    assert boxed_convolution(m, box) == boxed_convolution_kreweras(m, box)


def test_coefficients_read_reduced_with_tuple_entries():
    """A coefficient read by coef or items is a BScalar in its stored form,
    with tuple numerators and no factor common to the denominator and
    every numerator, on a series from the constructor, from r_transform
    and from each map, though a map keeps its terms over lam^|w| with
    list numerators, most of them not in lowest terms."""
    rng = random.Random(6113)
    f = random_series(rng, 2, 3, 4, 0.8, max_den=9)
    g = random_series(rng, 2, 3, 4, 0.8, max_den=9)
    model = cli.load_config(str(GOLDEN / "moments_config.json"))
    xy = [model.variables["X"], model.variables["Y"]]
    outs = (moments_from_r(f), r_from_moments(f), boxed_convolution(f, g))
    for out in outs:
        terms = out._terms.values()
        assert all(type(nums) is list for _, nums in terms)
        assert any(gcd(den, *nums) > 1 for den, nums in terms)
    for h in (f, r_transform(model.functional, xy, 3), *outs):
        read = [h.coef(w) for w in h.words()] + [v for _, v in h.items()]
        assert read and all(type(v.nums) is tuple for v in read)
        assert all(gcd(v.den, *v.nums) == 1 for v in read)


def test_unreduced_and_reduced_terms_compare_and_hash_alike():
    """A series whose terms are not in lowest terms equals, and hashes
    like, the series of the same values in lowest terms, and differs from
    one whose value differs in one entry."""
    held = {(1,): (6, [2, 4]), (1, 2): (4, [0, -2]), (2, 2, 1): (5, [5, 10])}
    unreduced = toeplitz_core._fill(object.__new__(BSeries), 2, 2, 3, held, None)
    reduced = BSeries(2, 2, 3, {
        (1,): BScalar.of(["1/3", "2/3"]), (1, 2): BScalar.of([0, "-1/2"]),
        (2, 2, 1): BScalar.of([1, 2])})
    assert unreduced == reduced and reduced == unreduced
    assert hash(unreduced) == hash(reduced)
    assert unreduced != BSeries(2, 2, 3, {
        **dict(reduced.items()), (1,): BScalar.of(["1/3", "1/3"])})


@pytest.mark.parametrize(("name", "degree"), [
    ("moments_config", 2), ("k3_config", 4), ("sparsity_config", 4)])
def test_r_transform_equals_the_series_of_its_coefficients(name, degree):
    """On each golden config, the R-transform of all its variables, whose
    terms r_transform fills itself from t_cumulants, holds every term in
    lowest terms, so that the series calculus scales it by the least lam,
    equals the series the constructor builds from its coefficients, hashes
    alike and prints the same JSON bytes."""
    model = cli.load_config(str(GOLDEN / f"{name}.json"))
    vars_ = list(model.variables.values())
    r = r_transform(model.functional, vars_, degree)
    assert all(gcd(den, *nums) == 1 for den, nums in r._terms.values())
    want = BSeries(r.s, r.order, r.degree, dict(r.items()))
    assert not r.is_zero() and r == want and want == r
    assert hash(r) == hash(want)
    assert json.dumps(r.to_json_obj()) == json.dumps(want.to_json_obj())


def test_benchmark_library_pass_checks_out(monkeypatch, tmp_path):
    """One pass of the benchmark's library script, perfbench/libseries.py,
    in a fresh interpreter on the workload's seed-901 inputs: it exits 0,
    its outputs pass the workload's own check, and the over-cap series is
    refused."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    workloads = importlib.import_module("workloads")
    inputs = workloads.series_inputs(random.Random(901))
    path = workloads.write_json(tmp_path / "series.json", inputs.files())
    src = Path(toeplitz_core.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(perfbench / "libseries.py"), str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    report = json.loads(proc.stdout)
    assert list(report["times"]) == [
        "moments_from_r", "r_from_moments", "boxed_convolution"]
    assert inputs.check(report["outputs"]) is None
    assert report["probe_refused"] == "DegreeCapExceeded"


# --------------------------------------------------------------------------
# additivity and juxtaposition of free groups
# --------------------------------------------------------------------------


@pytest.fixture
def fn_ab():
    return build_space(
        {
            "fa": {"a": {"kind": "semicircular", "variance": 1}},
            "fb": {"b": {"kind": "free_poisson", "rate": 1}},
        },
        degree_cap=5,
    )


@pytest.fixture
def xa(fn_ab):
    return TVariable.of([gen("a"), NcPolynomial.one(), zero])


@pytest.fixture
def yb(fn_ab):
    return TVariable.of([gen("b"), zero, gen("b")])


def test_r_additivity_for_free_variables(fn_ab, xa, yb):
    lhs = r_transform(fn_ab, [t_add(xa, yb)], 5)
    rhs = series_add(
        r_transform(fn_ab, [xa], 5), r_transform(fn_ab, [yb], 5)
    )
    assert lhs == rhs


def test_series_add_requires_same_shape(fn_ab, xa):
    r = r_transform(fn_ab, [xa], 3)
    with pytest.raises(DimensionMismatch):
        series_add(r, r_transform(fn_ab, [xa], 2))


def test_juxtaposition_kills_mixed_coefficients(fn_ab, xa, yb):
    joint = r_transform(fn_ab, [xa, yb], 4)
    ra = r_transform(fn_ab, [xa], 4)
    rb = r_transform(fn_ab, [yb], 4)
    for w in all_index_words(2, 4):
        if all(i == 1 for i in w):
            assert joint.coef(w) == ra.coef((1,) * len(w))
        elif all(i == 2 for i in w):
            assert joint.coef(w) == rb.coef((1,) * len(w))
        else:
            assert joint.coef(w).is_zero(), w


# --------------------------------------------------------------------------
# boxed convolution
# --------------------------------------------------------------------------


def test_boxed_identity_is_neutral():
    rng = random.Random(21)
    for _ in range(10):
        s, order, degree = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 4)
        f = random_series(rng, s, order, degree)
        e = boxed_identity(s, order, degree)
        assert boxed_convolution(f, e) == f
        assert boxed_convolution(e, f) == f


def test_boxed_identity_shape():
    e = boxed_identity(2, 3, 4)
    assert e.words() == [(1,), (2,)]
    assert e.coef((1,)) == BScalar.one(3)


def test_scalar_boxed_convolution_value():
    fn = build_space(
        {
            "fx": {"x": {"kind": "semicircular", "variance": 1}},
            "fy": {"y": {"kind": "constant", "value": 2}},
        },
        degree_cap=6,
    )
    rx = r_transform(fn, [TVariable.of([gen("x")])], 4)
    ry = r_transform(fn, [TVariable.of([gen("y")])], 4)
    conv = boxed_convolution(rx, ry)
    assert conv.coef((1, 1)) == BScalar.of([4])


def test_boxed_convolution_is_r_of_products():
    fn = build_space(
        {
            "fx": {
                "x1": {"kind": "semicircular", "variance": 1},
                "x2": {"kind": "free_poisson", "rate": F(1, 2)},
            },
            "fy": {
                "y1": {"kind": "free_poisson", "rate": 1},
                "y2": {"kind": "semicircular", "variance": F(1, 3)},
            },
        },
        degree_cap=8,
    )
    xs = [
        TVariable.of([gen("x1"), gen("x2")]),
        TVariable.of([gen("x2"), NcPolynomial.one()]),
    ]
    ys = [
        TVariable.of([gen("y1"), zero]),
        TVariable.of([gen("y2"), gen("y1")]),
    ]
    prods = [t_mul(x, y) for x, y in zip(xs, ys)]
    lhs = boxed_convolution(
        r_transform(fn, xs, 4), r_transform(fn, ys, 4)
    )
    assert lhs == r_transform(fn, prods, 4)


def test_boxed_convolution_requires_same_shape():
    rng = random.Random(22)
    f = random_series(rng, 2, 2, 3)
    g = random_series(rng, 2, 2, 2)
    with pytest.raises(DimensionMismatch):
        boxed_convolution(f, g)


# --------------------------------------------------------------------------
# freeness and evenness reports
# --------------------------------------------------------------------------


def test_check_freeness_free_and_not(fn_ab, xa, yb):
    report = check_freeness(fn_ab, [xa], [yb], 4)
    assert report == FreenessReport(True, None)
    report2 = check_freeness(fn_ab, [xa], [xa], 4)
    assert not report2.free
    assert report2.witness == (1, 2)
    consts = [from_bscalar(BScalar.of([2, 1, 0]))]
    assert check_freeness(fn_ab, [xa, yb], consts, 4).free
    with pytest.raises(ValueError):
        check_freeness(fn_ab, [], [xa], 3)


def test_check_freeness_witness_is_first_in_length_lex_order(fn_ab):
    # both mixed directions are nonzero; the scan must return (1, 2)
    a, b = gen("a"), gen("b")
    x = TVariable.of([a, zero, zero])
    y = TVariable.of([a, zero, zero])
    report = check_freeness(fn_ab, [x], [y], 3)
    assert report.witness == (1, 2)


def test_family_assignment(fn_ab, xa, yb):
    unit = from_bscalar(BScalar.one(3))
    out = family_assignment(fn_ab, {"X": xa, "Y": yb, "B": unit})
    assert out == {
        "X": frozenset({"fa"}),
        "Y": frozenset({"fb"}),
        "B": frozenset(),
    }


@pytest.fixture
def fn_even():
    return build_space(
        {
            "sf": {"s": {"kind": "semicircular", "variance": 1}},
            "cf": {"c": {"kind": "constant", "value": 1}},
        },
        degree_cap=6,
    )


def test_check_even_examples(fn_even, monkeypatch):
    """check_even reads the odd cumulants alone: it answers with the
    series kernel disabled, so it builds no moment series."""

    def boom(*args, **kwargs):
        raise AssertionError("check_even ran a series map")

    monkeypatch.setattr(series_module, "_walk", boom)
    assert check_even(fn_even, TVariable.of([gen("s"), zero, zero]), 6)
    assert check_even(fn_even, TVariable.of([gen("s")] * 3), 6)
    assert not check_even(fn_even, TVariable.of([gen("c"), zero, zero]), 6)


def test_even_cumulant_restricted_values(fn_even):
    x = TVariable.of([gen("s"), zero])
    assert even_cumulant_restricted(fn_even, x, 2) == BScalar.of([1, 0])
    assert even_cumulant_restricted(fn_even, x, 4) == t_cumulant(
        fn_even, [x], (1, 1, 1, 1)
    )
    assert even_cumulant_restricted(fn_even, x, 4).is_zero()
    same = TVariable.of([gen("s")] * 3)
    for m in (2, 4, 6):
        assert even_cumulant_restricted(fn_even, same, m) == t_cumulant(
            fn_even, [same], (1,) * m
        )


def test_even_cumulant_restricted_errors(fn_even):
    x = TVariable.of([gen("s"), zero])
    with pytest.raises(OddLength):
        even_cumulant_restricted(fn_even, x, 3)
    with pytest.raises(NotEven):
        even_cumulant_restricted(fn_even, TVariable.of([gen("c"), zero]), 2)
    with pytest.raises(DegreeCapExceeded):
        even_cumulant_restricted(fn_even, x, 8)


# --------------------------------------------------------------------------
# sparsity of free-generator tuples
# --------------------------------------------------------------------------


def semicircular_families(n: int):
    return build_space(
        {
            f"f{i}": {f"a{i}": {"kind": "semicircular", "variance": 1}}
            for i in range(1, n + 1)
        },
        degree_cap=6,
    )


def test_sparsity_n2_semicircular():
    fn = semicircular_families(2)
    a = TVariable.of([gen("a1"), gen("a2")])
    series, rows = free_family_sparsity(fn, a, 4)
    assert series.coef((1,)).is_zero()
    assert series.coef((1, 1)) == BScalar.of([1, 0])
    assert series.coef((1, 1, 1)).is_zero()
    assert series.coef((1, 1, 1, 1)).is_zero()
    assert len(rows) == 4 * 2
    assert rows[0] == PatternRow(1, 1, "a1", F(0))
    assert rows[0].to_json_obj() == {
        "degree": 1,
        "entry": 1,
        "source": "a1",
        "value": "0",
    }


def test_sparsity_n3_semicircular_degree2():
    fn = semicircular_families(3)
    a = TVariable.of([gen("a1"), gen("a2"), gen("a3")])
    series, _ = free_family_sparsity(fn, a, 4)
    assert series.coef((1, 1)) == BScalar.of([1, 0, 1])


def test_sparsity_n2_poisson_degree3():
    fn = build_space(
        {
            "f1": {"a1": {"kind": "free_poisson", "rate": 1}},
            "f2": {"a2": {"kind": "free_poisson", "rate": 1}},
        },
        degree_cap=6,
    )
    a = TVariable.of([gen("a1"), gen("a2")])
    series, _ = free_family_sparsity(fn, a, 4)
    assert series.coef((1,)) == BScalar.of([1, 1])
    assert series.coef((1, 1, 1)) == BScalar.of([1, 0])


def test_sparsity_n4_divisibility_pattern():
    """At N=4 the degree-3 coefficient picks up k3(a2,a2,a2) in entry 4:
    entry j carries k_n of generator (j-1)/n + 1 whenever n divides j-1.
    The extra term is pinned against the independent Möbius path."""
    fn = build_space(
        {
            f"f{i}": {f"a{i}": {"kind": "free_poisson", "rate": 1}}
            for i in range(1, 5)
        },
        degree_cap=6,
    )
    a = TVariable.of([gen(f"a{i}") for i in range(1, 5)])
    series, rows = free_family_sparsity(fn, a, 4)
    assert series.coef((1, 1)) == BScalar.of([1, 0, 1, 0])
    assert series.coef((1, 1, 1)) == BScalar.of([1, 0, 0, 1])
    assert series.coef((1, 1, 1, 1)) == BScalar.of([1, 0, 0, 0])
    assert t_cumulant_mobius(fn, [a], (1, 1, 1)) == BScalar.of([1, 0, 0, 1])
    by_slot = {(r.degree, r.entry): r for r in rows}
    assert by_slot[(3, 4)].source == "a2"
    assert by_slot[(3, 4)].value == 1
    assert by_slot[(3, 2)].source is None
    assert by_slot[(2, 3)].source == "a2"


def test_sparsity_preconditions():
    fn = semicircular_families(2)
    with pytest.raises(PreconditionError):  # entry not a bare generator
        free_family_sparsity(
            fn, TVariable.of([gen("a1"), poly_scale(2, gen("a2"))]), 3
        )
    with pytest.raises(PreconditionError):  # repeated generator
        free_family_sparsity(fn, TVariable.of([gen("a1"), gen("a1")]), 3)
    fn_shared = build_space(
        {
            "f1": {
                "a1": {"kind": "semicircular", "variance": 1},
                "a2": {"kind": "semicircular", "variance": 1},
            }
        },
        degree_cap=4,
    )
    with pytest.raises(PreconditionError):  # entries share a family
        free_family_sparsity(fn_shared, TVariable.of([gen("a1"), gen("a2")]), 3)
    fn_crowded = build_space(
        {
            "f1": {
                "a1": {"kind": "semicircular", "variance": 1},
                "a3": {"kind": "semicircular", "variance": 1},
            },
            "f2": {"a2": {"kind": "semicircular", "variance": 1}},
        },
        degree_cap=4,
    )
    with pytest.raises(PreconditionError):  # a1 is not alone in its family
        free_family_sparsity(fn_crowded, TVariable.of([gen("a1"), gen("a2")]), 3)


# --------------------------------------------------------------------------
# symmetrized and compressed transforms
# --------------------------------------------------------------------------


@pytest.fixture
def fn_sym():
    return build_space(
        {"sf": {"s": {"kind": "semicircular", "variance": 1}}}, degree_cap=5
    )


@pytest.fixture
def sym_vars():
    return [TVariable.of([gen("s"), gen("s")])]


def test_symm_with_unit_is_plain_r(fn_sym, sym_vars):
    base = r_transform(fn_sym, sym_vars, 5)
    assert symm_r_transform(fn_sym, sym_vars, BScalar.one(2), 5) == base


def test_symm_scales_by_powers(fn_sym, sym_vars):
    base = r_transform(fn_sym, sym_vars, 5)
    sym2 = symm_r_transform(fn_sym, sym_vars, BScalar.of([2, 0]), 5)
    for w, v in base.items():
        assert sym2.coef(w) == v.scale(F(2) ** (len(w) - 1))


def test_symm_with_zero_kills_higher_degrees(fn_sym, sym_vars):
    sym0 = symm_r_transform(fn_sym, sym_vars, BScalar.zero(2), 5)
    assert all(len(w) == 1 for w in sym0.words())


def test_symm_rejects_order_mismatch(fn_sym, sym_vars):
    with pytest.raises(DimensionMismatch):
        symm_r_transform(fn_sym, sym_vars, BScalar.one(3), 3)


def test_compress_equals_symm_path(fn_sym, sym_vars):
    rng = random.Random(23)
    base = r_transform(fn_sym, sym_vars, 5)
    for _ in range(20):
        alpha = F(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice([1, -1])
        comp = compress_r_transform(base, alpha)
        via_b0 = symm_r_transform(
            fn_sym, sym_vars, BScalar.of([alpha, 0]), 5
        )
        assert comp == via_b0
        assert comp.coef((1,)) == base.coef((1,))


def test_compress_identity_and_zero(fn_sym, sym_vars):
    base = r_transform(fn_sym, sym_vars, 5)
    assert compress_r_transform(base, 1) == base
    with pytest.raises(ZeroTrace):
        compress_r_transform(base, 0)
