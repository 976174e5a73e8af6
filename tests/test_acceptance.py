"""Acceptance gate: one test per shipped guarantee, each with a hard
wall-clock budget and a single visible verdict line.

Every check uses exact rational arithmetic — there are no tolerances
anywhere in this file. Wherever a theorem relates two quantities, the two
sides are computed through independent code paths (lattice sum vs Möbius
inversion, direct product vs matrix embedding, series identity vs engine
recomputation), so a single shared bug cannot silently satisfy a check.
"""

import contextlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from oracles import (
    centrality_commutes,
    chain_product,
    composition_terms,
    delta,
    even_cumulant_restricted,
    expect,
    from_bscalar,
    lattice,
    mobius,
    one_partition,
    phi_word_nc,
    series_add,
    t_cumulant_compositions,
    t_cumulant_mobius,
    t_add,
    t_mul_oracle,
    zero_partition,
)
from toepfree.errors import ZeroTrace
from toepfree.extras import (
    check_even,
    compress_r_transform,
    free_family_sparsity,
    symm_r_transform,
)
from toepfree.nc_lattice import catalan, enumerate_nc, kreweras
from toepfree.ncpoly import NcPolynomial, poly_add, poly_scale
from toepfree.scalar_space import build_space
from toepfree.series import (
    BSeries,
    all_index_words,
    boxed_convolution,
    check_freeness,
    moment_series,
    moments_from_r,
    r_from_moments,
    r_transform,
)
from toepfree.toeplitz_core import (
    BScalar,
    TVariable,
    b_mul,
    t_cumulant,
    t_mul,
)

F = Fraction
gen = NcPolynomial.generator
zero = NcPolynomial.zero()

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _verdict(capsys, number: int, label: str, verdict: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({label}): {verdict}")


@contextlib.contextmanager
def criterion(capsys, number: int, label: str, budget: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        _verdict(capsys, number, label, "FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget:
        _verdict(capsys, number, label, "FAIL")
        raise AssertionError(
            f"criterion {number} took {elapsed:.1f}s, over its "
            f"{budget:.0f}s budget"
        )
    _verdict(capsys, number, label, "PASS")


def rand_fraction(rng: random.Random, lo: int = -4, hi: int = 4) -> F:
    return F(rng.randint(lo, hi), rng.randint(1, 3))


def rand_poly(rng: random.Random, ids) -> NcPolynomial:
    p = NcPolynomial.zero()
    for _ in range(rng.randint(1, 3)):
        w = tuple(rng.choice(ids) for _ in range(rng.randint(0, 2)))
        p = poly_add(p, NcPolynomial({w: rng.randint(-3, 3)}))
    return p


def rand_linear_poly(rng: random.Random, ids) -> NcPolynomial:
    p = NcPolynomial.zero()
    for g in ids:
        c = rng.randint(-2, 2)
        if c:
            p = poly_add(p, poly_scale(F(c), gen(g)))
    return p


def rand_series(rng: random.Random, s: int, order: int, degree: int) -> BSeries:
    coeffs = {
        w: BScalar.of(
            [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(order)]
        )
        for w in all_index_words(s, degree)
    }
    return BSeries(s, order, degree, coeffs)


def run_cli(*argv: str):
    env = dict(os.environ)
    env.pop("TOEPFREE_DEGREE_CAP", None)
    proc = subprocess.run(
        [sys.executable, "-m", "toepfree", *argv],
        capture_output=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr.decode()


# --------------------------------------------------------------------------
# 1 — the noncrossing partition lattice
# --------------------------------------------------------------------------


def test_criterion_1_lattice(capsys):
    with criterion(capsys, 1, "noncrossing lattice", 10.0):
        # enumeration sizes are the Catalan numbers
        for n in range(1, 9):
            assert len(enumerate_nc(n)) == catalan(n)

        # zeta * mu = mu * zeta = delta on every interval up to n = 6
        for n in range(1, 7):
            lat = lattice(n)
            for lo_i, lo in enumerate(lat.elements):
                for hi_i in lat.above[lo_i]:
                    hi = lat.elements[hi_i]
                    inside = lat.interval(lo_i, hi_i)
                    expected = delta(lo, hi)
                    assert sum(lat.mu(lo_i, mid) for mid in inside) == expected
                    assert sum(lat.mu(mid, hi_i) for mid in inside) == expected

        # the full-interval Möbius values are signed Catalan numbers
        for n in range(1, 8):
            assert mobius(zero_partition(n), one_partition(n)) == F(
                (-1) ** (n - 1) * catalan(n - 1)
            )

        # the Kreweras complement is a bijection and satisfies the
        # block-count identity |pi| + |Kr(pi)| = n + 1
        for n in range(1, 8):
            parts = enumerate_nc(n)
            images = [kreweras(pi) for pi in parts]
            assert len(set(images)) == len(parts)
            assert set(images) == set(parts)
            for pi, kr in zip(parts, images):
                assert len(pi.blocks) + len(kr.blocks) == n + 1


# --------------------------------------------------------------------------
# 2 — scalar moment-cumulant inversion
# --------------------------------------------------------------------------


def test_criterion_2_moment_cumulant_inversion(capsys):
    with criterion(capsys, 2, "moment-cumulant inversion", 30.0):
        rng = random.Random(4202)
        ids = ("g", "h")

        # 50 random joint cumulant tables: pushing them through the moment
        # functional and re-extracting cumulants recovers every table entry
        for _ in range(50):
            table: dict[tuple[str, ...], F] = {}
            for arity in range(1, 7):
                for _ in range(rng.randint(0, 2)):
                    key = tuple(rng.choice(ids) for _ in range(arity))
                    value = F(rng.randint(-6, 6), rng.randint(1, 4))
                    if value:
                        table[key] = value
            fn = build_space(
                {
                    "fam": {
                        "g": {"kind": "custom", "cumulants": table},
                        "h": {"kind": "custom", "cumulants": {}},
                    }
                },
                degree_cap=6,
            )
            for length in range(1, 7):
                for w in itertools.product(ids, repeat=length):
                    slots = tuple((g,) for g in w)
                    assert fn.cumulant_words(slots) == table.get(w, F(0))

        # the two series-level lattice transforms are mutual inverses
        for _ in range(25):
            s = rng.randint(1, 3)
            order = rng.randint(1, 3)
            degree = rng.randint(1, 5)
            f = rand_series(rng, s, order, degree)
            assert r_from_moments(moments_from_r(f)) == f
            assert moments_from_r(r_from_moments(f)) == f


# --------------------------------------------------------------------------
# 3 — upper-triangular Toeplitz products
# --------------------------------------------------------------------------


def test_criterion_3_tuple_products(capsys):
    with criterion(capsys, 3, "triangular tuple products", 30.0):
        ids = ("u", "v", "w")
        fn = build_space(
            {
                "fu": {"u": {"kind": "semicircular", "variance": 1}},
                "fv": {"v": {"kind": "free_poisson", "rate": F(1, 2)}},
                "fw": {"w": {"kind": "constant", "value": F(3, 2)}},
            },
            degree_cap=8,
        )

        rng = random.Random(4203)
        for _ in range(100):
            n = rng.randint(1, 5)
            count = rng.randint(2, 5)
            chain = [
                TVariable.of([rand_poly(rng, ids) for _ in range(n)])
                for _ in range(count)
            ]

            # every pairwise product agrees with the matrix embedding
            acc = chain[0]
            for nxt in chain[1:]:
                assert t_mul(acc, nxt) == t_mul_oracle(acc, nxt)
                acc = t_mul(acc, nxt)

            # associativity on the first three factors
            if count >= 3:
                a, b, c = chain[:3]
                assert t_mul(t_mul(a, b), c) == t_mul(a, t_mul(b, c))

            # embedded scalars are central
            assert centrality_commutes(
                BScalar.of([rand_fraction(rng) for _ in range(n)]), chain[0]
            )

            # the expectation is a bimodule map over embedded scalars
            b1 = BScalar.of([rand_fraction(rng) for _ in range(n)])
            b2 = BScalar.of([rand_fraction(rng) for _ in range(n)])
            sandwich = t_mul(
                from_bscalar(b1),
                t_mul(chain[0], from_bscalar(b2)),
            )
            assert expect(fn, sandwich) == b_mul(
                b1, b_mul(expect(fn, chain[0]), b2)
            )

        # order-2 triple product, written out symbolically
        x1 = TVariable.of([gen("a1"), gen("b1")])
        x2 = TVariable.of([gen("a2"), gen("b2")])
        x3 = TVariable.of([gen("a3"), gen("b3")])
        triple = t_mul(t_mul(x1, x2), x3)
        assert triple.entries[0] == NcPolynomial({("a1", "a2", "a3"): 1})
        assert triple.entries[1] == poly_add(
            poly_add(
                NcPolynomial({("a1", "a2", "b3"): 1}),
                NcPolynomial({("a1", "b2", "a3"): 1}),
            ),
            NcPolynomial({("b1", "a2", "a3"): 1}),
        )

        # order-4 product shape: entry j is sum over k of x_k * y_(j+1-k)
        xs = TVariable.of([gen(f"x{k}") for k in range(1, 5)])
        ys = TVariable.of([gen(f"y{k}") for k in range(1, 5)])
        prod = t_mul(xs, ys)
        for j in range(1, 5):
            expected = NcPolynomial.zero()
            for k in range(1, j + 1):
                expected = poly_add(
                    expected,
                    NcPolynomial({(f"x{k}", f"y{j + 1 - k}"): 1}),
                )
            assert prod.entries[j - 1] == expected


# --------------------------------------------------------------------------
# 4 — the two cumulant routes
# --------------------------------------------------------------------------


def test_criterion_4_dual_cumulant_routes(capsys):
    with criterion(capsys, 4, "two cumulant routes", 60.0):
        rng = random.Random(4204)

        # 20 random variable sets, every index word of length up to 5: the
        # B-multilinear walk, the sum over compositions and the
        # Möbius-inversion route agree
        for _ in range(20):
            order = rng.randint(1, 3)
            fn = build_space(
                {
                    "f1": {
                        "u": {
                            "kind": "semicircular",
                            "variance": F(rng.randint(1, 3), rng.randint(1, 2)),
                        },
                        "v": {
                            "kind": "free_poisson",
                            "rate": F(rng.randint(1, 4), rng.randint(1, 3)),
                        },
                    },
                    "f2": {
                        "w": {"kind": "constant", "value": rng.randint(-2, 2)}
                    },
                },
                degree_cap=6,
            )
            pool = [
                TVariable.of(
                    [rand_linear_poly(rng, ("u", "v", "w")) for _ in range(order)]
                )
                for _ in range(2)
            ]
            for length in range(1, 6):
                for idx in itertools.product((1, 2), repeat=length):
                    got = t_cumulant(fn, pool, idx)
                    assert got == t_cumulant_compositions(fn, pool, idx)
                    assert got == t_cumulant_mobius(fn, pool, idx)

        # worked third cumulant of three order-2 variables, symbolically
        joint = {
            ("a11", "a12", "a13"): F(1, 2),
            ("a11", "a12", "a23"): F(1, 3),
            ("a11", "a22", "a13"): F(1, 5),
            ("a21", "a12", "a13"): F(1, 7),
        }
        dists: dict[str, dict[str, object]] = {
            "a11": {"kind": "custom", "cumulants": joint}
        }
        for other in ("a21", "a12", "a22", "a13", "a23"):
            dists[other] = {"kind": "custom", "cumulants": {}}
        fn3 = build_space({"joint": dists}, degree_cap=6)
        a_vars = [
            TVariable.of([gen(f"a1{k}"), gen(f"a2{k}")]) for k in (1, 2, 3)
        ]

        q1, q2 = (list(composition_terms(a_vars, j)) for j in (0, 1))
        assert q1 == [(gen("a11"), gen("a12"), gen("a13"))]
        assert q2 == [
            (gen("a11"), gen("a12"), gen("a23")),
            (gen("a11"), gen("a22"), gen("a13")),
            (gen("a21"), gen("a12"), gen("a13")),
        ]
        chain = chain_product(a_vars)
        for j, terms in enumerate((q1, q2)):
            total = zero
            for seq in terms:
                total = poly_add(total, seq[0] * seq[1] * seq[2])
            assert total == chain.entries[j]

        got = t_cumulant(fn3, a_vars, (1, 2, 3))
        assert got == BScalar.of([F(1, 2), F(1, 3) + F(1, 5) + F(1, 7)])
        assert got == t_cumulant_compositions(fn3, a_vars, (1, 2, 3))
        assert got == t_cumulant_mobius(fn3, a_vars, (1, 2, 3))
        assert got.entries[1] == F(71, 105)


# --------------------------------------------------------------------------
# 5 — freeness: vanishing mixed cumulants, additivity, multiplicativity
# --------------------------------------------------------------------------


def test_criterion_5_freeness_laws(capsys):
    with criterion(capsys, 5, "freeness laws", 120.0):
        rng = random.Random(4205)
        fn = build_space(
            {
                "fx": {
                    "x1": {"kind": "semicircular", "variance": 1},
                    "x2": {"kind": "free_poisson", "rate": F(1, 3)},
                },
                "fy": {
                    "y1": {"kind": "free_poisson", "rate": 1},
                    "y2": {"kind": "semicircular", "variance": F(1, 2)},
                },
            },
            degree_cap=6,
        )
        xs = TVariable.of([gen("x1"), gen("x2"), zero])
        ys = TVariable.of([gen("y1"), poly_add(gen("y2"), gen("y1")), gen("y2")])

        # every mixed cumulant with slots from both families vanishes
        for length in range(2, 6):
            for idx in itertools.product((1, 2), repeat=length):
                if len(set(idx)) < 2:
                    continue
                assert t_cumulant_mobius(fn, [xs, ys], idx).is_zero()
        assert check_freeness(fn, [xs], [ys], 5).free

        # the R-transform is additive over free variables
        lhs = r_transform(fn, [t_add(xs, ys)], 5)
        rhs = series_add(r_transform(fn, [xs], 5), r_transform(fn, [ys], 5))
        assert lhs == rhs

        # boxed convolution computes the R-transform of products of free
        # variables; the right side never touches the convolution code
        fn8 = build_space(
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
        for _ in range(3):
            pair_x = [
                TVariable.of([rand_linear_poly(rng, ("x1", "x2")) for _ in range(2)])
                for _ in range(2)
            ]
            pair_y = [
                TVariable.of([rand_linear_poly(rng, ("y1", "y2")) for _ in range(2)])
                for _ in range(2)
            ]
            prods = [t_mul(x, y) for x, y in zip(pair_x, pair_y)]
            lhs = boxed_convolution(
                r_transform(fn8, pair_x, 4), r_transform(fn8, pair_y, 4)
            )
            assert lhs == r_transform(fn8, prods, 4)


# --------------------------------------------------------------------------
# 6 — sparsity of R-transforms of free singleton families
# --------------------------------------------------------------------------


def test_criterion_6_sparsity(capsys):
    with criterion(capsys, 6, "free-family sparsity", 30.0):
        rng = random.Random(4206)
        for order in (2, 3, 4):
            for trial in range(3):
                tables: dict[str, dict[str, dict[str, object]]] = {}
                for i in range(1, order + 1):
                    if order == 4 and i == 2:
                        # pin a nonzero third cumulant in the second slot so
                        # the degree-3 entry-4 coefficient is visibly nonzero
                        dist: dict[str, object] = {
                            "kind": "free_poisson",
                            "rate": F(rng.randint(1, 3)),
                        }
                    else:
                        dist = rng.choice(
                            [
                                {
                                    "kind": "semicircular",
                                    "variance": F(rng.randint(1, 4), 2),
                                },
                                {
                                    "kind": "free_poisson",
                                    "rate": F(rng.randint(1, 4), 3),
                                },
                                {
                                    "kind": "custom",
                                    "cumulants": {
                                        (f"a{i}",)
                                        * k: F(rng.randint(-3, 3))
                                        for k in range(1, 6)
                                    },
                                },
                            ]
                        )
                    tables[f"f{i}"] = {f"a{i}": dist}
                fn = build_space(tables, degree_cap=6)
                var = TVariable.of([gen(f"a{i}") for i in range(1, order + 1)])
                series, rows = free_family_sparsity(fn, var, 5)

                # the reported pattern matches the divisibility rule, with
                # every value recomputed from the scalar cumulants directly
                by_slot = {(r.degree, r.entry): r for r in rows}
                for n in range(1, 6):
                    for j in range(1, order + 1):
                        row = by_slot[(n, j)]
                        if (j - 1) % n == 0:
                            m = (j - 1) // n + 1
                            assert row.source == f"a{m}"
                            assert row.value == fn.cumulant_words(
                                ((f"a{m}",),) * n
                            )
                        else:
                            assert row.source is None
                            assert row.value == 0
                        assert series.coef((1,) * n).entries[j - 1] == row.value

                # degree 1 holds the expectations of the diagonal slots
                for j in range(1, order + 1):
                    assert by_slot[(1, j)].value == phi_word_nc(fn, (f"a{j}",))

                # degree 2 alternates: odd entries live, even entries vanish
                for j in range(1, order + 1):
                    if j % 2 == 0:
                        assert by_slot[(2, j)].value == 0

                # cross-check two full coefficients against the independent
                # Möbius route
                for n in (2, 3):
                    assert series.coef((1,) * n) == t_cumulant_mobius(
                        fn, [var], (1,) * n
                    )

                if order < 4:
                    # entries beyond the first die out from degree 3 on
                    for n in range(3, 6):
                        for j in range(2, order + 1):
                            assert by_slot[(n, j)].value == 0
                else:
                    # at width 4 the divisibility rule revives entry 4 at
                    # degree 3 with the second slot's third cumulant
                    row = by_slot[(3, 4)]
                    assert row.source == "a2"
                    assert row.value == fn.cumulant_words((("a2",),) * 3)
                    assert row.value != 0
                    assert (
                        t_cumulant_mobius(fn, [var], (1, 1, 1)).entries[3]
                        == row.value
                    )


# --------------------------------------------------------------------------
# 7 — evenness transfers between moments and cumulants
# --------------------------------------------------------------------------


def _moment_even(fn, x, degree: int) -> bool:
    moments = moment_series(fn, [x], degree)
    return all(
        moments.coef((1,) * n).is_zero() for n in range(1, degree + 1, 2)
    )


def _cumulant_even(fn, x, degree: int) -> bool:
    return all(
        t_cumulant_mobius(fn, [x], (1,) * n).is_zero()
        for n in range(1, degree + 1, 2)
    )


def test_criterion_7_evenness(capsys):
    with criterion(capsys, 7, "evenness transfer", 60.0):
        fn = build_space(
            {
                "sf": {"s": {"kind": "semicircular", "variance": 1}},
                "tf": {"t": {"kind": "semicircular", "variance": F(1, 2)}},
                "pf": {"p": {"kind": "free_poisson", "rate": 1}},
            },
            degree_cap=6,
        )

        def agree(x: TVariable, expected: bool) -> None:
            m_even = _moment_even(fn, x, 6)
            c_even = _cumulant_even(fn, x, 6)
            assert m_even == c_even == expected
            assert check_even(fn, x, 6) is expected

        # fixed corpus: (i) a lone even entry, (ii) a constant diagonal of
        # even entries, (iii) mixed even entries with gaps
        corpus_even = [
            TVariable.of([gen("s"), zero]),
            TVariable.of([gen("s")] * 3),
            TVariable.of([poly_add(gen("s"), gen("t")), zero, gen("t")]),
        ]
        for x in corpus_even:
            agree(x, True)

        # 10 random even variables: entries are linear forms in the two
        # even generators, zeros allowed
        rng = random.Random(4207)
        for _ in range(10):
            order = rng.choice((2, 3, 4))
            entries = [rand_linear_poly(rng, ("s", "t")) for _ in range(order)]
            if entries[0].is_zero():
                entries[0] = gen("s")
            agree(TVariable.of(entries), True)

        # 10 random non-even variables: an odd-cumulant generator enters
        # one entry, either bare (odd mean, any slot) or centered (odd third
        # cumulant, which only the diagonal slot tastes at every power)
        for k in range(10):
            order = rng.choice((2, 3, 4))
            entries = [rand_linear_poly(rng, ("s", "t")) for _ in range(order)]
            spoiler = gen("p")
            at = rng.randrange(order)
            if k % 2:
                spoiler = poly_add(spoiler, NcPolynomial.constant(F(-1)))
                at = 0
            entries[at] = poly_add(entries[at], spoiler)
            agree(TVariable.of(entries), False)

        # for even variables the even-blocks-only cumulant formula agrees
        # with the unrestricted Möbius route at every even degree
        for x in corpus_even:
            for m in (2, 4, 6):
                assert even_cumulant_restricted(fn, x, m) == t_cumulant_mobius(
                    fn, [x], (1,) * m
                )


# --------------------------------------------------------------------------
# 8 — compression rescales the R-transform
# --------------------------------------------------------------------------


def test_criterion_8_compression(capsys):
    with criterion(capsys, 8, "compression scaling", 10.0):
        rng = random.Random(4208)
        fn = build_space(
            {
                "sf": {"s": {"kind": "semicircular", "variance": 1}},
                "pf": {"p": {"kind": "free_poisson", "rate": F(1, 2)}},
            },
            degree_cap=5,
        )
        varsets = [
            [TVariable.of([gen("s"), gen("p")])],
            [
                TVariable.of([gen("p"), zero]),
                TVariable.of([gen("s"), gen("s")]),
            ],
        ]
        base_cache: dict[tuple[int, int], BSeries] = {}
        for _ in range(20):
            which = rng.randrange(len(varsets))
            degree = rng.randint(1, 5)
            base = base_cache.get((which, degree))
            if base is None:
                base = r_transform(fn, varsets[which], degree)
                base_cache[(which, degree)] = base
            alpha = F(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice(
                (1, -1)
            )
            compressed = compress_r_transform(base, alpha)
            via_b0 = symm_r_transform(
                fn, varsets[which], BScalar.of([alpha, 0]), degree
            )
            assert compressed == via_b0
            # the linear coefficients are untouched
            for w in base.words():
                if len(w) == 1:
                    assert compressed.coef(w) == base.coef(w)

        base = base_cache[next(iter(base_cache))]
        assert compress_r_transform(base, 1) == base
        with pytest.raises(ZeroTrace):
            compress_r_transform(base, 0)


# --------------------------------------------------------------------------
# 9 — command-line golden outputs
# --------------------------------------------------------------------------


def test_criterion_9_cli_golden(capsys):
    with criterion(capsys, 9, "command-line golden outputs", 10.0):
        # the order-4 lattice listing is byte-identical to the frozen file
        # and re-derivable from the enumeration
        golden_nc = (GOLDEN / "nc_list_n4.json").read_bytes()
        code, out, _ = run_cli("nc", "list", "--n", "4")
        assert code == 0
        assert out == golden_nc
        code, again, _ = run_cli("nc", "list", "--n", "4")
        assert code == 0 and again == out

        obj = json.loads(golden_nc)
        parts = enumerate_nc(4)
        assert obj["count"] == len(parts) == 14
        for at, (row, pi) in enumerate(zip(obj["rows"], parts), start=1):
            assert row == {
                "word": [list(b) for b in pi.blocks],
                "entry": at,
                "value": len(pi.blocks),
            }

        # the order-4 Möbius table is byte-identical to the frozen file,
        # and every row is re-derived from the recursive Möbius function
        # of the oracle lattice, in the same order
        golden_mu = (GOLDEN / "nc_mobius_n4.json").read_bytes()
        code, out, _ = run_cli("nc", "mobius", "--n", "4")
        assert code == 0
        assert out == golden_mu
        code, again, _ = run_cli("nc", "mobius", "--n", "4")
        assert code == 0 and again == out

        obj = json.loads(golden_mu)
        lat = lattice(4)
        expected_rows = [
            {
                "word": [lat.elements[lo].to_json_obj(), hi.to_json_obj()],
                "entry": 0,
                "value": str(lat.mu(lo, hi_at)),
            }
            for hi_at, hi in enumerate(lat.elements)
            for lo in sorted(lat.below[hi_at])
        ]
        assert (obj["query"], obj["n"]) == ("nc-mobius", 4)
        assert obj["rows"] == expected_rows
        assert len(expected_rows) == 55

        # the worked third-cumulant table is byte-identical to the frozen
        # file, and every row is recomputed here through the Möbius route
        # on an independently built model
        golden_k3 = (GOLDEN / "k3_cumulants.json").read_bytes()
        code, out, _ = run_cli(
            "cumulants",
            "--vars",
            "A1,A2,A3",
            "--degree",
            "3",
            "--config",
            str(GOLDEN / "k3_config.json"),
        )
        assert code == 0
        assert out == golden_k3

        joint = {
            ("a11", "a12", "a13"): F(1, 2),
            ("a11", "a12", "a23"): F(1, 3),
            ("a11", "a22", "a13"): F(1, 5),
            ("a21", "a12", "a13"): F(1, 7),
        }
        dists: dict[str, dict[str, object]] = {
            "a11": {"kind": "custom", "cumulants": joint}
        }
        for other in ("a21", "a12", "a22", "a13", "a23"):
            dists[other] = {"kind": "custom", "cumulants": {}}
        fn3 = build_space({"joint": dists}, degree_cap=6)
        a_vars = [
            TVariable.of([gen(f"a1{k}"), gen(f"a2{k}")]) for k in (1, 2, 3)
        ]

        table = json.loads(golden_k3)
        assert (table["s"], table["N"], table["degree"]) == (3, 2, 3)
        assert len(table["rows"]) == 27
        for row in table["rows"]:
            idx = tuple(row["word"])
            recomputed = t_cumulant_mobius(fn3, a_vars, idx)
            assert row["value"] == recomputed.to_json_obj()
        nonzero = [r for r in table["rows"] if r["value"] != ["0", "0"]]
        assert nonzero == [{"word": [1, 2, 3], "value": ["1/2", "71/105"]}]

        # each documented error class exits through its own code
        code, _, err = run_cli("moments", "--vars", "X")
        assert code == 1 and err.startswith("error: ")
        code, _, err = run_cli(
            "moments", "--vars", "X", "--config", "/nonexistent/conf.json"
        )
        assert code == 2 and err.startswith("error: config:")
        code, _, err = run_cli("nc", "mobius", "--n", "9")
        assert code == 3 and err.startswith("error: degree-cap-exceeded:")
        assert "9" in err and "7" in err  # the requested n and the cap
