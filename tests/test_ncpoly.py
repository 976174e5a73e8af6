"""Polynomial-layer tests: ring laws, canonical form, parsing, serialization.

Ring laws run under hypothesis over randomly generated polynomials; the
parser is exercised both on golden expressions and through the
print-then-reparse roundtrip, which ties the formatter and the grammar
together.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toepfree.ncpoly import (
    Generator,
    LexicalError,
    NcPolynomial,
    ParseError,
    UnknownSymbolError,
    ZeroDenominatorError,
    as_fraction,
    format_rational,
    parse_expr,
    parse_rational,
    poly_add,
    poly_mul,
    poly_scale,
    poly_sum_of_products,
)

from oracles import poly_from_json, poly_sum_of_products_fraction

F = Fraction
IDS = ("a", "b", "c_1")


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)

words = st.lists(st.sampled_from(IDS), min_size=0, max_size=3).map(tuple)

polynomials = st.dictionaries(words, rationals, max_size=4).map(NcPolynomial)


# --------------------------------------------------------------------------
# rationals and generators
# --------------------------------------------------------------------------


def test_parse_and_format_rational():
    assert parse_rational("3") == F(3)
    assert parse_rational("-7/2") == F(-7, 2)
    assert parse_rational(" 4/6 ") == F(2, 3)
    assert format_rational(F(5)) == "5"
    assert format_rational(F(-3, 4)) == "-3/4"
    assert as_fraction("2/4") == F(1, 2)
    assert as_fraction(7) == F(7)
    with pytest.raises(ZeroDenominatorError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("1/-2")
    with pytest.raises(ValueError):
        parse_rational("x")
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_generator_validation():
    gen = Generator("a", "fam")
    assert (gen.id, gen.family) == ("a", "fam")
    with pytest.raises(ValueError):
        Generator("", "fam")
    with pytest.raises(ValueError):
        Generator("a", "")


# --------------------------------------------------------------------------
# canonical form
# --------------------------------------------------------------------------


def test_terms_are_sorted_by_degree_then_word():
    p = NcPolynomial(
        {
            ("b", "a"): F(1),
            ("a",): F(2),
            (): F(3),
            ("a", "b"): F(4),
        }
    )
    assert [w for w, _ in p.terms] == [(), ("a",), ("a", "b"), ("b", "a")]


def test_zero_coefficients_are_dropped():
    p = NcPolynomial({("a",): F(0), ("b",): F(1)})
    assert p.terms == ((("b",), F(1)),)
    assert NcPolynomial({("a",): F(0)}).is_zero()
    assert NcPolynomial.zero().is_zero()
    assert not NcPolynomial.one().is_zero()


def test_accessors():
    p = poly_add(
        NcPolynomial.constant(F(1, 2)),
        NcPolynomial({("a", "b"): 3}),
    )
    assert p.coeff(()) == F(1, 2)
    assert p.coeff(("a", "b")) == F(3)
    assert p.coeff(("b",)) == 0
    assert p.degree() == 2


def test_immutability_and_hash_equality():
    p = NcPolynomial.generator("a")
    with pytest.raises(AttributeError):
        p._terms = ()
    q = NcPolynomial({("a",): F(2, 2)})
    assert p == q and hash(p) == hash(q)
    assert p != NcPolynomial.generator("b")


def assert_canonical(p: NcPolynomial) -> None:
    """The stored form: D > 0, no zero numerator, nothing common to D and
    every numerator."""
    den, nums = p.denominator, p.numerators
    assert den > 0
    assert all(nums.values())
    assert gcd(den, *nums.values()) == 1
    assert all(isinstance(n, int) for n in (den, *nums.values()))


def test_stored_form_golden():
    p = NcPolynomial({("a",): F(2, 3), ("b",): F(-4, 9), (): F(0)})
    assert p.denominator == 9
    assert dict(p.numerators) == {("a",): 6, ("b",): -4}
    assert NcPolynomial.zero().denominator == 1
    assert not NcPolynomial.zero().numerators
    assert poly_scale(F(3, 2), p).denominator == 3


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(polynomials, polynomials), max_size=4), rationals)
def test_property_integer_kernel_matches_fraction_oracle(pairs, c):
    """Every route that builds a polynomial leaves it in canonical form,
    equal term for term to the Fraction oracle; equal polynomials hash
    equal whichever route built them."""
    one, oracle = NcPolynomial.one(), poly_sum_of_products_fraction
    total = poly_sum_of_products(pairs)
    routes = [(total, oracle(pairs))]
    for p, q in pairs:
        routes += [
            (poly_mul(p, q), oracle([(p, q)])),
            (poly_add(p, q), oracle([(p, one), (q, one)])),
            (poly_scale(c, p), oracle([(NcPolynomial.constant(c), p)])),
        ]
    for got, want in routes:
        for p in (
            got,
            parse_expr(str(got), IDS),
            poly_from_json(got.to_json_obj()),
        ):
            assert_canonical(p)
            assert p.terms == want
            built = NcPolynomial(dict(want))
            assert p == built and hash(p) == hash(built)
    folded = NcPolynomial.zero()
    for p, q in pairs:
        folded = poly_add(folded, poly_mul(p, q))
    assert folded == total and hash(folded) == hash(total)


# --------------------------------------------------------------------------
# ring laws
# --------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(polynomials, polynomials, polynomials)
def test_property_ring_laws(p, q, r):
    assert poly_add(p, q) == poly_add(q, p)
    assert poly_add(poly_add(p, q), r) == poly_add(p, poly_add(q, r))
    assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))
    assert poly_mul(p, poly_add(q, r)) == poly_add(
        poly_mul(p, q), poly_mul(p, r)
    )
    assert poly_mul(poly_add(q, r), p) == poly_add(
        poly_mul(q, p), poly_mul(r, p)
    )
    assert poly_mul(p, NcPolynomial.one()) == p
    assert poly_mul(NcPolynomial.one(), p) == p
    assert poly_mul(p, NcPolynomial.zero()).is_zero()
    assert poly_add(p, poly_scale(-1, p)).is_zero()


@settings(max_examples=80, deadline=None)
@given(polynomials, rationals, rationals)
def test_property_scaling(p, c, d):
    assert poly_scale(c, poly_scale(d, p)) == poly_scale(c * d, p)
    assert poly_scale(1, p) == p
    assert poly_scale(0, p).is_zero()


def test_multiplication_is_noncommutative():
    a = NcPolynomial.generator("a")
    b = NcPolynomial.generator("b")
    assert poly_mul(a, b) != poly_mul(b, a)
    assert poly_mul(a, b).coeff(("a", "b")) == 1


def test_operator_sugar():
    a = NcPolynomial.generator("a")
    b = NcPolynomial.generator("b")
    assert a + b == poly_add(a, b)
    assert a - a == NcPolynomial.zero()
    assert -a == poly_scale(-1, a)
    assert a * b == poly_mul(a, b)
    assert F(2, 3) * a == poly_scale(F(2, 3), a)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def test_parser_golden_expansion():
    got = parse_expr("3/2*(a + b)*a", IDS)
    assert got == NcPolynomial(
        {("a", "a"): F(3, 2), ("b", "a"): F(3, 2)}
    )


def test_parser_precedence_and_unary_minus():
    assert parse_expr("-a + 2*b", IDS) == NcPolynomial(
        {("a",): F(-1), ("b",): F(2)}
    )
    assert parse_expr("a - b*c_1", IDS) == NcPolynomial(
        {("a",): F(1), ("b", "c_1"): F(-1)}
    )
    assert parse_expr("(a - b)*(a + b)", IDS) == NcPolynomial(
        {
            ("a", "a"): F(1),
            ("a", "b"): F(1),
            ("b", "a"): F(-1),
            ("b", "b"): F(-1),
        }
    )
    assert parse_expr("1/2", IDS) == NcPolynomial.constant(F(1, 2))
    assert parse_expr("2*3", IDS) == NcPolynomial.constant(6)


def test_parser_accepts_generator_objects_as_symbols():
    gens = [Generator("a", "f"), Generator("b", "f")]
    assert parse_expr("a*b", gens) == NcPolynomial({("a", "b"): 1})


def test_parser_word_order_preserved():
    assert parse_expr("a*b", IDS).coeff(("a", "b")) == 1
    assert parse_expr("b*a", IDS).coeff(("a", "b")) == 0


def test_parser_errors_carry_positions():
    with pytest.raises(UnknownSymbolError) as info:
        parse_expr("a*t", IDS)
    assert "t" in str(info.value)
    assert info.value.position == 2

    with pytest.raises(LexicalError) as info:
        parse_expr("a $ b", IDS)
    assert info.value.position == 2

    with pytest.raises(ParseError) as info:
        parse_expr("a +", IDS)
    assert info.value.position == 3

    with pytest.raises(ParseError):
        parse_expr("(a", IDS)
    with pytest.raises(ParseError):
        parse_expr("a b", IDS)
    with pytest.raises(ParseError):
        parse_expr("", IDS)
    with pytest.raises(ParseError):
        parse_expr("   ", IDS)
    with pytest.raises(ZeroDenominatorError):
        parse_expr("1/0 + a", IDS)


@settings(max_examples=80, deadline=None)
@given(polynomials)
def test_property_print_parse_roundtrip(p):
    assert parse_expr(str(p), IDS) == p


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def test_json_roundtrip_golden():
    p = NcPolynomial({("a", "b"): F(-5, 3), (): F(2)})
    obj = p.to_json_obj()
    assert obj == [
        {"word": [], "coeff": "2"},
        {"word": ["a", "b"], "coeff": "-5/3"},
    ]
    assert poly_from_json(obj) == p


@settings(max_examples=80, deadline=None)
@given(polynomials)
def test_property_json_roundtrip(p):
    assert poly_from_json(p.to_json_obj()) == p
