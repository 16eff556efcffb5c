"""Exact polynomial substrate: parsing, ring laws, composition, evaluation."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planeheights.errors import DegreeUndefinedError, PolyParseError
from planeheights.ratpoly import BivarPoly, format_int, format_rat, parse_poly, parse_rat

X = BivarPoly.var("x")
Y = BivarPoly.var("y")


def test_parse_basic():
    p = parse_poly("x^2 - y")
    assert p.terms == {(2, 0): Fraction(1), (0, 1): Fraction(-1)}


def test_parse_zero():
    assert parse_poly("0").is_zero()


def test_parse_rational_coefficients():
    p = parse_poly("3/2*x*y + x")
    assert p.terms == {(1, 1): Fraction(3, 2), (1, 0): Fraction(1)}


def test_parse_whitespace_and_styles():
    assert parse_poly(" x ^2-y ") == parse_poly("x^2 - y")
    assert parse_poly("2x") == parse_poly("2*x")
    assert parse_poly("-x + 1") == BivarPoly.const(1) - X


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError):
        parse_poly("x + @")
    with pytest.raises(PolyParseError):
        parse_poly("x^")
    with pytest.raises(PolyParseError):
        parse_poly("")
    with pytest.raises(PolyParseError):
        parse_poly("1/0")


def test_parse_exponent_overflow():
    with pytest.raises(PolyParseError):
        parse_poly("x^99999999")


def test_print_parse_roundtrip_idempotent():
    rng = random.Random(7)
    for _ in range(60):
        p = _random_poly(rng)
        printed = str(p)
        again = parse_poly(printed)
        assert again == p
        assert str(again) == printed


def test_print_order_graded_lex():
    p = parse_poly("1 + y + x + y^2 + x*y + x^2")
    assert str(p) == "x^2 + x*y + y^2 + x + y + 1"


def test_total_degree():
    assert parse_poly("x^2 - y").total_degree() == 2
    assert parse_poly("5").total_degree() == 0
    assert parse_poly("x^3*y + y^2").total_degree() == 4
    with pytest.raises(DegreeUndefinedError):
        BivarPoly.zero().total_degree()


def test_leading_form():
    assert parse_poly("x^2 - y").leading_form(2) == parse_poly("x^2")
    assert parse_poly("x").leading_form(2).is_zero()
    assert parse_poly("x^2 + x*y + x").leading_form(2) == parse_poly("x^2 + x*y")
    with pytest.raises(ValueError):
        parse_poly("x^3").leading_form(2)


def test_evaluate():
    p = parse_poly("x^2 - y")
    assert p.evaluate(3, 0) == 9
    assert p.evaluate(0, 0) == 0
    assert parse_poly("3/2*x*y").evaluate(2, Fraction(1, 3)) == 1


def test_compose_swap():
    p = parse_poly("x^2 - y")
    assert p.compose(Y, X) == parse_poly("y^2 - x")


def test_compose_projection():
    p, q = parse_poly("x^3 + y"), parse_poly("y^2 - 2")
    assert X.compose(p, q) == p


def test_compose_hand_expansion():
    assert parse_poly("x^2").compose(X + 1, BivarPoly.zero()) == parse_poly("x^2 + 2*x + 1")


def _random_poly(rng, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        i, j = rng.randint(0, max_deg), rng.randint(0, max_deg)
        terms[(i, j)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return BivarPoly(terms)


def test_ring_laws():
    rng = random.Random(1)
    for _ in range(40):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a - a == BivarPoly.zero()


def test_compose_associativity():
    rng = random.Random(2)
    for _ in range(15):
        p, u, v, s, t = (_random_poly(rng, max_deg=2) for _ in range(5))
        left = p.compose(u, v).compose(s, t)
        right = p.compose(u.compose(s, t), v.compose(s, t))
        assert left == right


def test_compose_degree_bound():
    rng = random.Random(3)
    for _ in range(25):
        p, u, v = (_random_poly(rng) for _ in range(3))
        comp = p.compose(u, v)
        if comp.is_zero() or p.is_zero() or u.is_zero() or v.is_zero():
            continue
        assert comp.total_degree() <= p.total_degree() * max(u.total_degree(), v.total_degree())


def test_evaluate_commutes_with_compose():
    rng = random.Random(4)
    for _ in range(25):
        p, u, v = (_random_poly(rng) for _ in range(3))
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert p.compose(u, v).evaluate(a, b) == p.evaluate(u.evaluate(a, b), v.evaluate(a, b))


_rats = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_points = st.tuples(_rats, _rats)
# mixed denominators, with the zero polynomial and constants drawn often
_polys = st.one_of(
    st.just(BivarPoly.zero()),
    _rats.map(BivarPoly.const),
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _rats, max_size=6).map(BivarPoly),
)


def _assert_canonical(poly):
    assert all(type(c) is Fraction and c != 0 for c in poly.terms.values())
    assert BivarPoly(poly.terms).terms == poly.terms


@settings(max_examples=150, deadline=None)
@given(a=_polys, b=_polys, pt=_points)
@example(a=parse_poly("x + 1/2"), b=parse_poly("x - 1/2"), pt=(Fraction(1, 3), Fraction(2)))  # x cancels
def test_product_evaluates_to_product_of_evaluations(a, b, pt):
    product = a * b
    _assert_canonical(product)
    assert product.evaluate(*pt) == a.evaluate(*pt) * b.evaluate(*pt)


@settings(max_examples=150, deadline=None)
@given(a=_polys, q=_polys, r=_polys, pt=_points)
@example(a=parse_poly("x - y"), q=parse_poly("1/2*x^2 + 1/3*y"), r=parse_poly("1/2*x^2 + 1/3*y"),
         pt=(Fraction(1, 3), Fraction(2)))  # everything cancels
def test_composite_evaluates_at_the_substituted_point(a, q, r, pt):
    composite = a.compose(q, r)
    _assert_canonical(composite)
    assert composite.evaluate(*pt) == a.evaluate(q.evaluate(*pt), r.evaluate(*pt))


def test_rat_helpers():
    assert parse_rat("3/2") == Fraction(3, 2)
    assert parse_rat("-7") == Fraction(-7)
    assert format_rat(Fraction(3, 2)) == "3/2"
    assert format_rat(Fraction(-7)) == "-7"
    with pytest.raises(PolyParseError):
        parse_rat("3//2")


def test_format_int_is_exact_past_the_str_limit():
    rng = random.Random(7)
    values = [0, 1, -1, 2**1024, -(2**1025) + 1, 3**20000, -(7**9001)]
    values += [rng.getrandbits(rng.randint(1, 40_000)) * rng.choice((1, -1)) for _ in range(30)]
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(old_limit)
    assert [format_int(v) for v in values] == expected
    big = Fraction(3**20000, 2**20000)
    assert format_rat(big) == f"{expected[5]}/{format_int(2**20000)}"
