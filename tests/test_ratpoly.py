"""Exact polynomial substrate: parsing, ring laws, composition, evaluation."""

import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planeheights import ratpoly
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


def _assert_lowest_terms(poly):
    """The integer form's invariants: den >= 1, nonzero int numerators,
    gcd(den, *nums) = 1, and den = 1 for the zero polynomial."""
    assert type(poly.den) is int and poly.den >= 1
    assert all(type(n) is int and n != 0 for n in poly.nums.values())
    assert math.gcd(poly.den, *poly.nums.values()) == 1
    assert poly.nums or poly.den == 1


def _assert_canonical(poly):
    _assert_lowest_terms(poly)
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


@pytest.mark.parametrize("key", [(1.5, 0), (-1, 0), (0, -2), (2,), (1, 0, 0), "xy", 1])
def test_constructor_refuses_a_key_that_is_not_a_pair_of_exponents(key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        BivarPoly({key: 1})


def test_the_zero_polynomial_has_one_integer_form():
    for zero in (BivarPoly(), BivarPoly({(1, 0): 0}), BivarPoly.const(Fraction(0, 7)),
                 parse_poly("1/3*x") - parse_poly("1/3*x"), parse_poly("2/5*x*y").leading_form(3)):
        assert (zero.den, zero.nums) == (1, {})
        assert zero == BivarPoly.zero() and hash(zero) == hash(BivarPoly.zero())


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


# -- the product kernel against a schoolbook reference -------------------------
#
# `*`, `**` and `compose` all run through `ratpoly._product`, which packs
# dense operands into one int (Kronecker substitution) and keeps a schoolbook
# loop for tiny, sparse or wide ones.  The references below work on Fraction
# term maps, term by term, with no packing.

def _nonzero(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if c}


def _ref_product(a: dict, b: dict) -> dict:
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return _nonzero(out)


def _ref_power(a: dict, n: int) -> dict:
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = _ref_product(out, a)
    return out


def _ref_compose(p: dict, u: dict, v: dict) -> dict:
    out = {}
    top = max((max(key) for key in p), default=0)
    u_pows, v_pows = ([_ref_power(w, n) for n in range(top + 1)] for w in (u, v))
    for (i, j), c in p.items():
        for key, t in _ref_product(u_pows[i], v_pows[j]).items():
            out[key] = out.get(key, 0) + c * t
    return _nonzero(out)


_wide = st.integers(-(2**300), 2**300)
_coeffs = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),  # mixed denominators
    st.builds(Fraction, _wide, st.sampled_from((1, 3, 2**61 - 1))),
)
_keys = st.tuples(st.integers(0, 6), st.integers(0, 6))


@st.composite
def _dense(draw):
    """A full triangle of total degree 5-8, mostly with narrow coefficients:
    dense enough for the packed path."""
    d = draw(st.integers(5, 8))
    cells = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    coeff = draw(st.sampled_from((st.integers(-9, 9), st.integers(-9, 9), _coeffs)))
    return BivarPoly(dict(zip(cells, draw(st.lists(coeff, min_size=len(cells), max_size=len(cells))))))


_kernel_polys = st.one_of(
    st.just(BivarPoly.zero()),
    _coeffs.map(BivarPoly.const),
    st.dictionaries(_keys, _coeffs, max_size=8).map(BivarPoly),
    st.dictionaries(st.tuples(st.just(0), st.integers(0, 6)), _coeffs, max_size=4).map(BivarPoly),  # y only
)
_operands = st.one_of(_dense(), _dense(), _kernel_polys)


def _triangle(d: int, seed: int, den: int = 1) -> BivarPoly:
    """A fixed dense triangle with narrow coefficients: the packed path."""
    rng = random.Random(seed)
    return BivarPoly({(i, j): Fraction(rng.randint(-9, 9), den) for i in range(d + 1) for j in range(d + 1 - i)})


@settings(max_examples=200, deadline=None)
@given(a=_operands, b=_operands)
@example(a=_triangle(6, 1), b=_triangle(7, 2, den=2))
def test_product_matches_the_schoolbook_reference(a, b):
    assert (a * b).terms == _ref_product(a.terms, b.terms)


@settings(max_examples=60, deadline=None)
@given(a=_operands, n=st.integers(0, 4))
@example(a=_triangle(5, 3, den=3), n=3)
def test_power_matches_the_schoolbook_reference(a, n):
    if len(a.terms) > 8:
        n = min(n, 3)  # reference cost
    assert (a**n).terms == _ref_power(a.terms, n)


@settings(max_examples=60, deadline=None)
@given(p=_operands, u=_operands, v=_operands)
@example(p=_triangle(3, 4, den=5), u=_triangle(5, 5), v=_triangle(5, 6, den=2))
@example(p=parse_poly("3*y^2 - y + 1/2"), u=BivarPoly.const(2**300), v=parse_poly("x - 2*y"))  # self has only y-terms
@example(p=parse_poly("x^3*y + 5*x - 1/3"), u=BivarPoly.zero(), v=parse_poly("1/2*x + y"))
@example(p=parse_poly("x^3*y + 5*x - 1/3"), u=parse_poly("1/2*x + y"), v=BivarPoly.zero())
def test_compose_matches_the_schoolbook_reference(p, u, v):
    if max(len(u.terms), len(v.terms)) > 8:  # reference cost
        p = BivarPoly({key: c for key, c in p.terms.items() if key[0] + key[1] <= 3})
    assert p.compose(u, v).terms == _ref_compose(p.terms, u.terms, v.terms)


_int_maps = st.dictionaries(_keys, _wide, min_size=1, max_size=10)


@settings(max_examples=150, deadline=None)
@given(a=_int_maps, b=_int_maps)
def test_packed_product_matches_the_schoolbook_reference(a, b):
    # the packed path alone, whatever the cost rule would pick
    assert _nonzero(ratpoly._kronecker(a, b, *ratpoly._layout(a, b))) == _ref_product(a, b)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("bits", (3, 4, 5, 6, 299, 300, 301, 302))
def test_packed_product_at_the_signed_digit_limit(bits, sign):
    # |a|_1 |b|_1 = 2^bits - 1 is the widest coefficient a digit of that
    # layout holds: when bits = k - 1, it is exactly 2^(k-1) - 1
    top = 2**bits - 1
    for a, b in (
        ({(0, 0): top}, {(0, 0): sign}),
        ({(2, 1): sign * top, (1, 3): 0}, {(0, 0): 0, (3, 0): 1}),  # zero entries widen the layout
    ):
        layout = ratpoly._layout(a, b)
        k = 4 * layout[2]
        assert top < 2 ** (k - 1)
        if bits % 4 == 3:
            assert top == 2 ** (k - 1) - 1
        assert _nonzero(ratpoly._kronecker(a, b, *layout)) == _ref_product(a, b)


def test_packed_product_of_wide_dense_operands():
    # degree-27 triangles with 300-bit coefficients: dense enough that
    # the cost rule packs them
    rng = random.Random(5)
    a, b = ({(i, j): rng.randint(-(2**300), 2**300) for i in range(28) for j in range(28 - i)}
            for _ in range(2))
    assert _nonzero(ratpoly._product(a, b)) == _ref_product(a, b)


def test_sparse_product_and_banded_compose_stay_exact():
    # two layouts with far more slots than terms; the schoolbook loop keeps
    # them fast
    product = parse_poly("x^400 + 1") * parse_poly("y^400 - 1")
    assert product == parse_poly("x^400*y^400 - x^400 + y^400 - 1")
    banded = parse_poly("x^300").compose(parse_poly("x^2 - y"), X)
    assert banded.terms == {(2 * (300 - m), m): Fraction((-1) ** m * math.comb(300, m)) for m in range(301)}


# -- the integer form against a Fraction-dict reference -----------------------
#
# A polynomial is held as integer numerators over one denominator in lowest
# terms.  The references below work on the Fraction coefficient maps the
# polynomials were built from.

def _ref_sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return _nonzero(out)


def _ref_neg(a: dict) -> dict:
    return {key: -c for key, c in a.items()}


_fraction_maps = st.dictionaries(_keys, _coeffs.map(Fraction), max_size=8)


@settings(max_examples=200, deadline=None)
@given(a=_fraction_maps, b=_fraction_maps, d=st.integers(0, 12), probe=_keys)
@example(a={(2, 0): Fraction(1, 2), (0, 0): Fraction(1, 6)}, b={}, d=2, probe=(2, 0))  # lead shares 3 with den 6
@example(a={(1, 0): Fraction(1, 2)}, b={(1, 0): Fraction(1, 2)}, d=1, probe=(1, 0))  # 1/2 + 1/2 = 1
def test_sum_negation_leading_form_and_coefficient_match_the_fraction_reference(a, b, d, probe):
    p, q = BivarPoly(a), BivarPoly(b)
    a, b = _nonzero(a), _nonzero(b)
    results = [(p, a), (p + q, _ref_sum(a, b)), (p - q, _ref_sum(a, _ref_neg(b))), (-p, _ref_neg(a))]
    if not a or d >= max(i + j for i, j in a):
        results.append((p.leading_form(d), {key: c for key, c in a.items() if sum(key) == d}))
    for poly, reference in results:
        _assert_lowest_terms(poly)
        assert poly.terms == reference
    for key in (probe, *a):
        assert p.coefficient(*key) == a.get(key, 0)


@settings(max_examples=150, deadline=None)
@given(a=_kernel_polys, b=_kernel_polys, k=st.integers(1, 2**70))
def test_equal_polynomials_from_different_routes_are_equal_and_hash_equal(a, b, k):
    routes = [
        a * BivarPoly.const(Fraction(1, k)) * k,
        a * k * Fraction(1, k),
        a + b - b,
        -(-a),
        a.compose(X, Y),
        BivarPoly(a.terms),
    ]
    if a:
        lead = a.leading_form(a.total_degree())
        routes.append(lead + (a - lead))
    for poly in routes:
        _assert_lowest_terms(poly)
        assert poly == a and hash(poly) == hash(a)
    half_x = X * Fraction(1, 2)
    assert (half_x.den, half_x.nums) == (2, {(1, 0): 1})
    assert half_x * 2 == X and hash(half_x * 2) == hash(X)
