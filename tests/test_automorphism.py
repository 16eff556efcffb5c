"""Automorphism constructors, composition algebra, dynamical degrees, regularity."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planeheights.automorphism import (
    InfinityPoint,
    PlaneAutomorphism,
    compose_maps,
    conjugate,
    degree_sequence,
    dynamical_degree,
    from_description,
    henon,
    identity,
    indeterminacy_at_infinity,
    inverse,
    is_regular,
    pair,
    triangular,
)
from planeheights.errors import MapValidationError, ResourceCapError
from planeheights.ratpoly import BivarPoly, format_int, parse_poly

X = BivarPoly.var("x")
Y = BivarPoly.var("y")

HENON2 = henon(1, parse_poly("x^2"))
HENON3 = henon(Fraction(-1), parse_poly("x^3 - 2*x + 1"))
TRI = triangular(1, 1, 0, parse_poly("y^2"))


def test_henon_formula():
    assert HENON2.fwd == (parse_poly("x^2 - y"), X)
    assert HENON2.inv == (Y, parse_poly("y^2 - x"))
    assert HENON2.compose_check()


def test_henon_degree3():
    assert HENON3.degree() == 3
    assert HENON3.compose_check()


def test_henon_preconditions():
    with pytest.raises(MapValidationError):
        henon(0, parse_poly("x^2"))
    with pytest.raises(MapValidationError):
        henon(1, parse_poly("x"))
    with pytest.raises(MapValidationError):
        henon(1, parse_poly("x*y^2"))


def test_triangular_formula():
    assert TRI.fwd == (parse_poly("x + y^2"), Y)
    assert TRI.inv == (parse_poly("x - y^2"), Y)
    affine = triangular(2, 1, 3, BivarPoly.zero())
    assert affine.degree() == 1
    with pytest.raises(MapValidationError):
        triangular(0, 1, 0, parse_poly("y"))


def test_pair_requires_true_inverse():
    f = pair(*HENON2.fwd, *HENON2.inv)
    assert f.compose_check()
    with pytest.raises(MapValidationError):
        pair(parse_poly("x^2 - y"), X, X, Y)


def test_compose_degrees_multiply_for_henon():
    comp = compose_maps(HENON2, HENON3)
    assert comp.degree() == 6
    assert comp.compose_check()


def test_compose_with_inverse_is_identity():
    comp = compose_maps(HENON2, inverse(HENON2))
    assert comp.degree() == 1
    assert comp.fwd == (X, Y)
    assert comp.compose_check()


def test_compose_triangular_degree_contraction():
    t2 = triangular(1, 1, 0, parse_poly("-y^2 + y"))
    comp = compose_maps(TRI, t2)
    assert comp.degree() <= TRI.degree() * t2.degree()
    assert comp.compose_check()


def test_compose_applies_right_map_first():
    pt = (Fraction(2), Fraction(3))
    comp = compose_maps(HENON2, TRI)
    assert comp.apply(pt) == HENON2.apply(TRI.apply(pt))


def test_conjugate_by_identity():
    g = conjugate(HENON2, identity())
    assert g.fwd == HENON2.fwd


def test_conjugate_by_translation_keeps_degree():
    gamma = triangular(1, 1, 0, BivarPoly.const(1))  # x -> x + 1
    g = conjugate(HENON2, gamma)
    assert g.degree() == 2
    # direct composition oracle, pointwise
    rng = random.Random(5)
    for _ in range(10):
        pt = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
        expected = gamma.apply_inverse(HENON2.apply(gamma.apply(pt)))
        assert g.apply(pt) == expected
    assert g.compose_check()


def test_degree_sequence_henon():
    assert degree_sequence(HENON2, 4) == [2, 4, 8, 16]


def test_degree_sequence_refuses_past_the_degree_bound():
    # deg f * delta^(N - 1): 2 * 2^7 = 256 is composed, 2 * 2^8 = 512 is
    # refused before any composition; a triangular map never grows
    assert degree_sequence(HENON2, 8)[-1] == 256
    with pytest.raises(ResourceCapError, match=r"^degree sequence to N = 9: deg f \* delta\^8 = 512 "
                                               r"is above 256$"):
        degree_sequence(HENON2, 9)
    assert degree_sequence(TRI, 9) == [2] * 9


def test_degree_sequence_to_two_is_capped_where_delta_needs_no_composition():
    # a regular map has delta = deg f with no composition: 17 * 17 = 289 is
    # refused before f o f is composed; a map that is not regular needs
    # deg f^2 for its delta, so N = 2 composes whatever its degree
    with pytest.raises(ResourceCapError, match=r"^degree sequence to N = 2: deg f \* delta\^1 = 289 "):
        degree_sequence(henon(1, parse_poly("x^17")), 2)
    assert degree_sequence(henon(1, parse_poly("x^16")), 2) == [16, 256]
    assert degree_sequence(triangular(1, 1, 0, parse_poly("y^17")), 2) == [17, 17]


def test_degree_sequence_triangular():
    assert degree_sequence(TRI, 4) == [2, 2, 2, 2]


def test_degree_sequence_identity():
    assert degree_sequence(identity(), 3) == [1, 1, 1]


def test_degree_sequence_submultiplicative():
    for f in (HENON2, TRI, compose_maps(TRI, HENON2)):
        degs = degree_sequence(f, 4)
        for m in range(1, 4):
            for n in range(1, 5 - m):
                assert degs[m + n - 1] <= degs[m - 1] * degs[n - 1]


def test_dynamical_degree_henon():
    for f, d in ((HENON2, 2), (HENON3, 3), (henon(2, parse_poly("x^4 + x")), 4)):
        assert dynamical_degree(f) == d


def test_dynamical_degree_composite():
    assert dynamical_degree(compose_maps(HENON2, HENON3)) == 6


def test_dynamical_degree_triangular():
    assert dynamical_degree(TRI) == 1
    assert dynamical_degree(triangular(2, 1, 3, BivarPoly.zero())) == 1
    assert dynamical_degree(triangular(1, -2, 0, parse_poly("y^5"))) == 1


def test_dynamical_degree_cross_checks_degree_sequence_ratios():
    """On regular maps deg f^(n+1)/deg f^n equals delta for n <= 3; on
    triangular maps the ratios collapse to 1."""
    for f in (HENON2, HENON3):
        delta = dynamical_degree(f)
        degs = degree_sequence(f, 4)
        for n in range(3):
            assert degs[n + 1] == delta * degs[n]
    degs = degree_sequence(TRI, 4)
    assert all(degs[n + 1] == degs[n] for n in range(3))
    assert dynamical_degree(TRI) == 1


def test_dynamical_degree_of_inverse_matches():
    for f in (HENON2, HENON3, compose_maps(HENON2, HENON3), TRI):
        assert dynamical_degree(f) == dynamical_degree(inverse(f))


def test_dynamical_degree_conjugation_invariant():
    rng = random.Random(17)
    gammas = _random_small_automorphisms(rng, 6)
    for f in (HENON2, HENON3):
        for gamma in gammas:
            assert dynamical_degree(conjugate(f, gamma)) == dynamical_degree(f)


def _random_small_automorphisms(rng, count):
    out = []
    while len(out) < count:
        kind = rng.choice(["affine", "tri2", "tri3", "henon"])
        if kind == "affine":
            out.append(triangular(rng.choice([1, -1, 2]), rng.choice([1, -1]),
                                  rng.randint(-2, 2), BivarPoly.const(rng.randint(-2, 2))))
        elif kind == "tri2":
            out.append(triangular(1, rng.choice([1, -1]), rng.randint(-1, 1),
                                  parse_poly(f"{rng.randint(1, 2)}*y^2")))
        elif kind == "tri3":
            out.append(triangular(rng.choice([1, -1]), 1, 0, parse_poly("y^3 - y")))
        else:
            out.append(henon(rng.choice([1, -1]), parse_poly("x^2 + 1")))
    return out


def test_compose_henon_degree_sequence_is_geometric():
    assert degree_sequence(compose_maps(HENON2, HENON3), 2) == [6, 36]
    quartic = compose_maps(HENON2, henon(-1, parse_poly("x^2 + x")))
    assert degree_sequence(quartic, 3) == [4, 16, 64]


def test_indeterminacy_henon():
    assert indeterminacy_at_infinity(HENON2) == InfinityPoint(xy=(0, 1))
    assert indeterminacy_at_infinity(inverse(HENON2)) == InfinityPoint(xy=(1, 0))


def test_indeterminacy_triangular():
    assert indeterminacy_at_infinity(TRI) == InfinityPoint(xy=(1, 0))


def test_indeterminacy_requires_degree_two():
    with pytest.raises(MapValidationError):
        indeterminacy_at_infinity(identity())


def test_is_regular():
    assert is_regular(HENON2)
    assert is_regular(compose_maps(HENON2, HENON3))
    assert not is_regular(TRI)
    assert not is_regular(triangular(2, 3, 1, parse_poly("y + 1")))  # affine: degree 1


def test_regularity_matches_dynamical_degree_dichotomy():
    """delta = d iff regular, on maps of degree >= 2."""
    for f in (HENON2, HENON3, compose_maps(HENON2, HENON3), TRI,
              compose_maps(TRI, triangular(1, 1, 1, parse_poly("y^3")))):
        if f.degree() >= 2 and f.inverse_degree() >= 2:
            assert is_regular(f) == (dynamical_degree(f) == f.degree())


def test_nonrational_indeterminacy_locus():
    """Leading forms sharing an irreducible quadratic factor, or with two
    different zeros, belong to no automorphism and are refused."""
    p = parse_poly("x^2 + y^2")
    q = parse_poly("2*x^2 + 2*y^2 + x")
    f = PlaneAutomorphism((p, q), (X, Y))
    with pytest.raises(MapValidationError, match="not an automorphism"):
        indeterminacy_at_infinity(f)
    g = PlaneAutomorphism((X * X, Y * Y), (X, Y))
    with pytest.raises(MapValidationError, match="not an automorphism"):
        indeterminacy_at_infinity(g)


def _affine_map(entries, shift):
    a, b, c, d = (Fraction(v) for v in entries)
    det = a * d - b * c
    u, v = X - BivarPoly.const(shift[0]), Y - BivarPoly.const(shift[1])
    return pair(
        BivarPoly.const(a) * X + BivarPoly.const(b) * Y + BivarPoly.const(shift[0]),
        BivarPoly.const(c) * X + BivarPoly.const(d) * Y + BivarPoly.const(shift[1]),
        BivarPoly.const(d / det) * u - BivarPoly.const(b / det) * v,
        BivarPoly.const(a / det) * v - BivarPoly.const(c / det) * u,
    )


_small = st.integers(-3, 3)
_coeff = st.sampled_from([1, -1, 2, -3, Fraction(1, 2)])
_poly = st.tuples(_coeff, st.integers(2, 3), _small)  # (lead, degree, linear coefficient)
_henon_factor = st.builds(
    lambda a, p: henon(a, BivarPoly.const(p[0]) * X ** p[1] + BivarPoly.const(p[2]) * X),
    _coeff, _poly)
_triangular_factor = st.builds(
    lambda a, b, c, p: triangular(a, b, c, BivarPoly.const(p[0]) * Y ** p[1] + BivarPoly.const(p[2]) * Y),
    _coeff, _coeff, _small, _poly)
_affine_factor = st.builds(
    _affine_map,
    st.tuples(_small, _small, _small, _small).filter(lambda m: m[0] * m[3] != m[1] * m[2]),
    st.tuples(_small, _small))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_henon_factor, _triangular_factor, _affine_factor), min_size=1, max_size=3))
def test_indeterminacy_point_of_random_words(factors):
    # dynamical_degree composes a non-regular f with itself: keep deg f <= 6
    assume(math.prod(g.degree() for g in factors) <= 6)
    f = factors[0]
    for g in factors[1:]:
        f = compose_maps(f, g)
    d = f.degree()
    assume(d >= 2)
    x, y = indeterminacy_at_infinity(f).xy
    for poly in f.fwd:
        assert poly.leading_form(d).evaluate(x, y) == 0
    assert is_regular(f) == (dynamical_degree(f) == d)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_henon_factor, _triangular_factor, _affine_factor), min_size=1, max_size=4))
def test_the_inverse_has_the_degree_of_the_map(factors):
    # the multidegree of f^-1 is that of f reversed (Jung, van der Kulk), so
    # deg f^-1 = deg f, which no reader of the degree guards again
    assume(math.prod(g.degree() for g in factors) <= 18)
    f = factors[0]
    for g in factors[1:]:
        f = compose_maps(f, g)
    assert f.inverse_degree() == f.degree()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(_henon_factor, _triangular_factor, _affine_factor), min_size=2, max_size=3))
def test_compose_check_holds_on_random_words(factors):
    assume(math.prod(g.degree() for g in factors) <= 12)
    f = factors[0]
    for g in factors[1:]:
        f = compose_maps(f, g)
    assert f.compose_check()


_unit = st.sampled_from([1, -1])
_integral_henon = st.builds(
    lambda a, lead, d, lin, c: henon(a, BivarPoly.const(lead) * X**d + BivarPoly.const(lin) * X + BivarPoly.const(c)),
    _unit, _unit, st.integers(2, 3), _small, _small)
_UNIMODULAR = [m for m in itertools.product(range(-2, 3), repeat=4) if abs(m[0] * m[3] - m[1] * m[2]) == 1]
_unimodular = st.builds(_affine_map, st.sampled_from(_UNIMODULAR), st.tuples(_small, _small))
_integral_triangular = st.builds(
    lambda a, b, c, lead, d, lin: triangular(a, b, c, BivarPoly.const(lead) * Y**d + BivarPoly.const(lin) * Y),
    _unit, _unit, _small, _unit, st.integers(2, 3), _small)


@st.composite
def _conjugated_words(draw):
    """A word of one to three integral factors (Henon, affine, triangular),
    at least one of them Henon, optionally conjugated by an affine or
    triangular map, of degree <= 6."""
    kinds = {"henon": _integral_henon, "affine": _unimodular, "triangular": _integral_triangular}
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=3))
    assume("henon" in names)
    factors = [draw(kinds[name]) for name in names]
    f = factors[0]
    for g in factors[1:]:
        f = compose_maps(f, g)
    gamma = draw(st.none() | _unimodular | _integral_triangular)
    f = f if gamma is None else conjugate(f, gamma)
    assume(2 <= f.degree() <= 6)
    return f


def _check_orientations(f, k_max):
    # degree_sequence composes f o f^k; f^k o f, the orientation it used
    # before, is the same polynomial map with the same degrees
    p, q = f.fwd
    outer = inner = (p, q)
    degrees = [f.degree()]
    for _ in range(k_max):
        outer = p.compose(*outer), q.compose(*outer)
        inner = inner[0].compose(p, q), inner[1].compose(p, q)
        assert outer == inner
        degrees.append(max(c.total_degree() for c in inner))
    assert degree_sequence(f, k_max + 1) == degrees


@settings(max_examples=25, deadline=None)
@given(_conjugated_words())
def test_iterates_commute_in_both_orientations(f):
    # f^3 of a dense degree-6 conjugate (degree 216) takes 3-20 s: k <= 2
    # up to degree 4, and k = 1 beyond
    _check_orientations(f, 2 if f.degree() <= 4 else 1)


def test_iterates_commute_in_both_orientations_at_degree_6():
    h2, h3 = henon(-1, parse_poly("-x^2 + 3*x - 2")), henon(1, parse_poly("x^3 - 3*x + 1"))
    _check_orientations(compose_maps(h2, h3), 2)
    f = conjugate(h3, triangular(1, -1, 2, parse_poly("-y^2 + 3*y")))
    assert f.degree() == 6 and not is_regular(f)
    _check_orientations(f, 2)


def test_dynamical_degree_of_a_regular_word_composes_nothing(monkeypatch):
    h3 = henon(1, parse_poly("x^3 + x"))
    f = compose_maps(h3, compose_maps(h3, h3))
    calls = []
    compose = BivarPoly.compose
    monkeypatch.setattr(BivarPoly, "compose", lambda self, *args: calls.append(1) or compose(self, *args))
    assert dynamical_degree(f) == 27
    assert calls == []


def test_from_description_roundtrip():
    doc = {
        "type": "compose",
        "maps": [
            {"type": "henon", "a": "1", "p": "x^2"},
            {"type": "henon", "a": "-1", "p": "x^3 - 2*x + 1"},
        ],
    }
    f = from_description(doc)
    assert f.degree() == 6
    assert f.fwd == compose_maps(HENON2, HENON3).fwd


def test_from_description_conjugate_and_pair():
    doc = {
        "type": "conjugate",
        "inner": {"type": "henon", "a": "1", "p": "x^2"},
        "by": {"type": "triangular", "a": "1", "b": "1", "c": "0", "P": "1"},
    }
    f = from_description(doc)
    assert f.degree() == 2
    doc2 = {"type": "pair", "p": "x^2 - y", "q": "x", "pinv": "y", "qinv": "y^2 - x"}
    assert from_description(doc2).fwd == HENON2.fwd
    with pytest.raises(MapValidationError):
        from_description({"type": "nope"})
    with pytest.raises(MapValidationError):
        from_description({"type": "pair", "p": "x", "q": "y", "pinv": "y", "qinv": "y"})


def test_a_generator_word_names_coefficients_past_the_str_limit():
    # a map prints its polynomials, whose rationals print with format_rat,
    # so a coefficient past the interpreter's 4300-digit limit on int-to-str
    # builds and prints a map
    f = henon(Fraction(1, 3**9100), parse_poly("x^2"))
    g = triangular(3**9100, 1, Fraction(-1, 7**6000), parse_poly("y^2"))
    assert str(f) == f"(x^2 - 1/{format_int(3**9100)}*y, x)"
    assert str(g) == f"(y^2 + {format_int(3**9100)}*x, y - 1/{format_int(7**6000)})"
