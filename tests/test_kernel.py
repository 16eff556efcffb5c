"""The integer projective kernel against the Fraction reference.

Property tests (Hypothesis) compare kernel steps with `BivarPoly.evaluate`
steps, naive heights on triples with `normalize`-based heights, and the
digit-cap iterate with the coordinate-wise rule of a Fraction walk, also when
the map already holds an orbit from earlier queries.  The cap refuses a step
on its size bound, so the bound is checked on random Henon words, and a
refusal is checked to build no triple over the cap.
"""

import dataclasses
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planeheights.automorphism import IntegerForms, cap_bits, compose_maps, conjugate, henon, triangular
from planeheights.canonical import hcanonical, hminus, hplus, is_periodic, make_engine
from planeheights.errors import ResourceCapError
from planeheights.heights import affine, lift, naive_height, naive_height_affine, normalize, top
from planeheights.orbit import OrbitHeightTracker, build_orbit_record, hpm_from_h
from planeheights.ratpoly import BivarPoly, parse_poly

H2 = henon(1, parse_poly("x^2"))
H3 = henon(-1, parse_poly("x^3 - 2*x + 1"))
H4 = henon(2, parse_poly("x^4 + x"))  # a = 2: the inverse is not integral
C6 = compose_maps(H2, H3)
CONJ_H2 = conjugate(H2, triangular(1, 1, 0, BivarPoly.const(1)))
HALF = henon(Fraction(1, 2), parse_poly("x^2 - 1/3*x"))
MAPS = {"H2": H2, "H3": H3, "H4": H4, "C6": C6, "conj-H2": CONJ_H2, "half": HALF}
# steps per direction, small enough that coordinates stay in the kilobits
STEPS = {"H2": 6, "H3": 4, "H4": 3, "C6": 2, "conj-H2": 6, "half": 5}

X3 = (Fraction(3), Fraction(0))

# integers often: integral points of a non-integral direction need the gcd
# against m alone (Z = 1)
rationals = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 1, 1, 2, 3, 4, 5, 6, 7]))
points = st.tuples(rationals, rationals)


def reference_height(pt):
    return naive_height(normalize((pt[0], pt[1], Fraction(1))))


def evaluate_step(polys, pt):
    return (polys[0].evaluate(*pt), polys[1].evaluate(*pt))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(MAPS)), pt=points, forward=st.booleans())
@example(name="H4", pt=(Fraction(0), Fraction(1)), forward=False)  # image (2 : 2 : 2) before the gcd
def test_kernel_steps_match_evaluate_steps(name, pt, forward):
    f = MAPS[name]
    polys = f.fwd if forward else f.inv
    forms = f.forms(forward)
    triple = lift(pt)
    ref = pt
    for _ in range(STEPS[name]):
        triple = forms.step(triple)
        ref = evaluate_step(polys, ref)
        assert triple[2] > 0 and math.gcd(*triple) == 1
        assert affine(triple) == ref
        assert naive_height(triple) == reference_height(ref)
        assert naive_height_affine(ref) == reference_height(ref)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(MAPS)), pt=points)
def test_apply_matches_evaluate(name, pt):
    f = MAPS[name]
    assert f.apply(pt) == evaluate_step(f.fwd, pt)
    assert f.apply_inverse(pt) == evaluate_step(f.inv, pt)
    assert f.apply_inverse(f.apply(pt)) == pt


@given(pt=points)
def test_lift_is_the_primitive_lift(pt):
    x, y, z = lift(pt)
    assert z > 0 and math.gcd(x, y, z) == 1
    assert affine((x, y, z)) == pt
    assert sorted(map(abs, (x, y, z))) == sorted(map(abs, normalize((pt[0], pt[1], Fraction(1)))))


def test_integral_flag():
    assert H2.is_integral and H3.is_integral and C6.is_integral and CONJ_H2.is_integral
    assert not H4.is_integral and not HALF.is_integral
    assert H4.forms(True).m == 1 and H4.forms(False).m == 2


@pytest.mark.parametrize("pt", [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(2))])
def test_is_periodic_finds_h2_fixed_points(pt):
    assert H2.apply(pt) == pt
    verdict = is_periodic(H2, pt)
    assert verdict.kind == "periodic" and verdict.period == 1


# -- the digit cap: same iterate as the coordinate-wise rule -------------------

def fraction_cap_iterate(polys, pt, limit, max_steps):
    """First step at which a numerator or denominator of the Fraction walk
    exceeds `limit` bits (the rule before the kernel), or None."""
    for step in range(1, max_steps + 1):
        pt = evaluate_step(polys, pt)
        if any(max(c.numerator.bit_length(), c.denominator.bit_length()) > limit for c in pt):
            return step
    return None


def raised_iterate(fn):
    with pytest.raises(ResourceCapError) as info:
        fn()
    return int(re.search(r"iterate [+-](\d+)", str(info.value)).group(1))


@pytest.mark.parametrize("f, pt", [
    (H2, X3),                                   # test_digit_cap_resource_error
    (H4, (Fraction(2), Fraction(1))),
    (H2, (Fraction(1, 2), Fraction(1, 3))),
])
def test_engine_cap_fires_at_the_fraction_rule_iterate(f, pt):
    engine = make_engine(f, depth=40, digit_cap=10_000)
    limit = cap_bits(10_000)
    assert raised_iterate(lambda: hplus(engine, pt)) == fraction_cap_iterate(f.fwd, pt, limit, 40)
    assert raised_iterate(lambda: hminus(engine, pt)) == fraction_cap_iterate(f.inv, pt, limit, 40)


def tracker_cap_iterate(tracker, sign, max_steps):
    for l in range(1, max_steps + 1):
        try:
            tracker.h_bounds(sign * l)
        except ResourceCapError:
            return l
    return None


@pytest.mark.parametrize("f", [henon(Fraction(1, 2), parse_poly("x^2")), henon(2, parse_poly("x^2"))])
def test_tracker_cap_fires_at_the_fraction_rule_iterate(f):
    # the non-certified maps of the tracker and count_below cap tests
    limit = cap_bits(10_000)
    tracker = OrbitHeightTracker(f, X3, exact_digits=100, digit_cap=10_000)
    for sign, polys in ((1, f.fwd), (-1, f.inv)):
        expected = fraction_cap_iterate(polys, X3, limit, 40)
        assert expected is not None
        assert tracker_cap_iterate(tracker, sign, 40) == expected


def test_tracker_points_stay_fractions():
    tracker = OrbitHeightTracker(H4, (Fraction(1, 2), Fraction(3)))
    pt = (Fraction(1, 2), Fraction(3))
    for l in range(0, 4):
        got = tracker.point(-l)
        assert all(isinstance(c, Fraction) for c in got)
        assert got == pt
        lo, hi = tracker.h_bounds(-l)
        assert lo <= reference_height(pt) <= hi
        pt = evaluate_step(H4.inv, pt)


def test_certified_tracker_hands_integers_to_the_interval_phase():
    tracker = OrbitHeightTracker(H2, X3, exact_digits=50)
    exact = X3
    for l in range(1, 20):
        exact = H2.apply(exact)
        try:
            assert tracker.point(l) == exact
        except ResourceCapError:
            break  # iterate l is the first one held as an interval
    else:
        pytest.fail("the tracker never switched to interval arithmetic")
    lo, hi = tracker.h_bounds(l)
    assert exact[0].denominator == exact[1].denominator == 1
    assert lo <= reference_height(exact) <= hi


# -- the same cap iterates when the map already holds an orbit -----------------

def cap_iterate_or_none(fn):
    try:
        fn()
    except ResourceCapError as exc:
        return int(re.search(r"iterate [+-](\d+)", str(exc)).group(1))
    return None


def refusal(fn):
    try:
        fn()
    except ResourceCapError as exc:
        return str(exc)
    return None


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["H2", "H3", "H4", "half"]), pt=points,
       warm=st.sampled_from(["none", "same", "other"]), other=points)
def test_cap_iterate_unchanged_by_a_held_orbit(name, pt, warm, other):
    # the module-level maps keep whatever orbit earlier queries left on them
    f = MAPS[name]
    engine = make_engine(f, depth=40, digit_cap=10_000)
    if warm != "none":
        refusal(lambda: hcanonical(engine, pt if warm == "same" else other))
    limit = cap_bits(10_000)
    assert cap_iterate_or_none(lambda: hplus(engine, pt)) == fraction_cap_iterate(f.fwd, pt, limit, 40)
    assert cap_iterate_or_none(lambda: hminus(engine, pt)) == fraction_cap_iterate(f.inv, pt, limit, 40)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["H2", "H3", "H4", "half"]), pt=points, depth=st.integers(8, 16))
def test_shifted_reads_refuse_like_walks_from_the_image(name, pt, depth):
    # hhat(f x) and hhat(f^-1 x) are read at orbit indices +1 and -1 of x;
    # a refusal names its iterate from f(x) (or f^-1(x)), as a walk from there did
    f = MAPS[name]
    engine = make_engine(f, depth=depth, digit_cap=10_000)
    fresh = make_engine(dataclasses.replace(f), depth=depth, digit_cap=10_000)  # holds no orbit
    expected = (refusal(lambda: hcanonical(fresh, f.apply(pt)))
                or refusal(lambda: hcanonical(fresh, f.apply_inverse(pt))))
    assert refusal(lambda: hpm_from_h(engine, pt)) == expected


# -- the step bound the cap refuses on ------------------------------------------

nonzero = rationals.filter(bool)


@st.composite
def henon_words(draw):
    """Words of one or two Henon maps with rational a and coefficients, degree <= 9."""
    f = None
    for _ in range(draw(st.integers(1, 2))):
        degree = draw(st.integers(2, 3))
        coeffs = draw(st.lists(rationals, min_size=degree, max_size=degree)) + [draw(nonzero)]
        p = sum((BivarPoly.const(c) * BivarPoly.var("x") ** i for i, c in enumerate(coeffs)), BivarPoly.zero())
        g = henon(draw(nonzero), p)
        f = g if f is None else compose_maps(f, g)
    return f


@settings(max_examples=40, deadline=None)
@given(f=henon_words(), pt=points)
def test_step_bits_stay_under_the_step_bound(f, pt):
    for forward in (True, False):
        forms = f.forms(forward)
        triple = lift(pt)
        for _ in range(3):
            image = forms.step(triple)
            assert top(image).bit_length() <= forms.degree * top(triple).bit_length() + forms.c_bits
            triple = image


def walk_tracker(f, sign):
    tracker = OrbitHeightTracker(f, X3, exact_digits=100, digit_cap=10_000)
    for l in range(1, 41):
        tracker.h_bounds(sign * l)


@pytest.mark.parametrize("f, read", [
    (H2, lambda f: hplus(make_engine(f, depth=40, digit_cap=10_000), X3)),
    (H2, lambda f: hcanonical(make_engine(f, depth=40, digit_cap=10_000), X3)),
    # depth 8 keeps (hhat+, hhat-) under the cap, so the window refuses
    (H2, lambda f: build_orbit_record(make_engine(f, depth=8, digit_cap=10_000), X3, window=40)),
    (H4, lambda f: walk_tracker(f, 1)),   # not certified integral
    (H4, lambda f: walk_tracker(f, -1)),
], ids=["hplus", "hcanonical", "build_orbit_record", "tracker+", "tracker-"])
def test_a_refusal_builds_no_triple_over_the_cap(monkeypatch, f, read):
    bits = []
    step = IntegerForms.step

    def recording_step(self, pt):
        out = step(self, pt)
        bits.append(top(out).bit_length())
        return out

    monkeypatch.setattr(IntegerForms, "step", recording_step)
    with pytest.raises(ResourceCapError):
        read(dataclasses.replace(f))  # a copy that holds no orbit
    assert bits and max(bits) <= cap_bits(10_000)
