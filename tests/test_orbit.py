"""Orbit heights, exact counting, the counting enclosures, and the interval
orbit tracker."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from planeheights import automorphism as automorphism_mod
from planeheights import orbit as orbit_mod
from planeheights.automorphism import (DEFAULT_DIGIT_CAP, INTERVAL_PRECISION_BITS, IntegerForms, Interval, compose_maps,
                                       henon, inverse, triangular)
from planeheights.canonical import functional_equation_residual, hminus, hplus, is_periodic, make_engine
from planeheights.errors import (
    OutOfRangeError,
    PeriodicPointError,
    PlaneHeightsError,
    ResourceCapError,
)
from planeheights.heights import naive_height_affine
from planeheights.orbit import (
    NEG_INFINITY,
    OrbitHeightTracker,
    build_orbit_record,
    count_below,
    count_exponential,
    counting_enclosure,
    hpm_from_h,
    min_orbit_height_bounds,
    minimum_location,
    orbit_height,
)
from planeheights.ratpoly import parse_poly

HENON2 = henon(1, parse_poly("x^2"))
X3 = (Fraction(3), Fraction(0))
ORIGIN = (Fraction(0), Fraction(0))


@pytest.fixture(scope="module")
def engine():
    return make_engine(HENON2, depth=12)


# -- tracker -------------------------------------------------------------------

def test_tracker_exact_phase_matches_direct_iteration():
    tracker = OrbitHeightTracker(HENON2, X3)
    pt = X3
    for l in range(0, 8):
        lo, hi = tracker.h_bounds(l)
        h = naive_height_affine(pt)
        assert lo <= h <= hi
        pt = HENON2.apply(pt)
    pt = X3
    for l in range(0, 8):
        lo, hi = tracker.h_bounds(-l)
        assert lo <= naive_height_affine(pt) <= hi
        pt = HENON2.apply_inverse(pt)


def test_tracker_interval_phase_agrees_with_exact():
    # force the interval switch early with a 50-digit cap and compare
    # against the orbit's own sizes, which reach +22 under the default cap
    small = OrbitHeightTracker(HENON2, X3, digit_cap=50)
    exact = OrbitHeightTracker(HENON2, X3)
    for l in range(5, 16):
        lo_s, hi_s = small.h_bounds(l)
        lo_e, hi_e = exact.h_bounds(l)
        mid_e = 0.5 * (lo_e + hi_e)
        assert lo_s <= mid_e <= hi_s
        assert hi_s - lo_s < 1e-6 * max(1.0, abs(mid_e))


# Integral maps, so the tracker switches to intervals: the corpus maps H2,
# H3 and C6 = H2 o H3, and a quartic with a = 1 (the corpus H4 has a = 2, a
# non-integral inverse, so it never leaves the exact phase).
INTEGRAL = {
    "H2": HENON2,
    "H3": henon(-1, parse_poly("x^3 - 2*x + 1")),
    "H4": henon(1, parse_poly("x^4 + x")),
}
INTEGRAL["C6"] = compose_maps(INTEGRAL["H2"], INTEGRAL["H3"])
DEPTH_BY_DELTA = {2: 12, 3: 8, 4: 6, 6: 5}
SWITCH_DIGITS = 50  # the cap of the trackers that switch early, which no engine takes


def infinite_orbit_engine(name, x, y):
    """The engine of an integral map and the point (x, y), or a failed
    assumption unless both components are at least 1/4 (orbits nearer the
    bounded ones take seconds to certify) and the orbit is not periodic."""
    f = INTEGRAL[name]
    engine = make_engine(f, depth=DEPTH_BY_DELTA[f.degree()])
    pt = (Fraction(x), Fraction(y))
    assume(min(hplus(engine, pt).value, hminus(engine, pt).value) >= 0.25)
    assume(is_periodic(f, pt).kind == "not_periodic")
    return engine, pt


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(INTEGRAL)), x=st.integers(-6, 6), y=st.integers(-6, 6),
       thresholds=st.lists(st.floats(0.5, 300.0), min_size=1, max_size=3))
def test_counts_do_not_depend_on_the_switch_point(name, x, y, thresholds):
    # the smallest cap an engine takes (10^4 digits) sends the canonical
    # count at T = 250 past it, and a tracker under a 50-digit cap sends the
    # naive count past it
    engine, pt = infinite_orbit_engine(name, x, y)
    capped = make_engine(engine.g, depth=engine.depth, digit_cap=10_000)
    thresholds = sorted(thresholds + [250.0])
    counts = {}
    for which in ("naive", "canonical"):
        counts[which] = [count_below(engine, pt, t, which) for t in thresholds]
        assert [count_below(capped, pt, t, which) for t in thresholds] == counts[which]
        assert counts[which] == sorted(counts[which])
    assert _held_tracker(capped, pt)._refused != [False, False]
    small = OrbitHeightTracker(engine.outer, pt, digit_cap=SWITCH_DIGITS)
    assert [orbit_mod._scan(small.h_bounds, t, 0.0, 5)[0] for t in thresholds] == counts["naive"]
    assert small._refused != [False, False]


def _held_tracker(engine, pt):
    """The canonical tracker the engine holds for pt."""
    return engine.__dict__["_held"][1]["tracker"]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(INTEGRAL)), x=st.integers(-6, 6), y=st.integers(-6, 6))
def test_early_switch_encloses_the_exact_run(name, x, y):
    engine, pt = infinite_orbit_engine(name, x, y)
    small = OrbitHeightTracker(engine.g, pt, digit_cap=SWITCH_DIGITS)
    exact = OrbitHeightTracker(engine.g, pt)
    switched = False
    for sign in (1, -1):
        for k in range(25):
            l = sign * k
            if exact._past_cap(l):
                break  # iterate l is an interval in the reference run too
            switched = switched or small._past_cap(l)
            lo, hi = small.h_bounds(l)
            assert lo <= exact.h(l) <= hi
    assert switched


def test_tracker_reaches_far_iterates():
    tracker = OrbitHeightTracker(HENON2, X3)
    lo, hi = tracker.h_bounds(40)
    assert hi - lo < 1e-5 * hi
    assert lo > 1e11  # heights double per step: ~2^40 * 1.09


def test_tracker_refuses_when_intervals_lose_precision(monkeypatch):
    # The orbit steps its enclosures past the cap at the precision `Interval`
    # reads when they are made, and each new map holds a new orbit.
    lo, hi = OrbitHeightTracker(henon(1, parse_poly("x^2")), X3, digit_cap=50).h_bounds(60)
    assert hi - lo < 1e-6 * hi
    monkeypatch.setattr(automorphism_mod, "INTERVAL_PRECISION_BITS", 24)  # where Interval reads it
    tracker = OrbitHeightTracker(henon(1, parse_poly("x^2")), X3, digit_cap=50)
    with pytest.raises(ResourceCapError, match="interval arithmetic lost precision at iterate 60"):
        tracker.h_bounds(60)


def test_the_tracker_refusals_carry_their_iterate(monkeypatch):
    # the orbit builds (3, 0) only to +10 and sizes the iterates past it, so
    # iterate 20 is not built
    tracker = OrbitHeightTracker(henon(1, parse_poly("x^2")), X3)
    tracker.h_bounds(20)
    with pytest.raises(ResourceCapError) as info:
        tracker.point(20)
    assert str(info.value) == "iterate 20 is no longer held exactly"
    assert (info.value.iterate, info.value.bound_bits) == (20, None)
    monkeypatch.setattr(automorphism_mod, "INTERVAL_PRECISION_BITS", 24)
    tracker = OrbitHeightTracker(henon(1, parse_poly("x^2")), X3, digit_cap=50)
    with pytest.raises(ResourceCapError) as info:
        tracker.h_bounds(-60)
    assert str(info.value) == "interval arithmetic lost precision at iterate -60"
    assert (info.value.iterate, info.value.bound_bits) == (-60, None)


def _interval_steps(monkeypatch):
    """The list of the Interval triples `IntegerForms.image` maps from now on."""
    interval_steps = []
    image = IntegerForms.image

    def counted(self, point):
        if isinstance(point[0], Interval):
            interval_steps.append(point)
        return image(self, point)

    monkeypatch.setattr(IntegerForms, "image", counted)
    return interval_steps


def test_second_counting_run_steps_no_interval(monkeypatch):
    engine = make_engine(henon(1, parse_poly("x^2")), depth=12)
    interval_steps = _interval_steps(monkeypatch)
    first = counting_enclosure(engine, X3, math.exp(21))
    assert interval_steps
    interval_steps.clear()
    assert counting_enclosure(engine, X3, math.exp(21)) == first
    assert interval_steps == []


def test_every_tracker_of_an_orbit_reads_one_chain_of_interval_steps(monkeypatch):
    # a naive count builds a new tracker per call, and the canonical count
    # holds another; all of them read the enclosures the orbit keeps, so the
    # second naive count steps nothing and the canonical one steps only the
    # iterates past those the naive counts read
    engine = make_engine(henon(1, parse_poly("x^2")), depth=12)
    interval_steps = _interval_steps(monkeypatch)
    first = count_below(engine, X3, math.exp(21), "naive")
    assert len(interval_steps) == 50
    interval_steps.clear()
    assert count_below(engine, X3, math.exp(21), "naive") == first
    assert interval_steps == []
    count_below(engine, X3, math.exp(21), "canonical")
    assert len(interval_steps) == 16


def test_tracker_noncertified_map_hits_cap():
    f = henon(Fraction(1, 2), parse_poly("x^2"))  # non-integral coefficients
    tracker = OrbitHeightTracker(f, X3, digit_cap=10_000)
    with pytest.raises(ResourceCapError):
        tracker.h_bounds(40)


def test_certified_map_switches_to_intervals_at_a_cap_refusal():
    # under a 10^4-digit cap, Orbit.capped refuses iterate +15 of (3, 0)
    # (the step bound from +14, 25741 bits, is 51483 bits) and -16: the
    # integral map reads the orbit's enclosures past +14 and -15, where the
    # default cap refuses +23 and -23
    capped = OrbitHeightTracker(HENON2, X3, digit_cap=10_000)
    default = OrbitHeightTracker(HENON2, X3)
    for l in range(-40, 41):
        lo, hi = capped.h_bounds(l)
        d_lo, d_hi = default.h_bounds(l)
        assert lo <= d_hi and d_lo <= hi, l
    assert (capped._under, default._under) == ([16, 15], [23, 23])
    engine = make_engine(HENON2, depth=12)
    capped_engine = make_engine(HENON2, depth=12, digit_cap=10_000)
    for which in ("naive", "canonical"):
        for t in (math.exp(9), math.exp(15), math.exp(21)):
            assert count_below(capped_engine, X3, t, which) == count_below(engine, X3, t, which), (which, t)


def test_noncertified_map_counts_exactly_below_the_cap():
    # rational-coefficient inverse produces denominators; exact phase handles
    # the gcd bookkeeping and small-threshold counts stay available
    f = henon(2, parse_poly("x^2"))
    engine = make_engine(f)
    count = count_below(engine, X3, 30.0, "naive")
    wide = count_below(engine, X3, 30.0, "naive", patience=9)
    assert count == wide and count > 0
    with pytest.raises(ResourceCapError):
        count_below(make_engine(f, digit_cap=10_000), X3, math.exp(18), "naive")


# -- the interval kernel -------------------------------------------------------------

def _endpoints(v):
    """The exact endpoints of an Interval and its exponent (exponents are
    never negative, so the endpoints are integers)."""
    return v.lo << v.e, v.hi << v.e, v.e


def _assert_encloses(result, exact_values, exponent):
    """result holds every exact value, and its width exceeds theirs by at
    most 2^(2-P) M + 2^(E+2-2P): M the largest exact |value|, E the larger
    operand exponent, P the mantissa bits."""
    lo, hi, _ = _endpoints(result)
    assert lo <= min(exact_values) and max(exact_values) <= hi
    p = INTERVAL_PRECISION_BITS
    extra = (hi - lo) - (max(exact_values) - min(exact_values))
    largest = max(abs(v) for v in exact_values)
    assert extra << (2 * p) <= (largest << (p + 2)) + (1 << (exponent + 2))


MANTISSAS = st.integers(-(1 << (INTERVAL_PRECISION_BITS + 40)), 1 << (INTERVAL_PRECISION_BITS + 40))
INTERVALS = st.builds(lambda a, b, e: Interval(min(a, b), max(a, b), e),
                      MANTISSAS, MANTISSAS, st.integers(0, 600))
SCALARS = st.one_of(st.integers(-3, 3), st.integers(-(1 << 300), 1 << 300))
GAPS = st.one_of(st.integers(0, 10), st.integers(2 * INTERVAL_PRECISION_BITS - 4, 5 * INTERVAL_PRECISION_BITS))


@settings(max_examples=300, deadline=None)
@given(u=INTERVALS, v=INTERVALS)
@example(u=Interval(-5, 7), v=Interval(-(1 << 200), 3 << 190, 10))
def test_interval_product_encloses_every_endpoint_product(u, v):
    u_lo, u_hi, u_e = _endpoints(u)
    v_lo, v_hi, v_e = _endpoints(v)
    exact = [a * b for a in (u_lo, u_hi) for b in (v_lo, v_hi)]
    _assert_encloses(u * v, exact, max(u_e, v_e))


@settings(max_examples=300, deadline=None)
@given(u=INTERVALS, v=INTERVALS, gap=GAPS)
@example(u=Interval(-(1 << 191), 1 << 191), v=Interval(1, 3), gap=2 * INTERVAL_PRECISION_BITS + 5)
def test_interval_sum_encloses_every_endpoint_sum(u, v, gap):
    v = Interval(v.lo, v.hi, u.e + gap)  # exponents `gap` apart, past 2P bits too
    u_lo, u_hi, u_e = _endpoints(u)
    v_lo, v_hi, v_e = _endpoints(v)
    exact = [a + b for a in (u_lo, u_hi) for b in (v_lo, v_hi)]
    _assert_encloses(u + v, exact, max(u_e, v_e))
    _assert_encloses(v + u, exact, max(u_e, v_e))


@settings(max_examples=300, deadline=None)
@given(u=INTERVALS, k=SCALARS)
def test_interval_int_arithmetic_on_either_side(u, k):
    u_lo, u_hi, u_e = _endpoints(u)
    for result in (u * k, k * u):
        _assert_encloses(result, [u_lo * k, u_hi * k], u_e)
    for result in (u + k, k + u):
        _assert_encloses(result, [u_lo + k, u_hi + k], u_e)


# -- hhat+/- from the functional identities --------------------------------------

def test_hpm_fixed_point_zero(engine):
    hp, hm = hpm_from_h(engine, ORIGIN)
    budget = engine.error_budget()
    assert abs(hp) <= budget and abs(hm) <= budget


def test_hpm_cross_implementation(engine):
    hp, hm = hpm_from_h(engine, X3)
    assert abs(hp - hplus(engine, X3).value) <= 3 * engine.tail_fwd()
    assert abs(hm - hminus(engine, X3).value) <= 3 * engine.tail_inv()


def test_hpm_sum_recovers_hcanonical(engine):
    """hhat+ + hhat- = hhat, exactly up to the functional-equation residual
    (the derived identity scales the residual by dd_-/(dd_- + 1) <= 1)."""
    from planeheights.canonical import hcanonical

    hp, hm = hpm_from_h(engine, X3)
    residual = functional_equation_residual(engine, X3)
    assert abs(hp + hm - hcanonical(engine, X3).value) <= residual + 1e-12


def test_hpm_nonnegative_within_budget(engine):
    rng = random.Random(23)
    for _ in range(10):
        pt = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        hp, hm = hpm_from_h(engine, pt)
        assert hp >= -engine.error_budget()
        assert hm >= -engine.error_budget()


# -- orbit height -----------------------------------------------------------------

def test_orbit_height_periodic_is_minus_infinity(engine):
    assert orbit_height(engine, ORIGIN) == NEG_INFINITY


def test_orbit_height_invariant_along_orbit(engine):
    from planeheights.orbit import orbit_height_slack

    v0 = orbit_height(engine, X3)
    v1 = orbit_height(engine, HENON2.apply(X3))
    v2 = orbit_height(engine, HENON2.apply(HENON2.apply(X3)))
    tol = 2 * (orbit_height_slack(engine, X3) + orbit_height_slack(engine, HENON2.apply(X3)))
    assert abs(v1 - v0) <= tol
    assert abs(v2 - v0) <= tol


def test_minimum_location_symmetric_case():
    assert minimum_location(2, 2, 0.75, 0.75) == 0.0
    t0 = minimum_location(2, 2, 1.0, 4.0)
    assert t0 == pytest.approx(1.0)


def test_min_orbit_height_bounds(engine):
    eps1_ok, eps2_ok = min_orbit_height_bounds(engine, X3)
    assert eps1_ok and eps2_ok


def test_min_height_epsilons_at_two_two():
    from planeheights.orbit import min_height_epsilons

    eps1, eps2 = min_height_epsilons(2, 2)
    assert eps1 == pytest.approx(2.0, abs=1e-12)
    assert eps2 == pytest.approx(4.0, abs=1e-12)


def test_enclosure_halfwidth_at_two_two(engine):
    enc = counting_enclosure(engine, X3, math.exp(9))
    assert enc.halfwidth == pytest.approx(3.0, abs=1e-12)
    assert enc.upper - enc.lower == pytest.approx(2 * (3.0 + enc.slack), abs=1e-9)


# -- counting ---------------------------------------------------------------------

def test_count_below_naive_frozen_value(engine):
    # enumeration oracle: forward heights 1.10, 2.20, 4.36, 8.71, 17.4, 34.8 (6 pts <= 50),
    # backward similarly 6 points; 69.7+ exceeds.
    assert count_below(engine, X3, 50.0, "naive") == 12


def test_count_below_wider_window_cross_check(engine):
    for t in (50.0, math.exp(8)):
        narrow = count_below(engine, X3, t, "naive", patience=5)
        wide = count_below(engine, X3, t, "naive", patience=10)
        assert narrow == wide


def test_count_below_monotone(engine):
    counts = [count_below(engine, X3, t, "canonical") for t in (5.0, 50.0, 500.0)]
    assert counts == sorted(counts)


def test_count_below_invariant_under_orbit_shift(engine):
    fx = HENON2.apply(X3)
    for t in (30.0, 200.0):
        assert count_below(engine, X3, t, "naive") == count_below(engine, fx, t, "naive")


def _shifted(f, pt, k):
    """f^k(pt)."""
    for _ in range(abs(k)):
        pt = f.apply(pt) if k > 0 else f.apply_inverse(pt)
    return pt


BASE_POINT_THRESHOLDS = (2.0, 5.0, 20.0)


@pytest.mark.parametrize("k", range(-8, 9))
def test_counts_do_not_depend_on_the_base_point(engine, k):
    # f^k(3, 0) counts like (3, 0): for |k| >= 6 the orbit's lowest samples
    # lie more than five steps from l = 0, past a fixed run of misses
    pt = _shifted(HENON2, X3, k)
    for t, expected in zip(BASE_POINT_THRESHOLDS, (2, 6, 10)):
        enc = counting_enclosure(engine, pt, t)
        assert (enc.observed, enc.passed) == (expected, True), (k, t, enc)
        assert count_below(engine, pt, t, "naive") == expected, (k, t)


def test_a_far_point_is_decided_and_counted_like_the_orbit(monkeypatch):
    # f^8(2, 1) on H3 lies outside the escape box (R = 7): its verdict
    # reads no iterate, where a walk for a growth certificate ran to the
    # digit cap and gave up.  Its counts at depth 5 are those of (2, 1).
    far = _shifted(INTEGRAL["H3"], (Fraction(2), Fraction(1)), 8)
    steps = []
    step = IntegerForms.step

    def counted(self, point):
        steps.append(point)
        return step(self, point)

    monkeypatch.setattr(IntegerForms, "step", counted)
    f = henon(-1, parse_poly("x^3 - 2*x + 1"))  # holds no orbit yet
    verdict = is_periodic(f, far)
    assert verdict.kind == "not_periodic" and len(steps) <= 1
    assert verdict.detail == "iterate +0 lies outside the escape box at infinity"
    monkeypatch.undo()
    engine = make_engine(f, depth=5)
    for t in (1e3, 1e5):
        enc = counting_enclosure(engine, far, t)
        assert enc.passed
        assert enc.observed == counting_enclosure(engine, (Fraction(2), Fraction(1)), t).observed


def test_tracker_walks_toward_the_lowest_point_exactly():
    # backward from f^8(2, 1), of 1689 digits, each H3 iterate is about a
    # third the size of the one before: the tracker reads each off the
    # orbit, under the digit cap, and the orbit builds each, since no
    # interval step pins a size through that cancellation
    h3 = INTEGRAL["H3"]
    tracker = OrbitHeightTracker(h3, _shifted(h3, (Fraction(2), Fraction(1)), 8))
    assert not any(tracker._past_cap(-l) for l in range(1, 9))
    assert tracker.h(-8) == pytest.approx(math.log(2))
    assert tracker.point(-8) == (Fraction(2), Fraction(1))


def test_tracker_refusal_on_a_noncertified_map_names_the_iterate():
    engine = make_engine(henon(2, parse_poly("x^4 + x")), depth=6)
    with pytest.raises(ResourceCapError, match=r"^orbit coordinate exceeded the digit cap at "
                                               r"iterate \+12, and the map is not certified integral"):
        counting_enclosure(engine, (Fraction(2), Fraction(-3)), 1e5)


UNRESOLVED = r"did not resolve above zero at depth 3; the orbit is infinite .*a larger --depth resolves them"


def test_unresolved_components_of_an_infinite_orbit_are_a_depth_cap():
    # f^8(2, 1) on H3 is not_periodic at iterate +0, but at depth 3 hhat-
    # reads <= 0 there: the bound that refuses is the depth, not the verdict
    engine = make_engine(INTEGRAL["H3"], depth=3)
    x = _shifted(INTEGRAL["H3"], (Fraction(2), Fraction(1)), 8)
    assert is_periodic(INTEGRAL["H3"], x).kind == "not_periodic"
    for call in (lambda: orbit_height(engine, x), lambda: build_orbit_record(engine, x, 4),
                 lambda: counting_enclosure(engine, x, math.exp(9))):
        with pytest.raises(ResourceCapError, match=UNRESOLVED):
            call()
    # the slack reads the same verdict first, so the same depth cap refuses it
    with pytest.raises(ResourceCapError, match=UNRESOLVED):
        orbit_mod.orbit_height_slack(engine, x)


ENGINE_READERS = {
    "orbit_height": orbit_height,
    "orbit_height_slack": orbit_mod.orbit_height_slack,
    "counting_enclosure": lambda engine, x: counting_enclosure(engine, x, math.exp(9)),
    "min_orbit_height_bounds": min_orbit_height_bounds,
    "build_orbit_record": lambda engine, x: build_orbit_record(engine, x, 4).orbit_height,
}


@pytest.mark.parametrize("name, start, k, depth, cap, refusal, message", [
    ("H2", (2, 2), 0, 12, DEFAULT_DIGIT_CAP, PeriodicPointError, None),  # a fixed point
    ("H3", (2, 1), 8, 2, DEFAULT_DIGIT_CAP, ResourceCapError, "did not resolve above zero at depth 2"),
    ("C6", (3, 0), 0, 5, 10**4, ResourceCapError, r"digit cap at iterate \+5"),
])
def test_every_engine_reader_refuses_alike(name, start, k, depth, cap, refusal, message):
    # one reading order, the verdict, then (hhat+, hhat-), then the depth
    # cap, so each reader refuses a point with the same error; a periodic
    # point has orbit height -inf where the others raise PeriodicPointError
    f = INTEGRAL[name]
    x = _shifted(f, tuple(map(Fraction, start)), k)
    for reader, call in ENGINE_READERS.items():
        engine = make_engine(f, depth=depth, digit_cap=cap)
        if refusal is PeriodicPointError and reader == "orbit_height":
            assert call(engine, x) == NEG_INFINITY
            continue
        with pytest.raises(refusal, match=message):
            call(engine, x)


# depth and digit cap per map
SHIFT_ENGINES = {"H2": (12, DEFAULT_DIGIT_CAP), "H3": (4, DEFAULT_DIGIT_CAP)}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SHIFT_ENGINES)), x=st.integers(-3, 3), y=st.integers(-3, 3),
       k=st.integers(-8, 8))
@example(name="H2", x=3, y=0, k=8)
def test_counts_are_the_same_at_every_point_of_the_orbit(name, x, y, k):
    f = INTEGRAL[name]
    depth, cap = SHIFT_ENGINES[name]
    engine = make_engine(f, depth=depth, digit_cap=cap)

    def counts(pt):
        """(canonical count, law passed, naive count) per threshold, or a
        rejected example where the point is refused (periodic, undecided,
        over the cap)."""
        try:
            encs = [counting_enclosure(engine, pt, t) for t in BASE_POINT_THRESHOLDS]
            naive = [count_below(engine, pt, t, "naive") for t in BASE_POINT_THRESHOLDS]
        except PlaneHeightsError:
            reject()
        return [(enc.observed, enc.passed, n) for enc, n in zip(encs, naive)]

    base = (Fraction(x), Fraction(y))
    shifted = counts(_shifted(f, base, k))
    assert shifted == counts(base)
    assert all(passed for _, passed, _ in shifted)


def test_count_below_threshold_below_min_orbit_height(engine):
    hp, hm = hpm_from_h(engine, X3)
    min_h = min(2**l * hp + 2.0**-l * hm for l in range(-3, 4))
    assert count_below(engine, X3, 0.5 * min_h, "canonical") == 0


def test_count_below_rejects_periodic(engine):
    with pytest.raises(PeriodicPointError):
        count_below(engine, ORIGIN, 10.0, "canonical")


def test_count_canonical_agrees_with_scaling_law(engine):
    """Dual route: the per-point truncated estimator vs the exact scaling
    count #{l : delta^l hhat+ + delta_-^(-l) hhat- <= T}."""
    hp, hm = hpm_from_h(engine, X3)
    for k in range(5, 22, 2):
        t = math.exp(k)
        observed = count_below(engine, X3, t, "canonical")
        scaling = sum(
            1 for l in range(-80, 81) if 2**l * hp + 2.0**-l * hm <= t
        )
        assert abs(observed - scaling) <= 1


def test_counting_enclosure_grid(engine):
    for k in range(5, 22, 2):
        enc = counting_enclosure(engine, X3, math.exp(k))
        assert enc.passed, (k, enc)
        assert enc.lower <= enc.observed <= enc.upper


def test_counting_enclosure_near_threshold(engine):
    oh = orbit_height(engine, X3)
    coeff = 2 / math.log(2)
    t_edge = math.exp((oh + 0.3) / coeff)
    enc = counting_enclosure(engine, X3, t_edge)
    assert enc.observed >= 0 and enc.passed


def test_counting_enclosure_out_of_range(engine):
    oh = orbit_height(engine, X3)
    coeff = 2 / math.log(2)
    with pytest.raises(OutOfRangeError):
        counting_enclosure(engine, X3, math.exp((oh - 0.5) / coeff))


def test_count_exponential_worked_case():
    count, lower, upper = count_exponential(1, 1, 2, 2, 8)
    assert count == 5
    assert lower == pytest.approx(3.0) and upper == pytest.approx(7.0)
    assert lower <= count <= upper


def test_count_exponential_boundary_inclusive():
    count, _, _ = count_exponential(1, 1, 2, 2, 2)  # T = A + B exactly
    assert count >= 1  # l = 0 is included: the comparison is non-strict


def test_count_exponential_property_sweep():
    rng = random.Random(29)
    for _ in range(1000):
        delta = rng.choice([2, 3, 4, 6])
        delta_minus = rng.choice([2, 3, 4, 6])
        a = math.exp(rng.uniform(-3, 3))
        b = math.exp(rng.uniform(-3, 3))
        log_d, log_dm = math.log(delta), math.log(delta_minus)
        floor_t = a ** (log_dm / (log_d + log_dm)) * b ** (log_d / (log_d + log_dm))
        t = floor_t * math.exp(rng.uniform(0.0, 8.0))
        count, lower, upper = count_exponential(a, b, delta, delta_minus, t)
        assert lower <= count <= upper, (a, b, delta, delta_minus, t)


def test_count_exponential_preconditions():
    with pytest.raises(ValueError):
        count_exponential(-1, 1, 2, 2, 8)
    with pytest.raises(ValueError):
        count_exponential(100.0, 100.0, 2, 2, 1.0)  # far below the geometric mean


def test_slope_law_short_grid(engine):
    ts = [math.exp(k) for k in range(4, 13, 2)]
    counts = [count_below(engine, X3, t, "naive") for t in ts]
    slope = _least_squares_slope([math.log(t) for t in ts], counts)
    assert abs(slope - 2 / math.log(2)) <= 0.1 * (2 / math.log(2))


def _least_squares_slope(xs, ys):
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


# -- records ---------------------------------------------------------------------

def test_orbit_record(engine):
    record = build_orbit_record(engine, X3, window=3)
    assert record.base == X3
    assert [s.l for s in record.samples] == list(range(-3, 4))
    assert all(s.h_nv >= 0 for s in record.samples)
    mid = record.samples[3]
    assert mid.point == X3
    assert mid.h_hat == pytest.approx(record.hplus0 + record.hminus0)


def test_composite_degree_six_counting():
    """The delta = delta_- = 6 pipeline end to end: interval phase on a
    degree-6 map, halfwidth 2 log2/log6 + 1, enclosures pass."""
    from planeheights.automorphism import compose_maps

    comp = compose_maps(HENON2, henon(-1, parse_poly("x^3 - 2*x + 1")))
    e = make_engine(comp, depth=5)
    pt = (Fraction(1), Fraction(1))
    expected_halfwidth = 2 * math.log(2) / math.log(6) + 1
    for k in (5, 11):
        enc = counting_enclosure(e, pt, math.exp(k))
        assert enc.halfwidth == pytest.approx(expected_halfwidth, abs=1e-12)
        assert enc.passed, (k, enc)


def test_conjugated_engine_counting():
    gamma = triangular(1, 1, 0, parse_poly("1"))
    e = make_engine(HENON2, gamma=gamma, depth=12)
    pt = (Fraction(4), Fraction(0))
    enc = counting_enclosure(e, pt, math.exp(7))
    assert enc.passed


@pytest.mark.parametrize("threshold", [0.0, -5.0, math.nan, math.inf])
def test_thresholds_must_be_positive_and_finite(threshold):
    engine = make_engine(HENON2)
    for count in (lambda: count_below(engine, X3, threshold),
                  lambda: counting_enclosure(engine, X3, threshold)):
        with pytest.raises(ValueError, match="threshold must be a positive finite number"):
            count()
