"""The integer projective kernel against the Fraction reference.

Property tests (Hypothesis) compare kernel steps with `BivarPoly.evaluate`
steps, naive heights on triples with `normalize`-based heights, and the
digit-cap iterate with the coordinate-wise rule of a Fraction walk, also when
the map already holds an orbit from earlier queries.  The cap refuses a step
on its size bound, so the bound is checked on random Henon words, a refusal
is checked to build no triple over the cap, and it carries its iterate and
bound.  Sizes read off interval steps past the held triples are compared
with the triples built afterwards on random words with K = 1, and with the
triples of a full-gcd walk on random words with m, K > 1, whose gcd steps
are sized off residues; the default-cap refusals of the orbit command and
a counting run that reads its escape tail are checked to build no triple
from a source past SIZED_FROM_BITS.  Orbit triples, whose settled steps reduce
only at the primes of the escape box's K, are compared with a walk that
takes the full gcd at every step, on random Henon words and their linear
conjugates.
"""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from planeheights.automorphism import (SIZED_FROM_BITS, IntegerForms, Interval, Orbit, cap_bits, compose_maps,
                                       conjugate, degree_sequence, henon, inverse, pair, pinned_size, triangular)
from planeheights.canonical import (functional_equation_residual, hcanonical, hcanonical_iterates, hminus, hplus,
                                    is_periodic, make_engine)
from planeheights.errors import ResourceCapError
from planeheights.heights import affine, lift, log_int, naive_height, naive_height_affine, normalize, top
from planeheights.orbit import OrbitHeightTracker, build_orbit_record, counting_enclosure
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
    tracker = OrbitHeightTracker(f, X3, digit_cap=10_000)
    for sign, polys in ((1, f.fwd), (-1, f.inv)):
        expected = fraction_cap_iterate(polys, X3, limit, 40)
        assert expected is not None
        assert tracker_cap_iterate(tracker, sign, 40) == expected


def test_tracker_points_stay_fractions():
    tracker = OrbitHeightTracker(H4, (Fraction(1, 2), Fraction(3)))
    pt = (Fraction(1, 2), Fraction(3))
    for l in range(0, 4):
        lo, hi = tracker.h_bounds(-l)  # sizes, so builds, the iterate
        assert lo <= reference_height(pt) <= hi
        got = tracker.point(-l)
        assert all(isinstance(c, Fraction) for c in got)
        assert got == pt
        pt = evaluate_step(H4.inv, pt)


def test_certified_tracker_hands_integers_to_the_interval_phase():
    # under a 50-digit cap, which a certified tracker does not test, the
    # tail starts one interval step past the built integer triples
    tracker = OrbitHeightTracker(H2, X3, digit_cap=50)
    exact = X3
    for l in range(1, 20):
        exact = H2.apply(exact)
        if tracker._in_tail(l):
            break  # iterate l is the tail start
        tracker.h_bounds(l)
        assert tracker.point(l) == exact
    else:
        pytest.fail("the tracker never reached its escape tail")
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


# -- settled steps reduce only at the primes of K -------------------------------

def linear(a, b, c, e):
    """The automorphism (a x + b y, c x + e y), ae - bc != 0."""
    det = Fraction(a * e - b * c)
    x, y, k = BivarPoly.var("x"), BivarPoly.var("y"), BivarPoly.const
    return pair(k(a) * x + k(b) * y, k(c) * x + k(e) * y,
                k(e / det) * x - k(b / det) * y, k(a / det) * y - k(c / det) * x)


def full_gcd_walk(forms, triple, steps):
    """The iterates of a walk that takes gcd(m Z^d, F, G) out at every step."""
    out = []
    for _ in range(steps):
        triple = forms.step(triple)
        out.append(triple)
    return out


@settings(max_examples=40, deadline=None)
@given(word=henon_words(), det=st.sampled_from([None, 2, 3, 5]), k=st.integers(-3, 3), j=st.integers(-2, 2),
       pt=points, forward=st.booleans())
# (5 : 1 : 5): 5 divides W and U, so the walk is unsettled at iterate 0 and settles after it
@example(word=H2, det=None, k=0, j=0, pt=(Fraction(1), Fraction(1, 5)), forward=True)
def test_orbit_triples_match_the_full_gcd_walk(word, det, k, j, pt, forward):
    f = word._replace()  # a copy that holds no orbit
    if det is not None:
        # L sends the word's points at infinity (0:1) and (1:0) to the
        # primitive columns (b, jb + det) and (1, j), b = k det + 1, so |det B| = det
        b = k * det + 1
        lin = linear(1, b, j, j * b + det)
        f = compose_maps(compose_maps(lin, f), inverse(lin))
        b0, b1, b2, b3 = f.escape_box.basis
        assert abs(b0 * b3 - b1 * b2) == det
    sign = 1 if forward else -1
    orbit = f.orbit(lift(pt))
    expected = full_gcd_walk(f.forms(forward), lift(pt), 3)
    assert [orbit[sign * l] for l in range(1, 4)] == expected


def test_a_walk_settles_once_no_prime_outside_k_divides_w_and_u():
    f = H2._replace()  # K = 1
    orbit = f.orbit(lift((Fraction(1), Fraction(1, 5))))
    assert orbit[0] == (5, 1, 5) and not f.escape_box.settled(orbit[0])
    orbit[1]
    assert orbit._settled == [None, None]
    orbit[2]  # (4 : 5 : 5) is settled
    assert orbit._settled == [None, 1]
    assert f.escape_box.settled(orbit[-1], forward=False)  # (5 : 5 : 1): w = 1


def test_only_a_rational_walk_or_a_certified_tracker_reads_the_box():
    # an integral walk takes no gcd, so it reads no box; a certified tracker
    # reads it for its escape tail, and a tracker of a rational start does not
    f = H2._replace()
    make_engine(f)
    orbit = f.orbit(lift(X3))
    orbit[6], orbit[-6]
    assert "escape_box" not in f.__dict__
    assert OrbitHeightTracker(f, (Fraction(1, 2), Fraction(3)))._box is None
    assert "escape_box" not in f.__dict__
    f.orbit(lift((Fraction(1, 2), Fraction(3))))[1]
    assert f.escape_box.bad == 1
    g = H2._replace()
    tracker = OrbitHeightTracker(g, X3)
    assert tracker._box is g.__dict__["escape_box"]


def test_k_is_read_off_the_box():
    # K = N |det B| m_f m_f^-1: H4's inverse has denominator 2 and alpha = 1/2
    assert H4.escape_box.bad == 4 and H2.escape_box.bad == C6.escape_box.bad == 1
    # H2 conjugated by (x + y, x - y): N = 2, |det B| = 2 and both directions have denominator 4
    lin = linear(1, 1, 1, -1)
    assert compose_maps(compose_maps(lin, H2), inverse(lin)).escape_box.bad == 64


def walk_tracker(f, sign):
    tracker = OrbitHeightTracker(f, X3, digit_cap=10_000)
    for l in range(1, 41):
        tracker.h_bounds(sign * l)


@pytest.mark.parametrize("f, read", [
    (H2, lambda f: hplus(make_engine(f, depth=40, digit_cap=10_000), X3)),
    (H2, lambda f: hcanonical(make_engine(f, depth=40, digit_cap=10_000), X3)),
    # (hhat+, hhat-) reads the certified tracker, whose tails start under the
    # cap, so the window refuses
    (H2, lambda f: build_orbit_record(make_engine(f, depth=8, digit_cap=10_000), X3, window=40)),
    (H4, lambda f: walk_tracker(f, 1)),   # not certified integral
    (H4, lambda f: walk_tracker(f, -1)),
], ids=["hplus", "hcanonical", "build_orbit_record", "tracker+", "tracker-"])
def test_a_refusal_builds_no_triple_over_the_cap(monkeypatch, f, read):
    bits = []
    step = IntegerForms.step

    def recording_step(self, pt, *rest):
        out = step(self, pt, *rest)
        bits.append(top(out).bit_length())
        return out

    monkeypatch.setattr(IntegerForms, "step", recording_step)
    with pytest.raises(ResourceCapError):
        read(f._replace())  # a copy that holds no orbit
    assert bits and max(bits) <= cap_bits(10_000)


@pytest.mark.parametrize("f, depth, pt, iterate, cause", [
    (H4, 6, (Fraction(2), Fraction(-3)), 12, "the map is not integral"),
    (H4, 6, (Fraction(3), Fraction(1)), 11, "the map is not integral"),
    (H2, 12, (Fraction(1, 2), Fraction(1, 3)), 22, "the start is not integral"),
    (H2, 12, (Fraction(2, 3), Fraction(-1, 2)), 22, "the start is not integral"),
], ids=["H4 (2,-3)", "H4 (3,1)", "H2 (1/2,1/3)", "H2 (2/3,-1/2)"])
def test_a_default_cap_refusal_builds_no_triple_past_the_threshold(monkeypatch, f, depth, pt, iterate, cause):
    # the orbit record and two counting enclosures (T = e^5, e^21) of the
    # orbit command on maps it cannot track in intervals: the tracker's walk
    # is refused at the default cap, and the orbit builds triples only from
    # sources under SIZED_FROM_BITS bits
    stepped = record_steps(monkeypatch)
    engine = make_engine(f._replace(), depth=depth)  # a copy that holds no orbit
    with pytest.raises(ResourceCapError) as info:
        build_orbit_record(engine, pt, window=4)
        for threshold in (math.exp(5.0), math.exp(21.0)):
            counting_enclosure(engine, pt, threshold)
    assert str(info.value) == (f"orbit coordinate exceeded the digit cap at iterate +{iterate}, and {cause}, "
                               "so no escape tail takes over")
    assert info.value.iterate == iterate
    assert stepped and max(top(source).bit_length() for source in stepped) < SIZED_FROM_BITS


def test_a_counting_run_builds_no_triple_past_the_threshold(monkeypatch):
    # the canonical tracker builds the orbit of (3, 0) up to its tail starts,
    # +6 (101 bits) and -7 (103 bits), and reads +43 and -44 off the log
    # recurrence past them; (hhat+, hhat-) reads the same tracker at +-1, so a
    # count at T = e^21 steps no interval, its orbit ends at the tail starts,
    # and it builds no triple from a source past 52 bits, that of -6
    stepped = record_steps(monkeypatch)
    interval_steps = []
    image = IntegerForms.image

    def counted(self, point):
        if type(point[0]) is Interval:
            interval_steps.append(point)
        return image(self, point)

    monkeypatch.setattr(IntegerForms, "image", counted)
    f = H2._replace()  # a copy that holds no orbit
    engine = make_engine(f, depth=12)
    counting_enclosure(engine, X3, math.exp(21))
    tracker = engine.__dict__["_held"][1]["tracker"]
    assert [tail[:2] for tail in tracker._tails] == [(7, 44), (6, 43)]
    assert interval_steps == []
    assert max(top(source).bit_length() for source in stepped) == 52
    assert [top(chain[-1]).bit_length() for chain in f.orbit(lift(X3))._chains] == [103, 101]


def test_a_tracker_under_a_smaller_cap_reads_the_orbits_built_triples():
    # a reader at the default cap has read (3, 0) to +22: the built triples
    # to +6, its tail start, and the log recurrence past it; a tracker under
    # a 10^4-digit cap, which would refuse +15, starts its tail at the same
    # built triple, so the orbit steps and builds nothing more
    f = H2._replace()  # a copy that holds no orbit
    OrbitHeightTracker(f, X3).h_bounds(22)
    orbit = f.orbit(lift(X3))
    assert [len(orbit._chains[True]), len(orbit._sizes[True]), len(orbit._enclosures[True])] == [7, 6, 0]
    tracker = OrbitHeightTracker(f, X3, digit_cap=10_000)
    lo, hi = tracker.h_bounds(22)
    assert (tracker._under[True], tracker._tails[True][:2]) == (7, (6, 22))
    assert [len(orbit._chains[True]), len(orbit._enclosures[True])] == [7, 0]
    assert lo <= orbit.size(22)[1] <= hi


def test_a_cap_refusal_carries_its_iterate_and_bound():
    f = H2._replace()  # a copy that holds no orbit
    engine = make_engine(f, depth=40, digit_cap=10_000)
    orbit, forms, limit = f.orbit(lift(X3)), f.forms(True), cap_bits(10_000)
    iterates = []
    for base in (0, 1):  # hcanonical at x, then at f(x): iterates named from the walk's base
        with pytest.raises(ResourceCapError) as info:
            hcanonical_iterates(engine, X3, (base,))
        exc = info.value
        assert str(exc) == f"coordinate exceeded the digit cap at iterate {exc.iterate:+d}"
        assert exc.bound_bits == forms.degree * orbit.size(base + exc.iterate - 1)[0] + forms.c_bits
        assert forms.degree * orbit.size(base + exc.iterate - 2)[0] + forms.c_bits <= limit < exc.bound_bits
        iterates.append(exc.iterate)
    assert iterates[1] == iterates[0] - 1
    # the tracker's refusal on a map it cannot certify passes them on
    with pytest.raises(ResourceCapError, match="and the map is not integral, so no escape tail takes over") as info:
        walk_tracker(H4, 1)
    assert info.value.iterate == raised_iterate(lambda: walk_tracker(H4, 1)) and info.value.bound_bits > limit
    with pytest.raises(ResourceCapError) as info:
        degree_sequence(H2, 9)
    assert (info.value.iterate, info.value.bound_bits) == (None, None)


# -- sizes read at the frontier ---------------------------------------------------

def unimodular(b, j, s, t):
    """The affine automorphism (x + b y + s, j x + (j b + 1) y + t), of determinant 1."""
    x, y, k = BivarPoly.var("x"), BivarPoly.var("y"), BivarPoly.const
    u, v = x - k(s), y - k(t)
    return pair(x + k(b) * y + k(s), k(j) * x + k(j * b + 1) * y + k(t),
                k(j * b + 1) * u - k(b) * v, v - k(j) * u)


@st.composite
def unit_henon_words(draw):
    """Words of one or two integral Henon maps with integral inverses (a and
    the leading coefficient of p are +-1), degree <= 9, and their conjugates
    by integral affine maps of determinant 1: every one has K = 1."""
    f = None
    for _ in range(draw(st.integers(1, 2))):
        degree = draw(st.integers(2, 3))
        coeffs = draw(st.lists(st.integers(-4, 4), min_size=degree, max_size=degree)) + [draw(st.sampled_from([1, -1]))]
        p = sum((BivarPoly.const(c) * BivarPoly.var("x") ** i for i, c in enumerate(coeffs)), BivarPoly.zero())
        g = henon(draw(st.sampled_from([1, -1])), p)
        f = g if f is None else compose_maps(f, g)
    if draw(st.booleans()):
        lin = unimodular(*(draw(st.integers(-2, 2)) for _ in range(4)))
        f = compose_maps(compose_maps(lin, f), inverse(lin))
    return f


@settings(max_examples=60, deadline=None)
@given(f=unit_henon_words(), pt=points, forward=st.booleans())
@example(f=H2, pt=(Fraction(1, 2), Fraction(1, 3)), forward=True)
@example(f=C6, pt=X3, forward=False)
def test_a_size_read_at_the_frontier_is_the_built_triples(f, pt, forward):
    f = f._replace()  # a copy that holds no orbit
    assert f.is_integral and f.escape_box.bad == 1
    orbit, sign = f.orbit(lift(pt)), 1 if forward else -1
    chain = orbit._chains[forward]
    for k in range(1, 6):
        try:
            orbit.capped(sign * k, cap_bits(10_000))
        except ResourceCapError:
            break
        size = orbit.size(sign * k)
        event("sized at the frontier" if len(chain) == k else "built")
        t = top(orbit[sign * k])
        assert size == (t.bit_length(), log_int(t))


def test_the_outermost_iterates_are_sized_not_built():
    # a walk builds triples only up to the first iterate of SIZED_FROM_BITS
    # bits and sizes every iterate past it off interval steps: on H2 at
    # (1/2, 1/3), depth 12, the residual's walks from f(x) and f^-1(x) reach
    # +-13, and the orbit builds to +10 (1836 bits; +9 has 918) and to -9
    # (1068 bits; -8 has 534)
    f = H2._replace()
    engine = make_engine(f, depth=12)
    x = (Fraction(1, 2), Fraction(1, 3))
    hplus(engine, x), hminus(engine, x), hcanonical(engine, x), functional_equation_residual(engine, x)
    orbit = f.orbit(lift(x))
    assert [len(chain) for chain in orbit._chains] == [10, 11]
    assert [len(sizes) for sizes in orbit._sizes] == [14, 14]
    assert [orbit.size(l)[0] for l in (-8, -9, 9, 10)] == [534, 1068, 918, 1836]
    for l in range(-13, 14):
        size, t = orbit.size(l), top(orbit[l])  # built when a reader indexes it
        assert size == (t.bit_length(), log_int(t))


def test_an_enclosure_that_cannot_pin_leaves_the_step_exact(monkeypatch):
    # (2^1100, 1), of more than SIZED_FROM_BITS bits, maps to (2^2200 - 1,
    # 2^1100): the 192-bit enclosure of 2^2200 - 1 reaches 2^2200, so it
    # fixes neither the bit length nor the leading bits, and the exact step runs
    start = (1 << 1100, 1, 1)
    forms = H2.forms(True)
    assert top(start).bit_length() >= SIZED_FROM_BITS
    assert pinned_size(forms.image((Interval(1 << 1100, 1 << 1100), Interval(1, 1), 1))) is None
    stepped = record_steps(monkeypatch)
    orbit = H2._replace().orbit(start)
    assert orbit.size(1) == (2200, log_int((1 << 2200) - 1))
    assert stepped == [start] and orbit[1] == ((1 << 2200) - 1, 1 << 1100, 1)


def record_steps(monkeypatch):
    """The list of triples the exact step is taken from, from now on."""
    stepped = []
    step = IntegerForms.step

    def recording_step(self, pt, *rest):
        stepped.append(pt)
        return step(self, pt, *rest)

    monkeypatch.setattr(IntegerForms, "step", recording_step)
    return stepped


@pytest.mark.parametrize("bits", [SIZED_FROM_BITS - 1, SIZED_FROM_BITS])
def test_only_a_source_of_sized_from_bits_is_sized_off_an_interval_step(monkeypatch, bits):
    start = (3**700 >> (3**700).bit_length() - bits, 1, 1)  # the leading bits of 3^700: X^2 - 1 pins
    stepped = record_steps(monkeypatch)
    orbit = H2._replace().orbit(start)
    size = orbit.size(1)
    assert stepped == ([] if bits >= SIZED_FROM_BITS else [start])
    t = top(orbit[1])
    assert size == (t.bit_length(), log_int(t))


@pytest.mark.parametrize("shift, sized", [(10, True), (100, False)])
def test_a_residue_that_cannot_decide_the_common_factor_leaves_the_step_exact(monkeypatch, shift, sized):
    # H4 forward, settled, takes its common factor at K = 4 only.  From
    # (3 2^s, 1, 2^1100) it is 2^(4s), read off residues modulo 2^322: for
    # s = 10 it is decided, for s = 100 it is 2^400, the residues give 2^322,
    # and the exact step runs
    f = H4._replace()
    start = (3 << shift, 1, 1 << 1100)
    orbit = f.orbit(start)
    assert f.escape_box.bad == 4 and orbit._bad(True, start) == 4  # settled at the start
    stepped = record_steps(monkeypatch)
    size = orbit.size(1)
    assert stepped == ([] if sized else [start])
    x, y, z = start
    image = (x**4 + x * z**3 - 2 * y * z**3, x * z**3, z**4)
    assert math.gcd(*image) == 1 << (4 * shift)
    assert orbit[1] == tuple(c >> (4 * shift) for c in image)
    t = top(orbit[1])
    assert size == (t.bit_length(), log_int(t))


@pytest.mark.parametrize("interval, c", [
    (Interval(7, 9, 10), 3),
    (Interval(-9, -7, 5), 3),
    (Interval(-(1 << 191) + 5, (1 << 191) - 3, 2000), 5),
    (Interval(12, 12), 4),
    (Interval(7, 9, 1), 1000),  # e below bits(c): rounded at e = 0
])
def test_interval_division_rounds_outward(interval, c):
    q = interval.divided(c)
    assert q.e >= 0
    lo, hi = Fraction(interval.lo * 2**interval.e, c), Fraction(interval.hi * 2**interval.e, c)
    assert q.lo * 2**q.e <= lo and hi <= q.hi * 2**q.e
    # rounded by at most one unit of the last place each side
    assert lo - q.lo * 2**q.e <= 2**q.e and q.hi * 2**q.e - hi <= 2**q.e
    if interval.lo == interval.hi and interval.e == 0 and interval.lo % c == 0:
        assert (q.lo, q.hi, q.e) == (interval.lo // c, interval.lo // c, 0)


@st.composite
def rational_henon_words(draw):
    """Words of one or two Henon maps whose a and leading coefficient make
    m > 1 in a direction, so K > 1, and their conjugates by affine maps."""
    f = None
    for _ in range(draw(st.integers(1, 2))):
        degree = draw(st.integers(2, 3))
        lead = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=degree, max_size=degree)) + [lead]
        p = sum((BivarPoly.const(c) * BivarPoly.var("x") ** i for i, c in enumerate(coeffs)), BivarPoly.zero())
        g = henon(draw(st.sampled_from([2, -2, 3, -3, 6, Fraction(1, 2), Fraction(2, 3)])), p)
        f = g if f is None else compose_maps(f, g)
    if draw(st.booleans()):
        det, k, j = draw(st.sampled_from([1, 2, 3])), draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        b = k * det + 1
        lin = compose_maps(unimodular(0, 0, draw(st.integers(-2, 2)), draw(st.integers(-2, 2))),
                           linear(1, b, j, j * b + det))
        f = compose_maps(compose_maps(lin, f), inverse(lin))
    return f


@settings(max_examples=60, deadline=None)
@given(f=rational_henon_words(), pt=points, forward=st.booleans(), depth=st.integers(1, 8))
@example(f=H4, pt=(Fraction(1, 2), Fraction(1, 3)), forward=True, depth=8)
@example(f=H4, pt=(Fraction(2), Fraction(-3)), forward=False, depth=8)
@example(f=HALF, pt=(Fraction(2, 3), Fraction(-1, 2)), forward=False, depth=8)
# +12 is integral, and the step from it takes only part of m = 2 out, so H / c is an Interval
@example(f=henon(2, parse_poly("x^2 + 1/2*x")), pt=(Fraction(-5), Fraction(-3)), forward=True, depth=13)
def test_sizes_past_gcd_steps_are_the_built_triples(f, pt, forward, depth):
    f = f._replace()  # a copy that holds no orbit
    assert max(f.forms(True).m, f.forms(False).m) > 1 and f.escape_box.bad > 1
    orbit, sign = f.orbit(lift(pt)), 1 if forward else -1
    for k in range(1, depth + 1):
        try:
            orbit.capped(sign * k, cap_bits(10_000))
        except ResourceCapError:
            break
    orbit.size(sign * (k - 1))
    sizes, chain = orbit._sizes[forward], orbit._chains[forward]
    event("sized past the held triples" if len(sizes) > len(chain) else "built")
    reference = Orbit(f.forms(True), f.forms(False), lift(pt))  # no owner: the full gcd at every step
    for n, size in enumerate(sizes):
        t = top(reference[sign * n])
        assert size == (t.bit_length(), log_int(t))


def test_an_unsettled_step_past_the_threshold_is_built():
    # gamma o H2 o gamma^-1, gamma = (x + y^2, y), is not regular, so it has
    # no escape box: the orbit finds none on its owner, and no direction of
    # a rational start settles.  The step from +8, of 1067 bits, is unsettled,
    # so +9 is built rather than sized off an enclosure.
    gamma = triangular(1, 1, 0, parse_poly("y^2"))
    f = compose_maps(compose_maps(gamma, H2), inverse(gamma))
    pt = (Fraction(1, 2), Fraction(1, 3))
    orbit = f.orbit(lift(pt))
    for k in range(1, 10):
        orbit.capped(k, cap_bits(10_000))
    orbit.size(9)
    assert f.escape_box is None and orbit._owner is f and orbit._settled == [None, None]
    assert orbit.size(8)[0] == 1067 and orbit.built(9) is not None
    reference = Orbit(f.forms(True), f.forms(False), lift(pt))
    for n, size in enumerate(orbit._sizes[True]):
        t = top(reference[n])
        assert size == (t.bit_length(), log_int(t))


@pytest.mark.parametrize("triple, expected", [
    ((1 << 52, 0, 1), (53, math.log(1 << 52))),  # 53 bits, exact: log_int's own log
    ((3, -(1 << 70) - 5, 1), (71, log_int((1 << 70) + 5))),
    ((Interval(7 << 300, 7 << 300), 2, Interval(-(1 << 200), 1)), (303, log_int(7 << 300))),
    (((1 << 52) - 1, 0, 1), None),  # 52 bits: log_int reads the whole integer
    ((Interval(-(1 << 199), 1 << 199), 1, 1), None),  # |X| anywhere in [0, 2^199]
])
def test_pinned_size(triple, expected):
    assert pinned_size(triple) == expected
