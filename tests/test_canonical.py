"""Truncated canonical heights: tails, functional equation, periodicity, the
quadratic-recursion classifier."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from planeheights.automorphism import (
    IntegerForms,
    cap_bits,
    compose_maps,
    dynamical_degree,
    from_description,
    henon,
    identity,
    triangular,
)
from planeheights.canonical import (
    classify_quadratic_recursion,
    functional_equation_residual,
    hcanonical,
    hminus,
    hplus,
    is_periodic,
    make_engine,
)
from planeheights.errors import MapValidationError, ResourceCapError
from planeheights.heights import log_int, naive_height_affine
from planeheights.ratpoly import BivarPoly, parse_poly

import periodicity_verdicts

PAD = 2.0**-40

HENON2 = henon(1, parse_poly("x^2"))
HENON3 = henon(-1, parse_poly("x^3 - 2*x + 1"))
X3 = (Fraction(3), Fraction(0))
ORIGIN = (Fraction(0), Fraction(0))


@pytest.fixture(scope="module")
def engine():
    return make_engine(HENON2, depth=12)


def test_engine_rejects_triangularizable():
    with pytest.raises(MapValidationError):
        make_engine(triangular(1, 1, 0, parse_poly("y^2")))
    with pytest.raises(MapValidationError):
        make_engine(triangular(2, 1, 0, BivarPoly.zero()))


def test_engine_refusals_name_their_cause():
    with pytest.raises(MapValidationError, match="canonical heights exist only for dynamical degree >= 2; "
                                                 "triangularizable maps are excluded"):
        make_engine(triangular(1, 1, 0, parse_poly("y^2")))
    # (x + y^2, y) o (x^3 - y, x) o (x - y^2, y): a conjugate of a Henon map,
    # delta 3 but degree 6, so not regular, and not triangularizable either
    f = compose_maps(triangular(1, 1, 0, parse_poly("y^2")),
                     compose_maps(henon(1, parse_poly("x^3")), triangular(1, 1, 0, parse_poly("-y^2"))))
    assert (f.degree(), dynamical_degree(f)) == (6, 3)
    with pytest.raises(MapValidationError, match="core map is not regular") as refusal:
        make_engine(f)
    assert "triangulariz" not in str(refusal.value)


def test_engine_growth_constants(engine):
    assert engine.delta == 2 and engine.delta_minus == 2
    assert engine.c2_fwd == pytest.approx(math.log(2), abs=PAD)
    assert engine.c2_inv == pytest.approx(math.log(2), abs=PAD)


def test_hplus_fixed_point(engine):
    est = hplus(engine, ORIGIN)
    assert est.value == 0.0
    assert est.upper_bound == pytest.approx(math.log(2) * 2.0**-12, rel=1e-12)


def test_hplus_positive_and_below_ceiling(engine):
    est = hplus(engine, X3)
    assert est.value > 0
    ceiling = naive_height_affine(X3) + engine.c2_fwd / (engine.delta - 1)
    assert est.value <= ceiling + PAD


def test_hplus_upper_bound_field(engine):
    est = hplus(engine, X3)
    assert est.upper_bound == est.value + est.tail
    assert est.tail == engine.c2_fwd / ((engine.delta - 1) * engine.delta**12)


def test_hminus_backward_growth(engine):
    est = hminus(engine, X3)
    assert est.value > 0


def test_multiplicativity_forward(engine):
    fx = HENON2.apply(X3)
    lhs = hplus(engine, fx).value
    rhs = engine.delta * hplus(engine, X3).value
    assert abs(lhs - rhs) <= 2 * engine.tail(True)
    budget = engine.delta * engine.tail(True) + engine.tail(True)
    assert abs(lhs - rhs) <= budget


def test_upper_ceiling_over_corpus(engine):
    """hplus never exceeds h_nv(x) + c2/(delta - 1), up to rounding."""
    ceiling_const = engine.c2_fwd / (engine.delta - 1)
    for pt in (X3, ORIGIN, (Fraction(1), Fraction(1)), (Fraction(-5), Fraction(2)),
               (Fraction(7, 3), Fraction(-1, 2))):
        est = hplus(engine, pt)
        assert est.value <= naive_height_affine(pt) + ceiling_const + PAD


def test_hcanonical_positive_beyond_error_at_wandering_point(engine):
    assert hcanonical(engine, X3).value > engine.error_budget()


def test_multiplicativity_backward(engine):
    fix = HENON2.apply_inverse(X3)
    lhs = hminus(engine, fix).value
    rhs = engine.delta_minus * hminus(engine, X3).value
    budget = engine.delta_minus * engine.tail(False) + engine.tail(False)
    assert abs(lhs - rhs) <= budget


def test_hcanonical_decomposition_exact(engine):
    est = hcanonical(engine, X3)
    assert est.value - hplus(engine, X3).value - hminus(engine, X3).value == 0.0


def test_hcanonical_positivity(engine):
    for pt in (X3, ORIGIN, (Fraction(1), Fraction(1)), (Fraction(-2), Fraction(5))):
        assert hcanonical(engine, pt).value >= -engine.error_budget()


def test_hcanonical_periodic_point_within_budget(engine):
    est = hcanonical(engine, ORIGIN)
    assert est.value <= engine.error_budget()


def test_hcanonical_conjugated_frame():
    gamma = triangular(1, 1, 0, BivarPoly.const(1))  # x -> x + 1
    conjugated = make_engine(HENON2, gamma=gamma, depth=12)
    direct = make_engine(HENON2, depth=12)
    pt = (Fraction(4), Fraction(2))
    expected = hcanonical(direct, gamma.apply_inverse(pt)).value
    assert hcanonical(conjugated, pt).value == expected


def test_functional_equation_residual(engine):
    res = functional_equation_residual(engine, X3)
    assert res <= 3 * engine.c2_fwd / ((engine.delta - 1) * engine.delta**12)
    assert res <= 1e-3


def test_each_iterate_is_measured_once(monkeypatch):
    # hplus, hminus, hcanonical and the residual at depth 12 read iterates
    # -13..13 of one orbit: 27 logs of a size, plus the start measured once
    # more, since each direction keeps its own record.  The escape box is
    # built first: the logs of its constants are taken once per map, not
    # per iterate
    engine = make_engine(henon(1, parse_poly("x^2")), depth=12)  # a fresh map holds no orbit
    assert engine.g.escape_box is not None
    logs = []
    for module in [m for name, m in sys.modules.items() if name.startswith("planeheights") and m]:
        if getattr(module, "log_int", None) is log_int:
            monkeypatch.setattr(module, "log_int", lambda n: logs.append(n) or log_int(n))
    pt = (Fraction(1, 2), Fraction(1, 3))
    for read in (hplus, hminus, hcanonical, functional_equation_residual):
        read(engine, pt)
    assert len(logs) <= 28


def test_residual_decreases_with_depth():
    shallow = make_engine(HENON2, depth=8)
    deep = make_engine(HENON2, depth=12)
    pt = (Fraction(5, 2), Fraction(1))
    assert functional_equation_residual(deep, pt) <= functional_equation_residual(shallow, pt)


def test_residual_at_fixed_point(engine):
    assert functional_equation_residual(engine, ORIGIN) <= engine.error_budget()


def test_uniqueness_surrogate_depths_agree():
    for g, n in ((HENON2, 12), (henon(-1, parse_poly("x^3 - 2*x + 1")), 7)):
        e1 = make_engine(g, depth=n)
        e2 = make_engine(g, depth=n + 4)
        for pt in (X3, (Fraction(1), Fraction(2)), (Fraction(-1, 2), Fraction(3))):
            v1 = hcanonical(e1, pt)
            v2 = hcanonical(e2, pt)
            assert abs(v1.value - v2.value) <= e1.error_budget() + e2.error_budget()


small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 1, 2, 3]))
integers = st.integers(-3, 3).map(Fraction)


@st.composite
def henon_words(draw):
    """Words of one or two Henon maps, delta <= 6, with integer
    coefficients (a = +/-1, so the inverse is integral too) or rational ones."""
    integral = draw(st.booleans())
    coefficient = integers if integral else small
    f = None
    for degree in draw(st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 2)])):
        coeffs = draw(st.lists(coefficient, min_size=degree, max_size=degree))
        coeffs.append(draw(coefficient.filter(bool)))
        p = sum((BivarPoly.const(c) * BivarPoly.var("x")**i for i, c in enumerate(coeffs)), BivarPoly.zero())
        g = henon(draw(st.sampled_from([Fraction(1), Fraction(-1)]) if integral else small.filter(bool)), p)
        f = g if f is None else compose_maps(f, g)
    return f


Y = BivarPoly.var("y")
triangulars = st.builds(
    lambda a, b, c, p1, p2: triangular(a, b, c, BivarPoly.const(p2) * Y**2 + BivarPoly.const(p1) * Y),
    small.filter(bool), small.filter(bool), small, small, small)
WORD_DEPTH = {2: 6, 3: 4, 4: 3, 6: 2}  # depth N by delta


@settings(max_examples=150, deadline=None)
@given(word=henon_words(), gamma=st.none() | triangulars, pt=st.tuples(small, small))
def test_a_deeper_estimate_stays_below_the_upper_bound(word, gamma, pt):
    # h(g y) <= delta h(y) + c2 telescopes to v_(N+k) <= v_N + c2 / ((delta - 1) delta^N)
    # in each direction: the depth-N upper bound holds every deeper estimate
    n = WORD_DEPTH[word.degree()]
    shallow, deep = (make_engine(word, gamma=gamma, depth=depth, digit_cap=20_000) for depth in (n, n + 2))
    z = shallow.to_conjugated_frame(pt)
    try:
        pairs = [(fn(shallow, at), fn(deep, at)) for fn, at in ((hplus, z), (hminus, z), (hcanonical, pt))]
    except ResourceCapError:
        reject()
    for at_n, deeper in pairs:
        assert deeper.value <= at_n.upper_bound


def test_rigorous_lower_bound_route():
    # L = delta^2/(delta - 1)^2 c with c read off the escape box of the core;
    # the rigorous floor must dominate the direct h_nv-minus-L bound
    e = make_engine(HENON2, depth=12)
    floor_shift = e.lower_bound_constant()
    assert floor_shift == 4 * HENON2.escape_box.inequality == pytest.approx(6.9315, abs=1e-4)
    for pt in (X3, (Fraction(7), Fraction(-2)), (Fraction(2, 3), Fraction(5))):
        est = hcanonical(e, pt)
        assert est.rigorous_lower >= naive_height_affine(pt) - floor_shift - PAD
        assert est.value >= est.rigorous_lower - PAD


def test_make_engine_leaves_the_escape_box_unbuilt():
    # the constant is a field of the escape box, built on the first estimate
    # and not by make_engine, which map-algebra times on every op
    g = henon(1, parse_poly("x^2"))
    e = make_engine(g, depth=12)
    assert "escape_box" not in g.__dict__ and "_lower" not in e.__dict__


def test_the_engine_composes_its_outer_map_on_first_read():
    # make_engine compiles no forms of the core and composes no outer map;
    # the first read of `outer` composes gamma o g o gamma^-1 and holds it
    shift = {"type": "triangular", "a": "1", "b": "1", "c": "0", "P": "1"}
    core = henon(1, parse_poly("x^2"))
    engine = make_engine(core, gamma=from_description(shift))
    assert "outer" not in vars(engine)
    assert not {"_fwd_forms", "_inv_forms"} & set(vars(core))
    outer = engine.outer
    assert outer == from_description({"type": "conjugate", "inner": {"type": "henon", "a": "1", "p": "x^2"},
                                      "by": shift})
    assert vars(engine)["outer"] is outer and engine.outer is outer


def test_the_engine_reads_its_invariants_off_the_core():
    e = make_engine(HENON3, depth=8)
    assert e.c2_fwd == e.g.forms(True).c2 and e.c2_inv == e.g.forms(False).c2
    assert e.delta_minus == e.delta == HENON3.inverse_degree() == 3
    assert make_engine(HENON3, gamma=identity()).outer is HENON3


def test_the_engine_holds_its_constant_l():
    # L is formed on the first estimate and held on the engine, outside its
    # fields, so equality ignores it and every later estimate reads it
    e = make_engine(HENON2, depth=12)
    first = hcanonical(e, X3)
    assert e.__dict__["_lower"] == e.lower_bound_constant() == 4 * HENON2.escape_box.inequality
    assert e == make_engine(HENON2, depth=12) and hcanonical(e, X3) == first


CORPUS = {
    "H2": (HENON2, None, 12),
    "H3": (HENON3, None, 8),
    "H4": (henon(2, parse_poly("x^4 + x")), None, 6),
    "C6": (compose_maps(HENON2, HENON3), None, 4),
    "conj-H2": (HENON2, triangular(1, 1, 0, BivarPoly.const(1)), 12),
}


@pytest.mark.parametrize("name", CORPUS)
def test_the_rigorous_lower_bound_is_below_a_deeper_upper_bound(name):
    core, gamma, depth = CORPUS[name]
    shallow, deep = (make_engine(core, gamma=gamma, depth=n) for n in (depth, depth + 2))
    for pt in (X3, ORIGIN, (Fraction(1), Fraction(-2)), (Fraction(1, 2), Fraction(1, 3))):
        z = shallow.to_conjugated_frame(pt)
        for fn, at in ((hplus, z), (hminus, z), (hcanonical, pt)):
            assert fn(shallow, at).rigorous_lower <= fn(deep, at).upper_bound, (name, pt, fn.__name__)


def test_digit_cap_resource_error():
    e = make_engine(HENON2, depth=40, digit_cap=10_000)
    with pytest.raises(ResourceCapError):
        hplus(e, X3)


def test_is_periodic_fixed_point():
    verdict = is_periodic(HENON2, ORIGIN)
    assert verdict.kind == "periodic" and verdict.period == 1


def test_is_periodic_divergent_point():
    assert is_periodic(HENON2, X3).kind == "not_periodic"


def test_is_periodic_exact_orbit_walk():
    # (1,1) -> (0,1) -> (-1,0) -> (1,-1) -> (2,1) -> (3,2) -> ... heights grow
    verdict = is_periodic(HENON2, (Fraction(1), Fraction(1)))
    assert verdict.kind == "not_periodic"


def test_is_periodic_does_not_grow_a_finished_direction(monkeypatch):
    # on C6 at (0, 1) hplus is 0.23 and hminus 9e-5: a walk that waited for
    # both directions to grow would step the forward one to iterate +10, of
    # 5.9M digits; the box walk stops at the first iterate outside the box
    c6 = compose_maps(HENON2, HENON3)
    largest = []
    step = IntegerForms.step

    def recording_step(self, pt, *rest):
        out = step(self, pt, *rest)
        largest.append(max(map(abs, out)))
        return out

    monkeypatch.setattr(IntegerForms, "step", recording_step)
    assert is_periodic(c6, (Fraction(0), Fraction(1))).kind == "not_periodic"
    assert max(largest).bit_length() <= cap_bits(10**5)


def test_is_periodic_three_cycle():
    # hand-checked cycle of (x^2 - 2 - y, x): (0,-1) -> (-1,0) -> (-1,-1) -> (0,-1)
    f = henon(1, parse_poly("x^2 - 2"))
    pt = (Fraction(0), Fraction(-1))
    assert f.apply(pt) == (Fraction(-1), Fraction(0))
    verdict = is_periodic(f, pt)
    assert verdict.kind == "periodic" and verdict.period == 3


def test_is_periodic_triangular_cycle_detection():
    # maps of dynamical degree 1 have no escape box: undecided with no walk,
    # the 2-cycle of the rotation included
    rot = triangular(-1, -1, 0, BivarPoly.zero())  # (x, y) -> (-x, -y)
    shift = triangular(1, 1, 1, BivarPoly.zero())  # (x, y) -> (x, y + 1)
    for f, pt in ((rot, (Fraction(2), Fraction(5))), (shift, ORIGIN)):
        verdict = is_periodic(f, pt)
        assert verdict.kind == "undecided" and verdict.period is None
        assert verdict.detail == "the map is not regular, so it has no escape box"


def test_is_periodic_certificate_over_the_cap_is_undecided():
    # p = x^2 - 10^12000 has R > 10^12000: (0, 0) and its iterate +1,
    # (-10^12000, 0), lie in the box, and iterate +2 is the first outside
    # it.  At cap 10^4 the 12001-digit iterate +1 is refused instead.
    f = henon(1, parse_poly("x^2") - BivarPoly.const(10**12000))
    verdict = is_periodic(f, ORIGIN, digit_cap=10**4)
    assert verdict.kind == "undecided"
    assert verdict.detail == "coordinate exceeded the digit cap at iterate +1"
    verdict = is_periodic(f, ORIGIN)
    assert verdict.kind == "not_periodic"
    assert verdict.detail == "iterate +2 lies outside the escape box at infinity"


def test_is_periodic_accepts_caps_below_ten_thousand():
    assert is_periodic(HENON2, X3, digit_cap=5000) == is_periodic(HENON2, X3)
    assert is_periodic(HENON2, ORIGIN, digit_cap=100).period == 1


def test_periodicity_verdicts_match_the_recorded_corpus():
    # the verdict table of periodicity_verdicts.py: 1,730 verdicts of the
    # benchmark corpus, kind, period and detail text, against the recorded file
    assert len(periodicity_verdicts.TABLE.read_text(encoding="utf-8").splitlines()) == 1730
    assert periodicity_verdicts.differences() == []


def test_recursion_boundary_case_exact_trajectory():
    res = classify_quadratic_recursion(Fraction(5, 4), 4, 30)
    assert res.regime == "tends_to_one"
    for l, value in enumerate(res.trajectory):
        expected = 1 + float(Fraction(4) ** -(2**l)) if 2**l < 2000 else 1.0
        assert value == pytest.approx(expected, abs=1e-12)


def test_recursion_divergence():
    res = classify_quadratic_recursion("13/10", 4, 30)
    assert res.regime == "diverges"
    assert max(res.trajectory) > 1e6


def test_recursion_to_zero():
    res = classify_quadratic_recursion("6/5", 4, 30)
    assert res.regime == "tends_to_zero"
    assert abs(res.trajectory[-1]) < 1e-3


def _mpmath_trajectory(a, big_d, length):
    """The classifier's trajectory iterated by mpmath at 60 digits, each
    entry rounded to a float (+-inf past float range): the reference the
    `decimal` iteration is checked against."""
    mp = pytest.importorskip("mpmath").mp
    a, big_d = Fraction(a), Fraction(big_d)
    with mp.workdps(60):
        cur = mp.mpf(a.numerator) / a.denominator
        d_mp = mp.mpf(big_d.numerator) / big_d.denominator
        values = [cur]
        for l in range(length):
            cur = cur * cur - 2 * d_mp ** (-(2**l))
            values.append(cur)
    floats = []
    for value in values:
        try:
            floats.append(float(value))
        except OverflowError:
            floats.append(math.inf if value > 0 else -math.inf)
    return floats


@pytest.mark.parametrize("length", [30, 80])
@pytest.mark.parametrize("a", ["5/4", "13/10", "6/5"])
def test_recursion_trajectory_equals_mpmath(a, length):
    got = classify_quadratic_recursion(a, 4, length).trajectory
    assert list(got) == _mpmath_trajectory(a, 4, length)


@settings(max_examples=60, deadline=None)
@given(big_d=st.fractions(4, 40, max_denominator=60), k=st.integers(1, 70),
       side=st.sampled_from([-1, 0, 1]), far=st.none() | st.fractions(1, 3, max_denominator=1000))
def test_recursion_trajectory_within_an_ulp_of_mpmath(big_d, k, side, far):
    """a near 1 + 1/D (10^-k away on either side, or on it) or anywhere in [1, 3]."""
    a = far if far is not None else max(Fraction(1), 1 + 1 / big_d + side * Fraction(1, 10**k))
    got = classify_quadratic_recursion(a, big_d, 30).trajectory
    for g, want in zip(got, _mpmath_trajectory(a, big_d, 30), strict=True):
        assert math.isinf(g) == math.isinf(want) and (g == 0) == (want == 0)
        assert g == want or abs(g - want) <= math.ulp(want)


def test_recursion_preconditions():
    with pytest.raises(ValueError):
        classify_quadratic_recursion(1.5, 3, 10)
    with pytest.raises(ValueError):
        classify_quadratic_recursion(0.5, 4, 10)
    with pytest.raises(ValueError):
        classify_quadratic_recursion(1.5, 4, 0)


def test_composite_engine():
    comp = compose_maps(HENON2, henon(-1, parse_poly("x^3 - 2*x + 1")))
    e = make_engine(comp, depth=5)
    assert e.delta == 6 and e.delta_minus == 6
    est = hcanonical(e, (Fraction(1), Fraction(1)))
    assert est.value > 0
