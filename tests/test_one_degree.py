"""The height formulas read one degree: deg g^-1 = deg g on the plane, so
delta_- = delta.  Each formula must give the same float, bit for bit (==),
as the two-degree expression it replaces at delta_- = delta, so no printed
value moves.  The two-degree expressions are written out here as the
reference, each in its own evaluation order."""

import math
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeheights import canonical, orbit
from planeheights.automorphism import henon
from planeheights.canonical import HeightEngine, make_engine
from planeheights.ratpoly import parse_poly

DELTAS = st.integers(2, 64)
WIDE = st.floats(min_value=1e-150, max_value=1e150)
SHIFTS = st.integers(-60, 60)


def _engine(delta, c2_fwd=1.0, c2_inv=1.0, inequality=1.0, depth=12):
    """An engine over a stand-in core that holds only what the formulas read."""
    core = SimpleNamespace(forms=lambda forward: SimpleNamespace(c2=c2_fwd if forward else c2_inv),
                           escape_box=SimpleNamespace(inequality=inequality))
    return HeightEngine(g=core, delta=delta, gamma=None, depth=depth, digit_cap=10**5)


def _values(*values):
    """hcanonical_iterates as a stand-in that returns the given values."""
    return lambda engine, x, shifts: [SimpleNamespace(value=v) for v in values]


def _bounds(at_fx, at_fix):
    """_canonical_bounds as a stand-in whose enclosures at l = +1, -1 are the
    given values, each of width 0, so their midpoints are those values."""
    return lambda engine, x: {1: (at_fx, at_fx), -1: (at_fix, at_fix)}.__getitem__


def _midpoints(engine, x):
    """The midpoints of the canonical enclosures at f(x) and f^-1(x), the
    values the pair reads off the tracker held for x."""
    values = orbit._canonical_bounds(engine, x)
    return [0.5 * (lo + hi) for lo, hi in (values(1), values(-1))]


# -- the two-degree reference expressions ----------------------------------------

def ref_tails(d, dm, c2_fwd, c2_inv, n):
    tail_fwd = c2_fwd / ((d - 1) * d**n)
    tail_inv = c2_inv / ((dm - 1) * dm**n)
    return tail_fwd, tail_inv, tail_fwd + tail_inv


def ref_lower_constant(d, dm, inequality):
    dd = d * dm
    return dd / ((d - 1) * (dm - 1)) * inequality


def ref_residual(d, dm, at_fx, at_fix, at_x):
    lhs = at_fx / d + at_fix / dm
    rhs = (1 + 1 / (d * dm)) * at_x
    return abs(lhs - rhs)


def ref_hpm(d, dm, at_fx, at_fix):
    kappa = (d * dm) / ((d * dm) ** 2 - 1)
    h_plus = kappa * (dm * at_fx - at_fix / dm)
    h_minus = kappa * (d * at_fix - at_fx / d)
    return (h_plus, h_minus)


def ref_hpm_error_budget(d, dm, budget):
    kappa = (d * dm) / ((d * dm) ** 2 - 1)
    return kappa * (dm + 1 / dm + d + 1 / d) * budget


def ref_slack(d, dm, err, h_plus, h_minus):
    return err / (h_plus * math.log(d)) + err / (h_minus * math.log(dm))


def ref_log_height(d, dm, h_plus, h_minus):
    return math.log(h_plus) / math.log(d) + math.log(h_minus) / math.log(dm)


def ref_count_law(d, dm):
    log_d = math.log(d)
    log_dm = math.log(dm)
    coeff = 1 / log_d + 1 / log_dm
    halfwidth = math.log(2) / log_d + math.log(2) / log_dm + 1
    return coeff, halfwidth


def ref_lattice(d, dm, l, h_plus, h_minus):
    return d**l * h_plus + float(dm) ** (-l) * h_minus


def ref_epsilons(d, dm):
    log_d = math.log(d)
    log_dm = math.log(dm)
    eps1 = math.log(1 + log_d / log_dm) / log_d + math.log(1 + log_dm / log_d) / log_dm
    eps2 = eps1 + (1 / log_d + 1 / log_dm) * math.log(max(d, dm))
    return eps1, eps2


def ref_minimum_location(d, dm, h_plus, h_minus):
    log_d = math.log(d)
    log_dm = math.log(dm)
    return (math.log(h_minus * log_dm) - math.log(h_plus * log_d)) / (log_d + log_dm)


def ref_canonical_bounds(d, dm, n, flo, fhi, blo, bhi):
    d_pow = float(d**n)
    dm_pow = float(dm**n)
    return (flo / d_pow + blo / dm_pow, fhi / d_pow + bhi / dm_pow)


# -- one degree against two, over wide inputs --------------------------------------

@settings(max_examples=300, deadline=None)
@given(d=DELTAS, c2_fwd=WIDE, c2_inv=WIDE, inequality=WIDE, n=st.integers(2, 40))
def test_the_tails_and_lower_constant_match_the_two_degree_forms(d, c2_fwd, c2_inv, inequality, n):
    engine = _engine(d, c2_fwd, c2_inv, inequality, n)
    assert (engine.tail(True), engine.tail(False), engine.error_budget()) == ref_tails(d, d, c2_fwd, c2_inv, n)
    assert engine.lower_bound_constant() == ref_lower_constant(d, d, inequality)


@settings(max_examples=300, deadline=None)
@given(d=DELTAS, at_fx=WIDE, at_fix=WIDE, at_x=WIDE)
def test_the_residual_matches_the_two_degree_form(d, at_fx, at_fix, at_x):
    with mock.patch.object(canonical, "hcanonical_iterates", _values(at_fx, at_fix, at_x)):
        residual = canonical.functional_equation_residual(_engine(d), None)
    assert residual == ref_residual(d, d, at_fx, at_fix, at_x)


@settings(max_examples=300, deadline=None)
@given(d=DELTAS, at_fx=WIDE, at_fix=WIDE, c2_fwd=WIDE, c2_inv=WIDE, h_plus=WIDE, h_minus=WIDE)
def test_the_hpm_pair_budget_and_slack_match_the_two_degree_forms(d, at_fx, at_fix, c2_fwd, c2_inv,
                                                                   h_plus, h_minus):
    engine = _engine(d, c2_fwd, c2_inv)
    with mock.patch.object(orbit, "_canonical_bounds", _bounds(at_fx, at_fix)):
        assert orbit.hpm_from_h(engine, None) == ref_hpm(d, d, at_fx, at_fix)
    err = ref_hpm_error_budget(d, d, ref_tails(d, d, c2_fwd, c2_inv, 12)[2])
    assert orbit._hpm_error_budget(engine) == err
    assert orbit._slack(engine, h_plus, h_minus) == ref_slack(d, d, err, h_plus, h_minus)
    assert orbit._log_height(engine, h_plus, h_minus) == ref_log_height(d, d, h_plus, h_minus)


@settings(max_examples=300, deadline=None)
@given(d=DELTAS, l=SHIFTS, h_plus=WIDE, h_minus=WIDE)
def test_the_count_law_lattice_and_minimum_law_match_the_two_degree_forms(d, l, h_plus, h_minus):
    coeff, spread = orbit._count_law(d)
    assert (coeff, spread + 1) == ref_count_law(d, d)  # counting_enclosure's coefficient and half-width
    assert orbit._lattice_value(d, l, h_plus, h_minus) == ref_lattice(d, d, l, h_plus, h_minus)
    assert orbit.min_height_epsilons(d) == ref_epsilons(d, d)
    assert orbit.minimum_location(d, h_plus, h_minus) == ref_minimum_location(d, d, h_plus, h_minus)


@settings(max_examples=300, deadline=None)
@given(d=DELTAS, n=st.integers(2, 40), lo=WIDE, width=WIDE)
def test_the_canonical_bounds_match_the_two_degree_form(d, n, lo, width):
    bounds = {n: (lo, lo + width), -n: (width, lo + width)}
    tracker = SimpleNamespace(h_bounds=bounds.__getitem__)
    with mock.patch.object(orbit, "_core_tracker", lambda engine, x: tracker):
        values = orbit._canonical_bounds(_engine(d, depth=n), None)
    assert values(0) == ref_canonical_bounds(d, d, n, lo, lo + width, width, lo + width)


def test_every_lattice_shift_matches_at_every_degree():
    for d in range(2, 65):
        for l in range(-60, 61):
            assert orbit._lattice_value(d, l, 0.7, 1.3) == ref_lattice(d, d, l, 0.7, 1.3)


# -- on real engines ----------------------------------------------------------------

@pytest.mark.parametrize("p, depth", [("x^2", 12), ("x^3", 8), ("x^4", 6)])
def test_the_engine_readers_match_the_two_degree_forms(p, depth):
    engine = make_engine(henon(1, parse_poly(p)), depth=depth)
    d, x = engine.delta, (Fraction(3), Fraction(0))
    at_fx, at_fix = _midpoints(engine, x)
    h_plus, h_minus = orbit.hpm_from_h(engine, x)
    assert (h_plus, h_minus) == ref_hpm(d, d, at_fx, at_fix)
    threshold = math.exp(12)
    enclosure = orbit.counting_enclosure(engine, x, threshold)
    coeff, halfwidth = ref_count_law(d, d)
    assert enclosure.halfwidth == halfwidth
    assert enclosure.predicted == coeff * math.log(threshold) - ref_log_height(d, d, h_plus, h_minus)
    record = orbit.build_orbit_record(engine, x, 3)
    assert [s.h_hat for s in record.samples] == [ref_lattice(d, d, l, h_plus, h_minus) for l in range(-3, 4)]
