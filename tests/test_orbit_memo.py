"""The one-slot exact orbit a map holds and the one point an engine holds,
against maps and engines that hold none.

Hypothesis drives random interleaved query sequences at random rational
points through one engine per map; every answer (value or refusal text)
must equal the answer of a freshly built copy of the map, and each map must
hold at most one orbit afterwards.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeheights import (
    PlaneHeightsError,
    build_orbit_record,
    counting_enclosure,
    dynamical_degree,
    from_description,
    functional_equation_residual,
    hcanonical,
    hminus,
    hpm_from_h,
    hplus,
    is_periodic,
    make_engine,
    orbit_height,
)
from planeheights import orbit as orbit_mod
from planeheights.automorphism import Orbit, cap_bits
from planeheights.heights import lift, naive_height, top

H2 = {"type": "henon", "a": "1", "p": "x^2"}
H3 = {"type": "henon", "a": "-1", "p": "x^3 - 2*x + 1"}
DOCS = {
    "H2": H2,
    "H3": H3,
    "H4": {"type": "henon", "a": "2", "p": "x^4 + x"},
    "C6": {"type": "compose", "maps": [H2, H3]},
    "conj-H2": {"type": "conjugate", "inner": H2,
                "by": {"type": "triangular", "a": "1", "b": "1", "c": "0", "P": "1"}},
    "half": {"type": "henon", "a": "1/2", "p": "x^2 - 1/3*x"},
}
# shallow depths and a small digit cap keep one example to milliseconds; at
# the deep ones the canonical walks of most points reach the cap
DEPTH = {"H2": 5, "H3": 4, "H4": 3, "C6": 2, "conj-H2": 5, "half": 5}
DEEP = {"H2": 15, "H3": 9, "H4": 7, "C6": 5, "conj-H2": 15, "half": 15}
CAP = 10_000
QUERIES = ("hplus", "hminus", "hcanonical", "residual", "hpm", "periodic", "counting", "height", "record")

rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3]))
points = st.tuples(rationals, rationals)


def build_engine(name, deep=False):
    doc = DOCS[name]
    core, gamma = (doc, None) if doc["type"] != "conjugate" else (doc["inner"], doc["by"])
    return make_engine(from_description(core), gamma=gamma and from_description(gamma),
                       depth=(DEEP if deep else DEPTH)[name], digit_cap=CAP)


def answer(engine, query, pt, threshold):
    """repr of the query's result, or the type and text of its refusal."""
    z = engine.to_conjugated_frame(pt)
    calls = {
        "hplus": lambda: hplus(engine, z),
        "hminus": lambda: hminus(engine, z),
        "hcanonical": lambda: hcanonical(engine, pt),
        "residual": lambda: functional_equation_residual(engine, pt),
        "hpm": lambda: hpm_from_h(engine, pt),
        "periodic": lambda: is_periodic(engine.outer, pt, digit_cap=CAP),
        "counting": lambda: counting_enclosure(engine, pt, threshold),
        "height": lambda: orbit_height(engine, pt),
        "record": lambda: build_orbit_record(engine, pt, 3),
    }
    try:
        return repr(calls[query]())
    except PlaneHeightsError as exc:
        return f"{type(exc).__name__}: {exc}"


def held_orbits(auto):
    return [value for value in vars(auto).values() if isinstance(value, Orbit)]


@st.composite
def sequences(draw):
    pool = draw(st.lists(points, min_size=1, max_size=3))  # few points: queries repeat them
    steps = draw(st.lists(
        st.tuples(st.sampled_from(QUERIES), st.integers(0, len(pool) - 1), st.floats(5.0, 9.0)),
        min_size=1, max_size=6,
    ))
    return [(query, pool[k], math.exp(log_t)) for query, k, log_t in steps]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(DOCS)), deep=st.booleans(), seq=sequences())
def test_shared_orbit_answers_match_fresh_maps(name, deep, seq):
    engine = build_engine(name, deep)
    starts = set()
    for query, pt, threshold in seq:
        fresh = build_engine(name, deep)
        assert answer(engine, query, pt, threshold) == answer(fresh, query, pt, threshold)
        starts.update((lift(engine.to_conjugated_frame(pt)), lift(pt)))
    for auto in {id(engine.g): engine.g, id(engine.outer): engine.outer}.values():
        held = held_orbits(auto)
        assert len(held) <= 1
        assert all(orbit.start in starts for orbit in held)


def test_query_at_a_new_point_replaces_the_orbit():
    engine = build_engine("H2")
    first, second = (Fraction(3), Fraction(0)), (Fraction(1, 2), Fraction(2))
    hplus(engine, first)
    orbit = engine.g.orbit(lift(first))
    assert held_orbits(engine.g) == [orbit]
    hminus(engine, first)
    assert engine.g.orbit(lift(first)) is orbit  # same start: the same orbit, extended
    hcanonical(engine, second)
    assert held_orbits(engine.g) == [engine.g.orbit(lift(second))]
    assert engine.g.orbit(lift(second)) is not orbit


@pytest.mark.parametrize("name", sorted(DOCS))
def test_orbit_reads_match_steps(name):
    auto = build_engine(name).g
    start = lift((Fraction(1, 2), Fraction(-1)))
    orbit = auto.orbit(start)
    for forward, sign in ((True, 1), (False, -1)):
        pt = start
        for k in range(1, 4):
            pt = auto.forms(forward).step(pt)
            assert orbit[sign * k] == pt
            if k % 2:  # every other read through the cap, which measures the iterate before it
                orbit.capped(sign * k, cap_bits(CAP))
                assert orbit[sign * k] == pt
    for l in range(-3, 4):
        t = orbit[l]
        assert orbit.size(l) == (top(t).bit_length(), naive_height(t))


def test_invariants_are_computed_once_per_map():
    auto = from_description(DOCS["C6"])
    assert "_dynamical_degree" not in vars(auto)
    assert dynamical_degree(auto) == 6
    assert vars(auto)["_dynamical_degree"] == 6
    assert auto.forms(True) is auto.forms(True) and auto.forms(False) is auto.forms(False)
    fresh = from_description(DOCS["C6"])
    assert fresh == auto and "_dynamical_degree" not in vars(fresh)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(DOCS)), pt=points)
def test_neighbour_reads_match_walks_from_the_images(name, pt):
    # hhat(f x), hhat(f^-1 x) are read at orbit indices +1, -1 of gamma^-1(x);
    # they must equal hcanonical walked from the images themselves
    engine = build_engine(name)
    f, d, dm = engine.outer, engine.delta, engine.delta_minus
    fresh = [build_engine(name) for _ in range(3)]  # one map per start: nothing shared
    at_fx, at_fix, at_x = (hcanonical(e, y).value
                           for e, y in zip(fresh, (f.apply(pt), f.apply_inverse(pt), pt)))
    residual = abs(at_fx / d + at_fix / dm - (1 + 1 / (d * dm)) * at_x)
    assert functional_equation_residual(engine, pt) == residual
    kappa = (d * dm) / ((d * dm) ** 2 - 1)
    assert hpm_from_h(engine, pt) == (kappa * (dm * at_fx - at_fix / dm), kappa * (d * at_fix - at_fx / d))


def _counted(monkeypatch):
    """Calls of is_periodic and hpm_from_h through the orbit module, and
    trackers built, from here on."""
    calls = Counter()
    for name in ("is_periodic", "hpm_from_h"):
        def wrapper(*args, _name=name, _original=getattr(orbit_mod, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(orbit_mod, name, wrapper)
    init = orbit_mod.OrbitHeightTracker.__init__

    def counted_init(self, *args, **kwargs):
        calls["tracker"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(orbit_mod.OrbitHeightTracker, "__init__", counted_init)
    return calls


def test_an_engine_holds_one_verdict_pair_and_tracker_per_point(monkeypatch):
    engine = build_engine("conj-H2")
    calls = _counted(monkeypatch)
    x, other = (Fraction(3), Fraction(0)), (Fraction(-2), Fraction(1))
    record = build_orbit_record(engine, x, 4)
    counts = [counting_enclosure(engine, x, math.exp(t)).observed for t in (9, 15, 21)]
    assert orbit_height(engine, x) == record.orbit_height
    assert calls == {"is_periodic": 1, "hpm_from_h": 1, "tracker": 1}
    counting_enclosure(engine, other, math.exp(9))  # another point replaces the slot
    assert counting_enclosure(engine, x, math.exp(21)).observed == counts[-1]
    assert calls == {"is_periodic": 3, "hpm_from_h": 3, "tracker": 3}
    fresh = build_engine("conj-H2")
    assert engine == fresh and repr(engine) == repr(fresh)


def test_an_engine_holds_no_refusal(monkeypatch):
    # C6 at depth 5 under a 10^4-digit cap: the verdict is decided, but the
    # walks behind (hhat+, hhat-) pass the cap
    engine = make_engine(from_description(DOCS["C6"]), depth=5, digit_cap=CAP)
    calls = _counted(monkeypatch)
    refusals = []
    for _ in range(2):
        with pytest.raises(PlaneHeightsError) as caught:
            orbit_height(engine, (Fraction(3), Fraction(0)))
        refusals.append(f"{type(caught.value).__name__}: {caught.value}")
    assert refusals == ["ResourceCapError: coordinate exceeded the digit cap at iterate +5"] * 2
    assert calls == {"is_periodic": 1, "hpm_from_h": 2}
