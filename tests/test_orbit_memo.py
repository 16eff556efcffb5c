"""The one-slot exact orbit a map holds, against maps that hold none.

Hypothesis drives random interleaved query sequences at random rational
points through one engine per map; every answer (value or refusal text)
must equal the answer of a freshly built copy of the map, and each map must
hold at most one orbit afterwards.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeheights import (
    PlaneHeightsError,
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
)
from planeheights.automorphism import Orbit
from planeheights.heights import lift

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
QUERIES = ("hplus", "hminus", "hcanonical", "residual", "hpm", "periodic", "counting")

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
