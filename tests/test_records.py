"""Value semantics of the result and map types.

Results and maps are `typing.NamedTuple` records: their repr is the
`Name(field=value, ...)` text, their fields cannot be assigned, and equality
and hashing read the fields alone.  A record holds only the values that
define it: a map is its polynomials `(fwd, inv)`, so maps with the same
polynomials are equal however they were built, and an engine is its inputs
`(g, delta, gamma, depth, digit_cap)`.  A map, an engine and an escape box
keep their caches (compiled forms, the held orbit, the engine's slot and
outer map, the tail constants) in the instance's `__dict__`, outside the
fields.  `DivisorClass` does arithmetic, so it is a plain class that no
tuple operator reaches.
"""

from fractions import Fraction

import pytest

from planeheights.automorphism import (
    InfinityPoint,
    PlaneAutomorphism,
    conjugate,
    dynamical_degree,
    from_description,
    henon,
    identity,
    indeterminacy_at_infinity,
    pair,
)
from planeheights.canonical import (
    HeightEngine,
    HeightEstimate,
    PeriodicityVerdict,
    classify_quadratic_recursion,
    hcanonical,
    is_periodic,
    make_engine,
)
from planeheights.heights import lift
from planeheights.orbit import (
    CountingEnclosure,
    build_orbit_record,
    count_below,
    counting_enclosure,
)
from planeheights.picard import DivisorClass, solve_pullbacks
from planeheights.ratpoly import parse_poly

PT = (Fraction(3), Fraction(0))


def _h2():
    return henon(1, parse_poly("x^2"))


def test_repr_is_the_field_listing():
    assert repr(HeightEstimate(1.5, 0.25, 0.125, 12, -0.5)) == (
        "HeightEstimate(value=1.5, tail=0.25, lower_slack=0.125, depth=12, rigorous_lower=-0.5)")
    assert repr(PeriodicityVerdict("periodic", period=2)) == (
        "PeriodicityVerdict(kind='periodic', period=2, detail='')")
    assert repr(is_periodic(_h2(), PT)) == (
        "PeriodicityVerdict(kind='not_periodic', period=None, "
        "detail='iterate +1 lies outside the escape box at infinity')")
    assert repr(CountingEnclosure(lower=-1.0, upper=3.5, observed=2, passed=True, predicted=1.25,
                                  halfwidth=2.0, slack=0.25)) == (
        "CountingEnclosure(lower=-1.0, upper=3.5, observed=2, passed=True, predicted=1.25, "
        "halfwidth=2.0, slack=0.25)")
    assert repr(indeterminacy_at_infinity(_h2())) == "InfinityPoint(xy=(0, 1))"
    assert str(InfinityPoint((1, 2))) == "(1:2)"


def _records():
    """One instance of every record type, as the library builds it."""
    f = _h2()
    engine = make_engine(f, depth=8)
    record = build_orbit_record(engine, PT, 1)
    return {
        "InfinityPoint": indeterminacy_at_infinity(f),
        "PlaneAutomorphism": f,
        "EscapeBox": f.escape_box,
        "HeightEngine": engine,
        "HeightEstimate": hcanonical(engine, PT),
        "PeriodicityVerdict": is_periodic(f, PT),
        "RecursionClassification": classify_quadratic_recursion("13/10", 4, 3),
        "CountingEnclosure": counting_enclosure(engine, PT, 1e4),
        "OrbitSample": record.samples[0],
        "OrbitRecord": record,
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_no_field_can_be_assigned(name):
    value = _records()[name]
    assert type(value).__name__ == name
    assert value._fields
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert value == tuple(value)  # a record is the tuple of its fields
    assert value._replace() == value


def test_equal_maps_built_by_different_routes_hash_equal():
    f = _h2()
    for other in (from_description({"type": "henon", "a": "1", "p": "x^2"}), conjugate(f, identity()),
                  _h2()._replace()):
        assert other == f and hash(other) == hash(f)
    assert make_engine(f, depth=8) == make_engine(from_description({"type": "henon", "a": "1", "p": "x^2"}),
                                                  depth=8)
    assert f != henon(1, parse_poly("x^2 + 1"))


def test_a_map_is_its_polynomials():
    # the same four polynomials, given as a pair or built by henon, are one map
    f = pair(*map(parse_poly, ("x^2 - y", "x", "y", "y^2 - x")))
    assert f == _h2() and hash(f) == hash(_h2())
    assert PlaneAutomorphism._fields == ("fwd", "inv")
    assert HeightEngine._fields == ("g", "delta", "gamma", "depth", "digit_cap")


def test_held_state_does_not_change_equality_or_hash():
    f, fresh = _h2(), _h2()
    before = hash(f)
    engine = make_engine(f, depth=8)
    engine_before = hash(engine)
    count_below(engine, PT, 1e4, "naive")  # compiles forms, builds the box, holds an orbit and a slot
    f.escape_box.tail_step((50.0, 50.0))
    assert {"_fwd_forms", "_inv_forms", "_orbit", "escape_box", "_dynamical_degree"} <= set(vars(f))
    assert "_held" in vars(engine) and "_tail_constants" in vars(f.escape_box)
    assert not vars(fresh)
    assert f == fresh and hash(f) == before == hash(fresh)
    assert engine == make_engine(fresh, depth=8) and hash(engine) == engine_before
    assert f.escape_box == fresh.escape_box and hash(f.escape_box) == hash(fresh.escape_box)
    assert repr(f) == repr(fresh)


def test_replace_copies_the_fields_and_no_cache():
    f = _h2()
    f.orbit(lift(PT)).capped(3, 10_000)
    assert dynamical_degree(f) == 2
    box = f.escape_box
    assert f.escape_box is box and vars(f)["escape_box"] is box  # computed once
    copy = f._replace()
    assert type(copy) is type(f) and copy == f and copy is not f
    assert not vars(copy)
    assert copy.orbit(lift(PT)) is not f.orbit(lift(PT))
    fwd, inv = f  # a record unpacks into its fields
    assert (fwd, inv) == (f.fwd, f.inv)


def test_divisor_class_is_not_a_tuple():
    pi = solve_pullbacks(2)[0]
    for field in ("d", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(pi, field, None)
    with pytest.raises(ValueError, match="wrong dimension"):
        DivisorClass(2, (Fraction(1),))
    for product in (lambda: 2 * pi, lambda: pi * 2):
        with pytest.raises(TypeError):
            product()
    with pytest.raises(ValueError, match="different surfaces"):
        pi + tuple(pi.coeffs)
    assert pi.scale(2) == pi + pi and pi.scale(2) != pi
    assert pi != tuple(pi.coeffs) and pi != (2, pi.coeffs)
    assert hash(pi) == hash(DivisorClass(2, pi.coeffs))
    assert repr(DivisorClass(2, tuple(map(Fraction, range(7))))) == (
        "DivisorClass(d=2, coeffs=(Fraction(0, 1), Fraction(1, 1), Fraction(2, 1), Fraction(3, 1), "
        "Fraction(4, 1), Fraction(5, 1), Fraction(6, 1)))")
