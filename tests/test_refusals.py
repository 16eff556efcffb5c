"""Input refusals: each invalid input is refused with its own exception type
and a message that names the cause, before any work is done."""

import argparse
from fractions import Fraction

import pytest

from planeheights.automorphism import degree_sequence, from_description, henon, pair, triangular
from planeheights.canonical import make_engine
from planeheights.cli import _gather_points, _parse_t_grid
from planeheights.errors import MapValidationError, PolyParseError
from planeheights.heights import growth_constant, log_int, read_point_file
from planeheights.orbit import count_below, count_exponential
from planeheights.picard import basis_labels, closed_form_excess
from planeheights.ratpoly import BivarPoly, parse_poly

X, Y, ONE = BivarPoly.var("x"), BivarPoly.var("y"), BivarPoly.const(1)
H2 = henon(1, parse_poly("x^2"))


def _point_file(tmp_path, text):
    path = tmp_path / "points.txt"
    path.write_text(text)
    return read_point_file(path)


CASES = {
    "zero component": (lambda tmp: pair(BivarPoly.zero(), Y, X, Y),
                       MapValidationError, "automorphism components cannot be zero"),
    "constant components": (lambda tmp: pair(ONE, ONE + ONE, X, Y),
                            MapValidationError, "automorphism components must have degree >= 1"),
    "triangular P not in y": (lambda tmp: triangular(1, 1, 0, X),
                              MapValidationError, "triangular: P must be a univariate polynomial in y"),
    "degree sequence to 0": (lambda tmp: degree_sequence(H2, 0), ValueError, "degree_sequence needs n_max >= 1"),
    "compose of no maps": (lambda tmp: from_description({"type": "compose", "maps": []}),
                           MapValidationError, "compose needs at least one map"),
    "engine depth 1": (lambda tmp: make_engine(H2, depth=1), ValueError, "depth must be >= 2"),
    "engine digit cap 9999": (lambda tmp: make_engine(H2, digit_cap=9999), ValueError, "digit cap must be >= 10^4"),
    "cli no point": (lambda tmp: _gather_points(argparse.Namespace(point=None, points=None)),
                     PolyParseError, "no point given: use --point X,Y or --points FILE"),
    "cli T-grid of two parts": (lambda tmp: _parse_t_grid("5:21"),
                                PolyParseError, "--T-grid expects lo:hi:steps, got '5:21'"),
    "cli T-grid of 0 steps": (lambda tmp: _parse_t_grid("5:21:0"), PolyParseError, "--T-grid needs at least one step"),
    "log of 0": (lambda tmp: log_int(0), ValueError, "log_int needs a positive integer"),
    "growth constant up": (lambda tmp: growth_constant(H2, "up"), ValueError, "direction must be 'fwd' or 'inv'"),
    "point file bad line": (lambda tmp: _point_file(tmp, "# c\n1 2\n3 4 5\n"),
                            PolyParseError, "line 3: expected 'x y', got '3 4 5'"),
    "point file bad rational": (lambda tmp: _point_file(tmp, "1 2\n\n3 4/0\n"),
                                PolyParseError, "line 3: malformed rational '4/0': zero denominator"),
    "count both": (lambda tmp: count_below(make_engine(H2), (Fraction(3), Fraction(0)), 1e4, "both"),
                   ValueError, "which must be 'naive' or 'canonical'"),
    "exponential count at delta 1": (lambda tmp: count_exponential(1.0, 1.0, 1, 2, 10.0),
                                     ValueError, "delta and delta_minus must be >= 2"),
    "variable z": (lambda tmp: BivarPoly.var("z"), ValueError, "unknown variable 'z'"),
    "negative power": (lambda tmp: X**-1, ValueError, "exponent must be a non-negative integer"),
    "unexpected character": (lambda tmp: parse_poly("x $"),
                             PolyParseError, "unexpected character '$' (at position 2)"),
    "exponent overflow": (lambda tmp: parse_poly("x^1000000*x"), PolyParseError, "exponent overflow (at position 11)"),
    "basis labels at d 1": (lambda tmp: basis_labels(1), ValueError, "d must be >= 2"),
    "closed-form excess at d 1": (lambda tmp: closed_form_excess(1), ValueError, "d must be >= 2"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_an_invalid_input_is_refused_with_its_type_and_message(case, tmp_path):
    call, kind, message = CASES[case]
    with pytest.raises(Exception) as info:
        call(tmp_path)
    assert type(info.value) is kind
    assert str(info.value) == message
