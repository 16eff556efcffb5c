"""Input refusals: each invalid input is refused with its own exception type
and a message that names the cause, before any work is done; and a cap
refusal of the orbit record names the window it walked."""

import argparse
from fractions import Fraction
from pathlib import Path

import pytest

from planeheights.automorphism import degree_sequence, from_description, henon, load_map_file, pair, triangular
from planeheights.canonical import make_engine
from planeheights.cli import _gather_points, _parse_t_grid, main
from planeheights.errors import MapValidationError, PolyParseError, ResourceCapError
from planeheights.heights import growth_constant, log_int, read_point_file
from planeheights.orbit import build_orbit_record, count_below, count_exponential
from planeheights.picard import basis_labels, closed_form_excess
from planeheights.ratpoly import BivarPoly, parse_poly

GOLDEN = Path(__file__).parent / "data" / "golden"
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


@pytest.mark.parametrize("command", ["height", "canheight"])
def test_a_point_file_with_no_point_is_named_as_the_cause(command, tmp_path, monkeypatch, capsys):
    """A --points file of comments and blank lines, with no --point, exits 2
    with a message that names the file, not one that says no file was given."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pts.txt").write_text("# no point here\n\n   \n")
    args = argparse.Namespace(point=None, points="pts.txt")
    with pytest.raises(PolyParseError, match="^point file 'pts.txt' holds no point$"):
        _gather_points(args)
    map_args = ["--map", str(GOLDEN / "h2.json")] if command == "canheight" else []
    assert main([command, *map_args, "--points", "pts.txt"]) == 2
    assert capsys.readouterr().err == "error: point file 'pts.txt' holds no point\n"


def test_the_orbit_records_cap_refusal_names_its_window(capsys):
    """C6 at (3, 0), depth 5, under a 10^4-digit cap: (hhat+, hhat-) reads
    the tracker, whose escape tails start under the cap, so the first
    refusal is that of the record's window walk at +6, which names the
    window and keeps the iterate, the bound and exit 4."""
    c6 = GOLDEN / "c6.json"
    engine = make_engine(load_map_file(c6), depth=5, digit_cap=10_000)
    with pytest.raises(ResourceCapError) as info:
        build_orbit_record(engine, (Fraction(3), Fraction(0)), 8)
    message = "orbit window [-8, 8]: coordinate exceeded the digit cap at iterate +6"
    assert (str(info.value), info.value.iterate, info.value.bound_bits) == (message, 6, 69293)
    assert main(["orbit", "--map", str(c6), "--point", "3,0", "--depth", "5", "--digit-cap", "10000",
                 "--T", "1e5"]) == 4
    assert capsys.readouterr().err == f"resource cap: {message}\n"
