"""CLI surface: formats, exit codes, schema validity, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import planeheights
from planeheights import automorphism
from planeheights.automorphism import load_map_file
from planeheights.cli import _engine, build_parser, main
from planeheights.ratpoly import BivarPoly, format_int, parse_poly
from planeheights.schemas import SCHEMAS

GOLDEN = Path(__file__).parent / "data" / "golden"
HENON2 = {"type": "henon", "a": "1", "p": "x^2"}
TRI = {"type": "triangular", "a": "1", "b": "1", "c": "0", "P": "y^2"}
COMP = {"type": "compose", "maps": [HENON2, {"type": "henon", "a": "-1", "p": "x^3 - 2*x + 1"}]}
CONJ = {"type": "conjugate", "inner": HENON2, "by": {"type": "triangular", "a": "1", "b": "1", "c": "0", "P": "1"}}


@pytest.fixture()
def maps(tmp_path):
    paths = {}
    for name, doc in (("henon2", HENON2), ("tri", TRI), ("comp", COMP), ("conj", CONJ)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_height_text(capsys):
    code, out, _ = run_cli(capsys, ["height", "--point", "3/2,5"])
    assert code == 0
    assert "log 10" in out and "2.30258509299" in out


def test_height_points_file(capsys, tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("# sample points\n3 0\n1/2 -7\n")
    code, out, _ = run_cli(capsys, ["height", "--points", str(pts)])
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_height_malformed_rational_exit_2(capsys):
    code, _, err = run_cli(capsys, ["height", "--point", "3//2,5"])
    assert code == 2
    assert "error" in err


def test_height_json_schema(capsys):
    code, out, _ = run_cli(capsys, ["height", "--point", "3,0", "--format", "json"])
    assert code == 0
    jsonschema.validate(json.loads(out), SCHEMAS["height"])


def test_dyndeg_henon(capsys, maps):
    code, out, _ = run_cli(capsys, ["dyndeg", "--map", maps["henon2"]])
    assert code == 0
    assert "delta=2" in out and "regular=true" in out


def test_dyndeg_triangular(capsys, maps):
    code, out, _ = run_cli(capsys, ["dyndeg", "--map", maps["tri"]])
    assert code == 0
    assert "delta=1" in out and "regular=false" in out


def test_dyndeg_composite(capsys, maps):
    code, out, _ = run_cli(capsys, ["dyndeg", "--map", maps["comp"], "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMAS["dyndeg"])
    assert payload["dynamical_degree"] == 6


def test_dyndeg_prefix_past_the_degree_bound_is_a_resource_cap(capsys):
    # conj_tri_h3 has degree 6 and delta 3: N = 4 composes up to degree
    # 6 * 3^3 = 162, N = 5 would reach 486 and is refused with no composition
    path = str(GOLDEN / "conj_tri_h3.json")
    code, out, err = run_cli(capsys, ["dyndeg", "--map", path, "--N", "5"])
    assert (code, out) == (4, "")
    assert err == "resource cap: degree sequence to N = 5: deg f * delta^4 = 486 is above 256\n"


def test_dyndeg_refuses_a_regular_map_before_composing_it(capsys, tmp_path, monkeypatch):
    # (x^4000 - y, x) is regular, so delta = deg f = 4000 needs no
    # composition, and the default prefix N = 2 would reach degree
    # 16,000,000 (f o f took 10 s): refused before any composition
    path = tmp_path / "h4000.json"
    path.write_text(json.dumps({"type": "henon", "a": "1", "p": "x^4000"}))
    load = automorphism.load_map_file

    def no_composition(*args):
        raise AssertionError("composed a map past the degree cap")

    def load_then_forbid_composition(where):
        f = load(where)
        monkeypatch.setattr(BivarPoly, "compose", no_composition)
        return f

    monkeypatch.setattr(automorphism, "load_map_file", load_then_forbid_composition)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["dyndeg", "--map", str(path)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert err == "resource cap: degree sequence to N = 2: deg f * delta^1 = 16000000 is above 256\n"


def test_canheight_json_schema(capsys, maps):
    code, out, _ = run_cli(capsys, [
        "canheight", "--map", maps["henon2"], "--point", "3,0", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMAS["canheight"])
    assert payload["points"][0]["residual"] <= 1e-3


def _json_and_csv(capsys, argv):
    """The JSON payload and the CSV rows (header first) of one command."""
    outputs = []
    for fmt in ("json", "csv"):
        code, out, _ = run_cli(capsys, argv + ["--format", fmt])
        assert code in (0, 1)
        outputs.append(out)
    return json.loads(outputs[0]), list(csv.reader(io.StringIO(outputs[1])))


def test_canheight_csv_cells_are_the_json_values(capsys, maps, tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("3 0\n1/2 -7\n")
    payload, rows = _json_and_csv(capsys, ["canheight", "--map", maps["conj"], "--points", str(pts)])
    assert rows[0] == ["x", "y", "hplus", "hminus", "hcanonical", "upper_bound", "residual"]
    assert len(rows) == 1 + len(payload["points"]) == 3
    for row, e in zip(rows[1:], payload["points"]):
        values = (e["hplus"]["value"], e["hminus"]["value"], e["hcanonical"]["value"],
                  e["hcanonical"]["upper_bound"], e["residual"])
        assert row == [e["x"], e["y"], *(f"{v:.12g}" for v in values)]


@pytest.mark.parametrize("point, period", [("0,0", "1"), ("3,0", "")])
def test_periodic_csv_cells_are_the_json_values(capsys, maps, point, period):
    payload, rows = _json_and_csv(capsys, ["periodic", "--map", maps["henon2"], "--point", point])
    assert rows == [["verdict", "period"], [payload["verdict"], period]]
    assert payload["period"] == (int(period) if period else None)


def test_canheight_text_shows_the_rigorous_lower_bound(capsys, maps):
    argv = ["canheight", "--map", maps["henon2"], "--point", "3,0", "--c-lower", "1"]
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    est = json.loads(out)["points"][0]["hcanonical"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert (f"  hcanonical = {est['value']:.12g}  (<= {est['upper_bound']:.12g})"
            f"  (>= {est['rigorous_lower']:.12g})\n") in out
    code, out, _ = run_cli(capsys, argv[:-2])
    assert "(>=" not in out


def test_canheight_refuses_triangularizable(capsys, maps):
    code, _, err = run_cli(capsys, ["canheight", "--map", maps["tri"], "--point", "3,0"])
    assert code == 2
    assert "triangulariz" in err


def test_engine_commands_refuse_triangularizable_alike(capsys, maps):
    outcomes = [run_cli(capsys, [cmd, "--map", maps["tri"], "--point", "3,0"])
                for cmd in ("canheight", "orbit")]
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    assert code == 2 and out == ""
    assert "canonical heights exist only for dynamical degree >= 2; " \
           "triangularizable maps are excluded" in err


def test_canheight_conjugated_map(capsys, maps):
    code, out, _ = run_cli(capsys, [
        "canheight", "--map", maps["conj"], "--point", "3,0", "--format", "json",
    ])
    assert code == 0
    assert json.loads(out)["delta"] == 2


def test_conjugate_document_is_one_map():
    """dyndeg and periodic (load_map_file) and canheight and orbit (the
    engine's outer map) read a conjugate document as the same map."""
    path = os.path.join(os.path.dirname(__file__), "data", "golden", "conj_h2.json")
    engine = _engine(build_parser().parse_args(["canheight", "--map", path, "--point", "0,0"]))
    loaded = load_map_file(path)
    assert loaded.fwd == engine.outer.fwd and loaded.inv == engine.outer.inv
    # by o inner o by^-1 with by = (x + 1, y), inner = (x^2 - y, x)
    assert loaded.fwd == (parse_poly("x^2 - 2*x - y + 2"), parse_poly("x - 1"))


def test_invalid_map_json_reads_alike_in_every_command(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    errors = set()
    for argv in (["dyndeg"], ["periodic", "--point", "1,1"], ["canheight", "--point", "1,1"],
                 ["orbit", "--point", "1,1"]):
        code, out, err = run_cli(capsys, argv + ["--map", str(path)])
        assert code == 2 and out == ""
        errors.add(err)
    assert len(errors) == 1 and "invalid JSON in map file" in errors.pop()


@pytest.mark.parametrize("command", ["canheight", "orbit", "periodic"])
@pytest.mark.parametrize("missing", ["inner", "by"])
def test_conjugate_document_missing_a_field_is_an_input_error(capsys, tmp_path, command, missing):
    path = tmp_path / "conj.json"
    path.write_text(json.dumps({key: value for key, value in CONJ.items() if key != missing}))
    code, out, err = run_cli(capsys, [command, "--map", str(path), "--point", "1,1"])
    assert code == 2 and out == ""
    assert f"map description of type 'conjugate' is missing field '{missing}'" in err


@pytest.mark.parametrize("doc, kind, field", [
    ({"type": "henon", "a": "1", "p": 5}, "henon", "p"),
    ({**TRI, "P": 3}, "triangular", "P"),
    ({"type": "pair", "p": "y", "q": "x", "pinv": "y", "qinv": 7}, "pair", "qinv"),
    ({"type": "compose", "maps": 5}, "compose", "maps"),
    ({"type": "compose", "maps": "abc"}, "compose", "maps"),
    ({**CONJ, "inner": {**HENON2, "p": ["x^2"]}}, "henon", "p"),
    # rationals are JSON strings: no str() of an array, a boolean, null or a float
    ({**HENON2, "a": [1]}, "henon", "a"),
    ({**HENON2, "a": True}, "henon", "a"),
    ({**HENON2, "a": 1.5}, "henon", "a"),
    ({**TRI, "b": None}, "triangular", "b"),
    ({**CONJ, "inner": 5}, "conjugate", "inner"),
    ({**CONJ, "by": "x^2"}, "conjugate", "by"),
])
def test_map_document_field_of_the_wrong_type_is_an_input_error(capsys, tmp_path, doc, kind, field):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    for argv in (["dyndeg"], ["canheight", "--point", "1,1"]):
        code, out, err = run_cli(capsys, argv + ["--map", str(path)])
        assert code == 2 and out == ""
        assert f"map description of type '{kind}': field '{field}' must be a JSON" in err


@pytest.mark.parametrize("maps, index", [
    ([5, HENON2], 0),  # an element that is not an object
    ([HENON2, {"a": "1", "p": "x^2"}], 1),  # an element with no type
    ([HENON2, HENON2, []], 2),
])
def test_compose_element_that_is_not_a_map_is_refused_naming_its_index(capsys, tmp_path, maps, index):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"type": "compose", "maps": maps}))
    for argv in (["dyndeg"], ["canheight", "--point", "1,1"]):
        code, out, err = run_cli(capsys, argv + ["--map", str(path)])
        assert code == 2 and out == ""
        assert f"compose maps[{index}]: map description must be an object with a 'type' field" in err


@pytest.mark.parametrize("doc, message", [
    ({"type": "compose", "maps": [{**HENON2, "p": "x^^2"}]},
     "compose maps[0]: map description of type 'henon': field 'p': expected a number (at position 2)"),
    ({**HENON2, "a": "1/0"},
     "map description of type 'henon': field 'a': malformed rational '1/0': zero denominator"),
    ({"type": "compose", "maps": [HENON2, {**TRI, "b": "x"}]},
     "compose maps[1]: map description of type 'triangular': field 'b': malformed rational 'x'"),
    ({"type": "pair", "p": "y", "q": "x +", "pinv": "y", "qinv": "x"},
     "map description of type 'pair': field 'q': "),
], ids=["compose-poly", "zero-denominator", "compose-rational", "pair-poly"])
def test_map_text_that_does_not_parse_is_refused_naming_its_field(capsys, tmp_path, doc, message):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    for argv in (["dyndeg"], ["canheight", "--point", "1,1"]):
        code, out, err = run_cli(capsys, argv + ["--map", str(path)])
        assert code == 2 and out == ""
        assert message in err


@pytest.mark.parametrize("doc, message", [
    ({**CONJ, "by": {"type": "pair", "p": "x +", "q": "y", "pinv": "x", "qinv": "y"}},
     "conjugate by: map description of type 'pair': field 'p': expected a term (at position 3)"),
    ({**CONJ, "inner": {"type": "henon", "a": "1"}},
     "conjugate inner: map description of type 'henon' is missing field 'p'"),
    ({"type": "compose", "maps": [HENON2, {**CONJ, "inner": {"type": "henon", "a": "1"}}]},
     "compose maps[1]: conjugate inner: map description of type 'henon' is missing field 'p'"),
], ids=["by-parse", "inner-missing-field", "compose-conjugate"])
def test_a_refusal_inside_a_conjugate_names_inner_or_by(capsys, tmp_path, doc, message):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    for argv in (["dyndeg"], ["canheight", "--point", "1,1"], ["periodic", "--point", "1,1"]):
        code, out, err = run_cli(capsys, argv + ["--map", str(path)])
        assert code == 2 and out == ""
        assert message in err


@pytest.mark.parametrize("command, flags, message", [
    ("orbit", ["--T", "nan"], "threshold must be a positive finite number"),
    ("orbit", ["--T", "inf"], "threshold must be a positive finite number"),
    ("orbit", ["--T", "0"], "threshold must be a positive finite number"),
    ("orbit", ["--T", "-5"], "threshold must be a positive finite number"),
    ("orbit", ["--T-grid", "5:nan:3"], "--T-grid"),
    ("orbit", ["--T-grid", "5:800:2"], "--T-grid"),
    ("orbit", ["--T-grid", "5:21:x"], "--T-grid"),
    ("orbit", ["--T-grid", "a:21:3"], "--T-grid"),
    # 1e308 is finite, but its lower-bound constant 4 * c_lower is not
    ("canheight", ["--c-lower", "nan"], "c_lower nan gives a lower-bound constant that is not a finite"),
    ("canheight", ["--c-lower", "inf"], "c_lower inf gives a lower-bound constant that is not a finite"),
    ("canheight", ["--c-lower", "1e308"], "c_lower 1e+308 gives a lower-bound constant that is not a"),
], ids=["T-nan", "T-inf", "T-0", "T-minus-5", "grid-nan", "grid-overflow", "grid-steps-not-int",
        "grid-lo-not-number", "c-lower-nan", "c-lower-inf", "c-lower-1e308"])
def test_orbit_threshold_must_be_positive_and_finite(capsys, maps, command, flags, message):
    # a number flag that is not finite, or that makes a bound that is not
    # (canheight's --c-lower), is an input error with nothing on stdout
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, [command, "--map", maps["henon2"], "--point", "3,0", *flags,
                                          "--format", fmt])
        assert code == 2 and out == ""
        assert message in err


def test_orbit_refuses_a_bad_threshold_before_the_record(capsys):
    # the orbit record of C6 at (3, 0) hits the digit cap (exit 4); the
    # threshold is the input error, and it is reported first
    path = os.path.join(os.path.dirname(__file__), "data", "golden", "c6.json")
    code, out, err = run_cli(capsys, ["orbit", "--map", path, "--point", "3,0", "--T", "nan"])
    assert code == 2 and out == ""
    assert "threshold must be a positive finite number" in err


def test_orbit_json_schema(capsys, maps):
    code, out, _ = run_cli(capsys, [
        "orbit", "--map", maps["henon2"], "--point", "3,0",
        "--T-grid", "5:9:3", "--window", "3", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMAS["orbit"])
    assert all(row["pass"] for row in payload["counting"])


def test_orbit_csv_sections(capsys, maps):
    code, out, _ = run_cli(capsys, [
        "orbit", "--map", maps["henon2"], "--point", "3,0",
        "--T", "100", "--window", "2", "--format", "csv",
    ])
    assert code == 0
    scan, counting = out.split("\n\n")
    assert scan.splitlines()[0] == "l,x,y,h_nv,hhat"
    assert counting.splitlines()[0] == "T,count,predicted,lower,upper"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_orbit_window_14_writes_big_coordinates(capsys, maps, fmt):
    # iterates +-14 of (3, 0) under x^2 - y have about 7.7k digits, above
    # the interpreter's 4300-digit limit on int-to-str conversion
    code, out, err = run_cli(capsys, [
        "orbit", "--map", maps["henon2"], "--point", "3,0", "--window", "14", "--format", fmt,
    ])
    assert code == 0, err
    if fmt == "json":
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMAS["orbit"])
        x, y = 3, 0
        for _ in range(14):
            x, y = x * x - y, x
        assert payload["scan"][-1]["x"] == format_int(x)
        assert len(payload["scan"][-1]["x"]) > 7000


def test_a_window_14_point_round_trips_through_height_and_periodic(capsys, maps):
    # f^14 of (3, 0) has a 7,749-digit x, past the interpreter's 4300-digit
    # limit on str-to-int conversion too: the printed point parses back
    code, out, err = run_cli(capsys, [
        "orbit", "--map", maps["henon2"], "--point", "3,0", "--window", "14", "--format", "json",
    ])
    assert code == 0, err
    row = json.loads(out)["scan"][-1]
    assert row["l"] == 14 and len(row["x"]) == 7749
    point = f"{row['x']},{row['y']}"
    code, out, err = run_cli(capsys, ["height", "--point", point, "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["points"][0]["h_nv"] == row["h_nv"]
    code, out, err = run_cli(capsys, ["periodic", "--map", maps["henon2"], "--point", point])
    assert (code, out, err) == (1, "not_periodic: iterate +0 lies outside the escape box at infinity\n", "")


def test_a_refused_long_rational_is_quoted_short(capsys):
    code, out, err = run_cli(capsys, ["height", "--point", "9" * 7749 + "x,0"])
    assert code == 2 and out == ""
    assert "malformed rational '99999999999999999999...999999999x' (7750 characters)" in err
    assert len(err) < 200


def test_a_map_with_a_5000_digit_constant_is_read(capsys, tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"type": "henon", "a": "1", "p": "x^2 + " + "7" * 5000}))
    code, out, err = run_cli(capsys, ["dyndeg", "--map", str(path)])
    assert (code, err) == (0, "")
    assert out.startswith("d=2 d_minus=2 delta=2 regular=true")
    f = load_map_file(path)
    assert f.fwd[0].coefficient(0, 0) == (10**5000 - 1) // 9 * 7


def test_a_superscript_exponent_is_refused_in_its_field(capsys, tmp_path):
    # str.isdigit takes '\u00b2', which int refuses with a bare ValueError
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"type": "henon", "a": "1", "p": "x^\u00b2"}))
    code, out, err = run_cli(capsys, ["dyndeg", "--map", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: map description of type 'henon': field 'p': expected a number (at position 2)\n"


def test_height_of_point_with_huge_lift(capsys):
    # each denominator is within the parse limit, their lcm is not
    den_x, den_y = 10**4000 + 1, 10**4000 + 3
    code, out, err = run_cli(capsys, [
        "height", "--point", f"1/{den_x},1/{den_y}", "--format", "json",
    ])
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMAS["height"])
    assert payload["points"][0]["max_abs"] == format_int(den_x * den_y)


def test_orbit_periodic_point_rejected(capsys, maps):
    # the record refuses a fixed point before any sample, which would pass
    # the float range from window 1024 on
    for extra in ([], ["--window", "1024"]):
        code, _, err = run_cli(capsys, ["orbit", "--map", maps["henon2"], "--point", "0,0", *extra])
        assert code == 2
        assert err == "error: orbit scans need a non-periodic point\n"


@pytest.mark.parametrize("command, map_name, depth, delta, code", [
    ("canheight", "h2", 1023, 2, 0),
    ("canheight", "h2", 1024, 2, 2),
    ("canheight", "c6", 395, 6, 4),
    ("canheight", "c6", 396, 6, 2),
    ("orbit", "h2", 1100, 2, 2),
])
def test_depth_past_the_float_range_refused(capsys, command, map_name, depth, delta, code):
    # the tail bounds divide by (delta - 1) delta^depth; at the last depth
    # where that is a float, H2 runs at its fixed point and C6 reaches the
    # digit cap
    got, out, err = run_cli(capsys, [command, "--map", str(GOLDEN / f"{map_name}.json"),
                                     "--point", "0,0", "--depth", str(depth)])
    assert got == code
    if code == 2:
        assert out == ""
        assert err == (f"error: depth {depth} is too large for delta {delta}: "
                       "(delta - 1) * delta^depth does not fit a float\n")


def test_periodic_exit_codes(capsys, maps):
    code, out, _ = run_cli(capsys, ["periodic", "--map", maps["henon2"], "--point", "0,0"])
    assert code == 0 and "period 1" in out
    code, _, _ = run_cli(capsys, ["periodic", "--map", maps["henon2"], "--point", "3,0"])
    assert code == 1
    tri_shift = {"type": "triangular", "a": "1", "b": "1", "c": "1", "P": "0"}
    import json as j, tempfile, os
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as handle:
        j.dump(tri_shift, handle)
    code, _, _ = run_cli(capsys, ["periodic", "--map", path, "--point", "0,0"])
    assert code == 3
    os.unlink(path)


def test_periodic_far_point_leaves_the_box_under_any_cap(capsys, maps):
    # (10^10, 0) lies outside H2's escape box (R = 4), so the verdict needs
    # no iterate and no cap
    code, out, _ = run_cli(capsys, ["periodic", "--map", maps["henon2"], "--point", "10000000000,0",
                                    "--digit-cap", "10000"])
    assert code == 1
    assert out == "not_periodic: iterate +0 lies outside the escape box at infinity\n"


@pytest.mark.parametrize("point", ["1,1", "0,0", "2,1"])
def test_periodic_decides_on_the_core_of_a_nonaffine_conjugate(capsys, point):
    # conj_tri_h3 is H3 conjugated by the triangular (x + y^2/2, -y + 1): its
    # own map is not regular, and the verdict is H3's at by^-1 of the point
    path = os.path.join(os.path.dirname(__file__), "data", "golden", "conj_tri_h3.json")
    code, out, _ = run_cli(capsys, ["periodic", "--map", path, "--point", point])
    assert code == 1 and out.startswith("not_periodic: iterate +")


def test_periodic_json_schema(capsys, maps):
    code, out, _ = run_cli(capsys, [
        "periodic", "--map", maps["henon2"], "--point", "0,0", "--format", "json",
    ])
    assert code == 0
    jsonschema.validate(json.loads(out), SCHEMAS["periodic"])


def test_picard_json_schema(capsys):
    code, out, _ = run_cli(capsys, ["picard", "--d", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMAS["picard"])
    assert all(payload["checks"].values())


def test_picard_csv(capsys):
    code, out, _ = run_cli(capsys, ["picard", "--d", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "label,pi,phi,psi,D"
    assert len(lines) == 8  # header + 7 classes
    assert lines[1] == "H#,1,2,2,3/2"


def test_picard_rejects_d1(capsys):
    with pytest.raises(SystemExit):
        main(["picard", "--d", "1"])


def test_missing_map_file(capsys):
    code, _, err = run_cli(capsys, ["dyndeg", "--map", "/nonexistent.json"])
    assert code == 2


def test_run_config_invariants_enforced(maps):
    # depth >= 2, digit cap >= 10^4 (argparse exits with 2)
    for argv in (
        ["canheight", "--map", maps["henon2"], "--point", "3,0", "--depth", "1"],
        ["periodic", "--map", maps["henon2"], "--point", "3,0", "--patience", "0"],
        ["canheight", "--map", maps["henon2"], "--point", "3,0", "--digit-cap", "100"],
        ["canheight", "--map", maps["henon2"], "--point", "3,0", "--patience", "3"],  # no such flag
        ["orbit", "--map", maps["henon2"], "--point", "3,0", "--patience", "3"],  # no such flag
        ["periodic", "--map", maps["henon2"], "--point", "3,0", "--patience", "3"],  # no such flag
        ["periodic", "--map", maps["henon2"], "--point", "3,0", "--max-iter", "5"],  # no such flag
        ["orbit", "--map", maps["henon2"], "--point", "3,0", "--c-lower", "1"],  # canheight only
        ["orbit", "--map", maps["henon2"]],  # --point is required
        ["periodic", "--map", maps["henon2"]],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_resource_cap_exit_code(capsys, maps):
    code, _, err = run_cli(capsys, [
        "canheight", "--map", maps["henon2"], "--point", "3,0",
        "--depth", "40", "--digit-cap", "10000",
    ])
    assert code == 4
    assert "resource cap" in err


def test_orbit_unresolved_at_depth_is_a_resource_cap(capsys, tmp_path):
    # f^8(2, 1) on H3: certified not periodic, but hhat- reads <= 0 at depth 3
    h3 = {"type": "henon", "a": "-1", "p": "x^3 - 2*x + 1"}
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(h3))
    f = load_map_file(str(path))
    pt = (2, 1)
    for _ in range(8):
        pt = f.apply(pt)
    code, out, err = run_cli(capsys, [
        "orbit", "--map", str(path), "--point", f"{format_int(int(pt[0]))},{format_int(int(pt[1]))}",
        "--depth", "3",
    ])
    assert code == 4 and out == ""
    assert err.startswith("resource cap: canonical-height components did not resolve above zero at depth 3;")
    assert "the orbit is infinite" in err and "a larger --depth resolves them" in err


def test_orbit_window_refused_at_the_digit_cap(capsys, maps):
    # iterate 25 of (3, 0) under H2 has about 16M digits; the window is
    # capped like the canonical walks, so the refusal comes at iterate +15
    started = time.perf_counter()
    code, out, err = run_cli(capsys, [
        "orbit", "--map", maps["henon2"], "--point", "3,0", "--window", "25",
        "--digit-cap", "10000",
    ])
    assert code == 4 and out == ""
    assert "coordinate exceeded the digit cap at iterate +15" in err
    assert time.perf_counter() - started < 5


def test_orbit_counts_to_the_end_of_the_float_range(capsys, maps):
    # h_nv of the far iterates comes from the escape tail's log recurrence:
    # at T = 1e300 the canonical scan reads h_nv to about 2^13 T, and at
    # T = 1e308 the recurrence passes the float range, which is a refusal
    code, out, _ = run_cli(capsys, ["orbit", "--map", maps["henon2"], "--point", "3,0", "--T", "1e300",
                                    "--format", "json"])
    assert code == 0
    (row,) = json.loads(out)["counting"]
    assert (row["count"], row["pass"]) == (1994, True)
    code, out, err = run_cli(capsys, ["orbit", "--map", maps["henon2"], "--point", "3,0", "--T", "1e308"])
    assert code == 4 and out == ""
    assert err == "resource cap: the naive height passed the float range at iterate 1024\n"


def test_canheight_refuses_before_the_over_cap_step():
    # C6 at (3, 0): iterate +9 would have about 5M digits, over the default cap;
    # the refusal comes from the step bound, before that iterate is computed
    path = os.path.join(os.path.dirname(__file__), "data", "golden", "c6.json")
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "planeheights.cli", "canheight", "--map", path,
                           "--point", "3,0"], capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 4 and proc.stdout == ""
    assert "coordinate exceeded the digit cap at iterate +9" in proc.stderr
    assert time.perf_counter() - started < 5


def test_determinism_repeated_runs(capsys, maps):
    argv = ["orbit", "--map", maps["henon2"], "--point", "3,0",
            "--T-grid", "5:13:5", "--format", "json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def _child_env():
    # the child imports the package from wherever this process found it
    src = os.path.dirname(os.path.dirname(planeheights.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entry_point(maps):
    proc = subprocess.run(
        [sys.executable, "-m", "planeheights.cli", "height", "--point", "3,0"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert "log 3" in proc.stdout


def _child_imports(args, cwd=None) -> set:
    """The modules a `python <args>` child imports, from its -X importtime report."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True,
                          env=_child_env(), cwd=cwd, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def _package_modules(names) -> set:
    return {name for name in names if name.split(".")[0] == "planeheights"}


def test_cli_import_leaves_mpmath_unloaded():
    # the package has no runtime dependency; mpmath is only a test reference.
    # The parser needs only the errors module (DEFAULT_DIGIT_CAP), so a bare
    # import of the CLI loads none of the modules a command calls.
    imported = _child_imports(["-c", "import planeheights.cli"])
    assert "mpmath" not in imported
    assert _package_modules(imported) == {"planeheights", "planeheights.errors", "planeheights.cli"}


_MAP_MODULES = ("automorphism", "heights", "ratpoly")


@pytest.mark.parametrize("argv, modules", [
    (["height", "--point", "3,0"], ("heights", "ratpoly")),
    (["height", "--point", "3,0", "--format", "csv"], ("heights", "ratpoly")),
    (["dyndeg", "--map", "h2.json"], _MAP_MODULES),
    (["canheight", "--map", "h2.json", "--point", "3,0"], (*_MAP_MODULES, "canonical")),
    (["periodic", "--map", "h2.json", "--point", "2,2"], (*_MAP_MODULES, "canonical")),
    (["orbit", "--map", "h2.json", "--point", "3,0", "--window", "2", "--T", "1e5", "--format", "csv"],
     (*_MAP_MODULES, "canonical", "orbit")),
    (["picard", "--d", "3"], ("picard", "ratpoly")),
], ids=["height", "height-csv", "dyndeg", "canheight", "periodic", "orbit-csv", "picard"])
def test_each_command_loads_only_the_modules_it_calls(argv, modules):
    # a whole `python -m planeheights.cli` process, as a user runs it; the
    # cli module itself runs as __main__
    imported = _child_imports(["-m", "planeheights.cli", *argv], cwd=GOLDEN)
    assert _package_modules(imported) == {"planeheights", "planeheights.errors",
                                          *(f"planeheights.{name}" for name in modules)}
    assert "mpmath" not in imported
    assert ("csv" in imported) == ("csv" in argv)
