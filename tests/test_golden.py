"""Golden CLI outputs: the stdout bytes and exit code of fixed `height`,
`orbit`, `canheight`, `dyndeg`, `periodic` and `picard` commands must not
change.  The files under tests/data/golden/ hold the expected stdout of each
case (`<name>.out`) and the map and point inputs; regenerate a file only for
an intended change of output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planeheights
from planeheights.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


def _orbit_h2(fmt):
    return ["orbit", "--map", "h2.json", "--point", "3,0", "--T-grid", "5:21:9",
            "--window", "4", "--format", fmt]


# name -> (argv with paths relative to GOLDEN, exit code)
CASES = {
    "orbit_h2_json": (_orbit_h2("json"), 0),
    "orbit_h2_csv": (_orbit_h2("csv"), 0),
    "orbit_h2_text": (_orbit_h2("text"), 0),
    "orbit_c6_text": (["orbit", "--map", "c6.json", "--point", "1,1", "--depth", "5",
                       "--window", "3", "--T", "1e5"], 0),
    "canheight_h2_json": (["canheight", "--map", "h2.json", "--points", "points.txt",
                           "--format", "json"], 0),
    "canheight_conj_h2_json": (["canheight", "--map", "conj_h2.json", "--points", "points.txt",
                                "--format", "json"], 0),
    # rational points where the exact walk meets common factors at the primes
    # of the escape box's K: H4, whose inverse has denominator 2 (K = 4); C6
    # at denominator 2 (K = 1); and H2 conjugated by (x + y, x - y), whose
    # box basis has determinant -2
    "canheight_h4_json": (["canheight", "--map", "h4.json", "--points", "points.txt",
                           "--format", "json", "--depth", "6"], 0),
    "canheight_c6_half_json": (["canheight", "--map", "c6.json", "--points", "c6_half_points.txt",
                                "--format", "json", "--depth", "5"], 0),
    "canheight_conj_det2_h2_json": (["canheight", "--map", "conj_det2_h2.json", "--points",
                                     "points.txt", "--format", "json"], 0),
    # a fixed point of H2, and one of H3 seen through the nonlinear conjugator
    # of conj_tri_h3, whose own map is not regular
    "periodic_h2_json": (["periodic", "--map", "h2.json", "--point", "2,2", "--format", "json"], 0),
    "periodic_conj_tri_h3_text": (["periodic", "--map", "conj_tri_h3.json", "--point", "3/2,0"], 0),
    "periodic_h2_csv": (["periodic", "--map", "h2.json", "--point", "2,2", "--format", "csv"], 0),
    # not periodic: the first iterate leaves the escape box
    "periodic_h2_not_text": (["periodic", "--map", "h2.json", "--point", "3,0"], 1),
    "canheight_h2_csv": (["canheight", "--map", "h2.json", "--points", "points.txt",
                          "--format", "csv"], 0),
    "canheight_h2_text": (["canheight", "--map", "h2.json", "--points", "points.txt"], 0),
    # --c-lower adds the rigorous lower bound `(>= ...)` to the hcanonical line
    "canheight_h2_clower_text": (["canheight", "--map", "h2.json", "--point", "3,0",
                                  "--c-lower", "1"], 0),
    "dyndeg_c6_csv": (["dyndeg", "--map", "c6.json", "--format", "csv"], 0),
    "picard_d3_csv": (["picard", "--d", "3", "--format", "csv"], 0),
    "picard_d3_text": (["picard", "--d", "3"], 0),
}
# one --point and a point file, in every format
for _fmt in ("json", "csv", "text"):
    CASES[f"height_{_fmt}"] = (["height", "--point", "3/2,5", "--points", "points.txt",
                                "--format", _fmt], 0)
# dyndeg on a regular composite, an affine conjugate and a conjugate by the
# nonlinear, rational triangular map (x + y^2/2, -y + 1), which is not regular
for _map in ("c6", "conj_h2", "conj_tri_h3"):
    for _fmt in ("json", "text"):
        CASES[f"dyndeg_{_map}_{_fmt}"] = (["dyndeg", "--map", f"{_map}.json", "--format", _fmt], 0)


def resolve(argv):
    return [str(GOLDEN / arg) if arg.endswith((".json", ".txt")) else arg for arg in argv]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(capsys, name):
    argv, expected_code = CASES[name]
    code = main(resolve(argv))
    out = capsys.readouterr().out
    assert code == expected_code
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


def _picard_digests():
    lines = (GOLDEN / "picard_json.sha256").read_text().splitlines()
    return dict(line.split() for line in lines)


@pytest.mark.parametrize("d", range(2, 17))
def test_golden_picard_json(capsys, d):
    """`picard --d N --format json` for d = 2..16 is pinned by the sha256 of
    its stdout; the d = 16 output is also kept whole, for the CI `cmp` step."""
    assert main(["picard", "--d", str(d), "--format", "json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == _picard_digests()[str(d)]
    if d == 16:
        assert out == (GOLDEN / "picard_d16_json.out").read_bytes()


def test_runs_on_the_standard_library_alone():
    """Under `python -S` no site-packages directory is importable, so the
    package must need nothing outside the standard library: the classifier
    runs, and the orbit H2 json case reproduces its golden output."""
    env = {**os.environ, "PYTHONPATH": str(Path(planeheights.__file__).parents[1])}
    code = ("import planeheights.cli\n"
            "from planeheights.canonical import classify_quadratic_recursion\n"
            "print(classify_quadratic_recursion('13/10', 4, 30).regime)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "diverges\n"
    argv, _ = CASES["orbit_h2_json"]
    proc = subprocess.run([sys.executable, "-S", "-m", "planeheights.cli", *resolve(argv)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "orbit_h2_json.out").read_bytes()
