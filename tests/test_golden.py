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

from golden_cases import CASES, GOLDEN, resolve


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
