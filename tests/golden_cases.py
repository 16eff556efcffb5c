"""The golden CLI cases: each name maps to the argv of one command and its
exit code, and tests/data/golden/<name>.out holds its expected stdout.

`tests/test_golden.py` runs each case in process.  Run as a script,

    python tests/golden_cases.py

this module replays every case, and `picard --d 16 --format json`, as a
`python -m planeheights.cli` process, compares the stdout bytes and the exit
code of each, and exits 1 when any differs.  It imports only the standard
library, so it checks an install of the package with no extras.
"""

import subprocess
import sys
from pathlib import Path

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


def replay() -> int:
    """Run every case, and picard d = 16 in json, as a CLI process; the
    number of cases whose stdout or exit code differs from the golden."""
    cases = {**CASES, "picard_d16_json": (["picard", "--d", "16", "--format", "json"], 0)}
    failed = 0
    for name, (argv, expected_code) in sorted(cases.items()):
        proc = subprocess.run([sys.executable, "-m", "planeheights.cli", *resolve(argv)],
                              capture_output=True, timeout=300)
        problems = []
        if proc.returncode != expected_code:
            problems.append(f"exit {proc.returncode}, expected {expected_code}")
        if proc.stdout != (GOLDEN / f"{name}.out").read_bytes():
            problems.append("stdout differs from the golden file")
        print(f"{name}: {'; '.join(problems) or 'ok'}", flush=True)
        if problems:
            failed += 1
            sys.stderr.buffer.write(proc.stderr)
    print(f"{len(cases) - failed} of {len(cases)} golden cases match")
    return failed


if __name__ == "__main__":
    sys.exit(1 if replay() else 0)
