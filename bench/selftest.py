"""The benchmark's own checks.

    python3 bench/selftest.py smoke
    python3 bench/selftest.py steady [--runs 10] [--workloads a,b] [--seconds S]

`smoke` runs every workload on a tiny load (--seconds 1): the last line must
be the result object, every metric named in BENCHMARK.json must be present
with its unit, end-to-end values must be positive, and the count metrics of
two traced runs at one seed must be identical.  It also checks that the
benchmark refuses to run (non-zero exit, no result) in a directory that
holds only BENCHMARK.json and bench/.

`steady` makes two sets of `--runs` runs per workload, each run with its own
seed, and for every end-to-end metric reports the spread (distance between
the first and third quartile over the median) of each set and the change of
the median from the first set to the second.  It fails when a spread or a
median change exceeds the metric's bound, and flags a spread above a third
of the bound.

Run both from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIME_UNITS = {"s", "ms"}


def run_bench(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return result


def check_metrics(result: dict, specs) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in specs}, set(metrics) ^ {m["name"] for m in specs}
    for spec in specs:
        entry = metrics[spec["name"]]
        assert entry["unit"] == spec["unit"], (spec["name"], entry["unit"])
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), spec["name"]


def smoke(workloads) -> int:
    for name in workloads:
        result = result_of(run_bench(name, 1, 1, 0))
        check_metrics(result, SPEC["end_to_end"])
        zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
        assert not zero, f"{name}: end-to-end metrics not positive: {zero}"
        first = result_of(run_bench(name, 7, 1, 1))
        second = result_of(run_bench(name, 7, 1, 1))
        check_metrics(first, SPEC["per_layer"])
        counts = [m["name"] for m in SPEC["per_layer"]
                  if m["unit"] not in TIME_UNITS and m["name"] != "trace.overhead_ratio"]
        differ = [k for k in counts if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        assert not differ, f"{name}: count metrics differ between two traced runs: {differ}"
        print(f"smoke {name}: ok ({result['attempted']} ops, {result['failed']} failed; "
              f"{len(counts)} count metrics repeat)")
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, scratch / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(workloads[0], 1, 1, 0, cwd=scratch)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        assert proc.returncode != 0 and '"correct"' not in last, "ran without the program's sources"
        print(f"smoke paths-only directory: refused with exit {proc.returncode}")
    finally:
        shutil.rmtree(scratch)
    return 0


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steady(workloads, runs: int, seconds: float) -> int:
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    bad = 0
    for name in workloads:
        sets = []
        for first_seed in (1, runs + 1):
            values = {metric: [] for metric in bounds}
            for seed in range(first_seed, first_seed + runs):
                result = result_of(run_bench(name, seed, seconds, 0))
                for metric in bounds:
                    values[metric].append(result["metrics"][metric]["value"])
            sets.append(values)
        for metric, spec in bounds.items():
            a, b = sets[0][metric], sets[1][metric]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a if spec["better"] == "lower" else (med_a - med_b) / med_a
            spreads = (spread(a), spread(b))
            limit = spec["bound"]
            ok = worse <= limit and max(spreads) <= limit
            target = "" if max(spreads) < limit / 3 else "  (spread above a third of the bound)"
            bad += not ok
            print(f"{name:16} {metric:12} median {med_a:10.4f} -> {med_b:10.4f}  worse {worse:+.3f}  "
                  f"spread {spreads[0]:.3f} / {spreads[1]:.3f}  bound {limit}  {'ok' if ok else 'FAIL'}{target}",
                  flush=True)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="smoke and steadiness checks of the benchmark")
    parser.add_argument("mode", choices=("smoke", "steady"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    if args.mode == "smoke":
        return smoke(workloads)
    return steady(workloads, args.runs, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
