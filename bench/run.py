"""planeheights benchmark: one seeded workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  Each
run prints a human-readable report, then as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones of a
traced pass (see bench/README.md).

Load model: a closed loop with one caller in one process.  The workload's
seeded pool of ops is run in whole passes until --seconds have elapsed (at
least MIN_PASSES passes).  A fixed calibration kernel runs before every op,
and each op's time is scaled by the machine's speed at that moment (see
bench/README.md, "Machine-speed normalisation").
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from fractions import Fraction
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 2
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many ops beyond it
SETUP_PROBES = 9  # after one discarded warm-up probe
IMPORT_PROBES = 3
HARD_LIMIT_S = 150.0  # stop starting passes after this, whatever --seconds says

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- machine-speed calibration ------------------------------------------------------

# On a shared machine other tenants change the speed of this process by up to
# 1.5x, in bursts of a fraction of a second to tens of seconds and in drifts
# over minutes.  A fixed kernel timed right before every op measures the speed
# at that moment; it runs none of the program's code, so a change to the
# program cannot move it.
CALIBRATION_REF_S = 0.00085  # the kernel's mean time on the machine the bounds were set on
CALIBRATION_WINDOW = 9  # samples whose median gives the speed around one op
_CAL_BIG = 3**4000 + 1
_CAL_MOD = 7 * _CAL_BIG + 3


def calibration_sample() -> float:
    """Seconds taken by one run of the kernel: Fraction arithmetic, big-integer
    products and dict stores, the kinds of work the program does."""
    start = perf_counter()
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(k, k + 7) * Fraction(k + 1, 3)
    x = _CAL_BIG
    for _ in range(3):
        x = x * x % _CAL_MOD
    table = {}
    for k in range(300):
        table[k] = k * k % 17
    return perf_counter() - start


def slowdowns(samples) -> list:
    """Per sample, the median of the CALIBRATION_WINDOW samples around it over
    the reference time: how much slower than the reference the machine ran."""
    half = CALIBRATION_WINDOW // 2
    return [statistics.median(samples[max(0, k - half):k + half + 1]) / CALIBRATION_REF_S
            for k in range(len(samples))]


# -- running ops ----------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = {}  # op label -> first message
        self.executions = []  # (op index, seconds, completed) of every op call, in order
        self.calibration = []  # timed runs: one calibration sample right before each op call
        self.pass_times = []
        self.child_rss_kb = 0
        self.stdout_bytes = 0

    def run_op(self, op, index: int) -> float:
        from workloads import CliRun, OpFailed, WrongAnswer

        start = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an exception the workload did not expect
            elapsed = perf_counter() - start
            self.executions.append((index, elapsed, False))
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return elapsed
        elapsed = perf_counter() - start
        self.executions.append((index, elapsed, True))
        self.attempted += 1
        if isinstance(out, CliRun):
            self.child_rss_kb = max(self.child_rss_kb, out.max_rss_kb)
            self.stdout_bytes += len(out.stdout)
        try:
            op.check(out)
        except WrongAnswer as exc:
            self.wrong += 1
            self._fail(op, f"wrong answer: {exc}", counted=True)
        except OpFailed as exc:
            self._fail(op, str(exc), counted=True)
        return elapsed

    def _fail(self, op, message: str, counted: bool = False):
        if not counted:
            self.attempted += 1
        self.failed += 1
        self.failures.setdefault(op.label, message[:300])

    def run_passes(self, ops, seconds: float, min_passes: int, started: float, calibrate: bool = False):
        while True:
            pass_s = 0.0
            for i, op in enumerate(ops):
                if calibrate:
                    self.calibration.append(calibration_sample())
                pass_s += self.run_op(op, i)
            self.pass_times.append(pass_s)
            elapsed = perf_counter() - started
            if (elapsed >= seconds and len(self.pass_times) >= min_passes) or elapsed >= HARD_LIMIT_S:
                return


# -- set-up and import probes ------------------------------------------------------

def _child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def probe_seconds(argv, count: int, expect: bytes, normalise: bool = False) -> float:
    """Median wall time from starting `python3 argv` until it prints `expect`
    (one extra warm-up run is discarded); with `normalise`, each time is
    scaled by the machine's speed measured right before it."""
    times = []
    for i in range(count + 1):
        slowdown = 1.0
        if normalise:
            slowdown = statistics.median(calibration_sample() for _ in range(CALIBRATION_WINDOW)) / CALIBRATION_REF_S
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or line.strip() != expect:
                raise RuntimeError(f"probe {argv} failed (exit {proc.returncode}, said {line!r})")
        if i:
            times.append(elapsed / slowdown)
    return statistics.median(times)


def setup_seconds(workload: str) -> float:
    return probe_seconds([str(BENCH / "run.py"), "--workload", workload, "--setup-probe"], SETUP_PROBES,
                         b"ready", normalise=True)


def import_seconds() -> float:
    return probe_seconds(["-c", "import planeheights.cli; print('ready')"], IMPORT_PROBES, b"ready")


# -- environment -------------------------------------------------------------------

def environment() -> dict:
    import mpmath

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(SRC / "planeheights"),
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # never let git search above the checkout
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _tree_sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


# -- the two kinds of run ------------------------------------------------------------

def timed_run(workload, ops, seconds: float, setup_s: float):
    """Every op call counts, scaled by the machine's slowdown around it.  The
    latency percentiles are taken over the pool's ops, each at the mean of
    its calls, so their sample count is the pool size whatever the speed."""
    tally = Tally()
    tally.run_passes(ops, seconds, MIN_PASSES, perf_counter(), calibrate=True)
    calls = {}  # op index -> scaled seconds of its completed calls
    for (index, elapsed, completed), slowdown in zip(tally.executions, slowdowns(tally.calibration)):
        if completed:
            calls.setdefault(index, []).append(elapsed / slowdown)
    means = sorted(statistics.fmean(v) for v in calls.values())
    rank = max(1, len(means) - TAIL_BEYOND)  # nearest rank with TAIL_BEYOND ops beyond it
    rss_kb = tally.child_rss_kb if workload.subprocess_ops else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    completed = sum(len(v) for v in calls.values())
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": completed / sum(sum(v) for v in calls.values()),
        "op_p50_ms": 1000 * statistics.median(means),
        "op_tail_ms": 1000 * means[rank - 1],
        "peak_rss_mb": rss_kb / 1024,
    }
    raw = sum(elapsed for _, elapsed, done in tally.executions if done)
    notes = [
        f"{len(tally.pass_times)} passes of {len(ops)} ops; pass_s median {statistics.median(tally.pass_times):.4f} "
        f"min {min(tally.pass_times):.4f} max {max(tally.pass_times):.4f}",
        f"machine slowdown against the calibration reference: median {statistics.median(slowdowns(tally.calibration)):.3f}; "
        f"unscaled ops_per_s {completed / raw:.4f}",
        f"op_tail_ms is p{100 * rank / len(means):.1f} of {len(means)} ops at their mean scaled latency "
        f"({len(means) - rank} beyond it)",
        "peak_rss_mb is " + ("the largest CLI child" if workload.subprocess_ops else "this process"),
    ]
    return tally, {name: (metrics[name], unit) for name, unit in END_TO_END}, notes


def traced_run(workload, ops, seconds: float, spans_path: Path):
    import tracing

    tally = Tally()
    tally.run_passes(ops, seconds / 2, 1, perf_counter())
    untraced = statistics.median(tally.pass_times)
    tally.stdout_bytes = 0
    rec = tracing.install()
    traced = 0.0
    with rec.span("pass"):
        for index, op in enumerate(ops):
            rec.begin_op(index)
            with rec.span("op"):
                traced += tally.run_op(op, index)
    rec.write_spans(spans_path)
    layers = rec.layer_metrics(len(ops))
    layers["trace.overhead_ratio"] = traced / untraced
    layers["cli.stdout_bytes"] = tally.stdout_bytes
    layers["cli.import_s"] = import_seconds() if workload.subprocess_ops else 0.0
    notes = [
        f"untraced pass {untraced:.4f} s (median of {len(tally.pass_times)}), traced pass {traced:.4f} s: "
        f"tracing overhead x{layers['trace.overhead_ratio']:.3f}",
        f"{len(rec.spans)} spans written to {spans_path.relative_to(ROOT)}",
    ]
    return tally, {name: (layers[name], unit) for name, unit in tracing.PER_LAYER}, notes


def main(argv=None) -> int:
    if not (SRC / "planeheights" / "__init__.py").is_file():
        print(f"error: no planeheights sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    args = parse_args(argv)

    from workloads import WORKLOADS, Context, setup_probe

    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    workload = WORKLOADS[args.workload]
    setup_s = setup_seconds(args.workload) if not args.trace else 0.0
    corpus = workload.setup()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        ctx = Context(str(ROOT), workdir, in_process=bool(args.trace))
        ops = workload.make_ops(corpus, random.Random(args.seed), ctx)
        if args.trace:
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tally, metrics, notes = traced_run(workload, ops, args.seconds, spans_path)
        else:
            tally, metrics, notes = timed_run(workload, ops, args.seconds, setup_s)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for note in notes:
        print(note)
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"failed_ratio {ratio:.4f} ({tally.failed} failed of {tally.attempted} attempted, "
          f"{tally.wrong} wrong answers)")
    for label, message in sorted(tally.failures.items()):
        print(f"  failed op [{label}]: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
