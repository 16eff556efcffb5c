"""The four benchmark workloads: seeded inputs, the op each one times, and
the check each op's output must pass.

An op is a `call` (the timed program work) plus a `check` (untimed) that
raises `WrongAnswer` when the program returned an incorrect result and
`OpFailed` when it refused or errored where it should have succeeded (or
succeeded where a refusal was expected).  Any other exception from `call` is
an unexpected error and also counts as a failed op.

Input sizes are bounded on purpose: cost grows super-linearly with degree,
depth and coordinate height (see bench/README.md for the measurements that
set each bound).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List

H2_DOC = {"type": "henon", "a": "1", "p": "x^2"}
H3_DOC = {"type": "henon", "a": "-1", "p": "x^3 - 2*x + 1"}
H4_DOC = {"type": "henon", "a": "2", "p": "x^4 + x"}
SHIFT_DOC = {"type": "triangular", "a": "1", "b": "1", "c": "0", "P": "1"}  # (x + 1, y)

# The fixed corpus: H2, H3, H4, the delta-6 composite C6 = H2 o H3, and H2
# conjugated by the triangular shift.  "compose" applies right-to-left.
MAP_DOCS = {
    "H2": H2_DOC,
    "H3": H3_DOC,
    "H4": H4_DOC,
    "C6": {"type": "compose", "maps": [H2_DOC, H3_DOC]},
    "conj-H2": {"type": "conjugate", "inner": H2_DOC, "by": SHIFT_DOC},
}
DELTA = {"H2": 2, "H3": 3, "H4": 4, "C6": 6, "conj-H2": 2}
DEPTH_BY_DELTA = {2: 12, 3: 8, 4: 6, 6: 5}

# Reduced digit caps of the orbit-count refusal ops.  At the default cap of
# 2*10^6 digits the same refusals take 19 s (H4) to 225 s (H2 at (1/2, 1/3))
# before they fire, so they are left out for cost alone (a known defect).
REFUSAL_CAP_H4 = 10**5
REFUSAL_CAP_RATIONAL = 10**4


class WrongAnswer(Exception):
    """The program returned a result that fails its check."""


class OpFailed(Exception):
    """The program refused or errored where the workload expects success,
    or succeeded where the workload expects a refusal."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Context:
    root: str  # the checkout root
    workdir: str  # scratch directory inside the checkout, removed after the run
    in_process: bool = False  # cli: replay commands through main() in this process


@dataclass
class Workload:
    setup: Callable[[], dict]
    make_ops: Callable[[dict, object, Context], List[Op]]
    subprocess_ops: bool = False


def _require(cond: bool, message: str):
    if not cond:
        raise WrongAnswer(message)


def _engine_parts(doc):
    """A top-level conjugate document is the engine core plus conjugator
    (the same split the CLI makes); anything else is the core itself."""
    from planeheights import from_description

    if doc.get("type") == "conjugate":
        return from_description(doc["inner"]), from_description(doc["by"])
    return from_description(doc), None


def build_engines(names, digit_caps=None) -> dict:
    from planeheights import make_engine

    digit_caps = digit_caps or {}
    engines = {}
    for name in names:
        core, gamma = _engine_parts(MAP_DOCS[name])
        kwargs = {"digit_cap": digit_caps[name]} if name in digit_caps else {}
        engines[name] = make_engine(core, gamma=gamma, depth=DEPTH_BY_DELTA[DELTA[name]], **kwargs)
    return engines


def _rational_point(rng, num_max: int, dens) -> tuple:
    z = rng.choice(dens)
    return (Fraction(rng.randint(-num_max, num_max), z), Fraction(rng.randint(-num_max, num_max), z))


def _point_in_class(rng, z: int, m: int) -> tuple:
    """A point (X/z, Y/z) whose coordinates both have denominator exactly z,
    with max(|X|, |Y|) = m: the seed picks signs, which coordinate carries m,
    and the other numerator.  Orbit cost is set mostly by (z, m)."""
    other = rng.choice([k for k in range(1, m + 1) if math.gcd(k, z) == 1])
    nums = [m, other] if rng.random() < 0.5 else [other, m]
    return tuple(Fraction(rng.choice((-1, 1)) * n, z) for n in nums)


# Orbit cost grows without bound as a point nears the set of bounded
# orbits: on C6, (-1, -2) has hplus = 0.01, its periodicity check alone
# takes 2.5 s and its orbit op 15 s.  Orbit points are therefore drawn with
# both canonical-height components at least this floor.
COMPONENT_FLOOR = 0.25


def _orbit_point(rng, engine, coord_max: int, floor: float = COMPONENT_FLOOR) -> tuple:
    """An integral point with hplus and hminus >= floor, verified
    non-periodic (both checked at generation, outside the timed phase).  The
    component test comes first and the periodicity check runs at a small
    digit cap, so that generation stays cheap near the bounded orbits."""
    from planeheights import hminus, hplus, is_periodic

    while True:
        pt = (Fraction(rng.randint(-coord_max, coord_max)), Fraction(rng.randint(-coord_max, coord_max)))
        z = engine.to_conjugated_frame(pt)
        if min(hplus(engine, z).value, hminus(engine, z).value) < floor:
            continue
        if is_periodic(engine.outer, pt, digit_cap=10_000).kind == "not_periodic":
            return pt


def _stratified(rng, k: int, lo: float, hi: float) -> list:
    """k values spread over [lo, hi], one per equal-width stratum, in seeded order."""
    values = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(values)
    return values


def residual_bound(d: int, dm: int, budget: float) -> float:
    """Criterion-2-style propagated bound: each of the three canonical-height
    values in the functional equation is within the error budget E of its
    limit, so the residual is at most (1/d + 1/d_- + 1 + 1/(d d_-)) E."""
    return (1 / d + 1 / dm + 1 + 1 / (d * dm)) * budget * (1 + 2.0**-40)


# -- canheight-batch ------------------------------------------------------------

# Per map, the (denominator, largest numerator) class of each point in a
# pass.  Cost grows with both, and with the denominator most, so the classes
# are fixed and the seed picks points inside them.  C6 stays small: one C6
# point of height about log 40 took 4.9 s.  The 16 rational C6 points cost
# 95-125 ms each, three times any other op, so the tail (ten ops beyond it)
# falls inside that one tight class rather than on the border between the
# widely spread H3 and H4 classes.
_CLASSES = ((1, 9), (1, 5), (1, 3), (2, 7), (2, 3), (3, 8), (3, 4), (3, 2))
_C6_CLASSES = ((1, 4), (1, 3), (1, 2)) * 4 + ((2, 3), (2, 1)) * 8
CANHEIGHT_CLASSES = {
    "H2": _CLASSES * 2,
    "H3": _CLASSES * 2,
    "H4": _CLASSES * 2,
    "C6": _C6_CLASSES,
    "conj-H2": _CLASSES * 2,
}


def _setup_canheight() -> dict:
    return {"engines": build_engines(CANHEIGHT_CLASSES)}


def canheight_entry(engine, pt):
    """The per-point work of `planeheights canheight`."""
    from planeheights import functional_equation_residual, hcanonical, hminus, hplus

    z = engine.to_conjugated_frame(pt)
    hp = hplus(engine, z)
    hm = hminus(engine, z)
    hc = hcanonical(engine, pt)
    return hp, hm, hc, functional_equation_residual(engine, pt)


def check_canheight(engine, hp, hm, hc, residual):
    for est in (hp, hm, hc):
        _require(est.value <= est.upper_bound, f"value {est.value} above upper bound {est.upper_bound}")
    _require(hc.tail == engine.error_budget(), f"tail {hc.tail} != error budget {engine.error_budget()}")
    _require(hc.value == hp.value + hm.value, "hcanonical is not hplus + hminus")
    bound = residual_bound(engine.delta, engine.delta_minus, engine.error_budget())
    _require(0 <= residual <= bound, f"residual {residual} outside the propagated bound {bound}")


def _canheight_ops(corpus, rng, ctx) -> List[Op]:
    ops = []
    for name, classes in CANHEIGHT_CLASSES.items():
        engine = corpus["engines"][name]
        for z, m in classes:
            pt = _point_in_class(rng, z, m)
            ops.append(Op(
                f"{name} {pt[0]},{pt[1]}",
                lambda e=engine, p=pt: canheight_entry(e, p),
                lambda out, e=engine: check_canheight(e, *out),
            ))
    rng.shuffle(ops)
    return ops


# -- orbit-count ----------------------------------------------------------------

# map: ops per pass.  C6 ops cost about three times the others.  With 40
# cheap ops (refusals included) and 20 C6 ops, the median falls inside the
# cheap ops and the tail (the 50th op, ten beyond it) in the middle of the
# C6 ops, away from the border between the two.
ORBIT_MAPS = {"H2": 12, "H3": 12, "C6": 20, "conj-H2": 12}
ORBIT_REFUSALS = 4  # per pass, alternating an H4 start and a rational start on H2
ORBIT_WINDOW = 4
ORBIT_GRID_STEPS = 2
ORBIT_GRID_LO = 5.0


def _setup_orbit() -> dict:
    engines = build_engines(ORBIT_MAPS)
    engines.update({
        f"refuse-{name}": engine
        for name, engine in build_engines(
            ("H4", "H2"), {"H4": REFUSAL_CAP_H4, "H2": REFUSAL_CAP_RATIONAL}).items()
    })
    return {"engines": engines}


def t_grid(hi: float, steps: int = ORBIT_GRID_STEPS) -> list:
    """T = e^lo .. e^hi, the CLI's --T-grid lo:hi:steps."""
    return [math.exp(ORBIT_GRID_LO + i * (hi - ORBIT_GRID_LO) / (steps - 1)) for i in range(steps)]


def orbit_table(engine, pt, grid):
    """The work of `planeheights orbit` for one (map, point): the orbit
    record, then one counting enclosure per threshold."""
    from planeheights import build_orbit_record, counting_enclosure

    record = build_orbit_record(engine, pt, window=ORBIT_WINDOW)
    return record, [counting_enclosure(engine, pt, t) for t in grid]


def check_orbit(out):
    record, enclosures = out
    _require(math.isfinite(record.orbit_height), "non-periodic point got an infinite orbit height")
    for enc in enclosures:
        _require(enc.passed, f"count {enc.observed} outside [{enc.lower}, {enc.upper}]")
    counts = [enc.observed for enc in enclosures]
    _require(counts == sorted(counts), f"counts not monotone in T: {counts}")


def _expect_cap_refusal(fn):
    from planeheights import ResourceCapError

    try:
        fn()
    except ResourceCapError as exc:
        return exc
    return None


def _check_refused(out):
    if out is None:
        raise OpFailed("expected ResourceCapError, but the op completed")


def _orbit_ops(corpus, rng, ctx) -> List[Op]:
    engines = corpus["engines"]
    ops = []
    for name, count in ORBIT_MAPS.items():
        engine = engines[name]
        for hi in _stratified(rng, count, 9.0, 21.0):
            pt = _orbit_point(rng, engine, 6)
            grid = t_grid(hi)
            ops.append(Op(
                f"{name} {pt[0]},{pt[1]} T<=e^{hi:.2f}",
                lambda e=engine, p=pt, g=grid: orbit_table(e, p, g),
                check_orbit,
            ))
    full_grid = t_grid(21.0)
    for k in range(ORBIT_REFUSALS):
        if k % 2 == 0:
            engine = engines["refuse-H4"]
            pt = _orbit_point(rng, engine, 5, floor=0.0)
            label = f"refuse H4 {pt[0]},{pt[1]} cap {REFUSAL_CAP_H4}"
        else:
            engine = engines["refuse-H2"]
            pt = _point_in_class(rng, rng.choice((2, 3)), 2)  # both coordinates non-integral
            label = f"refuse H2 {pt[0]},{pt[1]} cap {REFUSAL_CAP_RATIONAL}"
        ops.append(Op(
            label,
            lambda e=engine, p=pt: _expect_cap_refusal(lambda: orbit_table(e, p, full_grid)),
            _check_refused,
        ))
    rng.shuffle(ops)
    return ops


# -- map-algebra ----------------------------------------------------------------

# Each generator is (x, y) -> (p(x) - a y, x) with p on a fixed monomial
# support.  Magnitudes are fixed per job and the seed picks the signs: a
# single 1/2 moves composition off the integer fast path (up to 4x the cost)
# and larger coefficients grow every composed term, so letting the seed pick
# magnitudes would make a pass's cost depend on the seed.
HENON_SUPPORT = {2: (2, 0), 3: (3, 1, 0), 4: (4, 1)}
# (Henon degrees applied right-to-left, leading coefficient 1/2 instead of 1,
# conjugated by an affine triangular map).  Degree products stay <= 6: one
# degree-16 conjugate took 210 s.  Each shape runs eight times per pass with
# its own seeded signs, which averages out the signs' effect on cost.  The
# integer H3 word, the costliest shape, runs eight more times: the 16 H3 jobs
# are the 16 costliest ops, so the tail (ten ops beyond it) falls in the
# middle of their class rather than at its lower edge, next to the H2oH2 jobs.
# The rational H3 and H2oH2 words are left out: each costs 0.7-1.1 s, as
# much as ten other jobs, so a pass's time would hang on a few ops.
MAP_JOBS = [
    ((2,), False, False), ((2,), True, False), ((2,), False, True), ((2,), True, True),
    ((3,), False, False), ((4,), False, False), ((4,), True, False),
    ((2, 2), False, False), ((2, 3), False, False), ((2, 3), True, False),
    ((3, 2), False, False), ((3, 2), True, False), ((2, 3), False, True), ((2, 3), True, True),
] * 8 + [((3,), False, False)] * 8
PICARD_D = range(2, 17)  # one table per d, in seeded order


def prefix_length(degree: int) -> int:
    """The `dyndeg` default prefix length at the time the workload was
    defined (the longest n <= 4 with degree^n <= 100, at least 2), fixed here
    so that the workload does not change when the CLI does."""
    n = 2
    while n < 4 and degree ** (n + 1) <= 100:
        n += 1
    return n


def _setup_map_algebra() -> dict:
    import planeheights  # noqa: F401  (the op builds its own maps)

    return {}


def _henon_doc(rng, degree: int, rational: bool) -> dict:
    """p has leading coefficient +-1 (or +-1/2), linear term +-1 and constant
    +-2; a is +-2.  Only the signs are seeded."""
    text = ""
    for k in HENON_SUPPORT[degree]:
        mag = "1/2" if rational and k == degree else ("2" if k == 0 else "1")
        mono = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        body = mag if not mono else (mono if mag == "1" else f"{mag}*{mono}")
        negative = rng.random() < 0.5
        text += (("- " if negative else "+ ") if text else ("-" if negative else "")) + body + " "
    return {"type": "henon", "a": rng.choice(("2", "-2")), "p": text.strip()}


def map_job(word_doc, gamma_doc):
    """Build the word (and its conjugate), then the dyndeg-style invariants
    and a height engine."""
    from planeheights import (conjugate, degree_sequence, dynamical_degree, from_description,
                              indeterminacy_at_infinity, is_regular, make_engine)

    core = from_description(word_doc)
    gamma = from_description(gamma_doc) if gamma_doc else None
    f = conjugate(core, gamma) if gamma else core
    delta = dynamical_degree(f)
    seq = degree_sequence(f, prefix_length(f.degree()))
    regular = is_regular(f)
    point = indeterminacy_at_infinity(f)
    engine = make_engine(core, gamma=gamma, depth=DEPTH_BY_DELTA[delta])
    return delta, seq, regular, point, engine


def check_map_job(degrees, out):
    delta, seq, regular, point, engine = out
    product = math.prod(degrees)
    _require(delta == product, f"dynamical degree {delta} != product of Henon degrees {product}")
    # Henon words, and their affine conjugates, are regular: deg f^n = delta^n.
    _require(regular, "Henon word reported non-regular")
    _require(seq == [delta ** (n + 1) for n in range(len(seq))], f"degree sequence {seq} for delta {delta}")
    _require(point.is_rational and point.xy == (0, 1), f"indeterminacy point {point} is not (0:1)")
    _require(engine.delta == delta, f"engine delta {engine.delta} != {delta}")


def picard_job(d: int):
    from planeheights import effective_excess, solve_pullbacks

    # the solver's lru_cache would turn every repeat into a lookup
    solve_pullbacks.cache_clear()
    return solve_pullbacks(d), effective_excess(d)


def check_picard(d, out):
    from planeheights.picard import closed_form_excess, closed_form_pullbacks

    pullbacks, excess = out
    _require(pullbacks == closed_form_pullbacks(d), f"solver differs from the closed form at d={d}")
    _require(excess == closed_form_excess(d), f"excess differs from the closed form at d={d}")
    _require(excess.is_effective(), f"excess not effective at d={d}")


def _map_algebra_ops(corpus, rng, ctx) -> List[Op]:
    ops = []
    for degrees, rational, conjugated in MAP_JOBS:
        words = [_henon_doc(rng, k, rational) for k in degrees]
        word_doc = words[0] if len(words) == 1 else {"type": "compose", "maps": words}
        gamma_doc = None
        if conjugated:
            gamma_doc = {"type": "triangular", "a": rng.choice(("1", "-1")), "b": rng.choice(("1", "-1")),
                         "c": rng.choice(("1", "-1")), "P": rng.choice(("2", "-2"))}
        shape = "o".join(f"H{k}" for k in degrees) + (" rational" if rational else "") + (" conj" if conjugated else "")
        ops.append(Op(
            shape,
            lambda w=word_doc, g=gamma_doc: map_job(w, g),
            lambda out, dg=degrees: check_map_job(dg, out),
        ))
    for d in PICARD_D:
        ops.append(Op(f"picard d={d}", lambda d=d: picard_job(d), lambda out, d=d: check_picard(d, out)))
    rng.shuffle(ops)
    return ops


# -- cli ------------------------------------------------------------------------

CLI_MAPS = ("H2", "H3", "H4", "C6", "conj-H2")


def _setup_cli() -> dict:
    import planeheights.cli  # noqa: F401  (what every CLI process imports)

    return {"engines": build_engines(CLI_MAPS)}


@dataclass
class CliRun:
    code: int
    stdout: bytes
    stderr: bytes
    max_rss_kb: int = 0


def run_cli_child(root, argv, timeout: float = 120.0) -> CliRun:
    """One whole `python -m planeheights.cli` process; its own peak RSS comes
    from wait4, so the parent never counts another child's memory."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.Popen([sys.executable, "-m", "planeheights.cli", *argv], cwd=root, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        # stderr carries at most an error line, far below the pipe buffer,
        # so reading stdout to the end first cannot deadlock
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return CliRun(proc.returncode, out, err, usage.ru_maxrss)


def run_cli_in_process(argv) -> CliRun:
    """The same command through `planeheights.cli.main` in this process (the
    traced replay of the mix).  Imports stay warm; the Picard solver's cache
    is cleared as a fresh process would find it."""
    from planeheights import solve_pullbacks
    from planeheights.cli import main

    solve_pullbacks.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return CliRun(code, out.getvalue().encode(), err.getvalue().encode())


def check_cli_output(expected_code: int, payload_check, run: CliRun):
    from planeheights.schemas import SCHEMAS
    import jsonschema

    if run.code != expected_code:
        tail = run.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        raise OpFailed(f"exit {run.code}, expected {expected_code}: {tail[0][:160]}")
    if expected_code not in (0, 1):
        return
    try:
        doc = json.loads(run.stdout)
        jsonschema.validate(doc, SCHEMAS[doc["command"]])
    except (ValueError, KeyError, jsonschema.ValidationError) as exc:
        raise WrongAnswer(f"output does not validate: {str(exc)[:160]}") from None
    if payload_check is not None:
        payload_check(doc)


def _cli_canheight_check(doc):
    bound = residual_bound(doc["delta"], doc["delta_minus"], doc["error_budget"])
    for entry in doc["points"]:
        hc = entry["hcanonical"]
        _require(hc["value"] <= hc["upper_bound"], "hcanonical above its upper bound")
        _require(entry["residual"] <= bound, f"residual {entry['residual']} above {bound}")


def _cli_orbit_check(doc):
    counting = doc["counting"]
    _require(all(row["pass"] for row in counting), "a counting enclosure failed")
    counts = [row["count"] for row in counting]
    _require(counts == sorted(counts), f"counts not monotone in T: {counts}")


def _cli_picard_check(doc):
    _require(all(doc["checks"].values()), f"picard checks failed: {doc['checks']}")


def _fmt_point(pt) -> str:
    return f"{pt[0]},{pt[1]}"


def cli_mix(corpus, rng, map_paths) -> list:
    """One cycle of the fixed command mix: (label, argv, expected exit, payload check)."""
    engines = corpus["engines"]
    escaping = (Fraction(rng.randint(3, 9)), Fraction(rng.randint(-3, 3)))  # |x| >= 3 >= |y|: H2 orbit escapes
    dyndeg_map = rng.choice(("H2", "H3", "C6", "conj-H2"))
    canheight_map = rng.choice(("H2", "H3", "conj-H2"))
    orbit_map = rng.choice(("H2", "H3", "conj-H2"))
    orbit_pt = _orbit_point(rng, engines[orbit_map], 6)
    depth = str(DEPTH_BY_DELTA[DELTA[canheight_map]])
    expected_delta = DELTA[dyndeg_map]

    def dyndeg_check(doc):
        _require(doc["dynamical_degree"] == expected_delta,
                 f"dynamical degree {doc['dynamical_degree']} != {expected_delta}")

    return [
        ("height", ["height", f"--point={_fmt_point(_rational_point(rng, 99, (1, 2, 3, 7)))}", "--format", "json"],
         0, None),
        (f"dyndeg {dyndeg_map}", ["dyndeg", "--map", map_paths[dyndeg_map], "--format", "json"], 0, dyndeg_check),
        (f"canheight {canheight_map}",
         ["canheight", "--map", map_paths[canheight_map], f"--point={_fmt_point(_rational_point(rng, 9, (1, 2)))}",
          "--depth", depth, "--format", "json"], 0, _cli_canheight_check),
        # default depth 12 on C6: hplus >= 0.25 grows past 10^4 digits long before
        ("canheight C6 cap 10^4 (refusal)",
         ["canheight", "--map", map_paths["C6"], f"--point={_fmt_point(_orbit_point(rng, engines['C6'], 5))}",
          "--digit-cap", "10000", "--format", "json"], 4, None),
        (f"orbit {orbit_map}",
         ["orbit", "--map", map_paths[orbit_map], f"--point={_fmt_point(orbit_pt)}",
          "--depth", str(DEPTH_BY_DELTA[DELTA[orbit_map]]), "--T-grid", f"5:{rng.randint(9, 21)}:3",
          "--window", "4", "--format", "json"], 0, _cli_orbit_check),
        # exits 2 at int-to-str conversion today: counted as failed until it
        # exits 0 or refuses deliberately with exit 4
        ("orbit H2 3,0 window 14", ["orbit", "--map", map_paths["H2"], "--point", "3,0", "--window", "14",
                                    "--format", "json"], 0, None),
        ("periodic H2 escaping", ["periodic", "--map", map_paths["H2"], f"--point={_fmt_point(escaping)}",
                                  "--format", "json"], 1,
         lambda doc: _require(doc["verdict"] == "not_periodic", f"verdict {doc['verdict']}")),
        ("periodic H2 fixed point", ["periodic", "--map", map_paths["H2"], "--point", rng.choice(("0,0", "2,2")),
                                     "--format", "json"], 0,
         lambda doc: _require(doc["verdict"] == "periodic" and doc["period"] == 1, f"verdict {doc['verdict']}")),
        ("picard", ["picard", "--d", str(rng.randint(2, 10)), "--format", "json"], 0, _cli_picard_check),
    ]


def write_map_files(directory) -> Dict[str, str]:
    paths = {}
    for name, doc in MAP_DOCS.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        paths[name] = path
    return paths


CLI_CYCLES = 4  # mixes per pass, each with its own seeded inputs


def _cli_ops(corpus, rng, ctx) -> List[Op]:
    map_paths = write_map_files(ctx.workdir)
    mix = [entry for _ in range(CLI_CYCLES) for entry in cli_mix(corpus, rng, map_paths)]
    ops = []
    for label, argv, code, payload_check in mix:
        run = (lambda a=argv: run_cli_in_process(a)) if ctx.in_process else (lambda a=argv: run_cli_child(ctx.root, a))
        ops.append(Op(
            label,
            run,
            lambda run, code=code, pc=payload_check: check_cli_output(code, pc, run),
        ))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "canheight-batch": Workload(_setup_canheight, _canheight_ops),
    "orbit-count": Workload(_setup_orbit, _orbit_ops),
    "map-algebra": Workload(_setup_map_algebra, _map_algebra_ops),
    "cli": Workload(_setup_cli, _cli_ops, subprocess_ops=True),
}


def setup_probe(name: str):
    """Child-process entry: import the package and build the workload's
    corpus, then report readiness on stdout."""
    WORKLOADS[name].setup()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
