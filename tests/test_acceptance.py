"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines with the measured quantities.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from planeheights.automorphism import (
    compose_maps,
    conjugate,
    dynamical_degree,
    henon,
    triangular,
)
from planeheights.canonical import (
    functional_equation_residual,
    classify_quadratic_recursion,
    hcanonical,
    hminus,
    hplus,
    is_periodic,
    make_engine,
)
from planeheights.cli import main
from planeheights.heights import naive_height_affine
from planeheights.orbit import (
    count_below,
    count_exponential,
    counting_enclosure,
    hpm_from_h,
)
from planeheights.picard import (
    closed_form_excess,
    closed_form_pullbacks,
    effective_excess,
    solve_pullbacks,
)
from planeheights.ratpoly import parse_poly

HENON2 = henon(1, parse_poly("x^2"))
HENON3 = henon(Fraction(-1), parse_poly("x^3 - 2*x + 1"))
HENON4 = henon(2, parse_poly("x^4 + x"))
COMP6 = compose_maps(HENON2, HENON3)
X3 = (Fraction(3), Fraction(0))
ORIGIN = (Fraction(0), Fraction(0))

DEPTH_BY_DELTA = {2: 12, 3: 8, 4: 6, 6: 5}


def _report(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_criterion_01_picard_tables():
    t0 = time.perf_counter()
    for d in range(2, 13):
        solved = solve_pullbacks(d)
        assert solved == closed_form_pullbacks(d), f"solver mismatch at d={d}"
        excess = effective_excess(d)
        assert excess == closed_form_excess(d), f"excess display mismatch at d={d}"
        assert excess.is_effective(), f"excess not effective at d={d}"
        pi, phi, psi = solved
        assert pi.dot(pi) == 1 and phi.dot(phi) == 1 and psi.dot(psi) == 1
        assert pi.dot(phi) == d and pi.dot(psi) == d
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"picard tables took {elapsed:.3f}s"
    _report(1, f"d=2..12 exact, products exact, {elapsed * 1000:.0f} ms")


def test_criterion_02_functional_equation():
    t0 = time.perf_counter()
    engine = make_engine(HENON2, depth=12)
    residual = functional_equation_residual(engine, X3)
    bound = 3 * engine.c2_fwd / ((engine.delta - 1) * engine.delta**12)
    assert engine.c2_fwd == pytest.approx(math.log(2), abs=2.0**-40)
    assert residual <= bound
    assert residual <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, f"residual {residual:.3e} <= {bound:.3e} (and <= 1e-3), {elapsed:.2f}s")


def _multiplicativity_corpus():
    henon_half = henon(Fraction(1, 2), parse_poly("x^2 + 1"))
    henon2b = henon(Fraction(-1), parse_poly("x^2 - x"))
    points = [X3, (Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 3))]
    corpus = []
    for g in (HENON2, henon2b, HENON3, HENON4, COMP6, henon_half):
        engine = make_engine(g, depth=DEPTH_BY_DELTA[dynamical_degree(g)])
        for pt in points:
            corpus.append((engine, pt))
    return corpus


def test_criterion_03_multiplicativity():
    corpus = _multiplicativity_corpus()
    for engine, pt in corpus:
        d, dm = engine.delta, engine.delta_minus
        fx = engine.g.apply(pt)
        gap_plus = abs(hplus(engine, fx).value - d * hplus(engine, pt).value)
        assert gap_plus <= d * engine.tail(True) + engine.tail(True), (str(engine.g), pt)
        fix = engine.g.apply_inverse(pt)
        gap_minus = abs(hminus(engine, fix).value - dm * hminus(engine, pt).value)
        assert gap_minus <= dm * engine.tail(False) + engine.tail(False), (str(engine.g), pt)

    # conjugated member: the law transported to the outer map via hhat+/-
    gamma = triangular(1, 1, 0, parse_poly("1"))
    conj_engine = make_engine(HENON2, gamma=gamma, depth=12)
    from planeheights.orbit import _hpm_error_budget

    err = _hpm_error_budget(conj_engine)
    conj_pairs = 0
    for pt in (X3, (Fraction(2), Fraction(1)), (Fraction(-1), Fraction(4))):
        hp_x, hm_x = hpm_from_h(conj_engine, pt)
        hp_fx, hm_fx = hpm_from_h(conj_engine, conj_engine.outer.apply(pt))
        _, hm_fix = hpm_from_h(conj_engine, conj_engine.outer.apply_inverse(pt))
        assert abs(hp_fx - conj_engine.delta * hp_x) <= (conj_engine.delta + 1) * err
        assert abs(hm_fix - conj_engine.delta_minus * hm_x) <= (conj_engine.delta_minus + 1) * err
        conj_pairs += 1
    total = len(corpus) + conj_pairs
    assert total >= 20
    deltas = sorted({e.delta for e, _ in corpus})
    assert 6 in deltas
    _report(3, f"{total} (map, point) pairs, deltas {deltas}, conjugated member included")


def test_criterion_04_periodicity():
    verdict0 = is_periodic(HENON2, ORIGIN)
    assert verdict0.kind == "periodic" and verdict0.period == 1
    verdict3 = is_periodic(HENON2, X3)
    assert verdict3.kind == "not_periodic"
    engine = make_engine(HENON2, depth=12)
    fixed_estimate = hcanonical(engine, ORIGIN)
    assert fixed_estimate.value <= engine.error_budget()
    _report(4, f"periodic(1) at origin, not_periodic at (3,0), "
               f"hhat(fixed) = {fixed_estimate.value:.1e} <= budget {engine.error_budget():.1e}")


GRID = [math.exp(k) for k in range(5, 22, 2)]  # e^5, e^7, ..., e^21


def test_criterion_05_counting_enclosure():
    t0 = time.perf_counter()
    engine = make_engine(HENON2, depth=12)
    results = []
    for threshold in GRID:
        enc = counting_enclosure(engine, X3, threshold)
        assert enc.halfwidth == pytest.approx(3.0, abs=1e-12)  # delta = delta_- = 2
        assert enc.passed, (threshold, enc)
        assert abs(enc.observed - enc.predicted) <= enc.halfwidth + enc.slack
        results.append((threshold, enc.observed))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(5, f"counts {[c for _, c in results]} all inside the band, {elapsed:.2f}s")


def test_criterion_06_slope_law():
    engine = make_engine(HENON2)
    counts = [count_below(engine, X3, threshold, "naive") for threshold in GRID]
    logs = [math.log(t) for t in GRID]
    mean_x = sum(logs) / len(logs)
    mean_y = sum(counts) / len(counts)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(logs, counts)) / sum(
        (x - mean_x) ** 2 for x in logs
    )
    intercept = mean_y - slope * mean_x
    target = 2 / math.log(2)
    assert abs(slope - target) <= 0.1 * target
    _report(6, f"slope {slope:.4f} vs 2/log2 = {target:.4f} "
               f"(intercept {intercept:+.2f}, reported not asserted)")


def test_criterion_07_exponential_count_bounds():
    count, lower, upper = count_exponential(1, 1, 2, 2, 8)
    assert count == 5 and lower == pytest.approx(3.0) and upper == pytest.approx(7.0)
    rng = random.Random(20260811)
    trials = 0
    while trials < 1000:
        delta = rng.choice([2, 3, 4, 6])
        delta_minus = rng.choice([2, 3, 4, 6])
        a = math.exp(rng.uniform(-4, 4))
        b = math.exp(rng.uniform(-4, 4))
        log_d, log_dm = math.log(delta), math.log(delta_minus)
        floor_t = a ** (log_dm / (log_d + log_dm)) * b ** (log_d / (log_d + log_dm))
        threshold = floor_t * math.exp(rng.uniform(0.0, 10.0))
        count, lower, upper = count_exponential(a, b, delta, delta_minus, threshold)
        assert lower <= count <= upper, (a, b, delta, delta_minus, threshold)
        trials += 1
    _report(7, "worked case (5 in [3,7]) and 1000 random bound brackets")


def test_criterion_08_recursion_regimes():
    cases = [
        (Fraction(5, 4), 4, "tends_to_one"),
        (Fraction(13, 10), 4, "diverges"),
        (Fraction(6, 5), 4, "tends_to_zero"),
        (Fraction(10, 9), 9, "tends_to_one"),
    ]
    for a, big_d, expected in cases:
        result = classify_quadratic_recursion(a, big_d, 30)
        assert result.regime == expected, (a, big_d)
        if expected == "diverges":
            assert max(result.trajectory) > 1e6
        elif expected == "tends_to_zero":
            assert abs(result.trajectory[-1]) < 1e-3
        else:
            for l, value in enumerate(result.trajectory):
                closed = 1 + float(Fraction(big_d) ** -(2**l)) if 2**l < 4000 else 1.0
                assert value == pytest.approx(closed, abs=1e-12), (a, big_d, l)
    _report(8, "classifier and 30-step trajectories agree on all four cases; "
               "boundary trajectories match 1 + D^(-2^l) to 1e-12 per step")


def test_criterion_09_dynamical_degrees():
    assert dynamical_degree(HENON2) == 2
    assert dynamical_degree(HENON3) == 3
    assert dynamical_degree(HENON4) == 4
    assert dynamical_degree(COMP6) == 6
    assert dynamical_degree(triangular(1, 1, 0, parse_poly("y^2"))) == 1
    rng = random.Random(99)
    conjugators = []
    while len(conjugators) < 5:
        p_text = rng.choice(["y^2", "y^3 - y", "2*y^2 + 1", "y^3", "y + 1"])
        gamma = triangular(rng.choice([1, -1, 2]), rng.choice([1, -1]),
                           rng.randint(-2, 2), parse_poly(p_text))
        conjugators.append(gamma)
    for gamma in conjugators:
        assert dynamical_degree(conjugate(HENON2, gamma)) == 2
    _report(9, "delta exact for d=2,3,4; composite 6; triangular 1; 5 conjugations invariant")


CLI_SUITE = [
    ["height", "--point", "3/2,5"],
    ["height", "--point", "3,0", "--format", "json"],
    ["height", "--point=-7/3,2/9", "--format", "csv"],
    ["dyndeg", "--map", "{henon2}"],
    ["dyndeg", "--map", "{comp}", "--format", "json"],
    ["dyndeg", "--map", "{tri}", "--format", "csv"],
    ["canheight", "--map", "{henon2}", "--point", "3,0", "--format", "json"],
    ["canheight", "--map", "{conj}", "--point", "3,0"],
    ["orbit", "--map", "{henon2}", "--point", "3,0", "--T-grid", "5:13:5", "--window", "4",
     "--format", "csv"],
    ["orbit", "--map", "{henon2}", "--point", "3,0", "--T", "100", "--format", "json"],
    ["periodic", "--map", "{henon2}", "--point", "0,0", "--format", "json"],
    ["periodic", "--map", "{henon2}", "--point", "3,0"],
    ["picard", "--d", "2"],
    ["picard", "--d", "5", "--format", "json"],
    ["picard", "--d", "3", "--format", "csv"],
]


def _run_cli_suite(map_paths, capsys):
    transcript = []
    for template in CLI_SUITE:
        argv = [part.format(**map_paths) if "{" in part else part for part in template]
        code = main(argv)
        captured = capsys.readouterr()
        transcript.append((tuple(argv), code, captured.out))
    return transcript


def test_criterion_10_cli_determinism(tmp_path, capsys):
    docs = {
        "henon2": {"type": "henon", "a": "1", "p": "x^2"},
        "comp": {"type": "compose", "maps": [
            {"type": "henon", "a": "1", "p": "x^2"},
            {"type": "henon", "a": "-1", "p": "x^3 - 2*x + 1"},
        ]},
        "tri": {"type": "triangular", "a": "1", "b": "1", "c": "0", "P": "y^2"},
        "conj": {"type": "conjugate",
                 "inner": {"type": "henon", "a": "1", "p": "x^2"},
                 "by": {"type": "triangular", "a": "1", "b": "1", "c": "0", "P": "1"}},
    }
    map_paths = {}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        map_paths[name] = str(path)
    first = _run_cli_suite(map_paths, capsys)
    second = _run_cli_suite(map_paths, capsys)
    assert first == second
    assert len(first) == len(CLI_SUITE)
    _report(10, f"two runs of the {len(CLI_SUITE)}-command CLI suite byte-identical")
