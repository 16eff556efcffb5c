"""Command-line front end.

Commands: height, dyndeg, canheight, orbit, periodic, picard.  Output is
deterministic (byte-identical across runs for identical inputs): floats are
printed with 12 significant digits, JSON keys are sorted, CSV column order is
fixed.

Like `canheight` and `orbit`, `periodic` reads a top-level conjugate document
as core and conjugator, and decides on the escape box of the core.

Exit codes: 0 success (or semantic-true), 1 semantic-false (e.g. a point that
is not periodic), 2 input error, 3 undecided, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import orbit as orbit_mod
from .automorphism import (
    DEFAULT_DIGIT_CAP,
    conjugate_parts,
    dynamical_degree,
    degree_sequence,
    is_regular,
    load_map_file,
    read_map_doc,
)
from .canonical import (
    HeightEstimate,
    functional_equation_residual,
    hcanonical,
    hminus,
    hplus,
    is_periodic,
    make_engine,
)
from .errors import (
    PeriodicPointError,
    PlaneHeightsError,
    PolyParseError,
    ResourceCapError,
    UndecidedPeriodicityError,
)
from .heights import lift, naive_height_affine, parse_affine_point, read_point_file
from .picard import (
    basis_labels,
    closed_form_excess,
    closed_form_pullbacks,
    effective_excess,
    solve_pullbacks,
)
from .ratpoly import format_int, format_rat

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3
EXIT_RESOURCE = 4


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _estimate_dict(est: HeightEstimate) -> dict:
    return {
        "value": est.value,
        "upper_bound": est.upper_bound,
        "lower_slack": est.lower_slack,
        "rigorous_lower": est.rigorous_lower,
        "depth": est.depth,
    }


def _print_json(obj: dict):
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _print_csv(rows, header):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(out.getvalue())


def _gather_points(args) -> list:
    points = []
    if args.point:
        points.append(parse_affine_point(args.point))
    if getattr(args, "points", None):
        points.extend(read_point_file(args.points))
    if not points:
        raise PolyParseError("no point given: use --point X,Y or --points FILE")
    return points


def _engine(args):
    """The engine of --map, with the core and conjugator `conjugate_parts`
    reads off a top-level conjugate document."""
    g, gamma = conjugate_parts(read_map_doc(args.map))
    return make_engine(g, gamma=gamma, depth=args.depth, c_lower=args.c_lower, digit_cap=args.digit_cap)


# -- height ---------------------------------------------------------------------

def cmd_height(args) -> int:
    points = _gather_points(args)
    entries = []
    for pt in points:
        entries.append({
            "x": format_rat(pt[0]),
            "y": format_rat(pt[1]),
            "max_abs": format_int(max(abs(c) for c in lift(pt))),
            "h_nv": naive_height_affine(pt),
        })
    if args.format == "json":
        _print_json({"command": "height", "points": entries})
    elif args.format == "csv":
        _print_csv([(e["x"], e["y"], _fmt(e["h_nv"])) for e in entries], ("x", "y", "h_nv"))
    else:
        for e in entries:
            shown = e["max_abs"] if len(e["max_abs"]) <= 30 else f"<{len(e['max_abs'])}-digit integer>"
            print(f"h_nv({e['x']},{e['y']}) = log {shown} = {_fmt(e['h_nv'])}")
    return EXIT_OK


# -- dyndeg ---------------------------------------------------------------------

def _default_prefix_length(d: int) -> int:
    n = 2
    while n < 4 and d ** (n + 1) <= 100:
        n += 1
    return n


def cmd_dyndeg(args) -> int:
    f = load_map_file(args.map)
    d = f.degree()
    delta = dynamical_degree(f)
    regular = d >= 2 and is_regular(f)
    n = args.N if args.N else _default_prefix_length(max(d, 2))
    seq = degree_sequence(f, n)
    payload = {
        "command": "dyndeg",
        "degree": d,
        "inverse_degree": f.inverse_degree(),
        "dynamical_degree": delta,
        "regular": regular,
        "degree_sequence": seq,
    }
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        _print_csv([(d, f.inverse_degree(), delta, str(regular).lower(), " ".join(map(str, seq)))],
                   ("d", "d_minus", "delta", "regular", "degree_sequence"))
    else:
        print(f"d={d} d_minus={f.inverse_degree()} delta={delta} regular={str(regular).lower()}")
        print(f"degree_sequence: {seq}")
    return EXIT_OK


# -- canheight --------------------------------------------------------------------

def _canheight_entry(engine, pt):
    hp = hplus(engine, engine.to_conjugated_frame(pt))
    hm = hminus(engine, engine.to_conjugated_frame(pt))
    hc = hcanonical(engine, pt)
    res = functional_equation_residual(engine, pt)
    return {
        "x": format_rat(pt[0]),
        "y": format_rat(pt[1]),
        "hplus": _estimate_dict(hp),
        "hminus": _estimate_dict(hm),
        "hcanonical": _estimate_dict(hc),
        "residual": res,
    }


def cmd_canheight(args) -> int:
    engine = _engine(args)
    points = _gather_points(args)
    entries = [_canheight_entry(engine, pt) for pt in points]
    payload = {
        "command": "canheight",
        "delta": engine.delta,
        "delta_minus": engine.delta_minus,
        "depth": engine.depth,
        "c2_fwd": engine.c2_fwd,
        "c2_inv": engine.c2_inv,
        "error_budget": engine.error_budget(),
        "points": entries,
    }
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        rows = [
            (e["x"], e["y"], _fmt(e["hplus"]["value"]), _fmt(e["hminus"]["value"]),
             _fmt(e["hcanonical"]["value"]), _fmt(e["hcanonical"]["upper_bound"]),
             _fmt(e["residual"]))
            for e in entries
        ]
        _print_csv(rows, ("x", "y", "hplus", "hminus", "hcanonical", "upper_bound", "residual"))
    else:
        print(f"delta={engine.delta} delta_minus={engine.delta_minus} depth={engine.depth} "
              f"error_budget={_fmt(engine.error_budget())}")
        for e in entries:
            print(f"point ({e['x']},{e['y']}):")
            print(f"  hplus      = {_fmt(e['hplus']['value'])}  (<= {_fmt(e['hplus']['upper_bound'])},"
                  f" slack {_fmt(e['hplus']['lower_slack'])})")
            print(f"  hminus     = {_fmt(e['hminus']['value'])}  (<= {_fmt(e['hminus']['upper_bound'])},"
                  f" slack {_fmt(e['hminus']['lower_slack'])})")
            line = (f"  hcanonical = {_fmt(e['hcanonical']['value'])}  "
                    f"(<= {_fmt(e['hcanonical']['upper_bound'])})")
            if e["hcanonical"]["rigorous_lower"] is not None:
                line += f"  (>= {_fmt(e['hcanonical']['rigorous_lower'])})"
            print(line)
            print(f"  residual   = {_fmt(e['residual'])}")
    return EXIT_OK


# -- orbit ------------------------------------------------------------------------

def _parse_t_grid(spec: str) -> list:
    """lo:hi:steps in natural-log units: T = exp(lo), ..., exp(hi)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise PolyParseError(f"--T-grid expects lo:hi:steps, got {spec!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise PolyParseError(
            f"--T-grid expects numbers lo:hi and an integer steps, got {spec!r}") from None
    if steps < 1:
        raise PolyParseError("--T-grid needs at least one step")
    try:
        grid = [math.exp(lo + i * (hi - lo) / max(steps - 1, 1)) for i in range(steps)]
    except OverflowError:
        grid = [math.inf]
    if not all(map(math.isfinite, grid)):
        raise PolyParseError(f"--T-grid gives a threshold that is not a finite number: {spec!r}")
    return grid


def _counting_row(engine, pt, t):
    enc = orbit_mod.counting_enclosure(engine, pt, t)
    return {
        "T": t,
        "count": enc.observed,
        "predicted": enc.predicted,
        "lower": enc.lower,
        "upper": enc.upper,
        "pass": enc.passed,
    }


def cmd_orbit(args) -> int:
    engine = _engine(args)
    if not args.point:
        raise PolyParseError("orbit needs --point X,Y")
    pt = parse_affine_point(args.point)
    thresholds = [] if args.T is None else [args.T]
    if args.T_grid:
        thresholds.extend(_parse_t_grid(args.T_grid))
    for t in thresholds:  # before the record, whose refusal would hide a bad threshold
        orbit_mod.check_threshold(t)
    record = orbit_mod.build_orbit_record(engine, pt, window=args.window)
    if record.orbit_height == orbit_mod.NEG_INFINITY:
        raise PeriodicPointError("orbit scans need a non-periodic point")
    counting = [_counting_row(engine, pt, t) for t in thresholds]
    scan = [
        {"l": s.l, "x": format_rat(s.point[0]), "y": format_rat(s.point[1]),
         "h_nv": s.h_nv, "hhat": s.h_hat}
        for s in record.samples
    ]
    payload = {
        "command": "orbit",
        "orbit_height": record.orbit_height,
        "hplus0": record.hplus0,
        "hminus0": record.hminus0,
        "scan": scan,
        "counting": counting,
    }
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        _print_csv([(s["l"], s["x"], s["y"], _fmt(s["h_nv"]), _fmt(s["hhat"])) for s in scan],
                   ("l", "x", "y", "h_nv", "hhat"))
        if counting:
            sys.stdout.write("\n")
            _print_csv(
                [(_fmt(c["T"]), c["count"], _fmt(c["predicted"]), _fmt(c["lower"]),
                  _fmt(c["upper"])) for c in counting],
                ("T", "count", "predicted", "lower", "upper"),
            )
    else:
        print(f"orbit_height = {_fmt(record.orbit_height)}  "
              f"(hplus0 {_fmt(record.hplus0)}, hminus0 {_fmt(record.hminus0)})")
        print("l x y h_nv hhat")
        for s in scan:
            print(f"{s['l']} {s['x']} {s['y']} {_fmt(s['h_nv'])} {_fmt(s['hhat'])}")
        if counting:
            print("T count predicted lower upper pass")
            for c in counting:
                print(f"{_fmt(c['T'])} {c['count']} {_fmt(c['predicted'])} "
                      f"{_fmt(c['lower'])} {_fmt(c['upper'])} {str(c['pass']).lower()}")
    return EXIT_OK


# -- periodic ----------------------------------------------------------------------

def cmd_periodic(args) -> int:
    g, gamma = conjugate_parts(read_map_doc(args.map))  # as in _engine
    if not args.point:
        raise PolyParseError("periodic needs --point X,Y")
    pt = parse_affine_point(args.point)
    # x has the period under gamma o g o gamma^-1 that gamma^-1(x) has under g
    z = pt if gamma is None else gamma.apply_inverse(pt)
    verdict = is_periodic(g, z, digit_cap=args.digit_cap)
    payload = {
        "command": "periodic",
        "verdict": verdict.kind,
        "period": verdict.period,
        "detail": verdict.detail,
    }
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        _print_csv([(verdict.kind, verdict.period if verdict.period is not None else "")],
                   ("verdict", "period"))
    else:
        if verdict.kind == "periodic":
            print(f"periodic with period {verdict.period}")
        else:
            print(verdict.kind + (f": {verdict.detail}" if verdict.detail else ""))
    if verdict.kind == "periodic":
        return EXIT_OK
    if verdict.kind == "not_periodic":
        return EXIT_FALSE
    return EXIT_UNDECIDED


# -- picard ------------------------------------------------------------------------

def cmd_picard(args) -> int:
    d = args.d
    if d is None:
        raise PolyParseError("picard needs --d INT")
    pi, phi, psi = solve_pullbacks(d)
    excess = effective_excess(d)
    checks = {
        "solver_matches_closed_form": (pi, phi, psi) == closed_form_pullbacks(d)
        and excess == closed_form_excess(d),
        "excess_effective": excess.is_effective(),
        "products_ok": (
            pi.dot(pi) == 1 and phi.dot(phi) == 1 and psi.dot(psi) == 1
            and pi.dot(phi) == d and pi.dot(psi) == d
        ),
    }
    labels = basis_labels(d)
    if args.format == "json":
        payload = {
            "command": "picard",
            "d": d,
            "classes": {
                name: [{"label": lab, "coefficient": format_rat(c)}
                       for lab, c in zip(labels, cls.coeffs)]
                for name, cls in (("pi", pi), ("phi", phi), ("psi", psi), ("D", excess))
            },
            "checks": checks,
        }
        _print_json(payload)
    elif args.format == "csv":
        rows = [
            (lab, format_rat(pi.coeffs[i]), format_rat(phi.coeffs[i]),
             format_rat(psi.coeffs[i]), format_rat(excess.coeffs[i]))
            for i, lab in enumerate(labels)
        ]
        _print_csv(rows, ("label", "pi", "phi", "psi", "D"))
    else:
        print(f"Picard classes for the degree-{d} Henon blow-up (dimension {4 * d - 1})")
        width = max(len(lab) for lab in labels)
        print(f"{'label':<{width}}  {'pi':>8} {'phi':>8} {'psi':>8} {'D':>8}")
        for i, lab in enumerate(labels):
            print(f"{lab:<{width}}  {format_rat(pi.coeffs[i]):>8} {format_rat(phi.coeffs[i]):>8} "
                  f"{format_rat(psi.coeffs[i]):>8} {format_rat(excess.coeffs[i]):>8}")
        for name, ok in checks.items():
            print(f"check {name}: {str(ok).lower()}")
    return EXIT_OK


# -- wiring ------------------------------------------------------------------------

def _add_common(parser, needs_map=True, needs_point=True, multi_point=False):
    if needs_map:
        parser.add_argument("--map", required=True, help="map-description JSON file")
    if needs_point:
        parser.add_argument("--point", help="affine point 'X,Y' with rational entries")
        if multi_point:
            parser.add_argument("--points", help="point file: one 'x y' per line")
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text")


def _positive_int(minimum, label):
    def convert(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{label} must be >= {minimum}")
        return value

    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planeheights",
        description="Exact naive and canonical heights under plane polynomial automorphisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("height", help="logarithmic naive heights of rational points")
    _add_common(p, needs_map=False, multi_point=True)
    p.set_defaults(func=cmd_height)

    p = sub.add_parser("dyndeg", help="degree data and dynamical degree of a map")
    _add_common(p, needs_point=False)
    p.add_argument("--N", type=_positive_int(1, "N"), default=None,
                   help="degree-sequence prefix length (default adapts to the degree)")
    p.set_defaults(func=cmd_dyndeg)

    p = sub.add_parser("canheight", help="canonical heights with error fields")
    _add_common(p, multi_point=True)
    _add_engine_flags(p)
    p.set_defaults(func=cmd_canheight)

    p = sub.add_parser("orbit", help="orbit scan CSV and counting table")
    _add_common(p)
    _add_engine_flags(p)
    p.add_argument("--T", type=float, default=None, help="single counting threshold")
    p.add_argument("--T-grid", dest="T_grid", default=None,
                   help="lo:hi:steps in natural-log units (T = e^lo .. e^hi)")
    p.add_argument("--window", type=_positive_int(1, "window"), default=8,
                   help="orbit-scan half width")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("periodic", help="periodicity verdict (exit 0/1/3)")
    _add_common(p)
    p.add_argument("--digit-cap", dest="digit_cap", type=_positive_int(10_000, "digit-cap"),
                   default=DEFAULT_DIGIT_CAP)
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("picard", help="pullback classes and excess divisor tables")
    _add_common(p, needs_map=False, needs_point=False)
    p.add_argument("--d", type=_positive_int(2, "d"), required=True)
    p.set_defaults(func=cmd_picard)

    return parser


def _add_engine_flags(parser):
    parser.add_argument("--depth", type=_positive_int(2, "depth"), default=12)
    parser.add_argument("--digit-cap", dest="digit_cap", type=_positive_int(10_000, "digit-cap"),
                        default=DEFAULT_DIGIT_CAP)
    parser.add_argument("--c-lower", dest="c_lower", type=float, default=None,
                        help="constant c of the regular-map height inequality (enables rigorous lower bounds)")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UndecidedPeriodicityError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (PlaneHeightsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
