"""Command-line front end.

Commands: height, dyndeg, canheight, orbit, periodic, picard.  Each command
builds its result once, as a JSON payload, CSV header and rows, and text
lines that share their formatted cells, and `_emit` writes the one that
--format names.  Output is deterministic (byte-identical across runs for
identical inputs): floats are printed with 12 significant digits, JSON keys
are sorted, CSV column order is fixed.

Each command imports the modules it calls inside its `cmd_*` function, and
the csv module only under --format csv, so a process loads no more of the
package than its one command uses: `picard` never loads the map modules,
and `height` loads only `heights` and `ratpoly`.

Like `canheight` and `orbit`, `periodic` reads a top-level conjugate document
as core and conjugator, and decides on the escape box of the core.

Exit codes: 0 success (or semantic-true), 1 semantic-false (e.g. a point that
is not periodic), 2 input error, 3 undecided, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    DEFAULT_DIGIT_CAP,
    PlaneHeightsError,
    PolyParseError,
    ResourceCapError,
    UndecidedPeriodicityError,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3
EXIT_RESOURCE = 4


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _estimate_dict(est) -> dict:
    """A `canonical.HeightEstimate` as a JSON object."""
    return {
        "value": est.value,
        "upper_bound": est.upper_bound,
        "lower_slack": est.lower_slack,
        "rigorous_lower": est.rigorous_lower,
        "depth": est.depth,
    }


def _emit(fmt: str, payload: dict, header, rows, lines) -> None:
    """Write a command's one result in the format --format names: the JSON
    payload, the CSV header and rows, or the text lines."""
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        sys.stdout.write("".join(line + "\n" for line in lines))


def _line(cells) -> str:
    """One row of a space-separated text table."""
    return " ".join(map(str, cells))


def _gather_points(args) -> list:
    from .heights import parse_affine_point, read_point_file

    points = []
    if args.point:
        points.append(parse_affine_point(args.point))
    if args.points:
        points.extend(read_point_file(args.points))
    if not points:
        raise PolyParseError("no point given: use --point X,Y or --points FILE")
    return points


def _engine(args):
    """The engine of --map, with the core and conjugator `conjugate_parts`
    reads off a top-level conjugate document."""
    from .automorphism import conjugate_parts, read_map_doc
    from .canonical import make_engine

    g, gamma = conjugate_parts(read_map_doc(args.map))
    return make_engine(g, gamma=gamma, depth=args.depth, digit_cap=args.digit_cap)


# -- height ---------------------------------------------------------------------

def cmd_height(args) -> int:
    from .heights import lift, log_int, top
    from .ratpoly import format_int, format_rat

    entries, rows, lines = [], [], []
    for pt in _gather_points(args):
        x, y = format_rat(pt[0]), format_rat(pt[1])
        m = top(lift(pt))
        h_nv, max_abs = log_int(m), format_int(m)
        entries.append({"x": x, "y": y, "max_abs": max_abs, "h_nv": h_nv})
        cell = _fmt(h_nv)
        rows.append((x, y, cell))
        shown = max_abs if len(max_abs) <= 30 else f"<{len(max_abs)}-digit integer>"
        lines.append(f"h_nv({x},{y}) = log {shown} = {cell}")
    _emit(args.format, {"command": "height", "points": entries}, ("x", "y", "h_nv"), rows, lines)
    return EXIT_OK


# -- dyndeg ---------------------------------------------------------------------

def _default_prefix_length(d: int) -> int:
    n = 2
    while n < 4 and d ** (n + 1) <= 100:
        n += 1
    return n


def cmd_dyndeg(args) -> int:
    from .automorphism import degree_sequence, dynamical_degree, is_regular, load_map_file

    f = load_map_file(args.map)
    d = f.degree()
    d_minus = f.inverse_degree()
    delta = dynamical_degree(f)
    regular = is_regular(f)
    n = args.N if args.N else _default_prefix_length(max(d, 2))
    seq = degree_sequence(f, n)
    payload = {
        "command": "dyndeg",
        "degree": d,
        "inverse_degree": d_minus,
        "dynamical_degree": delta,
        "regular": regular,
        "degree_sequence": seq,
    }
    flag = str(regular).lower()
    _emit(args.format, payload, ("d", "d_minus", "delta", "regular", "degree_sequence"),
          [(d, d_minus, delta, flag, " ".join(map(str, seq)))],
          [f"d={d} d_minus={d_minus} delta={delta} regular={flag}", f"degree_sequence: {seq}"])
    return EXIT_OK


# -- canheight --------------------------------------------------------------------

def cmd_canheight(args) -> int:
    from .canonical import functional_equation_residual, hcanonical, hminus, hplus
    from .ratpoly import format_rat

    engine = _engine(args)
    budget = engine.error_budget()
    entries, rows = [], []
    lines = [f"delta={engine.delta} delta_minus={engine.delta_minus} depth={engine.depth} "
             f"error_budget={_fmt(budget)}"]
    for pt in _gather_points(args):
        z = engine.to_conjugated_frame(pt)
        hp = hplus(engine, z)
        hm = hminus(engine, z)
        hc = hcanonical(engine, pt)
        res = functional_equation_residual(engine, pt)
        x, y = format_rat(pt[0]), format_rat(pt[1])
        entries.append({
            "x": x,
            "y": y,
            "hplus": _estimate_dict(hp),
            "hminus": _estimate_dict(hm),
            "hcanonical": _estimate_dict(hc),
            "residual": res,
        })
        row = (x, y, _fmt(hp.value), _fmt(hm.value), _fmt(hc.value), _fmt(hc.upper_bound), _fmt(res))
        rows.append(row)
        hp_cell, hm_cell, hc_cell, upper_cell, res_cell = row[2:]
        lines += [
            f"point ({x},{y}):",
            f"  hplus      = {hp_cell}  (<= {_fmt(hp.upper_bound)}, slack {_fmt(hp.lower_slack)})",
            f"  hminus     = {hm_cell}  (<= {_fmt(hm.upper_bound)}, slack {_fmt(hm.lower_slack)})",
            f"  hcanonical = {hc_cell}  (<= {upper_cell})  (>= {_fmt(hc.rigorous_lower)})",
            f"  residual   = {res_cell}",
        ]
    payload = {
        "command": "canheight",
        "delta": engine.delta,
        "delta_minus": engine.delta_minus,
        "depth": engine.depth,
        "c2_fwd": engine.c2_fwd,
        "c2_inv": engine.c2_inv,
        "error_budget": budget,
        "points": entries,
    }
    _emit(args.format, payload, ("x", "y", "hplus", "hminus", "hcanonical", "upper_bound", "residual"),
          rows, lines)
    return EXIT_OK


# -- orbit ------------------------------------------------------------------------

def _parse_t_grid(spec: str) -> list:
    """lo:hi:steps in natural-log units: T = exp(lo), ..., exp(hi)."""
    import math

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


def cmd_orbit(args) -> int:
    from .heights import parse_affine_point
    from .orbit import build_orbit_record, check_threshold, counting_enclosure
    from .ratpoly import format_rat

    engine = _engine(args)
    pt = parse_affine_point(args.point)
    thresholds = [] if args.T is None else [args.T]
    if args.T_grid:
        thresholds.extend(_parse_t_grid(args.T_grid))
    for t in thresholds:  # before the record, whose refusal would hide a bad threshold
        check_threshold(t)
    record = build_orbit_record(engine, pt, window=args.window)
    scan, rows = [], []
    for s in record.samples:
        x, y = format_rat(s.point[0]), format_rat(s.point[1])
        scan.append({"l": s.l, "x": x, "y": y, "h_nv": s.h_nv, "hhat": s.h_hat})
        rows.append((s.l, x, y, _fmt(s.h_nv), _fmt(s.h_hat)))
    counting, count_rows = [], []
    for t in thresholds:
        enc = counting_enclosure(engine, pt, t)
        counting.append({"T": t, "count": enc.observed, "predicted": enc.predicted,
                         "lower": enc.lower, "upper": enc.upper, "pass": enc.passed})
        count_rows.append((_fmt(t), enc.observed, _fmt(enc.predicted), _fmt(enc.lower), _fmt(enc.upper)))
    header = ("l", "x", "y", "h_nv", "hhat")
    lines = [f"orbit_height = {_fmt(record.orbit_height)}  "
             f"(hplus0 {_fmt(record.hplus0)}, hminus0 {_fmt(record.hminus0)})",
             _line(header), *map(_line, rows)]
    if counting:
        count_header = ("T", "count", "predicted", "lower", "upper")
        lines.append(_line((*count_header, "pass")))
        lines += [_line((*row, str(c["pass"]).lower())) for row, c in zip(count_rows, counting)]
        rows += [(), count_header, *count_rows]
    payload = {
        "command": "orbit",
        "orbit_height": record.orbit_height,
        "hplus0": record.hplus0,
        "hminus0": record.hminus0,
        "scan": scan,
        "counting": counting,
    }
    _emit(args.format, payload, header, rows, lines)
    return EXIT_OK


# -- periodic ----------------------------------------------------------------------

def cmd_periodic(args) -> int:
    from .automorphism import conjugate_parts, read_map_doc
    from .canonical import is_periodic
    from .heights import parse_affine_point

    g, gamma = conjugate_parts(read_map_doc(args.map))  # as in _engine
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
    if verdict.kind == "periodic":
        line = f"periodic with period {verdict.period}"
    else:
        line = verdict.kind + (f": {verdict.detail}" if verdict.detail else "")
    period = "" if verdict.period is None else verdict.period
    _emit(args.format, payload, ("verdict", "period"), [(verdict.kind, period)], [line])
    return {"periodic": EXIT_OK, "not_periodic": EXIT_FALSE}.get(verdict.kind, EXIT_UNDECIDED)


# -- picard ------------------------------------------------------------------------

def cmd_picard(args) -> int:
    from .picard import (
        basis_labels,
        closed_form_excess,
        closed_form_pullbacks,
        effective_excess,
        solve_pullbacks,
    )
    from .ratpoly import format_rat

    d = args.d
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
    header = ("label", "pi", "phi", "psi", "D")
    classes = (pi, phi, psi, excess)
    rows = [(lab, *(format_rat(cls.coeffs[i]) for cls in classes))
            for i, lab in enumerate(basis_labels(d))]
    payload = {
        "command": "picard",
        "d": d,
        "classes": {
            name: [{"label": row[0], "coefficient": row[k]} for row in rows]
            for k, name in enumerate(header[1:], 1)
        },
        "checks": checks,
    }
    width = max(len(row[0]) for row in rows)
    lines = [f"Picard classes for the degree-{d} Henon blow-up (dimension {4 * d - 1})"]
    lines += [f"{row[0]:<{width}}  " + " ".join(f"{c:>8}" for c in row[1:]) for row in (header, *rows)]
    lines += [f"check {name}: {str(ok).lower()}" for name, ok in checks.items()]
    _emit(args.format, payload, header, rows, lines)
    return EXIT_OK


# -- wiring ------------------------------------------------------------------------

def _add_common(parser, needs_map=True, needs_point=True, multi_point=False):
    if needs_map:
        parser.add_argument("--map", required=True, help="map-description JSON file")
    if needs_point:
        parser.add_argument("--point", required=not multi_point,
                            help="affine point 'X,Y' with rational entries")
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
