"""The verdict table: every periodicity verdict of the bench corpus maps over a
grid of starts and digit caps, against a recorded table.

The maps are the outer maps of the engines H2, H3, H4, C6 = H2 o H3 and H2
conjugated by (x + 1, y); the starts are the integer points with |x|, |y| <=
6 and four rational points; the caps are 10^4 and 10^5 digits.  Each
verdict is one "map, cap, point, kind, period, detail" line of
tests/data/periodicity_verdicts.tsv (1,730 lines, no header), so a change
of kind, period or detail text shows, and so does a change of the iterate
at which the digit cap refuses a walk.

`tests/test_canonical.py` compares the verdicts with the table in process.
Run as a script,

    python tests/periodicity_verdicts.py

it does the same and exits 1 when any line differs; `--record` rewrites the
table instead, for an intended change of verdicts.  It imports only the
standard library and the package.
"""

import sys
from fractions import Fraction
from pathlib import Path

TABLE = Path(__file__).parent / "data" / "periodicity_verdicts.tsv"

H2 = {"type": "henon", "a": "1", "p": "x^2"}
H3 = {"type": "henon", "a": "-1", "p": "x^3 - 2*x + 1"}
# name -> (core map document, conjugator document or None); "compose" applies right-to-left
MAPS = {
    "H2": (H2, None),
    "H3": (H3, None),
    "H4": ({"type": "henon", "a": "2", "p": "x^4 + x"}, None),
    "C6": ({"type": "compose", "maps": [H2, H3]}, None),
    "conj-H2": (H2, {"type": "triangular", "a": "1", "b": "1", "c": "0", "P": "1"}),
}
CAPS = (10**4, 10**5)
POINTS = [(Fraction(x), Fraction(y)) for x in range(-6, 7) for y in range(-6, 7)] + [
    (Fraction(1, 2), Fraction(1, 3)), (Fraction(-7, 2), Fraction(1, 6)),
    (Fraction(3, 2), Fraction(5)), (Fraction(1, 3), Fraction(2, 5))]


def verdict_lines():
    """The lines of the table, each a tab-separated verdict."""
    from planeheights.automorphism import from_description
    from planeheights.canonical import is_periodic, make_engine

    lines = []
    for name, (core, gamma) in MAPS.items():
        gamma = None if gamma is None else from_description(gamma)
        outer = make_engine(from_description(core), gamma=gamma).outer
        for cap in CAPS:
            for x, y in POINTS:
                v = is_periodic(outer, (x, y), digit_cap=cap)
                period = "-" if v.period is None else v.period
                lines.append(f"{name}\t{cap}\t{x},{y}\t{v.kind}\t{period}\t{v.detail}")
    return lines


def differences():
    """(line number, recorded, computed) of every line that differs from the table."""
    recorded = TABLE.read_text(encoding="utf-8").splitlines()
    computed = verdict_lines()
    diffs = [(n, a, b) for n, (a, b) in enumerate(zip(recorded, computed), start=1) if a != b]
    if len(recorded) != len(computed):
        diffs.append((None, f"{len(recorded)} lines", f"{len(computed)} lines"))
    return diffs


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        TABLE.write_text("\n".join(verdict_lines()) + "\n", encoding="utf-8")
        sys.exit(0)
    found = differences()
    for line, recorded, computed in found:
        print(f"line {line}: recorded {recorded!r}, computed {computed!r}")
    print(f"periodicity verdicts: {len(found)} differing lines")
    sys.exit(1 if found else 0)
