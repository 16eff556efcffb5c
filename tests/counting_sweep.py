"""The counting sweep: every counting result of the bench corpus engines over
a grid of integral starts, thresholds and digit caps, against a recorded table.

The grid is the engines H2, H3, C6 = H2 o H3 and H2 conjugated by (x + 1, y),
at depths 12, 8, 5 and 12; the integral starts of [-4, 4]^2; T = e^5, e^9,
e^13, e^17 and e^21; and the default digit cap and 10^4 digits.  Each run
records the observed count and pass flag of `counting_enclosure` and the
count of the naive `count_below`, or for either the class and text of its
refusal.  No float is recorded, so a libm that rounds a last bit
differently cannot move the table.  Every start is integral on an integral
map, so the counts read the orbit's sizes up to each direction's escape
tail and its log recurrence past it, under either cap; (hhat+, hhat-) reads
the same tracker, so only periodic points refuse, and each row at the
10^4-digit cap equals its row at the default cap.

`tests/test_golden.py` compares the sweep with the table in process.  Run
as a script,

    python tests/counting_sweep.py

it does the same and exits 1 when any row differs; `--record` rewrites
tests/data/counting_sweep.tsv instead, for an intended change of results.
It imports only the standard library and the package.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

TABLE = Path(__file__).parent / "data" / "counting_sweep.tsv"

H2 = {"type": "henon", "a": "1", "p": "x^2"}
H3 = {"type": "henon", "a": "-1", "p": "x^3 - 2*x + 1"}
# name -> (map document, depth); "compose" applies right-to-left
ENGINES = {
    "H2": (H2, 12),
    "H3": (H3, 8),
    "C6": ({"type": "compose", "maps": [H2, H3]}, 5),
    "conj-H2": ({"type": "conjugate", "inner": H2,
                 "by": {"type": "triangular", "a": "1", "b": "1", "c": "0", "P": "1"}}, 12),
}
CAPS = ("default", 10_000)
EXPONENTS = (5, 9, 13, 17, 21)
SPAN = range(-4, 5)


def _outcome(read):
    """read()'s result, or the class and text of the library refusal it raises."""
    from planeheights.errors import PlaneHeightsError

    try:
        return read()
    except PlaneHeightsError as exc:
        return f"{type(exc).__name__}: {exc}"


def sweep():
    """The rows of the sweep, each a tab-separated line."""
    from planeheights.automorphism import conjugate_parts
    from planeheights.canonical import make_engine
    from planeheights.orbit import count_below, counting_enclosure

    rows = []
    for name, (doc, depth) in ENGINES.items():
        for cap in CAPS:
            g, gamma = conjugate_parts(doc)
            engine = make_engine(g, gamma=gamma, depth=depth,
                                 **({} if cap == "default" else {"digit_cap": cap}))
            for x in SPAN:
                for y in SPAN:
                    pt = (Fraction(x), Fraction(y))
                    for k in EXPONENTS:
                        t = math.exp(k)
                        enc = _outcome(lambda: counting_enclosure(engine, pt, t))
                        if not isinstance(enc, str):
                            enc = f"{enc.observed} {'pass' if enc.passed else 'fail'}"
                        naive = _outcome(lambda: count_below(engine, pt, t, "naive"))
                        rows.append(f"{name}\t{cap}\t{x},{y}\te^{k}\t{enc}\t{naive}")
    return rows


def differences():
    """(row number, recorded, swept) of every row that differs from the table."""
    recorded = TABLE.read_text(encoding="utf-8").splitlines()[1:]
    swept = sweep()
    diffs = [(n, a, b) for n, (a, b) in enumerate(zip(recorded, swept), start=2) if a != b]
    if len(recorded) != len(swept):
        diffs.append((None, f"{len(recorded)} rows", f"{len(swept)} rows"))
    return diffs


HEADER = "engine\tcap\tstart\tT\tcounting_enclosure\tcount_below naive"


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        TABLE.write_text("\n".join([HEADER, *sweep()]) + "\n", encoding="utf-8")
        sys.exit(0)
    found = differences()
    for row, recorded, swept in found:
        print(f"row {row}: recorded {recorded!r}, swept {swept!r}")
    print(f"counting sweep: {len(found)} differing rows")
    sys.exit(1 if found else 0)
