"""Logarithmic naive heights of rational points, and degree-d growth constants.

Over the rationals the place sum for the naive height collapses to
``log max|x_i|`` on a primitive integer lift, so all exactness-critical work
(normalization, iteration) stays in integers; only the final logarithm is a
float.  An affine point (x, y) is carried as its primitive lift (X, Y, Z)
with Z > 0 (`lift`), which is what the integer kernel of
:mod:`planeheights.automorphism` iterates; `naive_height` reads the height
straight off such a triple.  Logs of big integers go through
mantissa/exponent extraction, so the returned doubles are accurate to a few
ulps -- every inequality that touches them elsewhere is padded by 2**-40.

The number-field backend is deliberately stubbed behind ``naive_height``:
points are rational here, and the seam is the single place a places/embeddings
sum would plug in later.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .errors import PolyParseError
from .ratpoly import parse_rat

AffinePoint = Tuple[Fraction, Fraction]
ProjPoint = Tuple[int, ...]

_LN2 = math.log(2)


def log_int(n: int) -> float:
    """log of a positive integer of any size (mantissa + exponent extraction)."""
    if n <= 0:
        raise ValueError("log_int needs a positive integer")
    if n < (1 << 53):
        return math.log(n)
    shift = n.bit_length() - 53
    return math.log(n >> shift) + shift * _LN2


def normalize(raw: Sequence[Fraction]) -> ProjPoint:
    """Primitive integer vector projectively equal to raw.

    gcd of the coordinates is 1 and the first nonzero coordinate is positive.
    """
    coords = [Fraction(c) for c in raw]
    if all(c == 0 for c in coords):
        raise ValueError("projective point cannot be all zero")
    lcm = math.lcm(*(c.denominator for c in coords))
    ints = [c.numerator * (lcm // c.denominator) for c in coords]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


def naive_height(point: ProjPoint) -> float:
    """log max|coords| on a canonical (primitive) projective point."""
    return log_int(max(abs(c) for c in point))


def top(point: ProjPoint) -> int:
    """max(|X|, |Y|, Z) of a triple with Z > 0: h_nv is its log."""
    return max(abs(point[0]), abs(point[1]), point[2])


def lift(pt: AffinePoint) -> ProjPoint:
    """The primitive integer triple (X, Y, Z), Z > 0, of the affine point
    (X/Z, Y/Z).  Z is the lcm of the two reduced denominators, which already
    makes the triple primitive."""
    x, y = Fraction(pt[0]), Fraction(pt[1])
    bx, by = x.denominator, y.denominator
    z = bx * by // math.gcd(bx, by)
    return (x.numerator * (z // bx), y.numerator * (z // by), z)


def affine(point: ProjPoint) -> AffinePoint:
    """The affine point (X/Z, Y/Z) of a triple with Z != 0."""
    x, y, z = point
    return (Fraction(x, z), Fraction(y, z))


def naive_height_affine(pt: AffinePoint) -> float:
    return naive_height(lift(pt))


def growth_constant(automorphism, direction: str = "fwd") -> float:
    """The explicit constant c2 with h(f(x)) <= d*h(x) + c2 for rational points.

    C is the max, over the three integer forms of the compiled direction
    (the degree-d homogenizations of the two components with the common
    denominator m cleared, plus m*Z^d), of the sum of absolute values of
    coefficients; c2 = log C.  The bound follows from the triangle inequality
    on a primitive lift, since gcd removal only lowers the height.  It is
    computed once, when the direction is compiled (`IntegerForms.c2`).
    """
    if direction not in ("fwd", "inv"):
        raise ValueError("direction must be 'fwd' or 'inv'")
    return automorphism.forms(direction == "fwd").c2


def parse_affine_point(text: str) -> AffinePoint:
    """Parse 'X,Y' with rational components."""
    parts = text.split(",")
    if len(parts) != 2:
        raise PolyParseError(f"expected 'x,y', got {text!r}")
    return (parse_rat(parts[0]), parse_rat(parts[1]))


def read_point_file(path) -> list:
    """Point files: one 'x y' pair per line, '#' comments, blank lines skipped."""
    points = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise PolyParseError(f"line {lineno}: expected 'x y', got {body!r}")
            try:
                points.append((parse_rat(parts[0]), parse_rat(parts[1])))
            except PolyParseError as exc:
                raise PolyParseError(f"line {lineno}: {exc}") from None
    return points


def enumerate_points_up_to(bound: int) -> Iterable[AffinePoint]:
    """All affine rational points whose primitive lift (X, Y, Z) has
    max(|X|, |Y|, Z) <= bound; exactly the points with naive height <= log bound."""
    for z in range(1, bound + 1):
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                if math.gcd(math.gcd(abs(x), abs(y)), z) == 1:
                    yield (Fraction(x, z), Fraction(y, z))
