"""Canonical heights by truncated limits with explicit tail bounds.

For a regular core map g with degree delta >= 2 (and inverse degree
delta_minus), the forward component is the truncation

    v_N = h_nv(g^N x) / delta^N,

whose distance to the limit superior is controlled by the telescoped step
bound v_{l+1} <= v_l + c2 * delta^-(l+1): the limit never exceeds
v_N + c2 / ((delta - 1) delta^N).  The reported estimate is the last
term v_N (not a max of the v_l): every later term lies within the reported
tail, and the observed Cauchy behaviour is surfaced through the lower_slack
field rather than hidden.  A rigorous lower bound is available only when the
caller supplies the inequality constant c of the regular-map height bound;
the underlying theory guarantees such a c exists but gives no explicit value,
so it is an input here, not a guess.

A conjugator gamma turns the engine into the canonical height of the outer
map f = gamma o g o gamma^-1 via evaluation at gamma^-1(x).

Orbits are walked on the integer projective kernel of
:mod:`planeheights.automorphism`: the start is lifted once to its primitive
triple (X : Y : Z), every step is an integer evaluation plus one gcd, and
h_nv = log max(|X|, |Y|, Z) is read off the triple, so no `Fraction` is
built inside a walk.  The digit cap is tested on the triple's largest
coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from mpmath import mp

from .automorphism import (
    DEFAULT_DIGIT_CAP,
    PlaneAutomorphism,
    cap_bits,
    compose_maps,
    dynamical_degree,
    inverse,
)
from .errors import MapValidationError, ResourceCapError
from .heights import AffinePoint, lift, log_int, naive_height, naive_height_affine
from .heights import growth_constant as _growth_constant

DEFAULT_DEPTH = 12


@dataclass(frozen=True)
class HeightEngine:
    """Immutable bundle of the regular core g, its degrees, growth constants,
    optional conjugator, truncation depth, and resource limits."""

    g: PlaneAutomorphism
    delta: int
    delta_minus: int
    gamma: Optional[PlaneAutomorphism]
    outer: PlaneAutomorphism
    c2_fwd: float
    c2_inv: float
    depth: int
    c_lower: Optional[float]
    digit_cap: int

    def tail_fwd(self, depth: Optional[int] = None) -> float:
        n = self.depth if depth is None else depth
        return self.c2_fwd / ((self.delta - 1) * self.delta**n)

    def tail_inv(self, depth: Optional[int] = None) -> float:
        n = self.depth if depth is None else depth
        return self.c2_inv / ((self.delta_minus - 1) * self.delta_minus**n)

    def error_budget(self) -> float:
        """Combined tail bound of a canonical-height estimate at this depth."""
        return self.tail_fwd() + self.tail_inv()

    def lower_bound_constant(self) -> Optional[float]:
        if self.c_lower is None:
            return None
        dd = self.delta * self.delta_minus
        return dd / ((self.delta - 1) * (self.delta_minus - 1)) * self.c_lower

    def to_conjugated_frame(self, x: AffinePoint) -> AffinePoint:
        if self.gamma is None:
            return x
        return self.gamma.apply_inverse(x)


def make_engine(
    g: PlaneAutomorphism,
    gamma: Optional[PlaneAutomorphism] = None,
    depth: int = DEFAULT_DEPTH,
    c_lower: Optional[float] = None,
    digit_cap: int = DEFAULT_DIGIT_CAP,
) -> HeightEngine:
    """Validate the core map and precompute its degrees and growth constants.

    The core must be regular with dynamical degree >= 2 (equivalently
    delta = deg g >= 2); triangularizable maps have no canonical height.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if digit_cap < 10_000:
        raise ValueError("digit cap must be >= 10^4")
    d = g.degree()
    if d < 2:
        raise MapValidationError("canonical heights need dynamical degree >= 2 (degree-1 core)")
    delta = dynamical_degree(g)
    if delta != d:
        raise MapValidationError(
            f"core map is not regular (dynamical degree {delta} < degree {d}); "
            "supply a conjugate composed of Henon maps plus the conjugator gamma"
        )
    delta_minus = g.inverse_degree()
    if delta_minus < 2:
        raise MapValidationError("inverse degree must be >= 2")
    if gamma is not None and gamma.is_identity():
        gamma = None
    outer = g if gamma is None else compose_maps(compose_maps(gamma, g), inverse(gamma))
    return HeightEngine(
        g=g,
        delta=delta,
        delta_minus=delta_minus,
        gamma=gamma,
        outer=outer,
        c2_fwd=_growth_constant(g, "fwd"),
        c2_inv=_growth_constant(g, "inv"),
        depth=depth,
        c_lower=c_lower,
        digit_cap=digit_cap,
    )


@dataclass(frozen=True)
class HeightEstimate:
    """A truncated canonical-height value with its explicit upper tail and
    empirical lower slack; rigorous_lower is present only when the engine was
    given the regular-map inequality constant."""

    value: float
    tail: float
    lower_slack: float
    depth: int
    rigorous_lower: Optional[float] = None

    @property
    def upper_bound(self) -> float:
        return self.value + self.tail


def _top(point) -> int:
    """max(|X|, |Y|, Z) of a triple with Z > 0: h_nv is its log."""
    return max(abs(point[0]), abs(point[1]), point[2])


def _capped_height(point, limit: int, step: int, direction: str) -> float:
    """h_nv of a triple, refusing it when its largest coordinate has more
    than `limit` bits."""
    top = _top(point)
    if top.bit_length() > limit:
        raise ResourceCapError(
            f"coordinate exceeded the digit cap at iterate {direction}{step}"
        )
    return log_int(top)


def _orbit_heights(engine: HeightEngine, x: AffinePoint, steps: int, forward: bool) -> List[float]:
    """[h_nv(g^0 x), ..., h_nv(g^(+/-steps) x)] along the integer kernel, with
    the digit cap on each iterate's largest triple coordinate."""
    limit = cap_bits(engine.digit_cap)
    step_fn = engine.g.forms(forward).step
    tag = "+" if forward else "-"
    pt = lift(x)
    hs = [naive_height(pt)]
    for step in range(1, steps + 1):
        pt = step_fn(pt)
        hs.append(_capped_height(pt, limit, step, tag))
    return hs


def hplus(engine: HeightEngine, x: AffinePoint) -> HeightEstimate:
    """Forward component: v_N = h_nv(g^N x)/delta^N with its tail bound."""
    return _half_estimate(engine, x, forward=True)


def hminus(engine: HeightEngine, x: AffinePoint) -> HeightEstimate:
    """Backward component: v_N = h_nv(g^-N x)/delta_-^N with its tail bound."""
    return _half_estimate(engine, x, forward=False)


def _half_estimate(engine: HeightEngine, x: AffinePoint, forward: bool) -> HeightEstimate:
    n = engine.depth
    base = engine.delta if forward else engine.delta_minus
    tail = engine.tail_fwd() if forward else engine.tail_inv()
    hs = _orbit_heights(engine, x, n, forward)
    v_n = hs[n] / base**n
    v_prev = hs[n - 1] / base ** (n - 1)
    rigorous = None
    if engine.c_lower is not None:
        floor_shift = engine.lower_bound_constant()
        if forward:
            ceiling_other = hs[0] + engine.c2_inv / (engine.delta_minus - 1)
        else:
            ceiling_other = hs[0] + engine.c2_fwd / (engine.delta - 1)
        rigorous = v_n - (floor_shift + ceiling_other) / base**n
    return HeightEstimate(
        value=v_n,
        tail=tail,
        lower_slack=abs(v_n - v_prev) + tail,
        depth=n,
        rigorous_lower=rigorous,
    )


def hcanonical(engine: HeightEngine, x: AffinePoint) -> HeightEstimate:
    """hplus + hminus, evaluated at gamma^-1(x) when a conjugator is present."""
    z = engine.to_conjugated_frame(x)
    hp = hplus(engine, z)
    hm = hminus(engine, z)
    rigorous = None
    if engine.c_lower is not None:
        floor = naive_height_affine(z) - engine.lower_bound_constant()
        rigorous = max(hp.rigorous_lower + hm.rigorous_lower, floor)
    return HeightEstimate(
        value=hp.value + hm.value,
        tail=hp.tail + hm.tail,
        lower_slack=hp.lower_slack + hm.lower_slack,
        depth=engine.depth,
        rigorous_lower=rigorous,
    )


def functional_equation_residual(engine: HeightEngine, x: AffinePoint) -> float:
    """|hhat(f x)/delta + hhat(f^-1 x)/delta_- - (1 + 1/(delta delta_-)) hhat(x)|
    on the value fields; the caller compares against the propagated budget."""
    f = engine.outer
    at_fx = hcanonical(engine, f.apply(x)).value
    at_fix = hcanonical(engine, f.apply_inverse(x)).value
    at_x = hcanonical(engine, x).value
    lhs = at_fx / engine.delta + at_fix / engine.delta_minus
    rhs = (1 + 1 / (engine.delta * engine.delta_minus)) * at_x
    return abs(lhs - rhs)


# -- periodicity ---------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicityVerdict:
    kind: str  # "periodic" | "not_periodic" | "undecided"
    period: Optional[int] = None
    detail: str = ""

    @property
    def is_periodic(self) -> bool:
        return self.kind == "periodic"


def _default_certificate_depth(delta: int) -> int:
    # deep enough that the tail bound is ~c2/2000 regardless of delta
    return max(3, math.ceil(math.log(2048) / math.log(delta)))


def is_periodic(
    f: PlaneAutomorphism,
    x: AffinePoint,
    max_iter: int = 200,
    patience: int = 5,
    digit_cap: int = DEFAULT_DIGIT_CAP,
) -> PeriodicityVerdict:
    """Decide periodicity by exact iteration.

    Cycle detection is complete: an automorphism orbit revisits a point only
    by returning to its start, so f^m(x) = x is detected at the first revisit.
    The not_periodic certificate is the height-growth heuristic: naive heights
    along both time directions must exceed h_nv(x) + c2/(delta-1) + 1 and grow
    monotonically for `patience` consecutive steps, and (on regular maps) the
    canonical-height estimate must exceed its error budget.  Anything else is
    reported as undecided, never as a wrong answer.
    """
    start = lift(x)
    limit = cap_bits(digit_cap)
    delta = dynamical_degree(f)
    growth_ready = delta >= 2
    if growth_ready:
        c2f = _growth_constant(f, "fwd")
        c2i = _growth_constant(f, "inv")
        h0 = naive_height(start)
        threshold_fwd = h0 + c2f / (delta - 1) + 1
        threshold_bwd = h0 + c2i / (delta - 1) + 1

    fwd_step, bwd_step = f.forms(True).step, f.forms(False).step
    fwd_pt, bwd_pt = start, start
    fwd_run = bwd_run = 0
    fwd_last = bwd_last = -math.inf
    fwd_live = bwd_live = True
    height_check_done = False
    for step in range(1, max_iter + 1):
        # cycle detection keeps running after the growth runs complete: a
        # periodic orbit may ride a height excursion before closing, and its
        # bounded coordinates make the extra iteration cheap.  Primitive
        # triples with Z > 0 are unique, so equal points are equal triples.
        if fwd_live:
            fwd_pt = fwd_step(fwd_pt)
            if fwd_pt == start:
                return PeriodicityVerdict("periodic", period=step)
            top = _top(fwd_pt)
            if top.bit_length() > limit:
                fwd_live = False
            if growth_ready:
                h = log_int(top)
                fwd_run = fwd_run + 1 if (h > threshold_fwd and h > fwd_last) else 0
                fwd_last = h
        if bwd_live:
            bwd_pt = bwd_step(bwd_pt)
            if bwd_pt == start:
                return PeriodicityVerdict("periodic", period=step)
            top = _top(bwd_pt)
            if top.bit_length() > limit:
                bwd_live = False
            if growth_ready:
                h = log_int(top)
                bwd_run = bwd_run + 1 if (h > threshold_bwd and h > bwd_last) else 0
                bwd_last = h
        if (growth_ready and not height_check_done
                and fwd_run >= patience and bwd_run >= patience):
            height_check_done = True  # the estimate depends on x only
            if _canonical_height_clearly_positive(f, x, digit_cap):
                return PeriodicityVerdict(
                    "not_periodic",
                    detail=(f"heights grew monotonically past the divergence threshold "
                            f"for {patience} steps in both directions"),
                )
        if not fwd_live and not bwd_live:
            return PeriodicityVerdict(
                "undecided", detail="coordinate growth hit the digit cap before any certificate"
            )
    return PeriodicityVerdict("undecided", detail=f"no certificate after {max_iter} iterations")


def _canonical_height_clearly_positive(f: PlaneAutomorphism, x: AffinePoint, digit_cap: int) -> bool:
    if dynamical_degree(f) != f.degree():
        return True  # non-regular frame: rely on the growth certificate alone
    engine = make_engine(f, depth=_default_certificate_depth(f.degree()), digit_cap=digit_cap)
    estimate = hcanonical(engine, x)
    return estimate.value > engine.error_budget()


# -- the quadratic recursion behind the sharpness bound ------------------------

@dataclass(frozen=True)
class RecursionClassification:
    regime: str  # "diverges" | "tends_to_one" | "tends_to_zero"
    trajectory: Tuple[float, ...]


def classify_quadratic_recursion(a, big_d, length: int) -> RecursionClassification:
    """Classify the recursion a_{l+1} = a_l^2 - 2*D^(-2^l) for D >= 4, a >= 1.

    The regime boundary sits exactly at a = 1 + 1/D (above: divergence; at:
    limit 1, with a_l = 1 + D^(-2^l) in closed form; below: limit 0), so the
    comparison is done in exact rational arithmetic -- pass a and D as
    Fractions or strings when the boundary case matters.  The returned
    trajectory is iterated at 60 significant digits and rounded to floats;
    entries beyond float range come back as +inf.
    """
    a = Fraction(a)
    big_d = Fraction(big_d)
    if big_d < 4:
        raise ValueError("D must be >= 4")
    if a < 1:
        raise ValueError("a must be >= 1")
    if length < 1:
        raise ValueError("length must be >= 1")
    boundary = 1 + Fraction(1, big_d)
    if a > boundary:
        regime = "diverges"
    elif a == boundary:
        regime = "tends_to_one"
    else:
        regime = "tends_to_zero"

    trajectory = []
    with mp.workdps(60):
        cur = mp.mpf(a.numerator) / a.denominator
        d_mp = mp.mpf(big_d.numerator) / big_d.denominator
        trajectory.append(_to_float(cur))
        for l in range(length):
            cur = cur * cur - 2 * d_mp ** (-(2**l))
            trajectory.append(_to_float(cur))
    return RecursionClassification(regime, tuple(trajectory))


def _to_float(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
