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

Every quantity here is a reading along the one exact orbit of
z = gamma^-1(x) under g, which the core map holds (`PlaneAutomorphism.orbit`,
on the integer projective kernel of :mod:`planeheights.automorphism`), and
no `Fraction` is built inside a walk.  Values at f^s(x) are the same orbit
read from index s, which is exact because gamma^-1(f^s x) = g^s(z) and
primitive triples with Z > 0 are unique; so hplus, hminus, hcanonical, the
functional equation and the periodicity test at one point share one orbit,
the one the core map keeps (see :mod:`planeheights.automorphism` for why
only one).  Each walk checks its steps through `Orbit.capped`, which names
a refused iterate relative to the walk's own base point, and reads h_nv =
log max(|X|, |Y|, Z) off `Orbit.size`, which measures each iterate once for
all of them.  A walk never reads the coordinates of its iterates, only
their sizes, so the orbit sizes every iterate past its first triple of
`SIZED_FROM_BITS` bits off interval steps, and a walk builds no triple much
larger than that: at depth N, the functional equation's walks from f(x)
and f^-1(x) read sizes to +-(N + 1), and the refusal of a walk at the
digit cap is read off sizes alone.  The dynamical degree, the growth
constants and the escape box are cached on the map.
"""

from __future__ import annotations

import math
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .automorphism import (
    DEFAULT_DIGIT_CAP,
    Orbit,
    PlaneAutomorphism,
    cap_bits,
    compose_maps,
    dynamical_degree,
    inverse,
    is_regular,
)
from .errors import MapValidationError, ResourceCapError
from .heights import AffinePoint, lift
from .heights import growth_constant as _growth_constant

DEFAULT_DEPTH = 12


class _Engine(NamedTuple):
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


class HeightEngine(_Engine):
    """Immutable bundle of the regular core g, its degrees, growth constants,
    optional conjugator, truncation depth, and resource limits.  The orbit
    module holds the last point asked about on it in the instance's
    `__dict__`, outside the fields."""

    def tail_fwd(self) -> float:
        return self.c2_fwd / ((self.delta - 1) * self.delta**self.depth)

    def tail_inv(self) -> float:
        return self.c2_inv / ((self.delta_minus - 1) * self.delta_minus**self.depth)

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

    The core must have dynamical degree >= 2 (triangularizable maps have no
    canonical height) and be regular; then delta = deg g = deg g^-1 = delta_minus.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if digit_cap < 10_000:
        raise ValueError("digit cap must be >= 10^4")
    delta = dynamical_degree(g)
    if delta < 2:
        raise MapValidationError(
            f"core map has dynamical degree {delta}: canonical heights exist only for "
            "dynamical degree >= 2; triangularizable maps are excluded"
        )
    if not is_regular(g):
        raise MapValidationError(
            f"core map is not regular (dynamical degree {delta} < degree {g.degree()}); "
            "supply a conjugate composed of Henon maps plus the conjugator gamma"
        )
    # the tail bounds divide by (delta - 1) delta^depth, delta_minus = delta on a
    # regular core; past depth 1024 that passes the float range for any delta >= 2
    if depth > 1024 or (delta - 1) * delta**depth > sys.float_info.max:
        raise ValueError(f"depth {depth} is too large for delta {delta}: "
                         "(delta - 1) * delta^depth does not fit a float")
    if gamma is not None and gamma.is_identity():
        gamma = None
    outer = g if gamma is None else compose_maps(compose_maps(gamma, g), inverse(gamma))
    engine = HeightEngine(
        g=g,
        delta=delta,
        delta_minus=g.inverse_degree(),
        gamma=gamma,
        outer=outer,
        c2_fwd=_growth_constant(g, "fwd"),
        c2_inv=_growth_constant(g, "inv"),
        depth=depth,
        c_lower=c_lower,
        digit_cap=digit_cap,
    )
    if c_lower is not None and not math.isfinite(engine.lower_bound_constant()):
        raise ValueError(f"c_lower {c_lower} gives a lower-bound constant that is not a finite number")
    return engine


class HeightEstimate(NamedTuple):
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


def _core_orbit(engine: HeightEngine, x: AffinePoint) -> Orbit:
    """The orbit of z = gamma^-1(x) under the core map g."""
    return engine.g.orbit(lift(engine.to_conjugated_frame(x)))


def hplus(engine: HeightEngine, x: AffinePoint) -> HeightEstimate:
    """Forward component: v_N = h_nv(g^N x)/delta^N with its tail bound."""
    return _half_estimate(engine, engine.g.orbit(lift(x)), 0, forward=True)


def hminus(engine: HeightEngine, x: AffinePoint) -> HeightEstimate:
    """Backward component: v_N = h_nv(g^-N x)/delta_-^N with its tail bound."""
    return _half_estimate(engine, engine.g.orbit(lift(x)), 0, forward=False)


def _half_estimate(engine: HeightEngine, orbit: Orbit, base: int, forward: bool) -> HeightEstimate:
    """v_N from g^base z: N steps checked by `Orbit.capped`, then three sizes
    read, which the orbit takes off interval steps past SIZED_FROM_BITS bits."""
    n = engine.depth
    sign, base_degree = (1, engine.delta) if forward else (-1, engine.delta_minus)
    tail = engine.tail_fwd() if forward else engine.tail_inv()
    limit = cap_bits(engine.digit_cap)
    for step in range(1, n + 1):
        orbit.capped(base + sign * step, limit, base)
    h_0, h_prev, h_n = (orbit.size(base + sign * step)[1] for step in (0, n - 1, n))
    v_n = h_n / base_degree**n
    v_prev = h_prev / base_degree ** (n - 1)
    rigorous = None
    if engine.c_lower is not None:
        c2_other = engine.c2_inv / (engine.delta_minus - 1) if forward else engine.c2_fwd / (engine.delta - 1)
        rigorous = v_n - (engine.lower_bound_constant() + (h_0 + c2_other)) / base_degree**n
    return HeightEstimate(
        value=v_n,
        tail=tail,
        lower_slack=abs(v_n - v_prev) + tail,
        depth=n,
        rigorous_lower=rigorous,
    )


def _hcanonical_at(engine: HeightEngine, orbit: Orbit, base: int) -> HeightEstimate:
    hp = _half_estimate(engine, orbit, base, forward=True)
    hm = _half_estimate(engine, orbit, base, forward=False)
    rigorous = None
    if engine.c_lower is not None:
        floor = orbit.size(base)[1] - engine.lower_bound_constant()
        rigorous = max(hp.rigorous_lower + hm.rigorous_lower, floor)
    return HeightEstimate(
        value=hp.value + hm.value,
        tail=hp.tail + hm.tail,
        lower_slack=hp.lower_slack + hm.lower_slack,
        depth=engine.depth,
        rigorous_lower=rigorous,
    )


def hcanonical(engine: HeightEngine, x: AffinePoint) -> HeightEstimate:
    """hplus + hminus, evaluated at gamma^-1(x) when a conjugator is present."""
    return _hcanonical_at(engine, _core_orbit(engine, x), 0)


def hcanonical_iterates(engine: HeightEngine, x: AffinePoint, shifts) -> List[HeightEstimate]:
    """hcanonical at f^s(x) for each s in `shifts`, in order: the orbit of
    gamma^-1(x) read from index s, with no new walk."""
    orbit = _core_orbit(engine, x)
    return [_hcanonical_at(engine, orbit, s) for s in shifts]


def functional_equation_residual(engine: HeightEngine, x: AffinePoint) -> float:
    """|hhat(f x)/delta + hhat(f^-1 x)/delta_- - (1 + 1/(delta delta_-)) hhat(x)|
    on the value fields; the caller compares against the propagated budget."""
    at_fx, at_fix, at_x = (est.value for est in hcanonical_iterates(engine, x, (1, -1, 0)))
    lhs = at_fx / engine.delta + at_fix / engine.delta_minus
    rhs = (1 + 1 / (engine.delta * engine.delta_minus)) * at_x
    return abs(lhs - rhs)


# -- periodicity ---------------------------------------------------------------

class PeriodicityVerdict(NamedTuple):
    kind: str  # "periodic" | "not_periodic" | "undecided"
    period: Optional[int] = None
    detail: str = ""

    @property
    def is_periodic(self) -> bool:
        return self.kind == "periodic"


def is_periodic(f: PlaneAutomorphism, x: AffinePoint,
                digit_cap: int = DEFAULT_DIGIT_CAP) -> PeriodicityVerdict:
    """The verdict read off where the forward orbit of x leaves f's escape
    box (`Orbit.exit`): not_periodic at the first iterate outside the box
    (a point outside escapes forward or backward at the place where it lies
    outside; the detail names the iterate and the place), or periodic at
    the first return to x, with that as period.  The box holds finitely
    many rational points and f is a bijection, so the walk ends.  An
    iterate that `Orbit.capped` refuses at `digit_cap` gives undecided,
    naming it, and so does a map that is not regular, which has no box,
    with no walk."""
    if f.escape_box is None:
        return PeriodicityVerdict("undecided", detail="the map is not regular, so it has no escape box")
    try:
        k, place = f.orbit(lift(x)).exit(True, cap_bits(digit_cap))
    except ResourceCapError as exc:
        return PeriodicityVerdict("undecided", detail=str(exc))
    if place is None:
        return PeriodicityVerdict("periodic", period=k)
    return PeriodicityVerdict("not_periodic", detail=f"iterate {k:+d} lies outside the escape box at {place}")


# -- the quadratic recursion behind the sharpness bound ------------------------

class RecursionClassification(NamedTuple):
    regime: str  # "diverges" | "tends_to_one" | "tends_to_zero"
    trajectory: Tuple[float, ...]


def classify_quadratic_recursion(a, big_d, length: int) -> RecursionClassification:
    """Classify the recursion a_{l+1} = a_l^2 - 2*D^(-2^l) for D >= 4, a >= 1.

    The regime boundary sits exactly at a = 1 + 1/D (above: divergence; at:
    limit 1, with a_l = 1 + D^(-2^l) in closed form; below: limit 0), so the
    comparison is done in exact rational arithmetic -- pass a and D as
    Fractions or strings when the boundary case matters.  The returned
    trajectory is iterated in `decimal` at 60 significant digits over the
    widest exponent range, with no trap (an overflow becomes Infinity), and
    rounded to floats: entries beyond float range come back as +inf, and
    entries below it as 0.
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
    with localcontext(Context(prec=60, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])):
        cur = Decimal(a.numerator) / a.denominator
        d_dec = Decimal(big_d.numerator) / big_d.denominator
        trajectory.append(float(cur))
        for l in range(length):
            cur = cur * cur - 2 * d_dec ** (-(2**l))
            trajectory.append(float(cur))
    return RecursionClassification(regime, tuple(trajectory))
