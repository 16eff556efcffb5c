"""Canonical heights by truncated limits with explicit tail bounds.

On the plane deg g^-1 = deg g, so a regular core map g has one degree
delta >= 2 in both directions (delta_- = delta, Friedland-Milnor), and every
formula below reads that one.  The forward component is the truncation

    v_N = h_nv(g^N x) / delta^N,

whose distance to the limit superior is controlled by the telescoped step
bound v_{l+1} <= v_l + c2 * delta^-(l+1): the limit never exceeds
v_N + c2 / ((delta - 1) delta^N).  The backward component is the same with
g^-1 and its own c2.  The reported estimate is the last
term v_N (not a max of the v_l): every later term lies within the reported
tail, and the observed Cauchy behaviour is surfaced through the lower_slack
field rather than hidden.  The rigorous lower bound comes from the height
inequality (1/delta) (h(g x) + h(g^-1 x)) >= (1 + 1/delta^2) h(x) - c,
which gives hhat >= h - L with L = delta^2 / (delta - 1)^2 c; the escape box
of g gives c explicitly, place by place (`EscapeBox.inequality`), once per
core map on first read.

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
only one).  The (hhat+, hhat-) pair of :mod:`planeheights.orbit` walks
nothing here: it reads the depth-N canonical heights at f^(+/-1)(x) off the
orbit tracker.  Each walk checks its steps through `Orbit.capped`, which names
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

import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from typing import List, NamedTuple, Optional, Tuple

from .automorphism import (
    DEFAULT_DIGIT_CAP,
    Orbit,
    PlaneAutomorphism,
    cap_bits,
    conjugate,
    dynamical_degree,
    inverse,
    is_regular,
)
from .errors import MapValidationError, ResourceCapError
from .heights import AffinePoint, lift

DEFAULT_DEPTH = 12


class _Engine(NamedTuple):
    g: PlaneAutomorphism
    delta: int
    gamma: Optional[PlaneAutomorphism]
    depth: int
    digit_cap: int


class HeightEngine(_Engine):
    """Immutable bundle of its inputs: the regular core g, its dynamical
    degree, the optional conjugator, the truncation depth and the digit cap.
    The growth constants are read off the core, which caches them; the outer
    map is composed on first read.  The orbit module
    holds the last point asked about on it, and the engine its outer map and
    constant L, in the instance's `__dict__`, outside the fields."""

    @property
    def delta_minus(self) -> int:
        """deg g^-1, reported only: it is delta on the regular core `make_engine`
        requires, and no formula reads it."""
        return self.delta

    @property
    def c2_fwd(self) -> float:
        return self.g.forms(True).c2

    @property
    def c2_inv(self) -> float:
        return self.g.forms(False).c2

    @cached_property
    def outer(self) -> PlaneAutomorphism:
        """f = gamma o g o gamma^-1, composed on first read."""
        return self.g if self.gamma is None else conjugate(self.g, inverse(self.gamma))

    def tail(self, forward: bool) -> float:
        """c2 / ((delta - 1) delta^N), the tail bound of the forward (backward)
        component at depth N, with the c2 of g (g^-1)."""
        return self.g.forms(forward).c2 / ((self.delta - 1) * self.delta**self.depth)

    def error_budget(self) -> float:
        """Combined tail bound of a canonical-height estimate at this depth."""
        return self.tail(True) + self.tail(False)

    def lower_bound_constant(self) -> float:
        """L of hhat >= h - L, read off the escape box of the core on first
        read and held in the instance's `__dict__`, outside the fields."""
        if "_lower" not in self.__dict__:
            self._lower = self.delta**2 / (self.delta - 1) ** 2 * self.g.escape_box.inequality
        return self._lower

    def to_conjugated_frame(self, x: AffinePoint) -> AffinePoint:
        if self.gamma is None:
            return x
        return self.gamma.apply_inverse(x)


def make_engine(
    g: PlaneAutomorphism,
    gamma: Optional[PlaneAutomorphism] = None,
    depth: int = DEFAULT_DEPTH,
    digit_cap: int = DEFAULT_DIGIT_CAP,
) -> HeightEngine:
    """Validate the core map and bundle it with its dynamical degree.

    The core must have dynamical degree >= 2 (triangularizable maps have no
    canonical height) and be regular; then delta = deg g = deg g^-1.
    The constant of the height inequality is not computed here: it is a field
    of the core's escape box, which the first estimate reads.
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
    # the tail bounds divide by (delta - 1) delta^depth; past depth 1024 that
    # passes the float range for any delta >= 2
    if depth > 1024 or (delta - 1) * delta**depth > sys.float_info.max:
        raise ValueError(f"depth {depth} is too large for delta {delta}: "
                         "(delta - 1) * delta^depth does not fit a float")
    if gamma is not None and gamma.is_identity():
        gamma = None
    return HeightEngine(g=g, delta=delta, gamma=gamma, depth=depth, digit_cap=digit_cap)


class HeightEstimate(NamedTuple):
    """A truncated canonical-height value with its explicit upper tail,
    empirical lower slack, and the proven lower bound rigorous_lower, from
    the height inequality with the constant of the core's escape box."""

    value: float
    tail: float
    lower_slack: float
    depth: int
    rigorous_lower: float

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
    """Backward component: v_N = h_nv(g^-N x)/delta^N with its tail bound."""
    return _half_estimate(engine, engine.g.orbit(lift(x)), 0, forward=False)


def _half_estimate(engine: HeightEngine, orbit: Orbit, base: int, forward: bool) -> HeightEstimate:
    """v_N from g^base z: N steps checked by `Orbit.capped`, then three sizes
    read, which the orbit takes off interval steps past SIZED_FROM_BITS bits."""
    n, delta, sign = engine.depth, engine.delta, 1 if forward else -1
    tail = engine.tail(forward)
    limit = cap_bits(engine.digit_cap)
    for step in range(1, n + 1):
        orbit.capped(base + sign * step, limit, base)
    h_0, h_prev, h_n = (orbit.size(base + sign * step)[1] for step in (0, n - 1, n))
    v_n = h_n / delta**n
    v_prev = h_prev / delta ** (n - 1)
    c2_other = engine.g.forms(not forward).c2 / (delta - 1)
    return HeightEstimate(
        value=v_n,
        tail=tail,
        lower_slack=abs(v_n - v_prev) + tail,
        depth=n,
        rigorous_lower=v_n - (engine.lower_bound_constant() + (h_0 + c2_other)) / delta**n,
    )


def _hcanonical_at(engine: HeightEngine, orbit: Orbit, base: int) -> HeightEstimate:
    hp = _half_estimate(engine, orbit, base, forward=True)
    hm = _half_estimate(engine, orbit, base, forward=False)
    floor = orbit.size(base)[1] - engine.lower_bound_constant()
    return HeightEstimate(
        value=hp.value + hm.value,
        tail=hp.tail + hm.tail,
        lower_slack=hp.lower_slack + hm.lower_slack,
        depth=engine.depth,
        rigorous_lower=max(hp.rigorous_lower + hm.rigorous_lower, floor),
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
    """|hhat(f x)/delta + hhat(f^-1 x)/delta - (1 + 1/delta^2) hhat(x)|
    on the value fields; the caller compares against the propagated budget."""
    at_fx, at_fix, at_x = (est.value for est in hcanonical_iterates(engine, x, (1, -1, 0)))
    lhs = at_fx / engine.delta + at_fix / engine.delta
    rhs = (1 + 1 / engine.delta**2) * at_x
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
