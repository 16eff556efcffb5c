"""Orbit-level canonical heights, exact point counting, and the counting
enclosures.

Counting runs need naive heights of iterates far past the point where exact
coordinates stop being storable (a threshold T = e^21 pulls in iterates whose
coordinates would have ~10^8 digits).  The orbit tracker reads one interval
chain, the orbit's own.  Up to the digit cap it reads the sizes the orbit
the map holds measured once (`Orbit.size`, checked by `Orbit.capped`): the
orbit builds triples (X : Y : Z) only up to its first of `SIZED_FROM_BITS`
bits and sizes the iterates past it off interval steps, so nothing near the
cap is built.  Past the cap the tracker reads the orbit's enclosures of the
iterates themselves (`Orbit.enclosure`), outward-rounded interval
coordinates (an `Interval` of :mod:`planeheights.automorphism` is a pair of
integer mantissas of at most 192 bits under a Python-int binary exponent,
so e^(10^9)-sized values cost no more than small ones).  It goes on only
when the map provably preserves integer points in both directions (all
coefficients integral, integral start): there m = 1 and Z = 1, so h = log
max(|X|, |Y|, 1) is the exact naive height, and a step is the ring
arithmetic of `IntegerForms.image` alone, which maps the interval triple
(X, Y, 1) as it is.  On any other map the digit cap's refusal stands.
Interval widths stay certified, so a count is exact unless an enclosure
straddles the threshold, which the scan reports instead of hiding.  The
orbit keeps its enclosures and a tracker its height enclosures, so each
interval step is taken once per orbit, however many trackers read it.

A counting scan walks downhill to the orbit's lowest sample and counts
outward from it, so every point of one orbit gives the same count.  Canonical
heights delta^l hhat+ + delta_-^(-l) hhat- are convex in l, so a canonical
scan stops at the first sample above the threshold; `patience` bounds only
naive scans, whose heights are not convex near the minimum.

The tracker, the periodicity verdict and the canonical heights at
f^(+/-1)(x) behind (hhat+, hhat-) read the one orbit the engine's core holds.
Every reader takes a `HeightEngine`, at its digit cap.  An engine holds the
point it was last asked about, as a map holds one orbit: one verdict, one
(hhat+, hhat-) pair and one canonical tracker, each filled on first use.
So the orbit record and every threshold of a counting run share one
verdict, one pair and one tracker.  The verdict comes first, since hhat
= 0 exactly at periodic points: every engine reader but `orbit_height` (-inf
there) takes (hhat+, hhat-) through `_infinite_components`, which refuses a
periodic point, then a pair not resolved above zero as a depth cap.  So
only the verdict refuses as undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from .automorphism import DEFAULT_DIGIT_CAP, PlaneAutomorphism, cap_bits
from .canonical import HeightEngine, hcanonical_iterates, is_periodic
from .errors import (
    OutOfRangeError,
    PeriodicPointError,
    ResourceCapError,
    UndecidedPeriodicityError,
)
from .heights import AffinePoint, affine, lift

NEG_INFINITY = float("-inf")  # distinguished 'finite orbit' value, never used in arithmetic


class OrbitHeightTracker:
    """Lazy h_nv(f^l(x)) for l in Z: the sizes of the orbit the map holds
    up to the digit cap, and past it the orbit's interval enclosures.  The
    tracker keeps per direction (indexed by l >= 0) how many iterates from
    0 on passed the cap test, whether the cap has refused the next one, and
    the enclosures of h_nv read so far."""

    def __init__(self, auto: PlaneAutomorphism, x: AffinePoint, digit_cap: int = DEFAULT_DIGIT_CAP):
        start = lift(x)
        self._orbit = auto.orbit(start)
        self._certified = auto.is_integral and start[2] == 1
        self._cap = cap_bits(digit_cap)
        self._under = [1, 1]
        self._refused = [False, False]
        self._bounds: Dict[int, Tuple[float, float]] = {}

    def _past_cap(self, l: int) -> bool:
        """Whether f^l(x) lies past the digit cap, walking the cap test up to
        it; a refusal stands unless the map is certified integral."""
        forward, k = l >= 0, abs(l)
        n = self._under[forward]
        while not self._refused[forward] and n <= k:
            try:
                self._orbit.capped(n if forward else -n, self._cap)
            except ResourceCapError as exc:
                if not self._certified:
                    raise ResourceCapError(
                        f"orbit {exc}, and the map is not certified integral, so interval "
                        "tracking cannot take over", exc.iterate, exc.bound_bits
                    ) from None
                # certified: Z == 1 and m == 1, so X and Y are the coordinates
                # themselves, and the orbit's enclosures step with no gcd
                self._refused[forward] = True
                break
            n += 1
            self._under[forward] = n
        return k >= n

    def point(self, l: int) -> AffinePoint:
        """Exact coordinates of f^l(x), for an iterate the orbit has built."""
        triple = self._orbit.built(l)
        if triple is None:
            raise ResourceCapError(f"iterate {l} is no longer held exactly", iterate=l)
        return affine(triple)

    # -- heights ---------------------------------------------------------------

    def h_bounds(self, l: int) -> Tuple[float, float]:
        """Certified [lo, hi] enclosure of h_nv(f^l(x)).

        Past the digit cap, h = log max(|X|, |Y|, 1) is read off the interval
        coordinates as log_int(mantissa) + e log 2 at each endpoint.  Both
        terms are non-negative, so the sum is within a few ulps of the true
        log of the endpoint (log_int is good to a few ulps, the product and
        the sum add one rounding each).  The pad 1e-12 max(1, |h|) + 1e-12
        is more than 1000 ulps of h, so the padded bounds still enclose h.
        """
        cached = self._bounds.get(l)
        if cached is not None:
            return cached
        if not self._past_cap(l):
            h = self._orbit.size(l)[1]
            pad = 2.0**-40 * max(1.0, abs(h))
            found = (h - pad, h + pad)
        else:
            x, y, _ = self._orbit.enclosure(l)
            (x_lo, x_hi), (y_lo, y_hi) = x.log_abs(), y.log_abs()
            h_lo, h_hi = max(x_lo, y_lo, 0.0), max(x_hi, y_hi, 0.0)
            pad = 1e-12 * max(1.0, abs(h_hi)) + 1e-12
            found = (h_lo - pad, h_hi + pad)
            if found[1] - found[0] > 1e-6 * max(1.0, abs(found[1])):
                raise ResourceCapError(f"interval arithmetic lost precision at iterate {l}", iterate=l)
        self._bounds[l] = found
        return found

    def h(self, l: int) -> float:
        lo, hi = self.h_bounds(l)
        return 0.5 * (lo + hi)


# -- hhat+/hhat- from the functional identities --------------------------------

def hpm_from_h(engine: HeightEngine, x: AffinePoint) -> Tuple[float, float]:
    """(hhat+, hhat-) recovered from canonical-height values at f(x), f^-1(x).

    When the engine height is the truncated-limit construction these agree
    with hplus/hminus up to the error budgets.
    """
    d, dm = engine.delta, engine.delta_minus
    at_fx, at_fix = (est.value for est in hcanonical_iterates(engine, x, (1, -1)))
    kappa = (d * dm) / ((d * dm) ** 2 - 1)
    h_plus = kappa * (dm * at_fx - at_fix / dm)
    h_minus = kappa * (d * at_fix - at_fx / d)
    return (h_plus, h_minus)


def _hpm_error_budget(engine: HeightEngine) -> float:
    """Uniform first-order bound on |estimate - truth| for the hpm components."""
    d, dm = engine.delta, engine.delta_minus
    kappa = (d * dm) / ((d * dm) ** 2 - 1)
    return kappa * (dm + 1 / dm + d + 1 / d) * engine.error_budget()


def orbit_height_slack(engine: HeightEngine, x: AffinePoint) -> float:
    """First-order error of orbit_height induced by the component budgets."""
    return _slack(engine, *_infinite_components(engine, x, "finite orbit has no orbit-height slack"))


def _slack(engine: HeightEngine, h_plus: float, h_minus: float) -> float:
    err = _hpm_error_budget(engine)
    return err / (h_plus * math.log(engine.delta)) + err / (h_minus * math.log(engine.delta_minus))


def min_height_epsilons(delta: int, delta_minus: int) -> Tuple[float, float]:
    """(eps1, eps2) of the minimum-height law; at delta = delta_- = 2 these
    are exactly 2 and 4."""
    log_d = math.log(delta)
    log_dm = math.log(delta_minus)
    eps1 = math.log(1 + log_d / log_dm) / log_d + math.log(1 + log_dm / log_d) / log_dm
    eps2 = eps1 + (1 / log_d + 1 / log_dm) * math.log(max(delta, delta_minus))
    return eps1, eps2


def minimum_location(delta: int, delta_minus: int, h_plus: float, h_minus: float) -> float:
    """t0 with g(t) = delta^t hhat+ + delta_-^(-t) hhat- minimal; over the
    integers the minimum sits at floor(t0) or floor(t0) + 1.  Symmetric data
    (hhat+ = hhat-, delta = delta_-) gives t0 = 0 exactly."""
    log_d = math.log(delta)
    log_dm = math.log(delta_minus)
    return (math.log(h_minus * log_dm) - math.log(h_plus * log_d)) / (log_d + log_dm)


def orbit_height(engine: HeightEngine, x: AffinePoint) -> float:
    """log hhat+ / log delta + log hhat- / log delta_-, constant along the
    orbit; NEG_INFINITY exactly when the orbit is finite (periodic point)."""
    if _verdict(engine, x).is_periodic:  # held: the verdict _infinite_components reads
        return NEG_INFINITY
    return _log_height(engine, *_infinite_components(engine, x, "finite orbit has no orbit height"))


def _log_height(engine: HeightEngine, h_plus: float, h_minus: float) -> float:
    return math.log(h_plus) / math.log(engine.delta) + math.log(h_minus) / math.log(engine.delta_minus)


# -- the point an engine was last asked about ------------------------------------

def _held(engine: HeightEngine, x: AffinePoint, key, compute):
    """compute(), held under `key` in the engine's one slot, which holds
    the last point asked about and is replaced by a call about another.  A
    refusal raises out of compute() and is not held.  The slot is not a
    dataclass field, so equality, hashing and repr ignore it.  It holds the
    orbit (through the tracker), never the reverse: a tracker kept on the
    orbit closes an orbit <-> tracker cycle, which only the cyclic collector
    frees, so replaced orbits, of up to the digit cap per iterate, would
    outlive their slot until it runs."""
    held = engine.__dict__.get("_held")
    if held is None or held[0] != x:
        held = (x, {})
        object.__setattr__(engine, "_held", held)  # a cache, not a field
    values = held[1]
    if key not in values:
        values[key] = compute()
    return values[key]


def _hpm(engine: HeightEngine, x: AffinePoint) -> Tuple[float, float]:
    return _held(engine, x, "hpm", lambda: hpm_from_h(engine, x))


def _verdict(engine: HeightEngine, x: AffinePoint):
    """The periodicity verdict of x, held for x and refused when undecided:
    that of gamma^-1(x) under the core (same period), at the engine's digit cap."""
    verdict = _held(engine, x, "verdict", lambda: is_periodic(
        engine.g, engine.to_conjugated_frame(x), digit_cap=engine.digit_cap))
    if verdict.kind == "undecided":
        raise UndecidedPeriodicityError(verdict.detail)
    return verdict


def _infinite_components(engine: HeightEngine, x: AffinePoint, periodic_message: str) -> Tuple[float, float]:
    """(hhat+, hhat-) of a point with an infinite orbit: the held verdict
    (refused when undecided; PeriodicPointError(periodic_message) when
    periodic), then the held pair, refused as a depth cap unless both
    components resolved above zero."""
    if _verdict(engine, x).is_periodic:
        raise PeriodicPointError(periodic_message)
    h_plus, h_minus = _hpm(engine, x)
    if h_plus <= 0 or h_minus <= 0:
        raise ResourceCapError(
            f"canonical-height components did not resolve above zero at depth {engine.depth}; "
            "the orbit is infinite (not periodic), and a larger --depth resolves them"
        )
    return h_plus, h_minus


# -- counting -------------------------------------------------------------------

def _scan(values, threshold: float, slop: float, patience: int = 1) -> Tuple[int, int]:
    """values(l) yields (lo, hi) enclosures.  Walks downhill from l = 0 by
    midpoints to the lowest sample m, then counts the samples at or below the
    threshold over l = m, m + 1, ... and l = m - 1, m - 2, ..., each direction
    ending after `patience` consecutive samples above it (1 suits the convex
    canonical heights), and counts the enclosures read there that straddle
    the threshold."""
    def mid(l):
        lo, hi = values(l)
        return 0.5 * (lo + hi)

    step = 1 if mid(1) < mid(0) else -1
    m = 0
    while mid(m + step) < mid(m):
        m += step
    count = straddles = 0
    for l, step in ((m, 1), (m - 1, -1)):
        misses = 0
        while misses < patience:
            lo, hi = values(l)
            if lo - slop <= threshold <= hi + slop:
                straddles += 1
            if 0.5 * (lo + hi) <= threshold:
                count += 1
                misses = 0
            else:
                misses += 1
            l += step
    return count, straddles


def check_threshold(threshold: float) -> None:
    """Refuse (ValueError) a counting threshold that is not a positive finite number."""
    if not 0 < threshold < math.inf:  # NaN fails both comparisons
        raise ValueError("threshold must be a positive finite number")


def _canonical_bounds(engine: HeightEngine, x: AffinePoint):
    """values(l): enclosure of the depth-N canonical height at f^l(x),
    h_nv(g^(l+N) z)/delta^N + h_nv(g^(l-N) z)/delta_-^N with z = gamma^-1(x),
    read off the tracker held for x."""
    tracker = _held(engine, x, "tracker", lambda: OrbitHeightTracker(
        engine.g, engine.to_conjugated_frame(x), digit_cap=engine.digit_cap))
    n = engine.depth
    d_pow = float(engine.delta**n)
    dm_pow = float(engine.delta_minus**n)

    def values(l):
        flo, fhi = tracker.h_bounds(l + n)
        blo, bhi = tracker.h_bounds(l - n)
        return (flo / d_pow + blo / dm_pow, fhi / d_pow + bhi / dm_pow)

    return values


def count_below(
    engine: HeightEngine,
    x: AffinePoint,
    threshold: float,
    which: str = "naive",
    patience: int = 5,
) -> int:
    """#{ y in O_f(x) : h(y) <= threshold } by orbit enumeration, f the
    engine's outer map and h its naive or canonical height, at its digit cap.

    The point must have an infinite orbit (so l -> f^l(x) is injective and
    the enumeration is a genuine point count).  Counting starts at the
    orbit's lowest sample, so every point of the orbit gives the same count.
    A canonical scan stops each direction at the first sample above the
    threshold; `patience` bounds only naive scans.
    """
    if which not in ("naive", "canonical"):
        raise ValueError("which must be 'naive' or 'canonical'")
    check_threshold(threshold)
    verdict = _verdict(engine, x)
    if verdict.is_periodic:
        raise PeriodicPointError(f"point is periodic with period {verdict.period}")
    if which == "naive":
        tracker = OrbitHeightTracker(engine.outer, x, digit_cap=engine.digit_cap)
        return _scan(tracker.h_bounds, threshold, 0.0, patience)[0]
    values = _canonical_bounds(engine, x)
    return _scan(values, threshold, engine.error_budget())[0]


@dataclass(frozen=True)
class CountingEnclosure:
    lower: float
    upper: float
    observed: int
    passed: bool
    predicted: float
    halfwidth: float
    slack: float


def counting_enclosure(engine: HeightEngine, x: AffinePoint, threshold: float) -> CountingEnclosure:
    """Check the two-sided counting law: the observed canonical-height count
    must lie within half-width log2/log(delta) + log2/log(delta_-) + 1 of
    (1/log delta + 1/log delta_-) log T - hhat(O), widened by the propagated
    height-error slack."""
    check_threshold(threshold)
    log_d = math.log(engine.delta)
    log_dm = math.log(engine.delta_minus)
    coeff = 1 / log_d + 1 / log_dm
    h_plus, h_minus = _infinite_components(engine, x, "counting law applies to infinite orbits only")
    oh = _log_height(engine, h_plus, h_minus)
    if coeff * math.log(threshold) < oh:
        raise OutOfRangeError(
            "threshold below the orbit height: the counting set is empty there"
        )
    values = _canonical_bounds(engine, x)
    observed, straddles = _scan(values, threshold, engine.error_budget())
    predicted = coeff * math.log(threshold) - oh
    halfwidth = math.log(2) / log_d + math.log(2) / log_dm + 1

    # hhat(O) error from the component estimates, first order in the budgets,
    # plus one count per enclosure that straddles the threshold.
    slack = _slack(engine, h_plus, h_minus) + straddles
    lower = predicted - halfwidth - slack
    upper = predicted + halfwidth + slack
    return CountingEnclosure(
        lower=lower,
        upper=upper,
        observed=observed,
        passed=lower <= observed <= upper,
        predicted=predicted,
        halfwidth=halfwidth,
        slack=slack,
    )


def count_exponential(a_coef: float, b_coef: float, delta: int, delta_minus: int, threshold: float):
    """#{ l in Z : delta^l A + delta_-^(-l) B <= T } by direct scan of the
    finite window, with the two-sided logarithmic bounds.

    Requires A, B, T > 0 and T at or above the geometric-mean threshold
    A^(log delta_- / (log delta + log delta_-)) * B^(log delta / ...), below
    which the set is empty and the bounds are meaningless.
    """
    a_coef, b_coef, threshold = float(a_coef), float(b_coef), float(threshold)
    if min(a_coef, b_coef, threshold) <= 0:
        raise ValueError("A, B, T must be positive")
    if delta < 2 or delta_minus < 2:
        raise ValueError("delta and delta_minus must be >= 2")
    log_d = math.log(delta)
    log_dm = math.log(delta_minus)
    floor_t = a_coef ** (log_dm / (log_d + log_dm)) * b_coef ** (log_d / (log_d + log_dm))
    if threshold < floor_t * (1 - 1e-12):
        raise ValueError("T below the geometric-mean precondition")
    lo = math.floor(math.log(b_coef / threshold) / log_dm) - 1
    hi = math.ceil(math.log(threshold / a_coef) / log_d) + 1
    count = 0
    for l in range(lo, hi + 1):
        if (delta**l) * a_coef + (delta_minus ** (-l)) * b_coef <= threshold:
            count += 1
    lower = -1 + math.log(threshold / (2 * a_coef)) / log_d + math.log(threshold / (2 * b_coef)) / log_dm
    upper = 1 + math.log(threshold / a_coef) / log_d + math.log(threshold / b_coef) / log_dm
    return count, lower, upper


def min_orbit_height_bounds(engine: HeightEngine, x: AffinePoint) -> Tuple[bool, bool]:
    """Check the two-sided bound tying hhat(O) to min over the orbit of
    log hhat: hhat(O) + eps1 <= (1/log d + 1/log d_-) min log hhat <= hhat(O) + eps2.

    g(t) = delta^t hhat+ + delta_-^(-t) hhat- is convex, so its minimum over
    the integers is attained at floor(t0) or floor(t0) + 1.
    """
    coeff = 1 / math.log(engine.delta) + 1 / math.log(engine.delta_minus)
    h_plus, h_minus = _infinite_components(engine, x, "finite orbit has no minimum-height law")
    oh = _log_height(engine, h_plus, h_minus)
    base = math.floor(minimum_location(engine.delta, engine.delta_minus, h_plus, h_minus))
    mid = coeff * math.log(min(engine.delta**l * h_plus + float(engine.delta_minus) ** (-l) * h_minus
                               for l in (base, base + 1)))
    eps1, eps2 = min_height_epsilons(engine.delta, engine.delta_minus)
    pad = 1e-9
    return (oh + eps1 <= mid + pad, mid <= oh + eps2 + pad)


# -- orbit records ---------------------------------------------------------------

@dataclass(frozen=True)
class OrbitSample:
    l: int
    point: AffinePoint
    h_nv: float
    h_hat: float


@dataclass(frozen=True)
class OrbitRecord:
    base: AffinePoint
    samples: Tuple[OrbitSample, ...]
    hplus0: float
    hminus0: float
    orbit_height: float


def build_orbit_record(engine: HeightEngine, x: AffinePoint, window: int) -> OrbitRecord:
    """Exact orbit samples over the symmetric window l in [-window, window],
    with naive heights and the scaling-law canonical heights.  The samples
    are read off the orbit f holds, iterates +1, -1, +2, -2, ... in turn, each
    refused (ResourceCapError) by `Orbit.capped` when the size bound of the
    step into it passes the engine's digit cap.  A periodic point is refused
    first (PeriodicPointError), as every reader of (hhat+, hhat-) refuses it."""
    h_plus, h_minus = _infinite_components(engine, x, "orbit scans need a non-periodic point")
    orbit = engine.outer.orbit(lift(x))
    limit = cap_bits(engine.digit_cap)
    for l in range(1, window + 1):
        orbit.capped(l, limit)
        orbit.capped(-l, limit)
    samples = [OrbitSample(l, affine(orbit[l]), orbit.size(l)[1],
                           engine.delta**l * h_plus + float(engine.delta_minus) ** (-l) * h_minus)
               for l in range(-window, window + 1)]
    return OrbitRecord(base=samples[window].point, samples=tuple(samples), hplus0=h_plus,
                       hminus0=h_minus, orbit_height=_log_height(engine, h_plus, h_minus))
