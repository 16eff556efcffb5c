"""Orbit-level canonical heights, exact point counting, and the counting
enclosures.

Counting runs need naive heights of iterates far past the point where exact
coordinates stop being storable (a threshold T = e^21 pulls in iterates whose
coordinates would have ~10^8 digits).  On an integral map with an escape
box, at an integral start, the orbit tracker is certified: m = 1 and Z = 1,
so h = log max(|X|, |Y|, 1) is the exact naive height.  It builds the
iterates of the orbit the map holds from 1 on, and tests each exact triple
for V+ of the box (V- going backward), far outside R; the first that passes
is its tail start k0 (`EscapeBox.escaped`).  Every iterate before k0 lies in
the box or in V+ with log|u| under the tail start, so no triple much past
d start / log 2 bits (a few hundred on the corpus maps) is built.  From k0
on, the escape tail of the box gives every later height with no exact or
interval step: log|u'| = d log|u| + log|alpha| up to eta, under e^-45, and
h = log|u| + log(M / |det B|) up to the B^-1 offset (`EscapeBox.tail_step`,
each float operation rounded outward).  So a count at any threshold costs a
few float operations per iterate past k0, and refuses only where h passes
the float range.  On any other map or start the tracker reads the sizes the
orbit measures once (`Orbit.size`, off interval steps past its first triple
of `SIZED_FROM_BITS` bits) up to the digit cap, checked by `Orbit.capped`,
and the cap's refusal stands.
Height enclosures stay certified, so a count is exact unless an enclosure
straddles the threshold, which the scan reports instead of hiding.  The
orbit keeps its triples and sizes and a tracker its height enclosures, so
each step is taken once per orbit, however many trackers read it.

A counting scan walks downhill to the orbit's lowest sample and counts
outward from it, so every point of one orbit gives the same count.  On the
plane deg f^-1 = deg f, so the engine's one degree delta stands for both
delta and delta_- of the paper's formulas.  Canonical
heights delta^l hhat+ + delta^(-l) hhat- are convex in l, so a canonical
scan stops at the first sample above the threshold.  Naive heights are not
convex near the minimum, so a naive scan stops at the first sample above it
whose escape floor passes it (`_escape_floor`): a lower bound on the naive
height, read on the core orbit (`EscapeBox.floor`), that holds at that
iterate and at every later one of its direction.  So both counts are the
exact number of samples at or below the threshold.

The tracker and the periodicity verdict read the one orbit the engine's
core holds, and (hhat+, hhat-) reads the tracker: the depth-N canonical
heights at f^(+/-1)(x) it combines are the midpoints of the tracker's
enclosures there (`_canonical_bounds`), the values the counting scan reads,
so a certified count builds no iterate past its tail starts and no reader
walks from f(x) or f^-1(x).  Every reader takes a `HeightEngine`, at its
digit cap.  An engine holds the point it was last asked about, as a map
holds one orbit: one verdict, one (hhat+, hhat-) pair and one canonical
tracker, each filled on first use.
So the orbit record and every threshold of a counting run share one
verdict, one pair and one tracker.  The verdict comes first, since hhat
= 0 exactly at periodic points: every engine reader but `orbit_height` (-inf
there) takes (hhat+, hhat-) through `_infinite_components`, which refuses a
periodic point, then a pair not resolved above zero as a depth cap.  So
only the verdict refuses as undecided.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, NamedTuple, Tuple

from .automorphism import DEFAULT_DIGIT_CAP, PlaneAutomorphism, cap_bits
from .canonical import HeightEngine, is_periodic
from .errors import (
    OutOfRangeError,
    PeriodicPointError,
    ResourceCapError,
    UndecidedPeriodicityError,
)
from .heights import _LN2, AffinePoint, affine, lift

NEG_INFINITY = float("-inf")  # distinguished 'finite orbit' value, never used in arithmetic


def _capped(orbit, l: int, limit: int, prefix: str, suffix: str = "") -> None:
    """`orbit.capped` at iterate l, its refusal told between `prefix` and `suffix`."""
    try:
        orbit.capped(l, limit)
    except ResourceCapError as exc:
        raise ResourceCapError(f"{prefix}{exc}{suffix}", exc.iterate, exc.bound_bits) from None


class OrbitHeightTracker:
    """Lazy h_nv(f^l(x)) for l in Z.  A certified tracker (an integral map
    with an escape box, an integral start) builds the orbit the map holds up
    to each direction's tail start k0, the first exact iterate past 0 in the
    tail, and from k0 on steps the log recurrence of the box
    (`EscapeBox.tail_step`); any other reads the orbit's sizes up to the
    digit cap and refuses past it.  The tracker keeps per direction (indexed
    by l >= 0) how many iterates from 0 on it walked, k0 with the last
    iterate stepped and its log bounds once the tail has started, and the
    enclosures of h_nv read so far."""

    def __init__(self, auto: PlaneAutomorphism, x: AffinePoint, digit_cap: int = DEFAULT_DIGIT_CAP):
        start = lift(x)
        self._orbit = auto.orbit(start)
        # certified: Z = 1 and m = 1, so X and Y are the coordinates themselves
        self._box = auto.escape_box if auto.is_integral and start[2] == 1 else None
        self._why = ("the start is not integral" if start[2] != 1 else "the map is not integral"
                     if not auto.is_integral else "the map has no escape box")
        self._cap = cap_bits(digit_cap)
        self._under = [1, 1]
        self._tails = [None, None]  # (k0, k, bounds on log|u| (log|v|) at k) once the tail starts
        self._bounds: Dict[int, Tuple[float, float]] = {}

    def _in_tail(self, l: int) -> bool:
        """Whether f^l(x) lies at or past the tail start k0 of its direction,
        walking the iterates up to it.  Every walk tests the digit cap before
        each iterate from 1 on; a certified one then builds that iterate and
        tests its exact triple for the tail (`EscapeBox.escaped`), and the
        first that passes is k0.  By the box lemma an iterate before k0 lies
        in the box or in V+ (V-) with log|u| under the tail start, so the walk
        builds no triple much past d start / log 2 bits, and the cap refuses
        only a map whose tail would start past it; any other walk refuses at
        the cap."""
        forward, k = l >= 0, abs(l)
        sign = 1 if forward else -1
        n, box = self._under[forward], self._box
        while self._tails[forward] is None and n <= k:
            _capped(self._orbit, sign * n, self._cap, "orbit ", f", and {self._why}, so no escape tail takes over"
                    if box is None else ", before its escape tail started")
            if box is not None and (logs := box.escaped(self._orbit[sign * n], forward)) is not None:
                self._tails[forward] = (n, n, logs)
            n += 1
            self._under[forward] = n
        return self._tails[forward] is not None and k >= self._tails[forward][0]

    def point(self, l: int) -> AffinePoint:
        """Exact coordinates of f^l(x), for an iterate the orbit has built."""
        triple = self._orbit.built(l)
        if triple is None:
            raise ResourceCapError(f"iterate {l} is no longer held exactly", iterate=l)
        return affine(triple)

    # -- heights ---------------------------------------------------------------

    def h_bounds(self, l: int) -> Tuple[float, float]:
        """Certified [lo, hi] enclosure of h_nv(f^l(x)).

        Up to the tail start k0 it is the orbit's size, good to a few ulps,
        in a pad of 2^-40 max(1, |h|): a certified tracker has built each of
        those iterates, so the size is that of its exact triple.  Past k0,
        each iterate comes from the one before by `EscapeBox.tail_step`,
        whose bounds hold with no pad (see its docstring and the class
        docstring of `EscapeBox`): the iterate at k0 is in V+ (V- going
        backward) with |u| past the tail start, so each later one is too,
        log|u| follows d log|u| + log|alpha| up to eta, and h_nv is log|u| +
        log(M / |det B|) up to the B^-1 offset.  A pad of 1e-12 h + 1e-12 is
        added to every tail bound.  A bound past the float range is refused,
        naming the iterate.
        """
        cached = self._bounds.get(l)
        if cached is not None:
            return cached
        forward = l >= 0
        if not self._in_tail(l) or abs(l) == self._tails[forward][0]:
            h = self._orbit.size(l)[1]
            pad = 2.0**-40 * max(1.0, abs(h))
            found = self._bounds[l] = (h - pad, h + pad)
            return found
        sign = 1 if forward else -1
        start, k, logs = self._tails[forward]
        while k < abs(l):
            logs, (h_lo, h_hi) = self._box.tail_step(logs, forward)
            if h_hi == math.inf:
                raise ResourceCapError(f"the naive height passed the float range at iterate {sign * (k + 1)}",
                                       iterate=sign * (k + 1))
            k += 1
            pad = 1e-12 * h_hi + 1e-12
            self._bounds[sign * k] = (h_lo - pad, h_hi + pad)
            self._tails[forward] = (start, k, logs)
        return self._bounds[l]


# -- hhat+/hhat- from the functional identities --------------------------------

def _kappa(delta: int) -> float:
    """delta^2 / (delta^4 - 1), the factor of both components in `hpm_from_h`."""
    return (delta * delta) / ((delta * delta) ** 2 - 1)


def hpm_from_h(engine: HeightEngine, x: AffinePoint) -> Tuple[float, float]:
    """(hhat+, hhat-) recovered from the depth-N canonical heights at f(x)
    and f^-1(x): the midpoints of `_canonical_bounds` at l = +1 and l = -1,
    read off the tracker held for x, as the counting scan reads them.

    Each midpoint is within half its enclosure's width of the depth-N value
    at exact sizes: 2^-40 relative up to the tail start, about 1e-12 past
    it, far under the tail budget `_hpm_error_budget` adds.  When the engine
    height is the truncated-limit construction these agree with hplus/hminus
    up to the error budgets.
    """
    d, kappa = engine.delta, _kappa(engine.delta)
    at_fx, at_fix = (0.5 * (lo + hi) for lo, hi in map(_canonical_bounds(engine, x), (1, -1)))
    return (kappa * (d * at_fx - at_fix / d), kappa * (d * at_fix - at_fx / d))


def _hpm_error_budget(engine: HeightEngine) -> float:
    """Uniform first-order bound on |estimate - truth| for the hpm components."""
    d = engine.delta
    return _kappa(d) * (d + 1 / d + d + 1 / d) * engine.error_budget()


def orbit_height_slack(engine: HeightEngine, x: AffinePoint) -> float:
    """First-order error of orbit_height induced by the component budgets."""
    return _slack(engine, *_infinite_components(engine, x, "finite orbit has no orbit-height slack"))


def _slack(engine: HeightEngine, h_plus: float, h_minus: float) -> float:
    err = _hpm_error_budget(engine)
    log_d = math.log(engine.delta)
    return err / (h_plus * log_d) + err / (h_minus * log_d)


def _count_law(delta: int) -> Tuple[float, float]:
    """(2/log delta, 2 log 2/log delta): the coefficient of log T in the
    counting laws, and the counting law's half-width less 1, which is also
    eps1 of the minimum-height law."""
    log_d = math.log(delta)
    return 2 / log_d, 2 * _LN2 / log_d


def _lattice_value(delta: int, l: int, h_plus: float, h_minus: float) -> float:
    """delta^l hhat+ + delta^(-l) hhat-, the canonical height at f^l(x)."""
    return delta**l * h_plus + float(delta) ** (-l) * h_minus


def min_height_epsilons(delta: int) -> Tuple[float, float]:
    """(eps1, eps2) of the minimum-height law; at delta = 2 these are exactly
    2 and 4."""
    coeff, eps1 = _count_law(delta)
    return eps1, eps1 + coeff * math.log(delta)


def minimum_location(delta: int, h_plus: float, h_minus: float) -> float:
    """t0 with g(t) = delta^t hhat+ + delta^(-t) hhat- minimal; over the
    integers the minimum sits at floor(t0) or floor(t0) + 1.  Symmetric data
    (hhat+ = hhat-) gives t0 = 0 exactly."""
    log_d = math.log(delta)
    return (math.log(h_minus * log_d) - math.log(h_plus * log_d)) / (log_d + log_d)


def orbit_height(engine: HeightEngine, x: AffinePoint) -> float:
    """log hhat+ / log delta + log hhat- / log delta, constant along the
    orbit; NEG_INFINITY exactly when the orbit is finite (periodic point)."""
    if _verdict(engine, x).is_periodic:  # held: the verdict _infinite_components reads
        return NEG_INFINITY
    return _log_height(engine, *_infinite_components(engine, x, "finite orbit has no orbit height"))


def _log_height(engine: HeightEngine, h_plus: float, h_minus: float) -> float:
    log_d = math.log(engine.delta)
    return math.log(h_plus) / log_d + math.log(h_minus) / log_d


# -- the point an engine was last asked about ------------------------------------

def _held(engine: HeightEngine, x: AffinePoint, key, compute):
    """compute(), held under `key` in the engine's one slot, which holds
    the last point asked about and is replaced by a call about another.  A
    refusal raises out of compute() and is not held.  The slot is not a
    field, so equality, hashing and repr ignore it.  It holds the
    orbit (through the tracker), never the reverse: a tracker kept on the
    orbit closes an orbit <-> tracker cycle, which only the cyclic collector
    frees, so replaced orbits, of up to the digit cap per iterate, would
    outlive their slot until it runs."""
    held = engine.__dict__.get("_held")
    if held is None or held[0] != x:
        held = (x, {})
        engine._held = held  # a cache, not a field
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

def _scan(values, threshold: float, slop: float, done=lambda l, forward: True) -> Tuple[int, int]:
    """values(l) yields (lo, hi) enclosures.  Walks downhill from l = 0 by
    midpoints to the lowest sample m, then counts the samples at or below the
    threshold over l = m, m + 1, ... and l = m - 1, m - 2, ..., each direction
    ending at the first sample above it at which done(l, forward) holds
    (always, by default, which suits the convex canonical heights), and
    counts the enclosures read there that straddle the threshold."""
    def mid(l):
        lo, hi = values(l)
        return 0.5 * (lo + hi)

    step = 1 if mid(1) < mid(0) else -1
    m = 0
    while mid(m + step) < mid(m):
        m += step
    count = straddles = 0
    for l, forward in ((m, True), (m - 1, False)):
        while True:
            lo, hi = values(l)
            if lo - slop <= threshold <= hi + slop:
                straddles += 1
            if 0.5 * (lo + hi) <= threshold:
                count += 1
            elif done(l, forward):
                break
            l += 1 if forward else -1
    return count, straddles


def check_threshold(threshold: float) -> None:
    """Refuse (ValueError) a counting threshold that is not a positive finite number."""
    if not 0 < threshold < math.inf:  # NaN fails both comparisons
        raise ValueError("threshold must be a positive finite number")


def _core_tracker(engine: HeightEngine, x: AffinePoint) -> OrbitHeightTracker:
    """The tracker of z = gamma^-1(x) under the core map, held for x."""
    return _held(engine, x, "tracker", lambda: OrbitHeightTracker(
        engine.g, engine.to_conjugated_frame(x), digit_cap=engine.digit_cap))


def _canonical_bounds(engine: HeightEngine, x: AffinePoint):
    """values(l): enclosure of the depth-N canonical height at f^l(x),
    (h_nv(g^(l+N) z) + h_nv(g^(l-N) z))/delta^N with z = gamma^-1(x), each
    term divided on its own, read off the tracker held for x."""
    tracker = _core_tracker(engine, x)
    n = engine.depth
    d_pow = float(engine.delta**n)

    def values(l):
        flo, fhi = tracker.h_bounds(l + n)
        blo, bhi = tracker.h_bounds(l - n)
        return (flo / d_pow + blo / d_pow, fhi / d_pow + bhi / d_pow)

    return values


def _escape_floor(engine: HeightEngine, core: OrbitHeightTracker, threshold: float):
    """done(l, forward) of a naive scan of the outer map f: whether the
    escape floor F of g^l(z), z = gamma^-1(x), read on the core tracker
    `core` of z, proves every f^k(x) from l on in the scan's direction above
    the threshold T.  With e and c the degree and growth constant of
    gamma^-1, h(g^k z) <= e h(f^k x) + c, so F > e T + c proves it (e = 1, c
    = 0 with no conjugator).  T is raised by 1e-5 max(1, T), far above the
    widths of the tracker's enclosures (2^-39 max(1, |h|) up to the tail
    start; under 1e-11 max(1, |h|) past it: the pad of 1e-12 h + 1e-12 a
    side, and log bounds that widen by a few ulps of h per step, for at most
    1024 steps before h passes the float range) and the floor's ulps, so
    every midpoint the scan would read further on is above T too.  F is read
    where `core` has walked: from the tail start of a certified tracker on,
    its own lower bound, as the tail's lower bounds rise; else
    `EscapeBox.floor` at the orbit's enclosure of g^l(z), with Phi from the
    last triple the orbit has built up to it."""
    bound = threshold + 1e-5 * max(1.0, threshold)
    if engine.gamma is not None:
        forms = engine.gamma.forms(False)
        bound = forms.degree * bound + forms.c2
    box, orbit = engine.g.escape_box, core._orbit

    def done(l: int, forward: bool) -> bool:
        lo = core.h_bounds(l)[0]  # walks the core orbit to l under its digit cap
        if core._box is not None and (l >= 0) == forward and core._in_tail(l):
            return lo > bound
        j = l
        while (l >= 0) == forward and orbit.built(j) is None:
            j -= 1 if forward else -1
        return box.floor(orbit.enclosure(l), orbit.built(j), abs(l - j), forward) > bound

    return done


def count_below(engine: HeightEngine, x: AffinePoint, threshold: float, which: str = "naive") -> int:
    """#{ y in O_f(x) : h(y) <= threshold } by orbit enumeration, f the
    engine's outer map and h its naive or canonical height, at its digit cap.

    The point must have an infinite orbit (so l -> f^l(x) is injective and
    the enumeration is a genuine point count).  Counting starts at the
    orbit's lowest sample, so every point of the orbit gives the same count.
    A canonical scan stops each direction at the first sample above the
    threshold, as canonical heights are convex along the orbit; a naive
    scan at the first sample above it whose escape floor proves every later
    sample above it too (`_escape_floor`).
    """
    if which not in ("naive", "canonical"):
        raise ValueError("which must be 'naive' or 'canonical'")
    check_threshold(threshold)
    verdict = _verdict(engine, x)
    if verdict.is_periodic:
        raise PeriodicPointError(f"point is periodic with period {verdict.period}")
    if which == "naive":
        core = _core_tracker(engine, x)
        tracker = core if engine.gamma is None else OrbitHeightTracker(engine.outer, x, digit_cap=engine.digit_cap)
        return _scan(tracker.h_bounds, threshold, 0.0, _escape_floor(engine, core, threshold))[0]
    values = _canonical_bounds(engine, x)
    return _scan(values, threshold, engine.error_budget())[0]


class CountingEnclosure(NamedTuple):
    lower: float
    upper: float
    observed: int
    passed: bool
    predicted: float
    halfwidth: float
    slack: float


def counting_enclosure(engine: HeightEngine, x: AffinePoint, threshold: float) -> CountingEnclosure:
    """Check the two-sided counting law: the observed canonical-height count
    must lie within half-width 2 log 2/log delta + 1 of (2/log delta) log T
    - hhat(O), widened by the propagated height-error slack."""
    check_threshold(threshold)
    coeff, spread = _count_law(engine.delta)
    h_plus, h_minus = _infinite_components(engine, x, "counting law applies to infinite orbits only")
    oh = _log_height(engine, h_plus, h_minus)
    if coeff * math.log(threshold) < oh:
        raise OutOfRangeError(
            "threshold below the orbit height: the counting set is empty there"
        )
    values = _canonical_bounds(engine, x)
    observed, straddles = _scan(values, threshold, engine.error_budget())
    predicted = coeff * math.log(threshold) - oh
    halfwidth = spread + 1

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
    finite window, with the two-sided logarithmic bounds.  A standalone
    lemma, so it keeps two degrees: it holds for any delta, delta_- >= 2.

    Requires A, B, T > 0 and T at or above the geometric-mean threshold
    A^(log delta_- / (log delta + log delta_-)) * B^(log delta / ...), below
    which the set is empty and the bounds are meaningless.  The window and
    the bounds are read off differences of logs, and each term is compared
    exactly, in `Fraction`s of the float inputs, so no ratio of the inputs
    overflows or underflows.
    """
    a_coef, b_coef, threshold = float(a_coef), float(b_coef), float(threshold)
    if not all(0 < v < math.inf for v in (a_coef, b_coef, threshold)):
        raise ValueError("A, B, T must be positive finite numbers")
    if delta < 2 or delta_minus < 2:
        raise ValueError("delta and delta_minus must be >= 2")
    log_d, log_dm = math.log(delta), math.log(delta_minus)
    log_a, log_b, log_t = math.log(a_coef), math.log(b_coef), math.log(threshold)
    if log_t < (log_dm * log_a + log_d * log_b) / (log_d + log_dm) - 1e-12:
        raise ValueError("T below the geometric-mean precondition")
    a, b, t = Fraction(a_coef), Fraction(b_coef), Fraction(threshold)
    count = sum(1 for l in range(math.floor((log_b - log_t) / log_dm) - 1, math.ceil((log_t - log_a) / log_d) + 2)
                if Fraction(delta) ** l * a + Fraction(delta_minus) ** -l * b <= t)
    lower = -1 + (log_t - _LN2 - log_a) / log_d + (log_t - _LN2 - log_b) / log_dm
    upper = 1 + (log_t - log_a) / log_d + (log_t - log_b) / log_dm
    return count, lower, upper


def min_orbit_height_bounds(engine: HeightEngine, x: AffinePoint) -> Tuple[bool, bool]:
    """Check the two-sided bound tying hhat(O) to min over the orbit of
    log hhat: hhat(O) + eps1 <= (2/log d) min log hhat <= hhat(O) + eps2.

    g(t) = delta^t hhat+ + delta^(-t) hhat- is convex, so its minimum over
    the integers is attained at floor(t0) or floor(t0) + 1.
    """
    d = engine.delta
    h_plus, h_minus = _infinite_components(engine, x, "finite orbit has no minimum-height law")
    oh = _log_height(engine, h_plus, h_minus)
    base = math.floor(minimum_location(d, h_plus, h_minus))
    mid = _count_law(d)[0] * math.log(min(_lattice_value(d, l, h_plus, h_minus) for l in (base, base + 1)))
    eps1, eps2 = min_height_epsilons(d)
    pad = 1e-9
    return (oh + eps1 <= mid + pad, mid <= oh + eps2 + pad)


# -- orbit records ---------------------------------------------------------------

class OrbitSample(NamedTuple):
    l: int
    point: AffinePoint
    h_nv: float
    h_hat: float


class OrbitRecord(NamedTuple):
    base: AffinePoint
    samples: Tuple[OrbitSample, ...]
    hplus0: float
    hminus0: float
    orbit_height: float


def build_orbit_record(engine: HeightEngine, x: AffinePoint, window: int) -> OrbitRecord:
    """Exact orbit samples over the symmetric window l in [-window, window],
    with naive heights and the scaling-law canonical heights.  The samples
    are read off the orbit f holds, iterates +1, -1, +2, -2, ... in turn, each
    refused (ResourceCapError, naming the window) by `Orbit.capped` when the
    size bound of the step into it passes the engine's digit cap.  A periodic
    point is refused first (PeriodicPointError), as every reader of (hhat+,
    hhat-) refuses it."""
    h_plus, h_minus = _infinite_components(engine, x, "orbit scans need a non-periodic point")
    orbit = engine.outer.orbit(lift(x))
    limit = cap_bits(engine.digit_cap)
    where = f"orbit window [-{window}, {window}]: "
    for l in (sign * k for k in range(1, window + 1) for sign in (1, -1)):
        _capped(orbit, l, limit, where)
    samples = [OrbitSample(l, affine(orbit[l]), orbit.size(l)[1], _lattice_value(engine.delta, l, h_plus, h_minus))
               for l in range(-window, window + 1)]
    return OrbitRecord(base=samples[window].point, samples=tuple(samples), hplus0=h_plus,
                       hminus0=h_minus, orbit_height=_log_height(engine, h_plus, h_minus))
