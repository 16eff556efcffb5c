"""Plane polynomial automorphisms: Henon and triangular generators, composition,
conjugation, degrees, dynamical degree, and regularity at infinity.

Every automorphism carries its exact inverse.  The generator constructors
(`henon`, `triangular`, `pair`) verify the inverse by the full symbolic
compose-check (both compositions must be identically (x, y)).  Composition,
inversion and conjugation of already-verified automorphisms inherit exactness
-- polynomial composition is associative, so g_inv(f_inv(f_fwd(g_fwd)))
collapses to the identity without re-expansion -- and skip the quadratic-cost
re-check; the test suite exercises the identity on composites directly.

Points are iterated by an integer projective kernel.  Each direction of a map
is compiled once, on first use, into integer homogeneous forms
(`IntegerForms`): the degree-d homogenisations F, G of its two components,
with denominators cleared by their lcm m.  A point travels as its primitive
integer triple (X : Y : Z), Z > 0, and one step is the pure-integer
evaluation of (F, G, m Z^d) followed by a single gcd (skipped when Z = m = 1,
so integral maps iterate integral points with no gcd at all); once a rational
orbit has settled, by the escape box, the gcd is taken only against the small
modulus K of the box, and not at all when K = 1.  `apply`/`apply_inverse`
are the same step wrapped in a lift from and a return to `Fraction` coordinates.

Every walk reads one `Orbit`: the exact two-sided orbit of a start, as a list
of primitive triples per time direction, extended lazily.  It holds the only
iteration loop of the package, measures each iterate once (`Orbit.size`: its
bit length and naive height), and holds the digit cap of every walk
(`Orbit.capped`, a check on the size of the neighbour of the iterate it
tests).  It also finds, per direction, where the orbit leaves the escape
box of its map or first returns to its start (`Orbit.exit`), which the
periodicity test reads; the box's tests along an orbit,
`EscapeBox.exit_place` and `EscapeBox.settled`, are called from the orbit
alone.  A walk reads only the sizes of its iterates, so past a held triple
of SIZED_FROM_BITS bits the orbit sizes each iterate off an interval step
instead of building it: the same forms (`IntegerForms.image`) at
`Interval` coordinates of the iterate before, when the enclosure pins the
size bit for bit (`pinned_size`), with the common factor of a gcd step
read off residues modulo a power of m or K.  The orbit keeps the enclosure of
every iterate past its built triples (`Orbit.enclosure`), so each interval
step is taken once per orbit, whoever reads it: its own sizes, and the
escape floor of a naive count (`EscapeBox.floor`).  The certified counting
tracker of :mod:`planeheights.orbit` reads none: it builds the orbit up to
the first exact iterate in its escape tail (`EscapeBox.escaped`), a few
hundred bits, and steps the tail's log recurrence (`EscapeBox.tail_step`)
past it.
A map keeps one orbit, the one of the start it was last queried at
(`PlaneAutomorphism.orbit`); a query from another start replaces it.
Heights, the functional equation, periodicity, point counts and the orbit
record all read the same orbit at shifted indices, so one slot serves every
query about one point.  The slot is deliberately one: a
larger cache would mostly keep orbits that nothing reads again (at up to
the digit cap per iterate), and a caller that repeats a whole batch of
queries would be served from it and measure lookups rather than work.

Map invariants are computed once per map object, on first use: the integer
forms of each direction (with its growth constant c2), the points at infinity
(I+(f), I+(f^-1)) read off `fwd` and `inv`, whose one comparison is
regularity, the dynamical degree and the escape box.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Tuple

from .errors import DEFAULT_DIGIT_CAP, MapValidationError, PolyParseError, ResourceCapError
from .heights import _LN2, ProjPoint, affine, lift, log_int, top
from .ratpoly import BivarPoly, _integer_numerators, parse_rat, powers

_X = BivarPoly.var("x")
_Y = BivarPoly.var("y")

_BITS_PER_DIGIT = math.log2(10)
DEGREE_SEQUENCE_CAP = 256  # the largest bound on deg f^n that `degree_sequence` composes to


def cap_bits(digits: int) -> int:
    """The bit length above which an integer has more than `digits` digits
    (up to the rounding of log2 10)."""
    return int(digits * _BITS_PER_DIGIT)


class IntegerForms:
    """One direction (P, Q) of a map as integer homogeneous forms.

    With d = max(deg P, deg Q) and m the lcm of the denominators `den` of P
    and Q (`_integer_numerators` rescales both numerator maps to it),
    F = m Z^d P(X/Z, Y/Z) and G = m Z^d Q(X/Z, Y/Z) have integer
    coefficients, and the map on triples is (X : Y : Z) |-> (F : G : m Z^d).
    `f` and `g` list (monomial index, integer coefficient) pairs over the
    shared monomials X^i Y^j Z^(d-i-j).

    `c2` is the growth constant of the direction, h(step x) <= d h(x) + c2:
    log C, where C is the largest coefficient sum of absolute values of the
    three forms F, G and m Z^d (the triangle inequality on a primitive lift;
    the gcd removal only lowers the height).  `c_bits` = bits(C) is the same
    bound on bit lengths: bits(top(step x)) <= d bits(top(x)) + c_bits, which
    is what the digit cap of `Orbit.capped` tests before a step.
    """

    __slots__ = ("degree", "m", "monomials", "f", "g", "c2", "c_bits", "_max_i", "_max_j")

    def __init__(self, components: Tuple[BivarPoly, BivarPoly]):
        self.degree = d = max(poly.total_degree() for poly in components)
        self.m, *numerators = _integer_numerators(*components)
        keys = sorted({key for poly in components for key in poly.nums})
        self.monomials = tuple((i, j, d - i - j) for i, j in keys)
        index = {key: n for n, key in enumerate(keys)}
        self.f, self.g = (tuple((index[key], c) for key, c in terms.items()) for terms in numerators)
        c_max = max(self.m, *(sum(abs(c) for _, c in form) for form in (self.f, self.g)))
        self.c2 = log_int(c_max) if c_max > 1 else 0.0
        self.c_bits = c_max.bit_length()
        self._max_i = max(i for i, _ in keys)
        self._max_j = max(j for _, j in keys)

    def image(self, point) -> tuple:
        """(F, G, m Z^d) at a triple, before any gcd: ring arithmetic alone,
        so it also maps `Interval` coordinates (an int Z = 1 keeps h = m)."""
        x, y, z = point
        xp = powers(x, self._max_i)
        yp = powers(y, self._max_j)
        if z == 1:
            mono = [xp[i] * yp[j] for i, j, _ in self.monomials]
            h = self.m
        else:
            zp = powers(z, self.degree)
            mono = [xp[i] * yp[j] * zp[k] for i, j, k in self.monomials]
            h = self.m * zp[-1]
        return (sum(c * mono[n] for n, c in self.f), sum(c * mono[n] for n, c in self.g), h)

    def step(self, point: ProjPoint, bad: int | None = None) -> ProjPoint:
        """The primitive triple, Z > 0, of the image of a primitive triple
        with Z > 0; with m = 1 and Z = 1 it is `image` alone.

        `bad` is K of the map's `EscapeBox`, given by an `Orbit` once its
        walk has settled in this direction (a triple with Z > 1).  The good-
        prime rule: at a prime p not dividing K, a triple in V+ at p (V-
        going backward) or with p not dividing Z maps to a triple that is
        already primitive at p.  So every common factor of (F, G, m Z^d) is
        on the primes of K, and it is removed by gcds against K, each linear
        in the size of F, until one is 1; with K = 1 no gcd is taken.
        Without `bad` the common factor is gcd(m Z^d, F, G) itself."""
        f, g, h = self.image(point)
        if bad is not None:
            while bad != 1 and (common := math.gcd(bad, f, g, h)) != 1:
                f, g, h = f // common, g // common, h // common
        # A prime divides m Z^d exactly when it divides m Z, so the triple is
        # already primitive when gcd(m Z, F, G) = 1: a gcd against m Z, about
        # 1/d the size of m Z^d, settles the common case.
        elif h != 1 and math.gcd(self.m * point[2], f, g) != 1:
            common = math.gcd(h, f, g)
            f, g, h = f // common, g // common, h // common
        return (f, g, h)


INTERVAL_PRECISION_BITS = 192

# An `Orbit` sizes an iterate off an interval step only from a neighbour of
# at least this many bits, below which the exact step is cheaper.  Per
# forward step from B bits, exact/interval us (best of 9, 2-core VM, CPython
# 3.11); canheight-batch (seed 1, 8 s, one run each) read 1518, 1574, 1595
# and 1471 ops/s at a threshold of 512, 768, 1024 and 1536:
#   B    512    1024   1536   2048
#   H2   7/19   9/18   12/18  15/18
#   H4   11/26  22/26  23/27  69/27
#   C6   22/71  54/47  71/82  137/48
SIZED_FROM_BITS = 1024


class Interval:
    """The real interval [lo 2^e, hi 2^e], with integer mantissas and e >= 0,
    rounded outward.

    Each result is cut back to INTERVAL_PRECISION_BITS bits of mantissa, lo
    by a floor shift and hi by a ceiling shift, so it encloses the exact
    result of the operation at every pair of points of its operands.  Only
    `*` and `+` are defined, with an int or an Interval on either side: that
    is all the ring arithmetic `IntegerForms.image` does (its `powers`, its
    `sum` and its integer coefficients), so intervals step with the map's own
    forms, past the held triples of an `Orbit`, which keeps them for its
    sizes and for the escape floor of a naive count (`EscapeBox.floor`).
    `divided` takes out the common factor of an `Orbit` step that takes a
    gcd.
    """

    __slots__ = ("lo", "hi", "e")

    def __init__(self, lo: int, hi: int, e: int = 0):
        shift = max(-lo, hi).bit_length() - INTERVAL_PRECISION_BITS  # lo <= hi
        if shift > 0:
            lo >>= shift
            hi = -(-hi >> shift)
            e += shift
        self.lo, self.hi, self.e = lo, hi, e

    def __mul__(self, other):
        if type(other) is int:
            if other == 1:
                return self
            if other >= 0:
                return Interval(self.lo * other, self.hi * other, self.e)
            return Interval(self.hi * other, self.lo * other, self.e)
        if type(other) is not Interval:
            return NotImplemented
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if a >= 0 and c >= 0:
            return Interval(a * c, b * d, self.e + other.e)
        products = (a * c, a * d, b * c, b * d)
        return Interval(min(products), max(products), self.e + other.e)

    __rmul__ = __mul__

    def __add__(self, other):
        if type(other) is int:
            if other == 0:
                return self
            other = Interval(other, other)
        elif type(other) is not Interval:
            return NotImplemented
        big, small = (self, other) if self.e >= other.e else (other, self)
        lo, hi, e = small.lo, small.hi, small.e
        gap = big.e - e
        guard = 2 * INTERVAL_PRECISION_BITS
        if gap > guard:
            # Far below big's last bit: round small outward to the exponent
            # big.e - guard rather than shift big left by the whole gap.
            shift = gap - guard
            lo >>= shift
            hi = -(-hi >> shift)
            e += shift
            gap = guard
        return Interval((big.lo << gap) + lo, (big.hi << gap) + hi, e)

    __radd__ = __add__

    def divided(self, c: int) -> Interval:
        """v / c over the interval, c >= 1, rounded outward at the exponent
        max(0, e - bits(c)): at e = 0, to the integers the quotient lies in."""
        shift = min(self.e, c.bit_length())
        return Interval((self.lo << shift) // c, -(-(self.hi << shift) // c), self.e - shift)

    def magnitude(self) -> Tuple[int, int]:
        """(least, most) mantissas of |v| over the interval, under the same 2^e."""
        lo, hi = self.lo, self.hi
        if lo > 0:
            return lo, hi
        if hi < 0:
            return -hi, -lo
        return 0, max(-lo, hi)

    def log_abs(self) -> Tuple[float, float]:
        """(log min |v|, log max |v|) over the interval, each read as
        log_int(mantissa) + e log 2, so accurate to a few ulps; -inf for a
        bound at 0."""
        least, most = self.magnitude()
        scale = self.e * _LN2
        return (log_int(least) + scale if least else -math.inf,
                log_int(most) + scale if most else -math.inf)


def _leading(m: int, e: int) -> Tuple[int, int]:
    """(bit length, leading 53 bits) of m 2^e, m >= 0, ordered as m 2^e is;
    (0, 0) for 0."""
    k = m.bit_length()
    if not k:
        return (0, 0)
    return (k + e, m >> (k - 53) if k >= 53 else m << (53 - k))


def pinned_size(triple) -> Tuple[int, float] | None:
    """(bits(top), log_int(top)) of the integer triple that `triple`, of ints
    and Intervals, encloses, top = max(|X|, |Y|, Z); None unless the
    enclosure fixes both top's bit length B >= 53 and the 53 leading bits
    that log_int reads, so the pair is the exact one bit for bit."""
    least = most = (0, 0)
    for c in triple:
        lo, hi, e = (*c.magnitude(), c.e) if type(c) is Interval else (abs(c), abs(c), 0)
        least, most = max(least, _leading(lo, e)), max(most, _leading(hi, e))
    bits, lead = least
    if least != most or bits < 53:
        return None
    return bits, math.log(lead) + (bits - 53) * _LN2  # log_int: log(top >> shift) + shift log 2


class Orbit:
    """The exact two-sided orbit {g^l(x) : l in Z} of one start under a map,
    as primitive triples (X : Y : Z), Z > 0, extended lazily in either
    direction.  `orbit[l]` is the triple of g^l(x); reading it computes every
    iterate between the furthest one held and l.  Reads are not locked:
    threads that share a map need the caller's lock.

    `size(l)` is (bits(top), h_nv = log top) of orbit[l], top = max(|X|, |Y|,
    Z), measured the first time it is read: the one place a triple becomes a
    size, which every bit length and naive height of a walk reads.  Past the
    held triples, once an iterate has SIZED_FROM_BITS bits, each next iterate
    is sized without being built, off its `enclosure` when `pinned_size`
    pins it.  Each direction keeps one list of enclosures, one per iterate
    from the end of its built triples on, each the `IntegerForms.image` of
    the one before at `Interval` coordinates (`_step`), so each interval
    step is taken once per orbit, for sizes and for the escape floor of a
    naive count alike.  A step that takes a gcd divides the
    enclosures by its common factor, which residues modulo a power of m
    (Z = 1) or K (a settled direction) decide.  Otherwise, before the
    direction has settled or when the enclosure does not pin, the exact
    steps run up to the iterate, and the list restarts from it.  So a walk
    builds triples only up to about SIZED_FROM_BITS bits, unless some reader
    indexes the iterates past them (the certified counting tracker indexes
    them up to its tail start, at a few hundred bits).

    `capped` is the one digit-cap rule, a check that reads the size of the
    neighbour it tests and builds nothing `size` does not: a walk reads its
    iterates in order and is refused at the first whose step bound passes
    the cap, before that step is computed.  The bound is an upper bound, so
    it refuses an iterate one step earlier than a test of its real size only
    when the cap lies within c_bits bits of that size.

    The orbit reads the escape box of its `owner` map, on first use (a map
    with no box, or no owner given, has none), for two tests per direction.
    One keeps whether the walk has settled, so that its steps reduce only
    at the primes of K (`IntegerForms.step`): once the flag is set no box
    is read; before, each step from a triple with Z > 1 reads the box and
    tests the triple until `EscapeBox.settled` holds.  Once settled, a
    direction stays settled: a prime of the next Z divides m Z, so a prime
    of it outside K divides Z, where the orbit lies in V+ (V-), which the
    step maps into itself.  Triples with Z = 1, unsettled directions and
    maps with no box take the full gcd.  The other finds where the orbit
    leaves the box (`exit`): (k, place) of the first iterate g^(+-k)(x)
    that `EscapeBox.exit_place` puts outside it, or of the first return to
    the start (place None, period k), walked through `capped` under the
    caller's limit.  Only the iterates and their sizes are kept, so a walk
    again costs the k box tests.  From k >= 1 the iterate lies outside on
    the direction's side, V+ (V- going backward): by the box lemma one
    outside in V- would have a preimage outside too.  The start itself
    (k = 0) may lie outside on either side.
    """

    __slots__ = ("start", "_forms", "_chains", "_sizes", "_owner", "_settled", "_enclosures")

    def __init__(self, fwd: IntegerForms, inv: IntegerForms, start: ProjPoint,
                 owner: PlaneAutomorphism | None = None):
        self.start = start
        self._forms = (inv, fwd)  # indexed by l >= 0
        self._chains = ([start], [start])
        self._sizes = ([], [])  # (bits(top), h_nv) of each measured iterate, by l >= 0
        self._owner = owner  # the map whose box decides settling and exits
        self._settled = [None, None]  # K of a settled direction, indexed by l >= 0
        # (enclosure, residues, M) of each iterate past the chain, from its end on
        self._enclosures = ([], [])

    def __getitem__(self, l: int) -> ProjPoint:
        forward = l >= 0
        chain = self._chains[forward]
        k = l if forward else -l
        if k >= len(chain):
            step = self._forms[forward].step
            while len(chain) <= k:
                pt = chain[-1]
                chain.append(step(pt) if pt[2] == 1 else step(pt, self._bad(forward, pt)))
            self._enclosures[forward].clear()  # they restart from the new end of the chain
        return chain[k]

    def _bad(self, forward: bool, point: ProjPoint) -> int | None:
        """K once the direction has settled at or before `point`, else None."""
        if self._settled[forward] is None and self._owner is not None \
                and (box := self._owner.escape_box) is not None and box.settled(point, forward):
            self._settled[forward] = box.bad
        return self._settled[forward]

    def exit(self, forward: bool, limit: int) -> Tuple[int, str | None]:
        """(k, place) of one direction: the first iterate g^(+-k)(x), k >= 0,
        that the owner's escape box puts outside it, with the place where it
        lies outside (`EscapeBox.exit_place`), or the first return to the
        start, with place None and k the period.  The walk steps through
        `capped` at `limit`, which may refuse it.  The owner must have a
        box."""
        sign, box, point, k = (1 if forward else -1), self._owner.escape_box, self.start, 0
        while (place := box.exit_place(point)) is None:
            k += 1
            self.capped(sign * k, limit)
            if (point := self[sign * k]) == self.start:
                break
        return k, place

    def built(self, l: int) -> ProjPoint | None:
        """orbit[l] when the orbit has built it, else None; it builds nothing."""
        chain = self._chains[l >= 0]
        return chain[abs(l)] if abs(l) < len(chain) else None

    def enclosure(self, l: int) -> tuple | None:
        """orbit[l] as `Interval`s (an int Z = 1 kept as it is): the built
        triple, or the enclosure past the built triples that the orbit keeps,
        stepping on from the last one it holds (`_step`) when l is further;
        None past a step that cannot be taken.  It builds nothing."""
        forward, k = l >= 0, abs(l)
        chain, enclosures = self._chains[forward], self._enclosures[forward]
        if k < len(chain):
            x, y, z = chain[k]
            return (Interval(x, x), Interval(y, y), 1 if z == 1 else Interval(z, z))
        while len(chain) + len(enclosures) <= k:
            if not self._step(forward):
                return None
        return enclosures[k - len(chain)][0]

    def capped(self, l: int, limit: int, base: int = 0) -> None:
        """Check orbit[l], l != base, for a walk from g^base(x) that has read
        every iterate before l: refuse (ResourceCapError, naming l - base)
        when d bits(top) + c_bits, with top that of its neighbour on the side
        of base (read by `size`), is above `limit` bits."""
        forward = l > base
        forms = self._forms[forward]
        bound = forms.degree * self.size(l - 1 if forward else l + 1)[0] + forms.c_bits
        if bound > limit:
            raise ResourceCapError(f"coordinate exceeded the digit cap at iterate {l - base:+d}",
                                   iterate=l - base, bound_bits=bound)

    def size(self, l: int) -> Tuple[int, float]:
        """(bits(top), h_nv) of orbit[l], measuring each iterate from 0 to l
        once; a walk reads l through `capped` first, so nothing over the cap
        is built.  Past the held triples, an iterate whose neighbour has at
        least SIZED_FROM_BITS bits is sized off its `enclosure` when that
        pins it, and built otherwise."""
        forward = l >= 0
        sizes, k = self._sizes[forward], abs(l)
        while len(sizes) <= k:
            n = len(sizes)
            size = None
            if n >= len(self._chains[forward]) and sizes[-1][0] >= SIZED_FROM_BITS:
                point = self.enclosure(n if forward else -n)
                size = None if point is None else pinned_size(point)
            if size is None:
                t = top(self[n if forward else -n])
                size = (t.bit_length(), log_int(t))
            sizes.append(size)
        return sizes[k]

    def _step(self, forward: bool) -> bool:
        """Keep (enclosure, residues, M) of the next iterate past the last
        one the direction holds, off the image of its enclosure; False, and
        nothing kept, when the direction is unsettled or the common factor
        is undecided.
        The common factor divides R (m when Z = 1, else K once settled), and
        c = gcd(M, F, G, H) on residues modulo a power M of R is it exactly
        while every prime of R divides M / c.  R is 1 on a whole chain or on
        none of it."""
        chain, enclosures, forms = self._chains[forward], self._enclosures[forward], self._forms[forward]
        point, residues, modulus = enclosures[-1] if enclosures else (
            self.enclosure(len(chain) - 1 if forward else 1 - len(chain)), chain[-1], None)
        bad = forms.m if point[2] == 1 else self._settled[forward]
        if bad is None:
            return False  # a rational step before the direction has settled
        f, g, h = forms.image(point)
        if bad != 1:
            if modulus is None:
                modulus = bad ** (320 // (bad.bit_length() - 1) + 1)  # over 320 bits
            image = forms.image([c % modulus for c in residues])
            common = math.gcd(modulus, *image)
            residues = [c % modulus // common for c in image]
            modulus //= common
            if pow(modulus, bad.bit_length(), bad):
                return False  # a prime of R no longer divides M / c
            f, g, h = f.divided(common), g.divided(common), h.divided(common) if type(h) is Interval else h // common
            if type(h) is int and h != 1:
                h = Interval(h, h)
        enclosures.append(((f, g, h), residues, modulus))
        return True


class _Pairs(NamedTuple):
    fwd: Tuple[BivarPoly, BivarPoly]
    inv: Tuple[BivarPoly, BivarPoly]


class PlaneAutomorphism(_Pairs):
    """Forward/inverse polynomial pairs: a map is its polynomials, so two maps
    are equal, and hash equal, exactly when their pairs are.

    The compiled integer forms, the points at infinity, the dynamical degree,
    the escape box and the orbit of the last queried start are cached in the
    instance's `__dict__` (outside the tuple of fields, so equality and
    hashing ignore them, and `_replace()` makes a copy that holds none).
    """

    def degree(self) -> int:
        return max(p.total_degree() for p in self.fwd)

    def inverse_degree(self) -> int:
        return max(p.total_degree() for p in self.inv)

    @cached_property
    def _fwd_forms(self) -> IntegerForms:
        return IntegerForms(self.fwd)

    @cached_property
    def _inv_forms(self) -> IntegerForms:
        return IntegerForms(self.inv)

    def forms(self, forward: bool = True) -> IntegerForms:
        """The integer kernel of one direction, compiled on first use."""
        return self._fwd_forms if forward else self._inv_forms

    @cached_property
    def _at_infinity(self) -> Tuple[InfinityPoint, InfinityPoint]:
        """(I+(f), I+(f^-1)), read off the leading forms of `fwd` and `inv`."""
        return _indeterminacy(self.fwd), _indeterminacy(self.inv)

    @cached_property
    def _dynamical_degree(self) -> int:
        """See `dynamical_degree`."""
        d1 = self.degree()
        if is_regular(self):
            return d1
        tau = Fraction(degree_sequence(self, 2)[1], d1)
        if tau <= 1:
            return 1
        if tau.denominator != 1:
            raise MapValidationError(f"dynamical degree dichotomy violated: tau = {tau} is not an integer")
        delta = int(tau)
        if not 1 <= delta <= d1:
            raise MapValidationError(f"dynamical degree {delta} outside [1, {d1}]")
        return delta

    @cached_property
    def escape_box(self) -> EscapeBox | None:
        """The `EscapeBox` of a regular map, None for any other."""
        return _escape_box(self)

    def orbit(self, start: ProjPoint) -> Orbit:
        """The exact orbit of a primitive triple with Z > 0.

        The map holds one orbit: the one from the previous query when its
        start is the same, else a new one that replaces it.
        """
        held = self.__dict__.get("_orbit")
        if held is None or held.start != start:
            held = Orbit(self.forms(True), self.forms(False), start, self)
            self._orbit = held  # a cache, not a field
        return held

    @property
    def is_integral(self) -> bool:
        """All forward and inverse coefficients are integers, so integer
        points stay integral in both time directions."""
        return self.forms(True).m == 1 and self.forms(False).m == 1

    def apply(self, point):
        return affine(self.forms(True).step(lift(point)))

    def apply_inverse(self, point):
        return affine(self.forms(False).step(lift(point)))

    def is_identity(self) -> bool:
        return self.fwd == (_X, _Y)

    def compose_check(self) -> bool:
        """Exact polynomial identity f o f^-1 = f^-1 o f = (x, y)."""
        p, q = self.fwd
        r, s = self.inv
        return (
            p.compose(r, s) == _X
            and q.compose(r, s) == _Y
            and r.compose(p, q) == _X
            and s.compose(p, q) == _Y
        )

    def __str__(self):
        return f"({self.fwd[0]}, {self.fwd[1]})"


def _build(fwd, inv, check: bool) -> PlaneAutomorphism:
    for poly in (*fwd, *inv):
        if poly.is_zero():
            raise MapValidationError("automorphism components cannot be zero")
    auto = PlaneAutomorphism(tuple(fwd), tuple(inv))
    if auto.degree() < 1 or auto.inverse_degree() < 1:
        raise MapValidationError("automorphism components must have degree >= 1")
    if check and not auto.compose_check():
        raise MapValidationError("compose-check failed: the given pairs are not mutually inverse")
    return auto


def identity() -> PlaneAutomorphism:
    return _build((_X, _Y), (_X, _Y), check=False)


def henon(a, p: BivarPoly) -> PlaneAutomorphism:
    """The Henon map (x, y) |-> (p(x) - a*y, x), a != 0, deg p >= 2.

    Closed-form inverse: (x, y) |-> (y, (p(y) - x)/a).
    """
    a = Fraction(a)
    if a == 0:
        raise MapValidationError("henon: a must be nonzero")
    if not p.is_univariate_in("x"):
        raise MapValidationError("henon: p must be a univariate polynomial in x")
    if p.is_zero() or p.total_degree() < 2:
        raise MapValidationError("henon: deg p must be >= 2")
    fwd = (p - BivarPoly.const(a) * _Y, _X)
    p_of_y = p.compose(_Y, BivarPoly.zero())
    inv = (_Y, (p_of_y - _X) * BivarPoly.const(1 / a))
    return _build(fwd, inv, check=True)


def triangular(a, b, c, P: BivarPoly) -> PlaneAutomorphism:
    """The triangular (de Jonquieres) map (x, y) |-> (a*x + P(y), b*y + c), ab != 0."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a * b == 0:
        raise MapValidationError("triangular: a*b must be nonzero")
    if not P.is_univariate_in("y"):
        raise MapValidationError("triangular: P must be a univariate polynomial in y")
    fwd = (BivarPoly.const(a) * _X + P, BivarPoly.const(b) * _Y + BivarPoly.const(c))
    y_back = (_Y - BivarPoly.const(c)) * BivarPoly.const(1 / b)
    inv = (
        (_X - P.compose(BivarPoly.zero(), y_back)) * BivarPoly.const(1 / a),
        y_back,
    )
    return _build(fwd, inv, check=True)


def pair(p: BivarPoly, q: BivarPoly, pinv: BivarPoly, qinv: BivarPoly) -> PlaneAutomorphism:
    """User-supplied forward and inverse pairs; only validated, never inverted."""
    return _build((p, q), (pinv, qinv), check=True)


def compose_maps(f: PlaneAutomorphism, g: PlaneAutomorphism) -> PlaneAutomorphism:
    """The composite f o g (g applied first)."""
    fwd = (
        f.fwd[0].compose(g.fwd[0], g.fwd[1]),
        f.fwd[1].compose(g.fwd[0], g.fwd[1]),
    )
    inv = (
        g.inv[0].compose(f.inv[0], f.inv[1]),
        g.inv[1].compose(f.inv[0], f.inv[1]),
    )
    return _build(fwd, inv, check=False)


def inverse(f: PlaneAutomorphism) -> PlaneAutomorphism:
    return _build(f.inv, f.fwd, check=False)


def conjugate(f: PlaneAutomorphism, gamma: PlaneAutomorphism) -> PlaneAutomorphism:
    """gamma^-1 o f o gamma."""
    return compose_maps(compose_maps(inverse(gamma), f), gamma)


def degree_sequence(f: PlaneAutomorphism, n_max: int) -> list:
    """[deg f, deg f^2, ..., deg f^n_max] by exact iterated composition;
    refused (ResourceCapError) before any composition when deg f *
    delta^(n_max - 1) is above DEGREE_SEQUENCE_CAP, since each composition
    near that degree costs seconds, and the next many times more.  The test
    needs delta: past n_max = 2 it is always taken, and at n_max = 2 only on
    a regular map, where delta = deg f with no composition; the dynamical
    degree of any other map reads deg f^2 off this function, uncapped."""
    if n_max < 1:
        raise ValueError("degree_sequence needs n_max >= 1")
    if ((n_max > 2 or n_max == 2 and is_regular(f))
            and (bound := f.degree() * dynamical_degree(f) ** (n_max - 1)) > DEGREE_SEQUENCE_CAP):
        raise ResourceCapError(f"degree sequence to N = {n_max}: deg f * delta^{n_max - 1} = {bound} "
                               f"is above {DEGREE_SEQUENCE_CAP}")
    p, q = cur_p, cur_q = f.fwd
    degrees = [f.degree()]
    for _ in range(n_max - 1):
        cur_p, cur_q = p.compose(cur_p, cur_q), q.compose(cur_p, cur_q)
        degrees.append(max(cur_p.total_degree(), cur_q.total_degree()))
    return degrees


def dynamical_degree(f: PlaneAutomorphism) -> int:
    """delta = lim (deg f^n)^(1/n): deg f on a regular map (Friedland-Milnor
    1989), with no composition; else the exact ratio tau = deg(f^2)/deg(f),
    which is <= 1 (triangularizable, delta = 1) or an integer >= 2 equal to
    delta.  A non-integer tau > 1 signals a malformed automorphism.  The value
    is cached on the map."""
    return f._dynamical_degree


# -- points at infinity ------------------------------------------------------

class InfinityPoint(NamedTuple):
    """A point (X : Y) of the line at infinity, as a coprime integer pair
    with X >= 0 (and Y > 0 when X = 0)."""

    xy: Tuple[int, int]

    @property
    def is_rational(self) -> bool:
        """Always True: the indeterminacy point of an automorphism is the zero
        of a rational linear form (see `indeterminacy_at_infinity`), and any
        other input is refused rather than given an irrational locus."""
        return True

    def __str__(self):
        return f"({self.xy[0]}:{self.xy[1]})"


def _normalize_pair(x: int, y: int) -> Tuple[int, int]:
    g = math.gcd(abs(x), abs(y))
    x, y = x // g, y // g
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return (x, y)


def indeterminacy_at_infinity(f: PlaneAutomorphism) -> InfinityPoint:
    """I+(f), the first of the pair the map caches (see `_indeterminacy`)."""
    return f._at_infinity[0]


def _indeterminacy(components: Tuple[BivarPoly, BivarPoly]) -> InfinityPoint:
    """The common zero on the line at infinity of the nonzero degree-d
    leading forms F of the components of one direction, d = its degree >= 2.

    The point is always rational.  A plane automorphism is a composite of
    affine and triangular maps (Jung 1942, van der Kulk 1953), so each F is
    c * l^d for one linear form l over Q.  With a, b the coefficients of x^d
    and x^(d-1) y, l = x + b/(d a) y when a != 0 and l = y otherwise, and
    F = c * l^d is checked exactly.  A form that is not such a power, or two
    forms with different zeros, mean f is not an automorphism: refused.
    """
    d = max(poly.total_degree() for poly in components)
    if d < 2:
        raise MapValidationError("indeterminacy at infinity requires degree >= 2")
    points = set()
    for form in (poly.leading_form(d) for poly in components):
        if form.is_zero():
            continue  # a component of lower degree imposes no condition
        a = form.coefficient(d, 0)
        if a:
            t = form.coefficient(d - 1, 1) / (d * a)
            linear, c, point = _X + BivarPoly.const(t) * _Y, a, _normalize_pair(-t.numerator, t.denominator)
        else:
            linear, c, point = _Y, form.coefficient(0, d), (1, 0)
        if form != BivarPoly.const(c) * linear**d:
            raise MapValidationError(
                f"leading form {form} is not a power of a linear form (not an automorphism)")
        points.add(point)
    if len(points) != 1:
        raise MapValidationError(
            "the leading forms have no common zero at infinity (not an automorphism)")
    return InfinityPoint(points.pop())


def is_regular(f: PlaneAutomorphism) -> bool:
    """True when the indeterminacy points at infinity of f and f^-1 differ;
    False for a map of degree < 2, which has none."""
    return f.degree() >= 2 and f._at_infinity[0] != f._at_infinity[1]


# -- the escape box ------------------------------------------------------------

class _Box(NamedTuple):
    basis: Tuple[int, int, int, int]  # B = [[b0, b1], [b2, b3]]
    radius: Fraction
    modulus: int
    bad: int  # K, whose primes carry every common factor of a settled step
    growth: Tuple[Tuple[int, Fraction, Fraction], Tuple[int, Fraction, Fraction]]  # (d, alpha, S) of f^-1, f
    inequality: float  # c of the height inequality, rounded up


class EscapeBox(_Box):
    """The filtration of a regular map f (Bedford-Smillie, Hubbard-Oberste-Vorth)
    read off its coefficients: every periodic point of f lies in the box.

    The coordinates (u, v) = B (x, y), B = [[q, -p], [-s, r]] with I+(f) = (p:q)
    and I+(f^-1) = (r:s), make f = (alpha u^d + lower, Q), deg Q < d, and
    f^-1 = (P, beta v^d_- + lower), deg P < d_-.  At infinity, with S the sum
    of |c| over f's other coefficients and |alpha| R >= S + 2, R >= 1, a point
    with |u| >= |v|, |u| > R maps to |u'| > |v'| + 2|u|^(d-1) >= 2|u|; f^-1
    does the same for |v| >= |u|, |v| > R, and R is the larger radius.  At a
    prime l, where v_l(w) > v_l(|num alpha| m) (m the lcm of the denominators)
    and |u|_l >= |v|_l, alpha u^d is above every other term, so |u|_l grows
    strictly.  With N the lcm of both directions' |num alpha| m, the box at l
    is w | N.  An orbit unbounded at one place is infinite.

    `bad` is K = N |det B| m_f m_f^-1, with m_f and m_f^-1 the denominators
    of the integer forms of f and f^-1.  At a prime p not dividing K, B is
    invertible over Z_p, every coefficient of f, f^-1 and of their normal
    forms is p-integral, alpha and beta are units, and any p in w puts the
    point outside the box.  So a triple (U : V : W) with p | W and p not
    dividing U lies in V+ at p, where |u'|_p = |u|_p^d, and its image
    (F : G : m W^d) has max(|F|_p, |G|_p) = |U|_p^d = 1: it is already
    primitive at p.  At a prime of neither K nor W, m W^d is a unit.  This is
    the good-prime rule of `IntegerForms.step`.

    The box lemma gives the escape tail at infinity too.  `growth` holds,
    per direction (indexed by forward, as an `Orbit` indexes its lists),
    (d, alpha, S): the degree, the leading coefficient, and S = the sum of
    |c| over every other coefficient of the normal form; going backward they
    are those of f^-1, with v for u and beta for alpha.  For a point in V+
    with |u| >= 1, each other term c u^i v^j of u' and of v' has i + j < d,
    so it is at most |c| |u|^(d-1) in size.  So with eps = S/(|alpha| |u|):
      * |u'| = |alpha| |u|^d (1 + t) with |t| <= eps, so
        log|u'| = d log|u| + log|alpha| +- eta, eta = -log(1 - eps);
      * |v'| / |u'| <= S / (|alpha| |u| - S) = eps / (1 - eps).
    The tail starts (`escaped`) where log|u| >= log R + 45 and log(2 S /
    |alpha|) + log(2 B'/M) + 45, with B' and M below: there eps <= e^-45 / 2,
    so eta and the ratio are at most 2 eps, and the next iterate is again in
    V+ with |u'| > 2|u|; the tail never leaves.  The height of an integral
    point is read off u through B^-1 = [[b3, -b1], [-b2, b0]] / det B: with
    r = |v/u|, M = max(|b3|, |b2|) and B' = max(|b1|, |b0|) (the two swap
    going backward), max(|X|, |Y|) = |u| / |det B| (M +- B' r), so h_nv =
    log|u| + log(M / |det B|) +- rho', rho' = -log(1 - B' r / M) <= 2 B' r / M,
    and the start puts log(M / |det B|) + log|u| above 45, so h_nv > 0.  This
    is the B^-1 offset; `tail_step` bounds both errors by one float each.

    The box lemma also gives an escape floor (`floor`): a lower bound F on
    h_nv = log Z + log max(1, |x|, |y|) at an iterate that holds at every
    later iterate of its direction.  Let (U : V : W) be the primitive triple
    of B (X, Y) and Z, so W divides Z, with u = U/W and v = V/W; going
    backward, swap u and v, V+ and V-, and (b0, b1) and (b2, b3).  F = A + Phi:
      * at infinity, A = log|u| - log(|b0| + |b1|) when |u| >= |v| and
        |u| > R, and else 0; as |u| <= (|b0| + |b1|) max(|x|, |y|), A is at
        most the archimedean term, and from there on |u| at least doubles in
        V+, so A never falls;
      * at the primes, Phi = log W2.  W1 is W with every prime of U taken out
        by repeated gcds, which leaves the primes of W at which the point is
        in V+ (a prime of W and U puts it in V-, as the triple is primitive),
        and W2 = W1 / gcd(W1, N), whose every prime p has v_p(W) > v_p(N):
        outside the box at p, in V+.  Its term mu = (v_p(W) - v_p(N)) log p
        satisfies mu' >= d mu, as |u'|_p = |alpha|_p |u|_p^d there and
        v_p(num alpha) <= v_p(N) <= (d - 1) v_p(N).  So p stays in W2, and
        Phi j iterates later is at least d^j Phi; W2 divides Z.
    It needs gcds only, no factoring.  The float constants of `tail_step`
    are cached in the instance's `__dict__`, outside the fields.

    `inequality` is a constant c of the height inequality of a regular map,
    with d = d_- (Kawaguchi's local decomposition, "Local and global
    canonical height functions for affine space regular automorphisms"):
    (1/d) h(f x) + (1/d) h(f^-1 x) >= (1 + 1/d^2) h(x) - c for every rational
    x.  h is the sum over the places of log+ max(|x|, |y|), so c is a sum of
    one constant per place, each the largest over V+, V- and the box there,
    and bounded here by the sum over the three.  Let mu be log+ max(|u|, |v|)
    with (u, v) = B (x, y), G the normal form, and C+ the growth constant of G
    at the place: mu(G x) <= d mu(x) + C+.  At infinity C+ is log+ of the
    larger coefficient sum of G's two components, and at a prime it is the
    log of the prime's part of the lcm of G's denominators.  So mu(x) <=
    d mu(G^-1 x) + C+.  In V+ at infinity (|u| >= |v|, |u| > R >= 1), each
    other term is at most its |c| |u|^(d-1), so
    mu(G x) >= log|u'| >= d mu(x) + log(|alpha| - S/R) >= d mu(x) - c+, with
    c+ = log+((S + 2)/(2 |alpha|)).  Hence (1/d) mu(G x) + (1/d) mu(G^-1 x) >=
    (1 + 1/d^2) mu(x) - c+/d - C+/d^2 there.  V- is the same with G^-1, and
    in the box mu <= log R while the left side is >= 0.  At a prime l, in V+
    (|u|_l >= |v|_l, |u|_l > max(1, |c/alpha|_l) over G's other
    coefficients c), the ultrametric step is exact: mu(G x) = d mu(x) +
    log|alpha|_l.  The box there has mu <= the log of the l-part of the lcm of
    the denominators of the c/alpha.  Summed over the primes, that gives
    (1/d) log|num alpha| + (1/d^2) log(lcm of G's denominators) + (1 + 1/d^2)
    log(lcm of the denominators of the c/alpha) per direction.  B changes
    the height by at most log+ ||B|| one way and log+ ||B^-1|| the other.
    That is (2/d) log+ ||B|| + (1 + 1/d^2) log+ ||B^-1|| at infinity, with
    ||.|| the largest row sum of absolute values, and (1 + 1/d^2) log|det B|
    at the primes, as B is integral.  Every log is rounded up (`_log_up`),
    summed exactly, and the sum rounded up once.
    """

    def _u(self, x, y, forward: bool = True):
        """u of (u, v) = B (x, y), or v going backward, of ints or
        `Interval`s: the one place a point is put in the box's coordinates,
        one row of B at a time, as `settled` reads only one."""
        b0, b1 = self.basis[:2] if forward else self.basis[2:]
        return b0 * x + b1 * y

    def coordinates(self, point: ProjPoint) -> ProjPoint:
        """The primitive triple (u : v : w), w > 0, of B (X, Y) over Z."""
        x, y, z = point
        u, v = self._u(x, y), self._u(x, y, False)
        common = math.gcd(u, v, z)
        return (u // common, v // common, z // common)

    def settled(self, point: ProjPoint, forward: bool = True) -> bool:
        """True when no prime outside K divides both W and U (V going
        backward) of the triple in B coordinates: every prime of its
        denominator outside K sees it in V+ (V-), so no step from it or from
        any later iterate makes a common factor outside K."""
        x, y, z = point
        common = math.gcd(z, self._u(x, y, forward))
        while (part := math.gcd(common, self.bad)) != 1:
            common //= part
        return common == 1

    def exit_place(self, point: ProjPoint) -> str | None:
        """None for a triple in the box, else where it lies outside:
        'infinity' when max(|u|, |v|) > R w, else a prime of w / gcd(w, N)."""
        u, v, w = self.coordinates(point)
        if max(abs(u), abs(v)) * self.radius.denominator > self.radius.numerator * w:
            return "infinity"
        rest = w // math.gcd(w, self.modulus)
        if rest == 1:
            return None
        if math.isqrt(rest) > 1000 and all(rest % q for q in range(2, 1001)):
            return "a prime above 1000 of its denominator"
        return f"the prime {next((q for q in range(2, math.isqrt(rest) + 1) if rest % q == 0), rest)}"

    @cached_property
    def _tail_constants(self) -> Tuple[_Tail, _Tail]:
        """The float constants of `tail_step` per direction, indexed by forward."""
        b0, b1, b2, b3 = self.basis
        det = abs(b0 * b3 - b1 * b2)
        rows = (max(abs(b0), abs(b1)), max(abs(b2), abs(b3)))  # M is rows[forward], B' the other
        tails = []
        for forward, (d, alpha, slack) in enumerate(self.growth):
            m, other = rows[forward], rows[not forward]
            log_slack = _log_bounds(2 * slack / abs(alpha))[1] if slack else -math.inf
            offset = math.nextafter(float(Fraction(2 * other, m)), math.inf)
            scale = _log_bounds(Fraction(m, det))
            start = max(_log_bounds(self.radius)[1], log_slack + max(0.0, math.log(offset)), -scale[0]) + 45
            tails.append(_Tail(d, _log_bounds(abs(alpha)), log_slack, scale, offset, start))
        return tuple(tails)

    def escaped(self, point: ProjPoint, forward: bool = True) -> Tuple[float, float] | None:
        """Outward bounds on log|u| (log|v| going backward) at the exact triple
        (X, Y, 1) of an integral point, when it lies in V+ (V-), |u| > |v|,
        with log|u| at least the direction's tail start, so past R and with
        eps <= e^-45 / 2 (see the class docstring); else None.  The bounds are
        log_int(|u|) +- 4 ulps, as log_int is good to under 3."""
        u, v = (abs(self._u(point[0], point[1], side)) for side in (forward, not forward))
        if u <= v:
            return None
        log_u = log_int(u)
        pad = 4 * math.ulp(log_u)
        return None if log_u - pad < self._tail_constants[forward].start else (log_u - pad, log_u + pad)

    def tail_step(self, logs: Tuple[float, float], forward: bool = True):
        """((lo, hi) of log|u'|, (lo, hi) of h_nv) at the next iterate from
        bounds on log|u| at an integral iterate in the tail (log|v| and V-
        going backward): the one-step bound log|u'| = d log|u| + log|alpha|
        +- eta, then the B^-1 offset, both from the class docstring.
        With lo the lower bound, e = exp(log(2 S/|alpha|) - lo) is above 2 eps,
        which is above eta and above the ratio |v'/u'|; so e bounds eta and
        `offset` e (above 2 B'/M times e) bounds rho'.  Every float operation
        is rounded to nearest and then moved one ulp outward with
        `math.nextafter`, which makes it a directed rounding (exp too, whose
        error is under one ulp); so the bounds hold with no pad.  A bound past
        the float range comes back as inf."""
        t = self._tail_constants[forward]
        lo, hi = logs
        eta = _nextafter(math.exp(_nextafter(t.log_slack - lo, _INF)), _INF)
        lo = _nextafter(_nextafter(_nextafter(t.degree * lo, -_INF) + t.log_alpha[0], -_INF) - eta, -_INF)
        hi = _nextafter(_nextafter(_nextafter(t.degree * hi, _INF) + t.log_alpha[1], _INF) + eta, _INF)
        offset = _nextafter(t.offset * eta, _INF)
        return (lo, hi), (_nextafter(_nextafter(lo + t.scale[0], -_INF) - offset, -_INF),
                          _nextafter(_nextafter(hi + t.scale[1], _INF) + offset, _INF))

    def floor(self, point, exact: ProjPoint | None, steps: int, forward: bool = True) -> float:
        """The escape floor of an iterate (see the class docstring), good to a
        few ulps: A read off `point`, an enclosure (X, Y, Z) of the iterate
        in `Interval`s (an int Z = 1 as it is; None gives A = 0), plus
        d^steps Phi read off `exact`, the exact triple `steps` iterates
        before it (None gives 0).  `Interval.log_abs` is good to 4 ulps (under
        3 of `log_int`, and the product and sum with the exponent), so the
        tests of V+ and of R hold with a pad of 8 ulps of each log."""
        found = 0.0
        if point is not None:
            x, y, z = point
            lo, hi = self._u(x, y, forward).log_abs()
            pad, z_hi = 8 * math.ulp(hi), 0.0 if z == 1 else z.log_abs()[1]
            if lo - pad > self._u(x, y, not forward).log_abs()[1] + pad \
                    and lo - pad - z_hi - 8 * math.ulp(z_hi) > _log_bounds(self.radius)[1]:
                row = self.basis[:2] if forward else self.basis[2:]  # the row of B giving u (v backward)
                found = max(0.0, lo - pad - z_hi - math.log(sum(map(abs, row))))
        if exact is not None:
            u, v, w = self.coordinates(exact)
            while (part := math.gcd(w, u if forward else v)) != 1:
                w //= part
            found += log_int(w // math.gcd(w, self.modulus)) * self.growth[forward][0] ** steps
        return found


_INF = math.inf
_nextafter = math.nextafter


class _Tail(NamedTuple):
    """The float constants of one direction of an escape tail."""

    degree: int
    log_alpha: Tuple[float, float]  # bounds on log|alpha|
    log_slack: float  # above log(2 S/|alpha|); -inf when S = 0
    scale: Tuple[float, float]  # bounds on log(M/|det B|)
    offset: float  # above 2 B'/M
    start: float  # the least lower bound on log|u| the tail starts from


def _log_bounds(q: Fraction) -> Tuple[float, float]:
    """Outward bounds on log q, q > 0.  log_int is good to under 3 ulps (one
    rounding of math.log, of the product by log 2 and of the sum, and the
    error of log 2 itself), and the difference of the two logs adds half an
    ulp of the larger; the pad is 4 ulps of each."""
    num, den = log_int(q.numerator), log_int(q.denominator)
    pad = 4 * (math.ulp(num) + math.ulp(den))
    return _nextafter(num - den - pad, -_INF), _nextafter(num - den + pad, _INF)


def _escape_box(f: PlaneAutomorphism) -> EscapeBox | None:
    if not is_regular(f):
        return None
    (p, q), (r, s) = (point.xy for point in f._at_infinity)
    det = q * r - p * s  # nonzero: two distinct normalized points
    b_inv = (Fraction(r, det) * _X + Fraction(p, det) * _Y, Fraction(s, det) * _X + Fraction(q, det) * _Y)
    b = _build((q * _X - p * _Y, r * _Y - s * _X), b_inv, check=False)
    g = conjugate(f, inverse(b))  # b o f o b^-1: f in the coordinates (u, v), named (x, y)
    radius, modulus, growth, at_infinity, at_primes = Fraction(1), 1, [], [], 0
    for (lead, low), key in ((g.inv[::-1], (0, g.inverse_degree())), (g.fwd, (g.degree(), 0))):
        alpha, d = lead.coefficient(*key), sum(key)
        if alpha == 0 or lead.leading_form(d) != BivarPoly({key: alpha}) or low.total_degree() >= d:
            raise MapValidationError(f"regular map not in the normal form {g} of its escape box")
        both = 1 + Fraction(1, d**2)
        sums = [Fraction(sum(map(abs, poly.nums.values())), poly.den) for poly in (lead, low)]
        slack = sum(sums) - abs(alpha)
        radius = max(radius, (slack + 2) / abs(alpha))
        modulus = math.lcm(modulus, abs(alpha.numerator) * math.lcm(lead.den, low.den))
        growth.append((d, alpha, slack))
        at_infinity.append(_log_up((slack + 2) / (2 * abs(alpha))) / d + _log_up(max(sums)) / d**2)
        quotients = math.lcm(*((Fraction(n, poly.den) / alpha).denominator for poly in (lead, low)
                               for n in poly.nums.values()))
        at_primes += (_log_up(abs(alpha.numerator)) / d + _log_up(math.lcm(lead.den, low.den)) / d**2
                      + both * _log_up(quotients))
    inequality = (max(*at_infinity, both * _log_up(radius)) + at_primes
                  + 2 * _log_up(max(abs(q) + abs(p), abs(s) + abs(r))) / d
                  + both * (_log_up(Fraction(max(abs(r) + abs(p), abs(s) + abs(q)), abs(det))) + _log_up(abs(det))))
    bad = modulus * abs(det) * f.forms(True).m * f.forms(False).m
    return EscapeBox((q, -p, -s, r), radius, modulus, bad, tuple(growth), _nextafter(float(inequality), _INF))


def _log_up(q) -> Fraction:
    """log+ q = log max(1, q) of a positive rational, rounded up to a float
    and held exactly as a `Fraction`, so sums of them round once, at the end."""
    return Fraction(_log_bounds(Fraction(q))[1]) if q > 1 else Fraction(0)


# -- map-description documents ------------------------------------------------

def from_description(doc) -> PlaneAutomorphism:
    """Build an automorphism from a JSON-shaped map description.

    Supported nodes: henon, triangular, compose (right-to-left), conjugate
    (by o inner o by^-1, the outer map of an engine with core inner and
    conjugator by), pair.  Rationals are JSON strings 'num/den' or 'int';
    polynomials use the text grammar of :mod:`planeheights.ratpoly`.  A field
    of the wrong JSON type, or whose text does not parse, is refused, naming
    the map type and the field.
    """
    if not isinstance(doc, dict) or "type" not in doc:
        raise MapValidationError("map description must be an object with a 'type' field")
    kind = doc["type"]
    try:
        if kind == "henon":
            return henon(_parsed(doc, "a", parse_rat), _parsed(doc, "p", BivarPoly.parse))
        if kind == "triangular":
            return triangular(*(_parsed(doc, name, parse_rat) for name in "abc"), _parsed(doc, "P", BivarPoly.parse))
        if kind == "compose":
            maps = [_part(f"compose maps[{index}]", node) for index, node in enumerate(_field(doc, "maps", list))]
            if not maps:
                raise MapValidationError("compose needs at least one map")
            result = maps[-1]
            for node in reversed(maps[:-1]):
                result = compose_maps(node, result)
            return result
        if kind == "conjugate":
            inner, by = conjugate_parts(doc)
            return conjugate(inner, inverse(by))
        if kind == "pair":
            return pair(*(_parsed(doc, name, BivarPoly.parse) for name in ("p", "q", "pinv", "qinv")))
    except KeyError as exc:
        raise MapValidationError(f"map description of type {kind!r} is missing field {exc}") from None
    raise MapValidationError(f"unknown map type {kind!r}")


def _part(where, node):
    """The map of a nested description; a refusal names where it sits (`where`)."""
    try:
        return from_description(node)
    except (MapValidationError, PolyParseError) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _parsed(doc, name, parse):
    """parse(doc[name]) of a string field; a parse error names the map type and the field."""
    try:
        return parse(_field(doc, name))
    except PolyParseError as exc:
        raise PolyParseError(f"map description of type {doc['type']!r}: field {name!r}: {exc}") from None


def _field(doc, name, kind=str):
    """doc[name], refused unless it is a JSON string, array or object (kind str, list, dict)."""
    value = doc[name]
    if not isinstance(value, kind):
        what = {str: "string", list: "array", dict: "object"}[kind]
        raise MapValidationError(f"map description of type {doc['type']!r}: field {name!r} "
                                 f"must be a JSON {what}")
    return value


def conjugate_parts(doc):
    """(inner, by) of a conjugate description, the map by o inner o by^-1;
    (map, None) of any other description."""
    if not (isinstance(doc, dict) and doc.get("type") == "conjugate"):
        return from_description(doc), None
    try:
        return _part("conjugate inner", _field(doc, "inner", dict)), _part("conjugate by", _field(doc, "by", dict))
    except KeyError as exc:
        raise MapValidationError(f"map description of type 'conjugate' is missing field {exc}") from None


def read_map_doc(path):
    """The JSON document of a map file; invalid JSON is a PolyParseError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise PolyParseError(f"invalid JSON in map file: {exc}") from None


def load_map_file(path) -> PlaneAutomorphism:
    return from_description(read_map_doc(path))
