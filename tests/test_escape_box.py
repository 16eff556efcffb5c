"""The escape box of a regular map, where an orbit leaves the box, and the
periodicity verdicts read off that.

The box constants are pinned on the corpus maps.  Hypothesis draws words of
one to three Henon maps (monic and non-monic p, rational a, coefficients
with denominators, so that N > 1 occurs) and their conjugates by affine
maps, and checks the filtration itself (a point outside the box escapes in
one step at the place where it lies outside), the record `Orbit.exit` gives
in each direction (a period closes exactly with no earlier iterate outside
the box; an exit at k >= 1 lies outside on the direction's side, and the
next four iterates stay outside there and grow), and every verdict: a
"periodic" closes exactly at its period, and a "not_periodic" point has no
return f^k(x) = x for k <= 50, read modulo a large prime.  Walks of one
map at two digit caps give what each gives on a fresh copy of the map.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from planeheights import from_description
from planeheights.automorphism import (
    Interval,
    cap_bits,
    compose_maps,
    conjugate,
    henon,
    pair,
    triangular,
)
from planeheights.canonical import is_periodic, make_engine
from planeheights.errors import MapValidationError, ResourceCapError
from planeheights.heights import lift, naive_height, top
from planeheights.ratpoly import BivarPoly, parse_poly

X, Y = BivarPoly.var("x"), BivarPoly.var("y")
H2 = {"type": "henon", "a": "1", "p": "x^2"}
H3 = {"type": "henon", "a": "-1", "p": "x^3 - 2*x + 1"}
CORPUS = {
    "H2": (H2, None),
    "H3": (H3, None),
    "H4": ({"type": "henon", "a": "2", "p": "x^4 + x"}, None),
    "C6": ({"type": "compose", "maps": [H2, H3]}, None),
    "conj-H2": (H2, {"type": "triangular", "a": "1", "b": "1", "c": "0", "P": "1"}),
}


@pytest.mark.parametrize("name, radius, modulus", [
    ("H2", 4, 1), ("H3", 7, 1), ("H4", 8, 2), ("C6", 32, 1), ("conj-H2", 9, 1)])
def test_box_constants_of_the_corpus(name, radius, modulus):
    core, gamma = CORPUS[name]
    gamma = None if gamma is None else from_description(gamma)
    box = make_engine(from_description(core), gamma=gamma).outer.escape_box
    assert (box.radius, box.modulus) == (radius, modulus)


@pytest.mark.parametrize("name, backward, forward", [
    ("H2", (2, 1, 2), (2, 1, 2)),
    ("H3", (3, -1, 5), (3, 1, 5)),
    ("H4", (4, Fraction(1, 2), 2), (4, 1, 4)),
    ("C6", (6, -1, 15), (6, 1, 30)),
    ("conj-H2", (2, 1, 4), (2, 1, 7)),
])
def test_growth_of_the_corpus(name, backward, forward):
    # (d, alpha, S) per direction: R = (S + 2)/|alpha| at the larger one
    core, gamma = CORPUS[name]
    gamma = None if gamma is None else from_description(gamma)
    box = make_engine(from_description(core), gamma=gamma).outer.escape_box
    assert box.growth == (backward, forward)
    assert box.radius == max((s + 2) / abs(alpha) for _, alpha, s in box.growth)


def test_the_escape_tail_starts_in_v_plus_past_its_start():
    # H2 has S = 2, alpha = 1 and B = I, so the tail starts at log|u| =
    # log(2 S/|alpha|) + log(2 B'/M) + 45 = log 8 + 45
    box = henon(1, parse_poly("x^2")).escape_box
    big, small = Interval(1 << 3000, 1 << 3000), Interval(5, 5)
    assert box._tail_constants[True].start == pytest.approx(math.log(8) + 45)
    lo, hi = box.escaped((big, small, 1), forward=True)
    assert lo < 3000 * math.log(2) < hi and hi - lo < 1e-11
    assert box.escaped((small, big, 1), forward=True) is None  # in V-
    assert box.escaped((small, big, 1), forward=False) == (lo, hi)
    assert box.escaped((Interval(1 << 60, 1 << 60), small, 1), forward=True) is None  # under the start
    # a step from u = 2^3000, v = 5 to u' = 2^6000 - 5, v' = 2^3000
    (l_lo, l_hi), (h_lo, h_hi) = box.tail_step((lo, hi))
    assert l_lo < 6000 * math.log(2) < l_hi and h_lo <= l_lo < l_hi <= h_hi and h_hi - h_lo < 1e-10


def test_the_box_is_cached_on_the_map():
    f = henon(1, parse_poly("x^2"))
    assert f.escape_box is f.escape_box
    assert f.escape_box.basis == (1, 0, 0, 1)


def test_maps_with_no_box():
    assert triangular(1, 1, 1, parse_poly("y^2")).escape_box is None  # not regular
    assert triangular(-1, -1, 0, BivarPoly.zero()).escape_box is None  # degree 1


@pytest.mark.parametrize("p, a, pt, detail", [
    ("x^2", 1, (Fraction(1, 35), Fraction(0)), "iterate +0 lies outside the escape box at the prime 5"),
    ("x^2", 1, (Fraction(1, 1000003), Fraction(0)), "iterate +0 lies outside the escape box at the prime 1000003"),
    ("x^2", 1, (Fraction(1, 1000003 * 1000033), Fraction(0)),
     "iterate +0 lies outside the escape box at a prime above 1000 of its denominator"),
    # H4 has N = 2: (1/2, 0) lies in the box, and its image (9/16, 1/2) does not
    ("x^4 + x", 2, (Fraction(1, 2), Fraction(0)), "iterate +1 lies outside the escape box at the prime 2"),
])
def test_the_place_at_a_prime_is_named(p, a, pt, detail):
    verdict = is_periodic(henon(a, parse_poly(p)), pt)
    assert (verdict.kind, verdict.detail) == ("not_periodic", detail)


def test_the_normal_form_is_checked():
    # a regular map whose forward image of the line at infinity is not
    # I+(f^-1) breaks the normal form; no automorphism does, so put a wrong
    # I+(f) into the pair of points at infinity the map caches
    from planeheights import automorphism

    f = henon(1, parse_poly("x^2"))
    f.__dict__["_at_infinity"] = (automorphism.InfinityPoint((1, 1)), automorphism.InfinityPoint((1, 0)))
    with pytest.raises(MapValidationError, match="normal form"):
        automorphism._escape_box(f)


# -- random regular maps ------------------------------------------------------

denominators = st.sampled_from([1, 1, 1, 2, 3, 5])
small = st.builds(Fraction, st.integers(-4, 4), denominators)
nonzero = st.builds(Fraction, st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), denominators)


@st.composite
def henon_words(draw):
    """Words of one to three Henon maps of degree 2 or 3, degree <= 12,
    optionally conjugated by an affine map."""
    degrees = draw(st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (2, 2, 3)]))
    f = None
    for degree in degrees:
        lead = draw(st.sampled_from([Fraction(1), Fraction(-1)]) | nonzero)
        coeffs = draw(st.lists(small, min_size=degree, max_size=degree)) + [lead]
        p = sum((BivarPoly.const(c) * X**i for i, c in enumerate(coeffs)), BivarPoly.zero())
        g = henon(draw(nonzero), p)
        f = g if f is None else compose_maps(f, g)
    if draw(st.booleans()):
        a, b, c, d = (draw(small) for _ in range(4))
        det = a * d - b * c
        if det:
            e, h = draw(small), draw(small)
            gamma = pair(BivarPoly.const(a) * X + BivarPoly.const(b) * Y + BivarPoly.const(e),
                         BivarPoly.const(c) * X + BivarPoly.const(d) * Y + BivarPoly.const(h),
                         BivarPoly.const(d / det) * (X - e) - BivarPoly.const(b / det) * (Y - h),
                         BivarPoly.const(a / det) * (Y - h) - BivarPoly.const(c / det) * (X - e))
            f = conjugate(f, gamma)
    return f


coordinates = st.builds(Fraction, st.integers(-20, 20) | st.integers(-10**4, 10**4),
                        st.sampled_from([1, 1, 1, 2, 3, 4, 5, 6, 7, 9, 25]))
points = st.tuples(coordinates, coordinates)


def _ord(n, prime):
    """The prime's valuation of n, infinite at 0."""
    if n == 0:
        return math.inf
    k = 0
    while n % prime == 0:
        power, e = prime, 1  # the largest prime^(2^i) that divides n
        while n % (power * power) == 0:
            power, e = power * power, 2 * e
        n //= power
        k += e
    return k


def _small_primes(n):
    return [q for q in range(2, 50) if n % q == 0 and all(q % r for r in range(2, q))]


@settings(max_examples=60, deadline=None)
@given(f=henon_words(), pt=points)
def test_a_point_outside_the_box_escapes_in_one_step(f, pt):
    box = f.escape_box
    radius, modulus = box.radius, box.modulus
    u, v, w = box.coordinates(lift(pt))
    if max(abs(u), abs(v)) > radius * w:
        # V+ (|u| >= |v|) escapes forward, V- backward, |u| or |v| doubling
        forward = abs(u) >= abs(v)
        u2, v2, w2 = box.coordinates(f.forms(forward).step(lift(pt)))
        grow, other = (abs(u2), abs(v2)) if forward else (abs(v2), abs(u2))
        before = abs(u) if forward else abs(v)
        assert grow >= other and grow > radius * w2
        assert grow * w >= 2 * before * w2
        assert box.exit_place(f.forms(forward).step(lift(pt))) == "infinity"
    for prime in _small_primes(w // math.gcd(w, modulus)):
        # outside at the prime: the size prime^(ord w - ord u) of the larger
        # coordinate grows strictly, and the point stays outside there
        forward = _ord(u, prime) <= _ord(v, prime)
        u2, v2, w2 = box.coordinates(f.forms(forward).step(lift(pt)))
        grow, other = (_ord(u2, prime), _ord(v2, prime)) if forward else (_ord(v2, prime), _ord(u2, prime))
        before = _ord(u, prime) if forward else _ord(v, prime)
        assert grow <= other
        assert _ord(w2, prime) - grow > _ord(w, prime) - before
        assert _ord(w2, prime) > _ord(modulus, prime)


def _enclosed(triple):
    """A triple as `Orbit.enclosure` gives a built one: Intervals, Z = 1 kept as an int."""
    x, y, z = triple
    return Interval(x, x), Interval(y, y), 1 if z == 1 else Interval(z, z)


@settings(max_examples=60, deadline=None)
@given(f=henon_words(), pt=points, forward=st.booleans())
def test_the_escape_floor_is_below_every_later_height(f, pt, forward):
    # the floor read at iterate k off its enclosure, plus Phi off the exact
    # triple j <= k iterates before it times d^(k - j), is at most h_nv at k
    # and at every later iterate of the direction (the EscapeBox docstring)
    box, forms = f.escape_box, f.forms(forward)
    walk = [lift(pt)]
    while len(walk) < 12 and top(walk[-1]).bit_length() < 2**12:
        walk.append(forms.step(walk[-1]))
    heights = [naive_height(triple) for triple in walk]
    for k in range(len(walk)):
        for j in range(k + 1):
            floor = box.floor(_enclosed(walk[k]), walk[j], k - j, forward)
            assert floor <= min(heights[k:]) * (1 + 1e-12) + 1e-12, (j, k)
    event("the floor passes 0" if box.floor(_enclosed(walk[-1]), walk[-1], 0, forward) > 0 else "no floor")


MERSENNE = 2**61 - 1


def _reduce(f):
    """Both components of f with coefficients reduced modulo MERSENNE."""
    return [[(i, j, c.numerator * pow(c.denominator, -1, MERSENNE) % MERSENNE)
             for (i, j), c in poly.terms.items()] for poly in f.fwd]


def _step_mod(reduced, x, y):
    return tuple(sum(c * pow(x, i, MERSENNE) * pow(y, j, MERSENNE) for i, j, c in comp) % MERSENNE
                 for comp in reduced)


small_points = st.tuples(small, small)


@settings(max_examples=60, deadline=None)
@given(f=henon_words(), pt=small_points | points)
def test_verdicts_are_exact(f, pt):
    verdict = is_periodic(f, pt, digit_cap=10**5)
    if verdict.kind == "periodic":
        orbit = [pt]
        for _ in range(verdict.period):
            orbit.append(f.apply(orbit[-1]))
        assert orbit[-1] == pt and pt not in orbit[1:-1]
    elif verdict.kind == "not_periodic":
        # f^k(x) = x would hold modulo the prime, whose reduction of every
        # coefficient and coordinate here is defined
        assert verdict.detail.startswith("iterate +")
        reduced = _reduce(f)
        start = tuple(c.numerator * pow(c.denominator, -1, MERSENNE) % MERSENNE for c in pt)
        cur = start
        for _ in range(50):
            cur = _step_mod(reduced, *cur)
            assert cur != start
    else:
        assert verdict.detail.startswith("coordinate exceeded the digit cap at iterate +")


def _place_prime(place):
    """The prime a place at a prime names, None at infinity or for a prime above 1000."""
    return int(place.rsplit(" ", 1)[1]) if place.startswith("the prime ") else None


@settings(max_examples=60, deadline=None)
@given(f=henon_words(), pt=small_points | points)
def test_the_orbit_records_where_it_leaves_the_box(f, pt):
    # Orbit.exit in each direction: a period closes exactly, at the first
    # return, with no earlier iterate outside the box.  An exit at k >= 1
    # lies outside on the direction's side (V+ forward, V- backward): on the
    # other side its preimage would lie outside too, by the box lemma.  The
    # lemma keeps the next four iterates outside at that place, on that side
    # and growing there (checked while an iterate has at most about 2^16
    # bits).  At k = 0 the start may lie outside on the other side only.
    box, start = f.escape_box, lift(pt)
    orbit = f.orbit(start)
    for forward in (True, False):
        sign = 1 if forward else -1
        try:
            k, place = orbit.exit(forward, cap_bits(10**4))
        except ResourceCapError:
            event("refused at the digit cap")
            continue
        assert all(box.exit_place(orbit[sign * j]) is None for j in range(k))
        if place is None:
            assert k >= 1 and orbit[sign * k] == start
            assert start not in [orbit[sign * j] for j in range(1, k)]
            continue
        assert box.exit_place(orbit[sign * k]) == place
        if k == 0:
            continue
        prime = _place_prime(place)
        event(f"left at {'infinity' if place == 'infinity' else 'a prime'}, k >= 1")
        if place != "infinity" and prime is None:
            event("left at a prime above 1000")
            continue
        previous = None  # (|u|, w) or the gap ord(w) - ord(u) at the iterate before
        for j in range(k, k + 5):
            if j > k and f.forms(forward).degree * top(orbit[sign * (j - 1)]).bit_length() > 2**16:
                event("stopped before the fourth next iterate, at 2^16 bits")
                break
            u, v, w = box.coordinates(orbit[sign * j])
            lead, other = (u, v) if forward else (v, u)
            if place == "infinity":
                # on the side, outside R, and |u/w| (|v/w|) at least doubles
                assert abs(lead) >= abs(other) and abs(lead) > box.radius * w
                assert previous is None or abs(lead) * previous[1] >= 2 * previous[0] * w
                previous = (abs(lead), w)
            else:
                # on the side at the prime, outside there, and the gap
                # ord(w) - ord(u) (ord(v) backward) grows
                assert _ord(lead, prime) <= _ord(other, prime)
                assert _ord(w, prime) > _ord(box.modulus, prime)
                gap = _ord(w, prime) - _ord(lead, prime)
                assert previous is None or gap > previous
                previous = gap
    if f.is_integral and start[2] == 1:
        event("integral map and start")


def test_mixed_digit_caps_on_one_map_agree_with_a_fresh_copy():
    # H2 at (1, 1) leaves the box at k >= 1, and a 1-digit cap refuses its
    # iterate +1.  The orbit the map holds keeps its iterates but no
    # verdict, so after a walk at 10^5 digits the small cap refuses as on a
    # fresh copy of the map, and after that refusal 10^5 digits decides.
    h2, pt = henon(1, parse_poly("x^2")), (Fraction(1), Fraction(1))
    decided = is_periodic(h2, pt, digit_cap=10**5)
    assert decided.kind == "not_periodic" and not decided.detail.startswith("iterate +0")
    fresh = h2._replace()
    refused = is_periodic(fresh, pt, digit_cap=1)
    assert refused.kind == "undecided" and refused.detail == "coordinate exceeded the digit cap at iterate +1"
    assert is_periodic(h2, pt, digit_cap=1) == refused
    assert is_periodic(fresh, pt, digit_cap=10**5) == decided


def test_a_random_word_cycle_is_found():
    # (x^2 - 2 - y, x) has the 3-cycle (0, -1) -> (-1, 0) -> (-1, -1); its
    # conjugate by (x + 1, y) has the cycle moved by (1, 0)
    f = henon(1, parse_poly("x^2 - 2"))
    shift = triangular(1, 1, 0, BivarPoly.const(1))
    g = conjugate(f, shift)  # shift^-1 o f o shift
    verdict = is_periodic(g, (Fraction(-1), Fraction(-1)))
    assert verdict.kind == "periodic" and verdict.period == 3
