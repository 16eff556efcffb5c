"""Exact rational and bivariate polynomial arithmetic.

Rationals are `fractions.Fraction` (already canonical: reduced, positive
denominator, 0/1 for zero).  A polynomial in x, y is held in integers: one
common denominator `den` >= 1 and a sparse dict `nums` mapping exponent pairs
(i, j) to nonzero integer numerators, in lowest terms (gcd(den, *nums) = 1,
and den = 1 for the zero polynomial, whose `nums` is empty), so equal
polynomials have equal forms.  The ring operations, `compose` and
`leading_form` work on these integers and reduce each result once, with one
gcd; `Fraction` coefficients are built only at the boundary, by `terms`,
`coefficient` and `evaluate`, and by printing.  All values are immutable by
convention and all operations are pure, so sharing across threads is safe.

Every product is one `_product` call on numerators: by Kronecker
substitution it packs each operand into one int at x = 2^k, y = 2^(k*w),
with w = deg_x a + deg_x b + 1 and k one bit wider than the exact bound
|a|_1 * |b|_1 on a product coefficient, so CPython's multiply does the
convolution and the product's k-bit signed digits are its coefficients.  A
cost rule keeps the schoolbook loop for tiny products, sparse layouts and
wide coefficients.  `compose` is Horner over self's x-powers, one product
per x-power.

Text grammar (whitespace insignificant)::

    poly  := term (('+'|'-') term)*
    term  := coeff ('*'? monom)* | monom+
    monom := ('x'|'y') ('^' nat)?
    coeff := int ('/' posint)?

Printing uses graded lexicographic order (higher total degree first, then
higher x-power), which makes parse -> print -> parse idempotent.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

from .errors import DegreeUndefinedError, PolyParseError

Rat = Fraction

_MAX_EXPONENT = 10**6
_SPLIT_BITS = 1024  # ~308 digits: always within the interpreter's str limit


def parse_rat(text: str) -> Fraction:
    """Parse 'num/den' or 'int' into a Fraction."""
    try:
        value = Fraction(text.strip())
    except ValueError as exc:
        raise PolyParseError(f"malformed rational {text!r}: {exc}") from None
    except ZeroDivisionError:
        raise PolyParseError(f"malformed rational {text!r}: zero denominator") from None
    return value


def format_int(n: int) -> str:
    """Exact decimal digits of an integer of any size.

    `str` refuses integers above the interpreter's digit limit (4300 digits
    by default) and is quadratic below it, so large values are split in
    halves by powers of two and reassembled in exact `decimal` arithmetic,
    whose multiplication is subquadratic.  For 800k digits this takes 0.5 s
    on a 2-vCPU VM under CPython 3.11, against 15 s for str(Decimal(n)).
    """
    if n.bit_length() <= _SPLIT_BITS:
        return str(n)
    cache = {}

    def pow2(w):
        if w not in cache:
            if w <= _SPLIT_BITS:
                cache[w] = decimal.Decimal(2) ** w
            else:
                cache[w] = pow2(w >> 1) * pow2(w - (w >> 1))
        return cache[w]

    def convert(v, w):
        if w <= _SPLIT_BITS:
            return decimal.Decimal(v)
        half = w >> 1
        hi = v >> half
        return convert(v - (hi << half), half) + convert(hi, w - half) * pow2(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def format_rat(value: Fraction) -> str:
    if value.denominator == 1:
        return format_int(value.numerator)
    return f"{format_int(value.numerator)}/{format_int(value.denominator)}"


class BivarPoly:
    """Polynomial in x and y over the rationals: the integer numerators `nums`
    over the common denominator `den`, in lowest terms."""

    __slots__ = ("den", "nums")

    def __init__(self, terms=None):
        """From a map {(i, j): coefficient} with non-negative int exponents
        and coefficients that `Fraction` accepts; zero coefficients dropped."""
        coefficients = {}
        for key, c in (terms or {}).items():
            if not (isinstance(key, tuple) and len(key) == 2 and all(isinstance(e, int) and e >= 0 for e in key)):
                raise ValueError(f"exponent key {key!r} is not a pair of non-negative ints")
            c = Fraction(c)
            if c:
                coefficients[(int(key[0]), int(key[1]))] = c
        self.den = den = math.lcm(*(c.denominator for c in coefficients.values()))
        self.nums = {key: c.numerator * (den // c.denominator) for key, c in coefficients.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BivarPoly":
        return _of({}, 1)

    @classmethod
    def const(cls, c) -> "BivarPoly":
        c = Fraction(c)
        return _of({(0, 0): c.numerator} if c else {}, c.denominator)

    @classmethod
    def var(cls, name: str) -> "BivarPoly":
        if name == "x":
            return _of({(1, 0): 1}, 1)
        if name == "y":
            return _of({(0, 1): 1}, 1)
        raise ValueError(f"unknown variable {name!r}")

    @classmethod
    def parse(cls, text: str) -> "BivarPoly":
        return _parse_poly(text)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        den = math.lcm(self.den, other.den)
        if den == self.den:
            out = dict(self.nums)
        else:
            scale = den // self.den
            out = {key: n * scale for key, n in self.nums.items()}
        scale = den // other.den
        for key, n in other.nums.items():
            out[key] = out.get(key, 0) + n * scale
        return _reduced(out, den)

    __radd__ = __add__

    def __neg__(self):
        return _of({key: -n for key, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return _reduced(_product(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        return _coerce(powers(self, n)[-1])

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def __bool__(self):
        return bool(self.nums)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict:
        """A new map {(i, j): nonzero Fraction coefficient}."""
        if self.den == 1:  # Fraction(n) skips the gcd that Fraction(n, 1) takes
            return {key: Fraction(n) for key, n in self.nums.items()}
        return {key: Fraction(n, self.den) for key, n in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def total_degree(self) -> int:
        """max(i + j) over stored terms; undefined for the zero polynomial."""
        if not self.nums:
            raise DegreeUndefinedError("total degree of the zero polynomial is undefined")
        return max(i + j for i, j in self.nums)

    def is_univariate_in(self, name: str) -> bool:
        other = {"x": 1, "y": 0}[name]
        return all(key[other] == 0 for key in self.nums)

    def leading_form(self, d: int) -> "BivarPoly":
        """Sum of the terms of total degree exactly d (the restriction of the
        degree-d homogenization to the line at infinity).  Requires d to be at
        least the total degree."""
        if self.nums and d < self.total_degree():
            raise ValueError(f"leading form degree {d} below total degree {self.total_degree()}")
        return _reduced({key: n for key, n in self.nums.items() if key[0] + key[1] == d}, self.den)

    def coefficient(self, i: int, j: int) -> Fraction:
        return Fraction(self.nums.get((i, j), 0), self.den)

    def evaluate(self, x, y) -> Fraction:
        x = Fraction(x)
        y = Fraction(y)
        xp = powers(x, max((i for i, _ in self.nums), default=0))
        yp = powers(y, max((j for _, j in self.nums), default=0))
        return sum((n * xp[i] * yp[j] for (i, j), n in self.nums.items()), Fraction(0)) / self.den

    def compose(self, sub_x: "BivarPoly", sub_y: "BivarPoly") -> "BivarPoly":
        """Substitute sub_x = a/da for x and sub_y = b/db for y, expanded and
        reduced: Horner over self's x-powers i <= I, acc <- acc*a + row_i
        with row_i = sum_j s_ij da^(I-i) db^(J-j) b^j on integer numerators,
        so each power of b and each x-power costs one product."""
        s = self.nums
        (da, a), (db, b) = ((poly.den, poly.nums) for poly in (_coerce(sub_x), _coerce(sub_y)))
        top_i, top_j = (max((key[n] for key in s), default=0) for n in (0, 1))
        b_pows = [{(0, 0): 1}]
        for _ in range(top_j):
            b_pows.append(_product(b_pows[-1], b))
        rows = [{} for _ in range(top_i + 1)]
        for (i, j), c in s.items():
            c *= da ** (top_i - i) * db ** (top_j - j)
            for key, v in b_pows[j].items():
                rows[i][key] = rows[i].get(key, 0) + c * v
        acc = {}
        for row in reversed(rows):
            acc = _product(acc, a)
            for key, v in row.items():
                acc[key] = acc.get(key, 0) + v
        return _reduced(acc, self.den * da ** top_i * db ** top_j)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        keys = sorted(terms, key=lambda k: (k[0] + k[1], k[0]), reverse=True)
        pieces = []
        for n, key in enumerate(keys):
            c = terms[key]
            mono = _format_monomial(*key)
            if not mono:
                body = format_rat(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{format_rat(abs(c))}*{mono}"
            if n == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"BivarPoly({self})"


def _of(nums: dict, den: int) -> BivarPoly:
    """The polynomial nums / den, already in lowest terms."""
    poly = BivarPoly.__new__(BivarPoly)
    poly.den = den
    poly.nums = nums
    return poly


def _reduced(acc: dict, den: int) -> BivarPoly:
    """acc / den, den >= 1, in lowest terms: zero entries dropped, and the
    common factor of den and the numerators divided out with one gcd."""
    nums = {key: n for key, n in acc.items() if n}
    if den != 1 and (common := math.gcd(den, *nums.values())) != 1:
        nums = {key: n // common for key, n in nums.items()}
        den //= common
    return _of(nums, den)


def _coerce(value) -> BivarPoly:
    if isinstance(value, BivarPoly):
        return value
    return BivarPoly.const(value)


def powers(base, n: int) -> list:
    """[1, base, ..., base^n] for an int or a Fraction base."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


def _integer_numerators(*polys: BivarPoly):
    """(den, numerators, ...): each polynomial's `nums` rescaled to den, the
    lcm of their denominators."""
    den = math.lcm(*(poly.den for poly in polys))
    return (den, *({key: n * (den // poly.den) for key, n in poly.nums.items()} for poly in polys))


def _product(a: dict, b: dict) -> dict:
    """The integer term map a*b (zero entries allowed in and out).  Cost
    rule: packing costs about k + 32 units per slot, the loop 16 per pair of
    terms (fitted on CPython 3.11, dense triangles of degree 1-40 with
    2-600-bit coefficients).  The product's support has at least
    |a| + |b| - 1 cells, so w * rows (4h + 32) >= 36 (|a| + |b| - 1), and
    operands too small to meet that are not laid out."""
    if not a or not b:
        return {}
    if 4 * len(a) * len(b) >= 9 * (len(a) + len(b) - 1):
        layout = w, rows, h = _layout(a, b)
        if 16 * len(a) * len(b) >= w * rows * (4 * h + 32):
            return _kronecker(a, b, *layout)
    acc = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            acc[key] = acc.get(key, 0) + c1 * c2
    return acc


def _layout(a: dict, b: dict):
    """(w, rows, h) of x = 2^k, y = 2^(k*w) for a*b: k = 4h is bits of
    |a|_1 * |b|_1 plus the sign bit, rounded up to a hex digit."""
    w = max(i for i, _ in a) + max(i for i, _ in b) + 1
    rows = max(j for _, j in a) + max(j for _, j in b) + 1
    bound = sum(map(abs, a.values())) * sum(map(abs, b.values()))
    return w, rows, (bound.bit_length() + 4) // 4


def _kronecker(a: dict, b: dict, w: int, rows: int, h: int) -> dict:
    """a*b by one big-int product on a `_layout`: 2^(k-1) added to every
    signed digit lets its hex string be read off h characters per slot."""
    offset = "8" + "0" * (h - 1)
    packed = _pack(a, w, h) * _pack(b, w, h) + int(offset * (w * rows), 16)
    text = format(packed, f"0{w * rows * h}x")
    out, end, half = {}, len(text), 1 << (4 * h - 1)
    for j in range(rows):
        for i in range(w):
            digit, end = text[end - h:end], end - h
            if digit != offset:
                out[i, j] = int(digit, 16) - half
    return out


def _pack(terms: dict, w: int, h: int) -> int:
    """sum c 2^(4h(i + j w)) over the terms, as positive minus negative."""
    slots = w * (max(j for _, j in terms) + 1)
    pos, neg = ["0" * h] * slots, ["0" * h] * slots
    for (i, j), c in terms.items():
        (pos if c > 0 else neg)[slots - 1 - i - j * w] = format(abs(c), f"0{h}x")
    return int("".join(pos), 16) - int("".join(neg), 16)


def _format_monomial(i: int, j: int) -> str:
    parts = []
    if i == 1:
        parts.append("x")
    elif i > 1:
        parts.append(f"x^{i}")
    if j == 1:
        parts.append("y")
    elif j > 1:
        parts.append(f"y^{j}")
    return "*".join(parts)


# -- module-level conveniences -----------------------------------------------

def parse_poly(text: str) -> BivarPoly:
    return BivarPoly.parse(text)


# -- parser ------------------------------------------------------------------

class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def read_nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolyParseError("expected a number", start)
        return int(self.text[start:self.pos])


def _parse_poly(text: str) -> BivarPoly:
    tok = _Tokenizer(text)
    result = BivarPoly.zero()
    sign = 1
    ch = tok.peek()
    if ch in ("+", "-"):
        sign = -1 if ch == "-" else 1
        tok.pos += 1
    while True:
        result = result + _parse_term(tok, sign)
        ch = tok.peek()
        if ch is None:
            return result
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            raise PolyParseError(f"unexpected character {ch!r}", tok.pos)
        tok.pos += 1


def _parse_term(tok: _Tokenizer, sign: int) -> BivarPoly:
    coeff = Fraction(sign)
    exps = [0, 0]
    saw_factor = False
    while True:
        ch = tok.peek()
        if ch is not None and ch.isdigit():
            num = tok.read_nat()
            if tok.peek() == "/":
                tok.pos += 1
                den_pos = tok.pos
                den = tok.read_nat()
                if den == 0:
                    raise PolyParseError("zero denominator", den_pos)
                coeff *= Fraction(num, den)
            else:
                coeff *= num
            saw_factor = True
        elif ch in ("x", "y"):
            tok.pos += 1
            exp = 1
            if tok.peek() == "^":
                tok.pos += 1
                exp_pos = tok.pos
                exp = tok.read_nat()
                if exp > _MAX_EXPONENT:
                    raise PolyParseError(f"exponent {exp} too large", exp_pos)
            exps[0 if ch == "x" else 1] += exp
            if exps[0] > _MAX_EXPONENT or exps[1] > _MAX_EXPONENT:
                raise PolyParseError("exponent overflow", tok.pos)
            saw_factor = True
        else:
            break
        if tok.peek() == "*":
            tok.pos += 1
            continue
    if not saw_factor:
        raise PolyParseError("expected a term", tok.pos)
    return BivarPoly({tuple(exps): coeff})
