"""Exact rational and bivariate polynomial arithmetic.

Rationals are `fractions.Fraction` (already canonical: reduced, positive
denominator, 0/1 for zero).  Polynomials in x, y are stored sparsely as a
dict mapping exponent pairs (i, j) to nonzero Fraction coefficients; the
zero polynomial has an empty term map.  All values are immutable by
convention and all operations are pure, so sharing across threads is safe.

Products and composition run on integer numerators over one lcm
denominator (`_integer_numerators`) and divide once, at the end.  Every
product is one `_product` call: by Kronecker substitution it packs each
operand into one int at x = 2^k, y = 2^(k*w), with w = deg_x a + deg_x b + 1
and k one bit wider than the exact bound |a|_1 * |b|_1 on a product
coefficient, so CPython's multiply does the convolution and the product's
k-bit signed digits are its coefficients.  A cost rule keeps the schoolbook
loop for tiny products, sparse layouts and wide coefficients.  `compose` is
Horner over self's x-powers, one product per x-power.

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
    """Polynomial in x and y over the rationals, in canonical sparse form."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        canonical = {}
        if terms:
            for (i, j), c in terms.items():
                c = Fraction(c)
                if c != 0:
                    canonical[(int(i), int(j))] = c
        self.terms = canonical

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "BivarPoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def var(cls, name: str) -> "BivarPoly":
        if name == "x":
            return cls({(1, 0): Fraction(1)})
        if name == "y":
            return cls({(0, 1): Fraction(1)})
        raise ValueError(f"unknown variable {name!r}")

    @classmethod
    def parse(cls, text: str) -> "BivarPoly":
        return _parse_poly(text)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, Fraction(0)) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        a_den, a = _integer_numerators(self)
        b_den, b = _integer_numerators(_coerce(other))
        return _canonical(_product(a, b), a_den * b_den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        return _coerce(powers(self, n)[-1])

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """max(i + j) over stored terms; undefined for the zero polynomial."""
        if not self.terms:
            raise DegreeUndefinedError("total degree of the zero polynomial is undefined")
        return max(i + j for i, j in self.terms)

    def is_univariate_in(self, name: str) -> bool:
        other = {"x": 1, "y": 0}[name]
        return all(key[other] == 0 for key in self.terms)

    def leading_form(self, d: int) -> "BivarPoly":
        """Sum of the terms of total degree exactly d (the restriction of the
        degree-d homogenization to the line at infinity).  Requires d to be at
        least the total degree."""
        if self.terms and d < self.total_degree():
            raise ValueError(f"leading form degree {d} below total degree {self.total_degree()}")
        return _raw({key: c for key, c in self.terms.items() if key[0] + key[1] == d})

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), Fraction(0))

    def evaluate(self, x, y) -> Fraction:
        x = Fraction(x)
        y = Fraction(y)
        xp = powers(x, max((i for i, _ in self.terms), default=0))
        yp = powers(y, max((j for _, j in self.terms), default=0))
        total = Fraction(0)
        for (i, j), c in self.terms.items():
            total += c * xp[i] * yp[j]
        return total

    def compose(self, sub_x: "BivarPoly", sub_y: "BivarPoly") -> "BivarPoly":
        """Substitute sub_x = a/da for x and sub_y = b/db for y, expanded and
        canonicalized: Horner over self's x-powers i <= I, acc <- acc*a +
        row_i with row_i = sum_j s_ij da^(I-i) db^(J-j) b^j on integer
        numerators, so each power of b and each x-power costs one product."""
        s_den, s = _integer_numerators(self)
        (da, a), (db, b) = _integer_numerators(_coerce(sub_x)), _integer_numerators(_coerce(sub_y))
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
        return _canonical(acc, s_den * da ** top_i * db ** top_j)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (k[0] + k[1], k[0]), reverse=True)
        pieces = []
        for n, key in enumerate(keys):
            c = self.terms[key]
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


def _raw(terms: dict) -> BivarPoly:
    poly = BivarPoly.__new__(BivarPoly)
    poly.terms = terms
    return poly


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
    """(den, numerators, ...): each polynomial as a map {(i, j): integer}
    over den, the lcm of the coefficient denominators of all of them.  This
    is the one place where rational coefficients become integers."""
    den = math.lcm(*(c.denominator for poly in polys for c in poly.terms.values()))
    return (den, *({key: c.numerator * (den // c.denominator) for key, c in poly.terms.items()}
                   for poly in polys))


def _product(a: dict, b: dict) -> dict:
    """The integer term map a*b (zero entries allowed in and out).  Cost
    rule: packing costs about k + 32 units per slot, the loop 16 per pair of
    terms (fitted on CPython 3.11, dense triangles of degree 1-40 with
    2-600-bit coefficients)."""
    if not a or not b:
        return {}
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


def _canonical(acc: dict, den: int) -> BivarPoly:
    if den == 1:  # Fraction(n) skips the gcd that Fraction(n, 1) takes
        return _raw({key: Fraction(n) for key, n in acc.items() if n})
    return _raw({key: Fraction(n, den) for key, n in acc.items() if n})


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
