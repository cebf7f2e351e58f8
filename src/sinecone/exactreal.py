"""Exact arithmetic in real quadratic fields Q(sqrt(s)).

Every eigenvalue, threshold and zero test in this package is carried out on
``QuadReal`` values ``a + b*sqrt(s)`` with rational ``a``, ``b`` and squarefree
integer radicand ``s``.  The representation is canonical, so value equality is
field equality and hashing works; ordering is decided by exact sign analysis
(isolate-and-square), never by floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import MixedField, NegativeRadicand, NotRepresentable, ParseError

#: Rational numbers are plain ``fractions.Fraction`` values: arbitrary
#: precision, always reduced, denominator always positive.
Rational = Fraction

RationalLike = Union[int, Fraction]

_TRIAL_LIMIT = 10 ** 6
#: Cube of the trial limit: below it a cofactor with no prime factor up to
#: the limit has at most two prime factors.
_COFACTOR_LIMIT = _TRIAL_LIMIT ** 3


def squarefree_decompose(m: int) -> tuple[int, int]:
    """Write ``m = t**2 * s`` with ``s`` squarefree and return ``(t, s)``.

    Trial division up to 10**6 leaves a cofactor with no prime factor up to
    10**6.  A cofactor that is a perfect square, or below 10**18, is decided
    exactly: it is 1, p, p**2 or p*q.  A larger cofactor that is not a
    square could be p**2*q as well as p*q*r, so it raises NotRepresentable
    rather than return a radicand that may not be squarefree.
    """
    if m <= 0:
        raise ValueError("squarefree_decompose expects a positive integer")
    t = 1
    s = 1
    d = 2
    while d <= _TRIAL_LIMIT and d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            t *= d ** (e // 2)
            if e % 2:
                s *= d
        d += 1 if d == 2 else 2
    if m > 1:
        r = math.isqrt(m)
        if r * r == m:
            t *= r
        elif m >= _COFACTOR_LIMIT:
            raise NotRepresentable(
                f"radicand cofactor {m} has no prime factor up to 10**6 and is "
                "at least 10**18: its squarefree part cannot be certified"
            )
        else:
            s *= m
    return t, s


def _sgn(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _sign_a_plus_b_sqrt(a: Fraction, b: Fraction, s: int) -> int:
    """Exact sign of a + b*sqrt(s) for squarefree s >= 1."""
    if b == 0 or s == 1:
        return _sgn(a + b)
    if a == 0:
        return _sgn(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: |a| vs |b|sqrt(s), squared
    d = a * a - b * b * s
    if d == 0:
        return 0  # unreachable for squarefree s >= 2, kept for safety
    return _sgn(a) if d > 0 else _sgn(b)


@dataclass(frozen=True)
class QuadReal:
    """Canonical real quadratic irrational ``a + b*sqrt(s)``.

    Invariants: if ``b == 0`` then ``s == 1``; otherwise ``s`` is squarefree
    and >= 2.  Construct through :func:`make_quad` (or the coercion helpers),
    which enforce canonical form; then equal values compare equal as tuples.
    """

    a: Fraction
    b: Fraction
    s: int

    def __hash__(self) -> int:
        # canonical form and reduced Fractions: equal values have equal
        # integer tuples, so this agrees with the dataclass __eq__ without
        # paying Fraction.__hash__
        a, b = self.a, self.b
        return hash((a.numerator, a.denominator, b.numerator, b.denominator, self.s))

    # -- queries ---------------------------------------------------------

    def is_rational(self) -> bool:
        return self.b == 0

    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise NotRepresentable(f"{self} is irrational")
        return self.a

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.s)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        bpart = f"{self.b}" if self.b != 1 else ""
        if self.b == -1:
            bpart = "-"
        head = f"{self.a} + " if self.a != 0 else ""
        return f"{head}{bpart}√{self.s}".replace("+ -", "- ")

    # -- arithmetic ------------------------------------------------------

    def __neg__(self) -> "QuadReal":
        return QuadReal(-self.a, -self.b, self.s)

    def __add__(self, other) -> "QuadReal":
        return add_same_field(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "QuadReal":
        return add_same_field(self, -_coerce(other))

    def __rsub__(self, other) -> "QuadReal":
        return add_same_field(_coerce(other), -self)

    def __mul__(self, other) -> "QuadReal":
        return mul_same_field(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QuadReal":
        other = _coerce(other)
        if other.b != 0:
            # multiply by the conjugate: exact inverse in the same field
            norm = other.a * other.a - other.b * other.b * other.s
            inv = QuadReal(other.a / norm, -other.b / norm, other.s)
            return mul_same_field(self, inv)
        if other.a == 0:
            raise ZeroDivisionError("division by zero QuadReal")
        return QuadReal(self.a / other.a, self.b / other.a, self.s)

    # -- order -----------------------------------------------------------

    def __lt__(self, other) -> bool:
        return compare(self, _coerce(other)) < 0

    def __le__(self, other) -> bool:
        return compare(self, _coerce(other)) <= 0

    def __gt__(self, other) -> bool:
        return compare(self, _coerce(other)) > 0

    def __ge__(self, other) -> bool:
        return compare(self, _coerce(other)) >= 0

    # -- rendering / JSON --------------------------------------------------

    def to_json(self) -> dict:
        return {"a": _frac_str(self.a), "b": _frac_str(self.b), "s": self.s}


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _coerce(x) -> QuadReal:
    if isinstance(x, QuadReal):
        return x
    if isinstance(x, (int, Fraction)):
        return QuadReal(Fraction(x), Fraction(0), 1)
    raise TypeError(f"cannot interpret {x!r} as a QuadReal")


def from_rational(x: RationalLike) -> QuadReal:
    return QuadReal(Fraction(x), Fraction(0), 1)


ZERO = from_rational(0)
ONE = from_rational(1)


def make_quad(a: RationalLike, b: RationalLike, d: RationalLike) -> QuadReal:
    """Canonical form of ``a + b*sqrt(d)`` for rational ``d >= 0``.

    sqrt(p/q) = sqrt(p*q)/q; the squarefree kernel of p*q becomes the
    radicand and all square factors fold into ``b``.
    """
    a = Fraction(a)
    b = Fraction(b)
    d = Fraction(d)
    if d < 0:
        raise NegativeRadicand(f"sqrt of negative rational {d}")
    if b == 0 or d == 0:
        return QuadReal(a, Fraction(0), 1)
    t, s = squarefree_decompose(d.numerator * d.denominator)
    b = b * Fraction(t, d.denominator)
    if s == 1:
        return QuadReal(a + b, Fraction(0), 1)
    return QuadReal(a, b, s)


def add_same_field(x: QuadReal, y: QuadReal) -> QuadReal:
    """Exact sum; both operands must live in one quadratic field."""
    if x.s == y.s:
        b = x.b + y.b
        if b == 0:
            return QuadReal(x.a + y.a, Fraction(0), 1)
        return QuadReal(x.a + y.a, b, x.s)
    if x.b == 0:
        return QuadReal(x.a + y.a, y.b, y.s)
    if y.b == 0:
        return QuadReal(x.a + y.a, x.b, x.s)
    raise MixedField(f"cannot add values from Q(√{x.s}) and Q(√{y.s})")


def mul_same_field(x: QuadReal, y: QuadReal) -> QuadReal:
    """Exact product; both operands must live in one quadratic field."""
    if x.s == y.s:
        a = x.a * y.a + x.b * y.b * x.s
        b = x.a * y.b + x.b * y.a
        if b == 0:
            return QuadReal(a, Fraction(0), 1)
        return QuadReal(a, b, x.s)
    if x.b == 0:
        if x.a == 0:
            return ZERO
        b = x.a * y.b
        return QuadReal(x.a * y.a, b, y.s) if b != 0 else QuadReal(x.a * y.a, Fraction(0), 1)
    if y.b == 0:
        return mul_same_field(y, x)
    raise MixedField(f"cannot multiply values from Q(√{x.s}) and Q(√{y.s})")


def compare(x: QuadReal, y: QuadReal) -> int:
    """Exact sign of ``x - y``; cross-field comparisons are allowed.

    Returns -1, 0 or +1.  The difference A + B*sqrt(u) - C*sqrt(v) is decided
    by sign-case analysis and repeated squaring over the rationals.
    """
    if x.b == 0 and y.b == 0:
        return (x.a > y.a) - (x.a < y.a)
    if x.s == y.s:
        return _sign_a_plus_b_sqrt(x.a - y.a, x.b - y.b, x.s)
    if x.b == 0:
        return -_sign_a_plus_b_sqrt(y.a - x.a, y.b, y.s)
    if y.b == 0:
        return _sign_a_plus_b_sqrt(x.a - y.a, x.b, x.s)
    # x - y = A + B*sqrt(u) - C*sqrt(v), with u != v, B, C != 0
    a_diff = x.a - y.a
    left = _sign_a_plus_b_sqrt(a_diff, x.b, x.s)
    right = _sgn(y.b)
    if left == 0:
        return -right
    if left != right:
        return left
    # same nonzero sign: compare squares, (A + B*sqrt(u))^2 vs C^2 v
    t = _sign_a_plus_b_sqrt(
        a_diff * a_diff + x.b * x.b * x.s - y.b * y.b * y.s,
        2 * a_diff * x.b,
        x.s,
    )
    return t if left > 0 else -t


def sign(x: QuadReal) -> int:
    return _sign_a_plus_b_sqrt(x.a, x.b, x.s)


def _floor_scaled(x: QuadReal, k: int) -> int:
    """floor(x * 10**k), exactly, via integer square roots."""
    scale = 10 ** k
    num_a = x.a.numerator * scale
    den = x.a.denominator
    if x.b == 0:
        return num_a // den
    # common denominator Q for a and b, then floor((A + B*sqrt(s)) / Q)
    q = x.a.denominator * x.b.denominator
    big_a = x.a.numerator * x.b.denominator * scale
    big_b = x.b.numerator * x.a.denominator * scale
    rad = big_b * big_b * x.s
    root = math.isqrt(rad)
    if big_b >= 0:
        irr_floor = root
    else:
        irr_floor = -root if root * root == rad else -(root + 1)
    return (big_a + irr_floor) // q


def to_decimal(x: QuadReal, digits: int) -> str:
    """Correctly rounded (half-to-even) decimal rendering with ``digits``
    places after the point."""
    if not 1 <= digits <= 1000:
        raise ValueError("digits must be between 1 and 1000")
    if x.b == 0:
        scaled = x.a * 10 ** digits
        q, r = divmod(scaled.numerator, scaled.denominator)
        twice = 2 * r
        if twice > scaled.denominator or (twice == scaled.denominator and q % 2):
            q += 1
        return _format_scaled(q, digits)
    # irrational: never sits exactly on a rounding boundary, so a widening
    # guard always terminates
    guard = 2
    while True:
        lo = _floor_scaled(x, digits + guard)
        shifted = lo + 10 ** guard // 2
        if shifted % 10 ** guard != 10 ** guard - 1:
            return _format_scaled(shifted // 10 ** guard, digits)
        guard += 4


def _format_scaled(q: int, digits: int) -> str:
    neg = q < 0
    q = abs(q)
    intpart, frac = divmod(q, 10 ** digits)
    body = f"{intpart}.{frac:0{digits}d}"
    return "-" + body if neg else body


def rational_ceiling(x: QuadReal) -> Fraction:
    """A rational upper bound for x (tight to within 10**-6)."""
    if x.b == 0:
        return x.a
    return Fraction(_floor_scaled(x, 6) + 1, 10 ** 6)


def rational_floor(x: QuadReal) -> Fraction:
    """A rational lower bound for x (tight to within 10**-6)."""
    if x.b == 0:
        return x.a
    return Fraction(_floor_scaled(x, 6), 10 ** 6)


def json_int(obj, field: str) -> int:
    """An integer field of the JSON schema: an int and not a bool, never
    truncated or coerced from a float or a string."""
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(f"{field!r} must be an integer, got {obj!r}")
    return obj


def quad_from_json(obj) -> QuadReal:
    """Parse the {"a": "p/q", "b": "p/q", "s": N} rendering; integers and
    bare numeric strings are accepted as rational shorthand."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return from_rational(obj)
    if isinstance(obj, str):
        try:
            return from_rational(Fraction(obj))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {obj!r}") from exc
    if isinstance(obj, dict):
        try:
            a = Fraction(str(obj.get("a", 0)))
            b = Fraction(str(obj.get("b", 0)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad QuadReal object {obj!r}") from exc
        s = json_int(obj.get("s", 1), "s")
        if s < 0:
            raise ParseError(f"negative radicand in {obj!r}")
        return make_quad(a, b, s)
    raise ParseError(f"cannot parse {obj!r} as a QuadReal")
