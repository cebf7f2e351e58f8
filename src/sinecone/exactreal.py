"""Exact arithmetic in real quadratic fields Q(sqrt(s)).

Every eigenvalue, threshold and zero test in this package is carried out on
``QuadReal`` values ``(p + q*sqrt(s))/d``: four integers, the rational and
the irrational part over one positive denominator ``d``, with a squarefree
radicand ``s``.  The representation is canonical, so value equality is
equality of the four integers and hashing works; ordering is decided by
exact sign analysis in integers (isolate-and-square), never by floating
point.  Every result is reduced by one function, :func:`_norm`; no
``Fraction`` is built on the way.  ``Fraction`` stays the type of plain
rationals at the edges: the coefficients ``a`` and ``b``, and the bounds of
:func:`rational_ceiling` and :func:`rational_floor`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd
from typing import Union

from .errors import MixedField, NegativeRadicand, NotRepresentable, ParseError

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


def _sign(p: int, q: int, s: int) -> int:
    """Exact sign of p + q*sqrt(s) for integers, s squarefree >= 2 when q != 0."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p >= 0 and q > 0:
        return 1
    if p <= 0 and q < 0:
        return -1
    # opposite signs: |p| vs |q|sqrt(s), squared (never equal: sqrt(s) is irrational)
    if p * p > q * q * s:
        return 1 if p > 0 else -1
    return 1 if q > 0 else -1


def _ratio_str(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0, without building the Fraction."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


class QuadReal:
    """Canonical real quadratic irrational ``(p + q*sqrt(s))/d``.

    Invariants: ``d > 0`` and ``gcd(p, q, d) == 1``; if ``q == 0`` then
    ``s == 1``, otherwise ``s`` is squarefree and >= 2.  So equal values have
    equal integers, and equality and hashing use them.  Instances are
    immutable; ``a`` and ``b``, the coefficients of ``a + b*sqrt(s)``, are
    ``Fraction``s computed on demand.

    ``QuadReal(a, b, s)`` is the canonical form of ``a + b*sqrt(s)`` for int
    or ``Fraction`` coefficients, as :func:`make_quad` builds it.  Inside
    this module every result is reduced by :func:`_norm`.
    """

    __slots__ = ("p", "q", "d", "s")

    def __new__(cls, a: RationalLike = 0, b: RationalLike = 0, s: RationalLike = 1) -> "QuadReal":
        return make_quad(a, b, s)

    def __setattr__(self, name, value):
        raise AttributeError(f"QuadReal is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QuadReal is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return _make, (self.p, self.q, self.d, self.s)

    def __eq__(self, other) -> bool:
        if other.__class__ is not QuadReal:
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d and self.s == other.s

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.d, self.s))

    def __repr__(self) -> str:
        return f"QuadReal(a={self.a!r}, b={self.b!r}, s={self.s!r})"

    # -- queries ---------------------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    def is_rational(self) -> bool:
        return self.q == 0

    def is_integer(self) -> bool:
        return self.q == 0 and self.d == 1

    def as_fraction(self) -> Fraction:
        if self.q != 0:
            raise NotRepresentable(f"{self} is irrational")
        return Fraction(self.p, self.d)

    def __float__(self) -> float:
        return self.p / self.d + self.q / self.d * math.sqrt(self.s)

    def __str__(self) -> str:
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return _ratio_str(p, d)
        bpart = "" if q == d else "-" if q == -d else _ratio_str(q, d)
        head = f"{_ratio_str(p, d)} + " if p != 0 else ""
        return f"{head}{bpart}√{self.s}".replace("+ -", "- ")

    # -- arithmetic ------------------------------------------------------

    def __neg__(self) -> "QuadReal":
        return _make(-self.p, -self.q, self.d, self.s)

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
        yp, yq, yd, s = other.p, other.q, other.d, other.s
        if yq == 0:
            if yp == 0:
                raise ZeroDivisionError("division by zero QuadReal")
            return _norm(self.p * yd, self.q * yd, self.d * yp, self.s)
        if self.q != 0 and self.s != s:
            raise MixedField(f"cannot divide values from Q(√{self.s}) and Q(√{s})")
        # multiply by the conjugate: x / y = x yd (yp - yq sqrt(s)) / (yp^2 - yq^2 s)
        xp, xq = self.p, self.q
        return _norm((xp * yp - xq * yq * s) * yd, (xq * yp - xp * yq) * yd,
                     self.d * (yp * yp - yq * yq * s), s)

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
        return {"a": _ratio_str(self.p, self.d), "b": _ratio_str(self.q, self.d), "s": self.s}


_new = object.__new__
_set_p, _set_q, _set_d, _set_s = (QuadReal.__dict__[k].__set__ for k in QuadReal.__slots__)


def _make(p: int, q: int, d: int, s: int) -> QuadReal:
    """A QuadReal from integers that already satisfy the invariants."""
    x = _new(QuadReal)
    _set_p(x, p)
    _set_q(x, q)
    _set_d(x, d)
    _set_s(x, s)
    return x


def _norm(p: int, q: int, d: int, s: int) -> QuadReal:
    """The canonical QuadReal of ``(p + q*sqrt(s))/d``, for integers with
    ``d != 0`` and ``s`` squarefree >= 2 (any ``s`` when ``q == 0``)."""
    if d < 0:
        p, q, d = -p, -q, -d
    g = gcd(p, q, d)
    if g != 1:
        p //= g
        q //= g
        d //= g
    return _make(p, q, d, s if q else 1)


def _ratio(x: RationalLike) -> tuple[int, int]:
    """(numerator, denominator > 0) of an int or a Fraction."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected an int or a Fraction, got {x!r}")


def _coerce(x) -> QuadReal:
    return x if isinstance(x, QuadReal) else from_rational(x)


def from_rational(x: RationalLike) -> QuadReal:
    # an int or a Fraction is already reduced with a positive denominator
    p, d = _ratio(x)
    return _make(p, 0, d, 1)


ZERO = from_rational(0)


def make_quad(a: RationalLike, b: RationalLike, d: RationalLike) -> QuadReal:
    """Canonical form of ``a + b*sqrt(d)`` for rational ``d >= 0``.

    sqrt(p/q) = sqrt(p*q)/q; the squarefree kernel of p*q becomes the
    radicand and all square factors fold into the irrational part.
    """
    an, ad = _ratio(a)
    bn, bd = _ratio(b)
    dn, dd = _ratio(d)
    if dn < 0:
        raise NegativeRadicand(f"sqrt of negative rational {_ratio_str(dn, dd)}")
    if bn == 0 or dn == 0:
        return _make(an, 0, ad, 1)
    t, s = squarefree_decompose(dn * dd)
    # a + b sqrt(d) = (an bd dd + bn t ad sqrt(s)) / (ad bd dd)
    den = bd * dd
    p, q = an * den, bn * t * ad
    if s == 1:
        return _norm(p + q, 0, ad * den, 1)
    return _norm(p, q, ad * den, s)


def add_same_field(x: QuadReal, y: QuadReal) -> QuadReal:
    """Exact sum; both operands must live in one quadratic field."""
    s = x.s
    if s != y.s:
        if x.q == 0:
            s = y.s
        elif y.q != 0:
            raise MixedField(f"cannot add values from Q(√{x.s}) and Q(√{y.s})")
    xd, yd = x.d, y.d
    if xd == yd:
        return _norm(x.p + y.p, x.q + y.q, xd, s)
    return _norm(x.p * yd + y.p * xd, x.q * yd + y.q * xd, xd * yd, s)


def mul_same_field(x: QuadReal, y: QuadReal) -> QuadReal:
    """Exact product; both operands must live in one quadratic field."""
    s = x.s
    if s != y.s:
        if x.q == 0:
            s = y.s
        elif y.q != 0:
            raise MixedField(f"cannot multiply values from Q(√{x.s}) and Q(√{y.s})")
    xp, xq, yp, yq = x.p, x.q, y.p, y.q
    return _norm(xp * yp + xq * yq * s, xp * yq + xq * yp, x.d * y.d, s)


def compare(x: QuadReal, y: QuadReal) -> int:
    """Exact sign of ``x - y``; cross-field comparisons are allowed.

    Returns -1, 0 or +1.  Scaled by the two denominators, the difference is
    A + B*sqrt(u) - C*sqrt(v) in integers, decided by sign-case analysis
    and repeated squaring.
    """
    xq, yq, xd, yd = x.q, y.q, x.d, y.d
    a = x.p * yd - y.p * xd
    if xq == 0 and yq == 0:
        return (a > 0) - (a < 0)
    u = x.s
    if u == y.s:
        return _sign(a, xq * yd - yq * xd, u)
    if xq == 0:
        return _sign(a, -yq * xd, y.s)
    if yq == 0:
        return _sign(a, xq * yd, u)
    # u != v and B, C != 0; A + B*sqrt(u) is irrational, so never 0
    b, c = xq * yd, yq * xd
    left = _sign(a, b, u)
    if left != ((c > 0) - (c < 0)):
        return left
    # same sign: compare squares, (A + B*sqrt(u))^2 vs C^2 v
    t = _sign(a * a + b * b * u - c * c * y.s, 2 * a * b, u)
    return t if left > 0 else -t


def sign(x: QuadReal) -> int:
    return _sign(x.p, x.q, x.s)


def _floor_scaled(x: QuadReal, k: int) -> int:
    """floor(x * 10**k), exactly, via integer square roots."""
    scale = 10 ** k
    p, q = x.p * scale, x.q * scale
    if q == 0:
        return p // x.d
    # q^2 s is never a square, so floor(q sqrt(s)) is isqrt or -(isqrt + 1)
    root = math.isqrt(q * q * x.s)
    return (p + (root if q > 0 else -root - 1)) // x.d


def to_decimal(x: QuadReal, digits: int) -> str:
    """Correctly rounded (half-to-even) decimal rendering with ``digits``
    places after the point."""
    if not 1 <= digits <= 1000:
        raise ValueError("digits must be between 1 and 1000")
    if x.q == 0:
        q, r = divmod(x.p * 10 ** digits, x.d)
        twice = 2 * r
        if twice > x.d or (twice == x.d and q % 2):
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
    if x.q == 0:
        return Fraction(x.p, x.d)
    return Fraction(_floor_scaled(x, 6) + 1, 10 ** 6)


def rational_floor(x: QuadReal) -> Fraction:
    """A rational lower bound for x (tight to within 10**-6)."""
    if x.q == 0:
        return Fraction(x.p, x.d)
    return Fraction(_floor_scaled(x, 6), 10 ** 6)


def json_int(obj, field: str) -> int:
    """An integer field of the JSON schema: an int and not a bool, never
    truncated or coerced from a float or a string."""
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(f"{field!r} must be an integer, got {obj!r}")
    return obj


def json_keys(obj: dict, allowed, where: str) -> None:
    """Refuse a key of a JSON object that the schema does not name: a
    misspelt key is an error, never dropped."""
    for key in obj:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} in {where}; expected {', '.join(allowed)}")


_RATIONAL_LITERAL = re.compile(r"-?[0-9]+(?:/[0-9]*[1-9][0-9]*)?")


def _json_rational(obj, field: str) -> Fraction:
    """A rational of the JSON schema: an int (not a bool) or a string "p" or
    "p/q" of ASCII digits, p with an optional minus sign and q nonzero."""
    literal = isinstance(obj, str) and _RATIONAL_LITERAL.fullmatch(obj)
    if not literal and (isinstance(obj, bool) or not isinstance(obj, int)):
        raise ParseError(f"{field!r} must be an integer or a 'p/q' string, got {obj!r}")
    return Fraction(obj)


QUAD_KEYS = ("a", "b", "s")


def quad_from_json(obj) -> QuadReal:
    """Parse the {"a": "p/q", "b": "p/q", "s": N} rendering; integers and
    "p/q" strings are accepted as rational shorthand, inside the object as
    well as bare.  A float, a bool or an unknown key is refused."""
    if isinstance(obj, (int, str)) and not isinstance(obj, bool):
        return from_rational(_json_rational(obj, "value"))
    if isinstance(obj, dict):
        json_keys(obj, QUAD_KEYS, "QuadReal object")
        a = _json_rational(obj.get("a", 0), "a")
        b = _json_rational(obj.get("b", 0), "b")
        s = json_int(obj.get("s", 1), "s")
        if s < 0:
            raise ParseError(f"negative radicand in {obj!r}")
        return make_quad(a, b, s)
    raise ParseError(f"cannot parse {obj!r} as a QuadReal")
