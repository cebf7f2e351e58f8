"""The integer ``QuadReal`` against a ``Fraction`` reference.

``RefQuad`` and the functions below it are the earlier implementation of
``exactreal``, which kept ``a + b*sqrt(s)`` as two ``Fraction``s and an
integer radicand.  They stay here as the reference: every operation of the
integer representation ``(p + q*sqrt(s))/d`` must give the same value, and
every result must satisfy the four invariants of ``QuadReal``.
"""

import copy
import math
import pickle
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinecone.errors import MixedField
from sinecone.exactreal import (
    QuadReal,
    _floor_scaled,
    compare,
    make_quad,
    sign,
    squarefree_decompose,
    to_decimal,
)

# -- the Fraction reference ---------------------------------------------------


@dataclass(frozen=True)
class RefQuad:
    a: Fraction
    b: Fraction
    s: int


def _sgn(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _ref_sign_ab(a: Fraction, b: Fraction, s: int) -> int:
    if b == 0 or s == 1:
        return _sgn(a + b)
    if a == 0:
        return _sgn(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    d = a * a - b * b * s
    return _sgn(a) if d > 0 else _sgn(b)


def ref_make(a, b, d) -> RefQuad:
    a, b, d = Fraction(a), Fraction(b), Fraction(d)
    if b == 0 or d == 0:
        return RefQuad(a, Fraction(0), 1)
    t, s = squarefree_decompose(d.numerator * d.denominator)
    b = b * Fraction(t, d.denominator)
    if s == 1:
        return RefQuad(a + b, Fraction(0), 1)
    return RefQuad(a, b, s)


def _ref_field(x: RefQuad, y: RefQuad) -> int:
    if x.s == y.s or y.b == 0:
        return x.s
    if x.b == 0:
        return y.s
    raise MixedField("reference: two fields")


def _ref_canon(a: Fraction, b: Fraction, s: int) -> RefQuad:
    return RefQuad(a, Fraction(0), 1) if b == 0 else RefQuad(a, b, s)


def ref_add(x: RefQuad, y: RefQuad) -> RefQuad:
    return _ref_canon(x.a + y.a, x.b + y.b, _ref_field(x, y))


def ref_neg(x: RefQuad) -> RefQuad:
    return RefQuad(-x.a, -x.b, x.s)


def ref_mul(x: RefQuad, y: RefQuad) -> RefQuad:
    s = _ref_field(x, y)
    return _ref_canon(x.a * y.a + x.b * y.b * s, x.a * y.b + x.b * y.a, s)


def ref_div(x: RefQuad, y: RefQuad) -> RefQuad:
    if y.b != 0:
        norm = y.a * y.a - y.b * y.b * y.s
        return ref_mul(x, RefQuad(y.a / norm, -y.b / norm, y.s))
    if y.a == 0:
        raise ZeroDivisionError("reference: division by zero")
    return RefQuad(x.a / y.a, x.b / y.a, x.s)


def ref_compare(x: RefQuad, y: RefQuad) -> int:
    if x.b == 0 and y.b == 0:
        return _sgn(x.a - y.a)
    if x.s == y.s:
        return _ref_sign_ab(x.a - y.a, x.b - y.b, x.s)
    if x.b == 0:
        return -_ref_sign_ab(y.a - x.a, y.b, y.s)
    if y.b == 0:
        return _ref_sign_ab(x.a - y.a, x.b, x.s)
    a_diff = x.a - y.a
    left = _ref_sign_ab(a_diff, x.b, x.s)
    right = _sgn(y.b)
    if left == 0:
        return -right
    if left != right:
        return left
    t = _ref_sign_ab(a_diff * a_diff + x.b * x.b * x.s - y.b * y.b * y.s, 2 * a_diff * x.b, x.s)
    return t if left > 0 else -t


def ref_floor_scaled(x: RefQuad, k: int) -> int:
    scale = 10 ** k
    if x.b == 0:
        return x.a.numerator * scale // x.a.denominator
    q = x.a.denominator * x.b.denominator
    big_a = x.a.numerator * x.b.denominator * scale
    big_b = x.b.numerator * x.a.denominator * scale
    rad = big_b * big_b * x.s
    root = math.isqrt(rad)
    irr_floor = root if big_b >= 0 else (-root if root * root == rad else -(root + 1))
    return (big_a + irr_floor) // q


def ref_to_decimal(x: RefQuad, digits: int) -> str:
    if x.b == 0:
        scaled = x.a * 10 ** digits
        q, r = divmod(scaled.numerator, scaled.denominator)
        if 2 * r > scaled.denominator or (2 * r == scaled.denominator and q % 2):
            q += 1
    else:
        guard = 2
        while True:
            shifted = ref_floor_scaled(x, digits + guard) + 10 ** guard // 2
            if shifted % 10 ** guard != 10 ** guard - 1:
                q = shifted // 10 ** guard
                break
            guard += 4
    intpart, frac = divmod(abs(q), 10 ** digits)
    return ("-" if q < 0 else "") + f"{intpart}.{frac:0{digits}d}"


def ref_str(x: RefQuad) -> str:
    if x.b == 0:
        return str(x.a)
    bpart = "" if x.b == 1 else "-" if x.b == -1 else f"{x.b}"
    head = f"{x.a} + " if x.a != 0 else ""
    return f"{head}{bpart}√{x.s}".replace("+ -", "- ")


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def ref_to_json(x: RefQuad) -> dict:
    return {"a": _frac_str(x.a), "b": _frac_str(x.b), "s": x.s}


# -- checks -------------------------------------------------------------------


def assert_canonical(x: QuadReal) -> None:
    """The four invariants of the integer representation."""
    assert all(type(v) is int for v in (x.p, x.q, x.d, x.s))
    assert x.d > 0
    assert math.gcd(x.p, x.q, x.d) == 1
    if x.q == 0:
        assert x.s == 1
    else:
        assert x.s >= 2 and squarefree_decompose(x.s) == (1, x.s)


def assert_same(x: QuadReal, ref: RefQuad) -> None:
    assert_canonical(x)
    assert (x.a, x.b, x.s) == (ref.a, ref.b, ref.s)
    assert type(x.a) is Fraction and type(x.b) is Fraction


rationals = st.one_of(
    st.fractions(min_value=-60, max_value=60, max_denominator=12),
    st.integers(min_value=-10 ** 30, max_value=10 ** 30).map(Fraction),
    st.fractions(min_value=-2, max_value=2, max_denominator=10 ** 9),
)
radicands = st.one_of(
    st.integers(min_value=0, max_value=60),
    st.sampled_from([8, 12, 18, 50, 72, 98, 4 * 7 ** 2, 9 * 11]),
    st.fractions(min_value=0, max_value=40, max_denominator=9),
)
FIELDS = (1, 2, 3, 5, 6, 7, 2 * 3 * 5 * 7 * 11 * 13 * 17)


@st.composite
def quads(draw, field=None):
    """A value drawn through make_quad, with its reference: rational, or in
    ``field`` (any field when None), spelled with a non-squarefree radicand
    half of the time."""
    a, b = draw(rationals), draw(rationals)
    if field is None:
        d = draw(radicands)
    else:
        d = field * draw(st.sampled_from([1, 4, 9, Fraction(1, 4), Fraction(25, 49)]))
        if draw(st.booleans()):
            b = Fraction(0)
    return make_quad(a, b, d), ref_make(a, b, d)


@st.composite
def same_field_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    return draw(quads(field)), draw(quads(field))


@given(quads())
def test_make_quad_matches_the_reference(pair):
    x, ref = pair
    assert_same(x, ref)


@given(rationals, rationals, radicands)
def test_the_constructor_is_make_quad(a, b, d):
    x = make_quad(a, b, d)
    assert QuadReal(a, b, d) == x
    assert_canonical(QuadReal(a, b, d))
    if a.denominator == 1 and b.denominator == 1:
        assert QuadReal(int(a), int(b), d) == make_quad(int(a), int(b), d) == x


@given(same_field_pairs())
@settings(max_examples=200)
def test_arithmetic_matches_the_reference(pairs):
    (x, rx), (y, ry) = pairs
    assert_same(x + y, ref_add(rx, ry))
    assert_same(x - y, ref_add(rx, ref_neg(ry)))
    assert_same(-x, ref_neg(rx))
    assert_same(x * y, ref_mul(rx, ry))
    if ry.a == 0 and ry.b == 0:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert_same(x / y, ref_div(rx, ry))
    # values that cancel back to a rational reset the radicand
    assert_same(x - x, RefQuad(Fraction(0), Fraction(0), 1))
    assert_same((x + y) - y, rx)


@given(quads(), st.integers(min_value=-5, max_value=5), st.fractions(max_denominator=7))
def test_mixed_operands_match_the_reference(pair, k, f):
    x, rx = pair
    for other in (k, f):
        r = RefQuad(Fraction(other), Fraction(0), 1)
        assert_same(x + other, ref_add(rx, r))
        assert_same(other - x, ref_add(r, ref_neg(rx)))
        assert_same(other * x, ref_mul(r, rx))
        if other != 0:
            assert_same(x / other, ref_div(rx, r))


@given(quads(), quads())
@settings(max_examples=200)
def test_compare_across_fields_matches_the_reference(px, py):
    (x, rx), (y, ry) = px, py
    assert compare(x, y) == ref_compare(rx, ry)
    assert compare(y, x) == -compare(x, y)
    assert (x == y) == (rx == ry)
    if x.s != y.s and x.q != 0 and y.q != 0:
        with pytest.raises(MixedField):
            x + y
        with pytest.raises(MixedField):
            x * y
        with pytest.raises(MixedField):
            x / y


@given(quads(), st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=30))
def test_sign_floor_and_rendering_match_the_reference(pair, k, digits):
    x, rx = pair
    assert sign(x) == ref_compare(rx, RefQuad(Fraction(0), Fraction(0), 1))
    assert _floor_scaled(x, k) == ref_floor_scaled(rx, k)
    assert to_decimal(x, digits) == ref_to_decimal(rx, digits)
    assert str(x) == ref_str(rx)
    assert x.to_json() == ref_to_json(rx)
    assert repr(x) == f"QuadReal(a={rx.a!r}, b={rx.b!r}, s={rx.s!r})"
    assert float(x) == float(rx.a) + float(rx.b) * math.sqrt(rx.s)


@given(same_field_pairs())
def test_equal_values_are_equal_and_hash_equal(pairs):
    (x, _), (y, _) = pairs
    spelled = (x + y) - y
    assert spelled == x and hash(spelled) == hash(x)
    assert (spelled, x.p, x.q, x.d, x.s) == (x, spelled.p, spelled.q, spelled.d, spelled.s)
    assert len({x, spelled, x * 1}) == 1
    assert x != (x.p, x.q, x.d, x.s) and x != x.a


@given(quads())
def test_values_are_immutable_and_copy(pair):
    x, _ = pair
    for attr in ("p", "q", "d", "s", "a", "b"):
        with pytest.raises(AttributeError):
            setattr(x, attr, 1)
    with pytest.raises(AttributeError):
        del x.p
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert clone == x and type(clone) is QuadReal
        assert_canonical(clone)
