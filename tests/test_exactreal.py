import math
import random
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinecone import exactreal
from sinecone.errors import MixedField, NegativeRadicand, NotRepresentable, ParseError
from sinecone.exactreal import (
    QuadReal,
    add_same_field,
    compare,
    from_rational,
    make_quad,
    mul_same_field,
    quad_from_json,
    squarefree_decompose,
    to_decimal,
)


def test_squarefree_decompose():
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(36) == (6, 1)
    assert squarefree_decompose(12 * 49) == (14, 3)
    assert squarefree_decompose(10**12 + 39) == (1, 10**12 + 39)  # prime


# primes above the trial-division limit of 10**6
P1, P2 = 999999937, 1000000007  # P1 * P2 < 10**18
P3 = 1000000009  # P2 * P3 > 10**18


@pytest.mark.parametrize(
    "m, expected",
    [
        (P1 * P2, (1, P1 * P2)),  # a cofactor just below 10**18 is decided
        (12 * P1 * P2, (2, 3 * P1 * P2)),
        (1000003**2 * 7, (1000003, 7)),
        (P2**2 * P3**2, (P2 * P3, 1)),  # a square cofactor is decided at any size
    ],
)
def test_squarefree_decompose_below_the_cofactor_bound(m, expected):
    t, s = squarefree_decompose(m)
    assert (t, s) == expected and t * t * s == m


@pytest.mark.parametrize(
    "m",
    [
        1000003**2 * 998244353,  # p**2 q: returned (1, p**2 q) before
        P2 * P3,  # p q, not told apart from p**2 r at this size
        5 * 1000003**2 * 998244353,
    ],
)
def test_squarefree_decompose_refuses_an_uncertified_cofactor(m):
    with pytest.raises(NotRepresentable, match="10\\*\\*18"):
        squarefree_decompose(m)
    assert NotRepresentable.exit_code == 4
    with pytest.raises(NotRepresentable):
        make_quad(0, 1, m)


SMALL_PRIMES = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
MID_PRIMES = [101, 1009, 7919, 65537, 104729, 999983]  # between 100 and 10**6
# above 10**6 and below 10**10, so that trial division past a composite
# cofactor stops near the square root of the big prime, not at 10**6
BIG_PRIMES = [1000003, 999999937, 2147483647]


@settings(max_examples=100, deadline=None)
@given(
    square=st.lists(st.sampled_from(SMALL_PRIMES + MID_PRIMES), max_size=3),
    free=st.sets(st.sampled_from(SMALL_PRIMES + MID_PRIMES), max_size=3),
    big=st.sampled_from([1] + BIG_PRIMES),
)
def test_squarefree_decompose_of_a_built_radicand(square, free, big):
    # m = t**2 * s from chosen primes, at most one of them above 10**6 and
    # that one in s, so the cofactor left by trial division is 1 or a prime
    t, s = math.prod(square), math.prod(free) * big
    assert squarefree_decompose(t * t * s) == (t, s)


@pytest.mark.parametrize(
    "m, expected",
    [
        # the squares of the Wieferich primes are strong pseudoprimes to base
        # 2 and not squarefree; so is the square part of the third radicand
        (1093**2, (1093, 1)),
        (3511**2, (3511, 1)),
        (1093**2 * 999999937, (1093, 999999937)),
        # 149491 * 747451 * 34233211, a strong pseudoprime to every prime base
        # up to 23: a test that stops there calls it a prime above 10**18
        (3825123056546413051, (1, 3825123056546413051)),
    ],
)
def test_squarefree_decompose_is_not_fooled_by_strong_pseudoprimes(m, expected):
    assert squarefree_decompose(m) == expected


def test_squarefree_decompose_tests_primality_only_below_the_proven_bound(monkeypatch):
    # psi_13, the least strong pseudoprime to the first 13 prime bases, is where
    # the test stops being a proof: it must fall back to trial division there
    psi13 = 1287836182261 * 2575672364521
    assert exactreal._is_prime(psi13)
    asked = []
    is_prime = exactreal._is_prime
    monkeypatch.setattr(exactreal, "_is_prime", lambda m: asked.append(m) or is_prime(m))
    with pytest.raises(NotRepresentable, match=f"cofactor {psi13} "):
        squarefree_decompose(psi13)
    assert asked == []
    # below it a prime cofactor left by trial division under 100 stops the search
    assert squarefree_decompose(2**8 * 5**6 * 36923527) == (2000, 36923527)
    assert asked == [36923527]


@pytest.mark.parametrize(
    "cofactor, t, s",
    [
        (399989, 1, 399989),  # primes on either side of the floor
        (400009, 1, 400009),
        (631 ** 2, 631, 1),  # squares
        (641 ** 2, 641, 1),
        (619 * 631, 1, 619 * 631),  # products of two primes
        (631 * 641, 1, 631 * 641),
    ],
)
def test_squarefree_decompose_tests_primality_only_above_its_floor(monkeypatch, cofactor, t, s):
    # trial division under 100 leaves the cofactor; below the floor it is
    # finished by trial division, above it Miller-Rabin is asked first
    assert (cofactor < exactreal._MR_FLOOR) == (cofactor in (399989, 631 ** 2, 619 * 631))
    asked = []
    is_prime = exactreal._is_prime
    monkeypatch.setattr(exactreal, "_is_prime", lambda m: asked.append(m) or is_prime(m))
    assert squarefree_decompose(2**3 * 3 * 7**2 * cofactor) == (2 * 7 * t, 6 * s)
    assert asked == ([] if cofactor < exactreal._MR_FLOOR else [cofactor])


def test_squarefree_decompose_takes_a_proven_prime_cofactor_above_the_bound(monkeypatch):
    # a cofactor of at least 10**18 that Miller-Rabin proves prime is
    # squarefree: it is the radicand, and the test runs once on it
    p = 10**18 + 3
    asked = []
    is_prime = exactreal._is_prime
    monkeypatch.setattr(exactreal, "_is_prime", lambda m: asked.append(m) or is_prime(m))
    assert squarefree_decompose(p) == (1, p)
    assert squarefree_decompose(4 * 3 * p) == (2, 3 * p)
    assert asked == [p, p]
    x = make_quad(0, 1, 4 * p)
    assert (x.p, x.q, x.d, x.s) == (0, 2, 1, p)


def test_squarefree_decompose_refuses_a_composite_cofactor_above_the_bound(monkeypatch):
    # three primes above 10**6: trial division leaves the cofactor as it is,
    # so Miller-Rabin is asked once, and the cofactor is refused
    m = 1000003 * 1000033 * 1000037
    assert m >= 10**18
    asked = []
    is_prime = exactreal._is_prime
    monkeypatch.setattr(exactreal, "_is_prime", lambda m: asked.append(m) or is_prime(m))
    message = (
        f"radicand cofactor {m} has no prime factor up to 10**6 and is at least "
        "10**18: its squarefree part cannot be certified"
    )
    with pytest.raises(NotRepresentable) as info:
        squarefree_decompose(m)
    assert str(info.value) == message
    assert asked == [m]


def test_make_quad_examples():
    assert make_quad(0, 1, 8) == QuadReal(Fraction(0), Fraction(2), 2)
    assert make_quad(-4, 1, 0) == QuadReal(Fraction(-4), Fraction(0), 1)
    assert make_quad(Fraction(1, 2), Fraction(3, 2), Fraction(4, 9)) == from_rational(
        Fraction(3, 2)
    )


def test_make_quad_negative_radicand():
    with pytest.raises(NegativeRadicand):
        make_quad(0, 1, -1)


def test_add_and_mul_examples():
    assert from_rational(-4) + 4 == from_rational(0)
    one_plus = make_quad(1, 1, 2)
    one_minus = make_quad(1, -1, 2)
    assert mul_same_field(one_plus, one_minus) == from_rational(-1)
    # the dimension-9 product marker: degree -4, shifted ladder hits zero
    xi = from_rational(-4)
    assert (xi + 4) * (xi + 4 + 10) == from_rational(0)


def test_division_by_a_negative_denominator_moves_every_sign():
    # _norm's rule d > 0: the sign of d moves to both p and q
    one_plus = make_quad(1, 1, 2)
    assert one_plus / -2 == make_quad(Fraction(-1, 2), Fraction(-1, 2), 2)
    # the conjugate's norm 1 - 2 is negative: (1 + √2)/(1 - √2) = -3 - 2√2
    assert one_plus / make_quad(1, -1, 2) == make_quad(-3, -2, 2)


def test_mixed_field_rejected():
    with pytest.raises(MixedField):
        add_same_field(make_quad(0, 1, 2), make_quad(0, 1, 3))
    with pytest.raises(MixedField):
        mul_same_field(make_quad(0, 1, 2), make_quad(0, 1, 3))


def test_compare_examples():
    assert compare(from_rational(2), make_quad(1, 1, 2)) < 0  # 2 < 1+sqrt2
    assert compare(from_rational(-16), from_rational(Fraction(-(9 - 1) ** 2, 4))) == 0
    threshold = make_quad(Fraction(45, 2), Fraction(-3, 2), 17)
    assert compare(from_rational(16), threshold) < 0


def test_compare_cross_field():
    # sqrt2 + sqrt3 vs sqrt(5 + 2 sqrt6) would be equal, but stays cross-field;
    # instead check simple orderings with distinct radicands
    a = make_quad(1, 1, 2)   # 2.414
    b = make_quad(0, 1, 6)   # 2.449
    assert compare(a, b) < 0
    assert compare(b, a) > 0
    assert compare(make_quad(0, 2, 2), make_quad(0, 1, 8)) == 0  # same canonical value


def test_to_decimal_examples():
    assert to_decimal(make_quad(0, 1, 2), 5) == "1.41421"
    assert to_decimal(from_rational(-4), 3) == "-4.000"
    # frozen from the decimal-module oracle below
    assert to_decimal(make_quad(Fraction(45, 2), Fraction(-3, 2), 17), 4) == "16.3153"


def test_to_decimal_against_decimal_module():
    getcontext().prec = 80
    value = Decimal(45) / 2 - Decimal(3) / 2 * Decimal(17).sqrt()
    want = str(value.quantize(Decimal("1.0000")))
    assert to_decimal(make_quad(Fraction(45, 2), Fraction(-3, 2), 17), 4) == want


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("digits", [1, 3, 12])
def test_to_decimal_rounds_an_irrational_a_hair_from_a_boundary(side, digits):
    # x = 1 + 5/10**(digits+1) +- sqrt(2)/10**40: past its last place it
    # reads 4 and a run of 9s, or 5 and a run of 0s; the one floor at
    # digits + 1 places rounds it as the 80-digit decimal module does
    x = make_quad(1 + Fraction(5, 10 ** (digits + 1)), Fraction(side, 10 ** 40), 2)
    with localcontext() as ctx:
        ctx.prec = 80
        value = 1 + Decimal(5).scaleb(-digits - 1) + side * Decimal(2).sqrt().scaleb(-40)
        want = format(value.quantize(Decimal(1).scaleb(-digits)), "f")
    assert to_decimal(x, digits) == want == "1." + "0" * (digits - 1) + ("1" if side > 0 else "0")
    assert to_decimal(-x, digits) == "-" + want


def test_to_decimal_half_even():
    assert to_decimal(from_rational(Fraction(25, 1000)), 2) == "0.02"
    assert to_decimal(from_rational(Fraction(35, 1000)), 2) == "0.04"
    assert to_decimal(from_rational(Fraction(-25, 1000)), 2) == "-0.02"


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
small_rads = st.integers(min_value=0, max_value=5000)


@given(rationals, rationals, small_rads)
def test_canonicalization_is_idempotent(a, b, s):
    q = make_quad(a, b, s)
    assert make_quad(q.a, q.b, q.s) == q
    if q.b == 0:
        assert q.s == 1
    else:
        t, kernel = squarefree_decompose(q.s)
        assert (t, kernel) == (1, q.s)


@given(rationals, rationals, rationals, small_rads)
@settings(max_examples=200)
def test_field_laws(a1, b1, c1, s):
    x, y, z = (make_quad(v, w, s) for v, w in ((a1, b1), (b1, c1), (c1, a1)))
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def test_order_consistency_against_decimals():
    # compare() must agree with 60-digit decimal evaluation whenever the
    # decimal difference is decisive
    rng = random.Random(1234)
    threshold = Fraction(1, 10**50)
    checked = 0
    for _ in range(100_000):
        x = make_quad(
            Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
            Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
            rng.randint(0, 60),
        )
        y = make_quad(
            Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
            Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
            rng.randint(0, 60),
        )
        dx = Fraction(to_decimal(x, 60)) - Fraction(to_decimal(y, 60))
        if abs(dx) <= threshold:
            continue
        checked += 1
        assert compare(x, y) == (1 if dx > 0 else -1), (x, y)
    assert checked > 90_000


def test_json_round_trip():
    q = make_quad(Fraction(5, 2), Fraction(-3, 2), 17)
    assert quad_from_json(q.to_json()) == q
    assert quad_from_json(7) == from_rational(7)
    assert quad_from_json("5/3") == from_rational(Fraction(5, 3))
    assert quad_from_json("-10/4") == from_rational(Fraction(-5, 2))
    assert quad_from_json({"a": "007", "b": "1/010", "s": 2}) == make_quad(7, Fraction(1, 10), 2)


@pytest.mark.parametrize("obj", [True, False, 2.5, {"a": "1", "b": "1", "s": 2.0}, {"b": "1", "s": True}])
def test_json_booleans_and_floats_are_not_integers(obj):
    with pytest.raises(ParseError):
        quad_from_json(obj)


@pytest.mark.parametrize(
    "obj",
    [{"a": 2.5}, {"b": 1.0, "s": 2}, {"a": True}, {"b": False, "s": 3}, {"a": None}, {"a": [1]},
     # a string is -?[0-9]+ or -?[0-9]+/[0-9]+ with a nonzero denominator
     "2.5", "1e3", " 7 ", "1_0", "+5", "1/0", "", {"a": "1/-2"}, {"b": "--1", "s": 2}, {"a": "\u0663"}],
)
def test_json_coefficients_are_integers_or_strings(obj):
    with pytest.raises(ParseError, match="must be an integer or a 'p/q' string"):
        quad_from_json(obj)


def test_json_objects_take_only_a_b_and_s():
    with pytest.raises(ParseError, match="unknown key 'S'"):
        quad_from_json({"a": 0, "b": 6, "S": 2})
    assert quad_from_json({"a": 0, "b": 6, "s": 2}) == make_quad(0, 6, 2)
    assert quad_from_json({"a": "5/2"}) == quad_from_json("5/2") == from_rational(Fraction(5, 2))
    assert quad_from_json({"a": 5, "b": "-1/3", "s": 8}) == make_quad(5, Fraction(-1, 3), 8)


def test_order_trichotomy_and_transitivity():
    rng = random.Random(777)

    def rand_quad():
        return make_quad(
            Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
            Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
            rng.randint(0, 30),
        )

    for _ in range(4000):
        x, y, z = rand_quad(), rand_quad(), rand_quad()
        assert compare(x, y) == -compare(y, x)
        assert (compare(x, y) == 0) == (x == y)
        lo, mid, hi = sorted([x, y, z])
        assert compare(lo, mid) <= 0 and compare(mid, hi) <= 0 and compare(lo, hi) <= 0
