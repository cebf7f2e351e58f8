"""The integer-first Laurent algebra against a ``Fraction`` reference.

The functions below are the earlier ``symcheck`` arithmetic, which re-wrapped
every coefficient as a ``Fraction`` and re-sorted every result.  They stay
here as the reference: every operation of ``LaurentPoly2`` must give the same
polynomial and the same ``str``, and every result must keep the invariants of
its terms (sorted keys, no zero, an ``int`` or a non-integral ``Fraction``).
The harmonic ladder, which ``symcheck`` runs from its two-term recurrence, is
checked against a general exact Gaussian elimination.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinecone import symcheck
from sinecone.errors import DecompositionFailed, InvariantViolation
from sinecone.symcheck import (
    LaurentPoly2,
    _lift,
    build_harmonic_family,
    d_r,
    d_z,
    hat_laplacian,
    ladder_basis,
    mul_monomial,
    v_field,
    verify_decomposition,
)

# -- the Fraction reference ---------------------------------------------------


def ref_from_terms(items) -> dict:
    out: dict = {}
    for (p, q), c in items:
        if q < 0:
            raise InvariantViolation("reference: z-exponents must stay nonnegative")
        out[(p, q)] = out.get((p, q), Fraction(0)) + Fraction(c)
    return {key: c for key, c in out.items() if c != 0}


def ref_add(f: dict, g: dict) -> dict:
    return ref_from_terms(list(f.items()) + list(g.items()))


def ref_sub(f: dict, g: dict) -> dict:
    return ref_add(f, ref_scale(g, -1))


def ref_scale(f: dict, c) -> dict:
    return ref_from_terms((key, Fraction(c) * v) for key, v in f.items())


def ref_d_r(f: dict) -> dict:
    return ref_from_terms(((p - 1, q), p * c) for (p, q), c in f.items())


def ref_d_z(f: dict) -> dict:
    return ref_from_terms(((p, q - 1), q * c) for (p, q), c in f.items() if q)


def ref_mul_monomial(f: dict, p: int, q: int, coeff) -> dict:
    return ref_from_terms(((pp + p, qq + q), Fraction(coeff) * c) for (pp, qq), c in f.items())


def ref_laplacian(n: int, f: dict) -> dict:
    items = []
    for (p, q), c in f.items():
        if q >= 2:
            items.append(((p, q - 2), -q * (q - 1) * c))
        items.append(((p - 2, q), -(p * (p - 1) + n * p) * c))
    return ref_from_terms(items)


def ref_v_field(f: dict) -> dict:
    """r dz - z dr as the composition of the reference operators."""
    return ref_sub(ref_mul_monomial(ref_d_z(f), 1, 0, 1), ref_mul_monomial(ref_d_r(f), 0, 1, 1))


def ref_lift(f: dict, g: dict, c) -> dict:
    """r dz f + r dr g + c g as the composition of the reference operators."""
    return ref_add(
        ref_add(ref_mul_monomial(ref_d_z(f), 1, 0, 1), ref_mul_monomial(ref_d_r(g), 1, 0, 1)),
        ref_scale(g, c),
    )


def ref_str(f: dict) -> str:
    if not f:
        return "0"
    return " + ".join(f"{c}*r^{p}*z^{q}" for (p, q), c in sorted(f.items()))


# -- checks -------------------------------------------------------------------


def assert_same(got: LaurentPoly2, ref: dict) -> None:
    keys = [key for key, _ in got.terms]
    assert keys == sorted(set(keys))
    for _, c in got.terms:
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
    assert dict(got.terms) == ref
    assert str(got) == ref_str(ref)


coefficients = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-8, max_value=8, max_denominator=9),
    # integral Fractions must come back as ints
    st.integers(min_value=-30, max_value=30).map(Fraction),
)
items = st.lists(
    st.tuples(st.tuples(st.integers(-5, 5), st.integers(0, 5)), coefficients), max_size=8
)


@given(items, items)
@settings(max_examples=100)
def test_construction_sum_and_difference_match_the_reference(terms_f, terms_g):
    f, g = LaurentPoly2.from_terms(terms_f), LaurentPoly2.from_terms(terms_g)
    rf, rg = ref_from_terms(terms_f), ref_from_terms(terms_g)
    assert_same(f, rf)
    assert_same(f + g, ref_add(rf, rg))
    assert_same(f - g, ref_sub(rf, rg))
    assert_same(f - f, {})
    assert (f + g == g + f) and hash(f + g) == hash(g + f)


def test_an_integral_sum_of_fractions_comes_back_as_an_int():
    # random terms rarely meet on one key, so the merge of + and - is pinned here
    half = LaurentPoly2.monomial(1, 1, Fraction(1, 2))
    assert_same(half + half, {(1, 1): 1})
    assert_same(half - LaurentPoly2.monomial(1, 1, Fraction(-3, 2)), {(1, 1): 2})


@given(items, coefficients, st.integers(2, 9))
@settings(max_examples=100)
def test_operators_match_the_reference(terms, c, n):
    f, rf = LaurentPoly2.from_terms(terms), ref_from_terms(terms)
    assert_same(d_r(f), ref_d_r(rf))
    assert_same(d_z(f), ref_d_z(rf))
    assert_same(hat_laplacian(n, f), ref_laplacian(n, rf))
    assert_same(f.scale(c), ref_scale(rf, c))
    assert_same(f.scale(0), {})
    assert_same(v_field(f), ref_v_field(rf))


@given(items, items, st.integers(-3, 6))
@settings(max_examples=100)
def test_lift_matches_the_reference(terms_f, terms_g, c):
    rf, rg = ref_from_terms(terms_f), ref_from_terms(terms_g)
    assert_same(_lift(LaurentPoly2.from_terms(terms_f), LaurentPoly2.from_terms(terms_g), c),
                ref_lift(rf, rg, c))


@given(st.data(), items)
@settings(max_examples=100)
def test_term_order_does_not_matter(data, terms):
    f = LaurentPoly2.from_terms(terms)
    g = LaurentPoly2.from_terms(data.draw(st.permutations(terms)))
    assert f == g and hash(f) == hash(g)
    assert repr(f) == repr(g) and str(f) == str(g)
    # built by different operations, with the same terms inserted in another order
    h = LaurentPoly2.zero()
    for key, c in reversed(f.terms):
        h = h + LaurentPoly2.monomial(*key, c)
    assert h == f and hash(h) == hash(f) and repr(h) == repr(f)


def test_polynomials_cannot_be_changed():
    f = LaurentPoly2.monomial(1, 2, 3)
    with pytest.raises(AttributeError):
        f.terms = ()
    with pytest.raises(AttributeError):
        f._d = {}
    with pytest.raises(AttributeError):
        f.extra = 1
    with pytest.raises(AttributeError):
        del f._d
    assert f == LaurentPoly2.monomial(1, 2, 3)
    assert repr(f) == "LaurentPoly2(terms=(((1, 2), 3),))"


@given(items, st.integers(-4, 4), st.integers(-3, 3), coefficients)
@settings(max_examples=100)
def test_mul_monomial_matches_the_reference(terms, p, q, c):
    f, rf = LaurentPoly2.from_terms(terms), ref_from_terms(terms)
    try:
        want = ref_mul_monomial(rf, p, q, c)
    except InvariantViolation:
        with pytest.raises(InvariantViolation, match="nonnegative"):
            mul_monomial(f, p, q, c)
    else:
        assert_same(mul_monomial(f, p, q, c), want)


# -- the harmonic ladder against a Gaussian-elimination reference ---------------


def ref_nullspace(columns: list[dict]) -> list[list[Fraction]]:
    """Exact nullspace of a -> sum a_l * columns[l], by Gauss-Jordan elimination."""
    keys = sorted({key for col in columns for key in col})
    rows = [[Fraction(col.get(key, 0)) for col in columns] for key in keys]
    pivots: list[int] = []
    for c in range(len(columns)):
        found = next((r for r in range(len(pivots), len(rows)) if rows[r][c]), None)
        if found is None:
            continue
        top = len(pivots)
        rows[top], rows[found] = rows[found], rows[top]
        rows[top] = [x / rows[top][c] for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[top])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(len(columns)) if c not in pivots):
        vec = [Fraction(0)] * len(columns)
        vec[free] = Fraction(1)
        for row, c in enumerate(pivots):
            vec[c] = -rows[row][free]
        basis.append(vec)
    return basis


def ref_harmonic_family(n: int, k: int, j: int) -> dict:
    """The kernel of L_n + k(k+n-1) r^-2 on the ladder space, by elimination,
    as the primitive integer vector with a positive top r-power coefficient."""
    lam = k * (k + n - 1)
    basis = ladder_basis(k, j)
    columns = [ref_add(ref_laplacian(n, {key: Fraction(1)}), ref_mul_monomial({key: 1}, -2, 0, lam))
               for key in basis]
    (vec,) = ref_nullspace(columns)
    ints = [c * lcm(*(c.denominator for c in vec)) for c in vec]
    g = gcd(*(int(c) for c in ints)) * (1 if ints[-1] > 0 else -1)
    return {key: int(c) // g for key, c in zip(basis, ints) if c}


@pytest.mark.parametrize("n", range(2, 13))
def test_harmonic_ladder_matches_the_elimination_reference(n):
    s2 = {(2, 0): 1, (0, 2): 1}
    for k in range(7):
        for j in range(12):
            family = build_harmonic_family(n, k, j)
            assert family.terms == tuple(sorted(ref_harmonic_family(n, k, j).items()))
            report = verify_decomposition(n, k, j)
            if j < 2:
                assert report == {"n": n, "k": k, "j": j, "vacuous": True, "passed": True}
                continue
            generators = [dict(family.terms)] + [ref_mul_monomial(s2, p, q, 1)
                                                  for p, q in ladder_basis(k, j - 2)]
            rank = len(generators) - len(ref_nullspace(generators))
            assert rank == j // 2 + 1
            assert report == {"n": n, "k": k, "j": j, "dim": rank, "rank": rank, "passed": True}


@pytest.mark.parametrize("n, k, j", [(3, 1, 2), (4, 0, 3), (5, 2, 6)])
def test_a_family_inside_the_shifted_ladder_is_refused(monkeypatch, n, k, j):
    # (r^2 + z^2) r^k z^(j-2) lies in the shifted span, so the sum is not direct
    inside = LaurentPoly2.from_terms({(k + 2, j - 2): 1, (k, j): 1})
    monkeypatch.setattr(symcheck, "build_harmonic_family", lambda *_: inside)
    with pytest.raises(DecompositionFailed, match="kernel line and shifted ladder overlap"):
        verify_decomposition(n, k, j)
