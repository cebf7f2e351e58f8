from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinecone import symcheck
from sinecone.conemaps import degree_eigenvalue
from sinecone.errors import IdentityFailed, InvariantViolation
from sinecone.exactreal import from_rational
from sinecone.radialoracle import RadialProblem, solve_radial
from sinecone.symcheck import (
    LaurentPoly2,
    build_harmonic_family,
    check_commutators,
    d_r,
    d_z,
    hat_laplacian,
    ladder_basis,
    mul_monomial,
    v_field,
    verify_decomposition,
    verify_formulas1,
    verify_formulas2,
    verify_formulas3,
)


def mono(p, q, c=1):
    return LaurentPoly2.monomial(p, q, c)


def test_operator_examples():
    assert hat_laplacian(3, mono(0, 1)).is_zero()  # z is harmonic
    for n in (2, 3, 5):
        out = hat_laplacian(n, mono(2, 0))
        assert out == mono(0, 0, -2 - 2 * n)
    assert v_field(mono(1, 1)) == mono(2, 0) + mono(0, 2, -1)  # V(rz) = r^2 - z^2


@given(
    st.lists(
        st.tuples(
            st.integers(-4, 4), st.integers(0, 4),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
        ),
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.integers(-4, 4), st.integers(0, 4),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
        ),
        max_size=6,
    ),
)
@settings(max_examples=150)
def test_operators_are_linear_derivations(terms_f, terms_g):
    f = LaurentPoly2.from_terms({(p, q): c for p, q, c in terms_f})
    g = LaurentPoly2.from_terms({(p, q): c for p, q, c in terms_g})
    for op in (d_r, d_z, v_field, lambda h: hat_laplacian(3, h)):
        assert op(f + g) == op(f) + op(g)
        assert op(f.scale(3)) == op(f).scale(3)
    # derivations satisfy Leibniz on products of monomials
    for (p1, q1), c1 in f.terms:
        for (p2, q2), c2 in g.terms:
            prod = mono(p1 + p2, q1 + q2, c1 * c2)
            a, b = mono(p1, q1, c1), mono(p2, q2, c2)
            lhs = v_field(prod)
            rhs = mul_monomial(v_field(a), p2, q2, c2) + mul_monomial(v_field(b), p1, q1, c1)
            assert lhs == rhs


@pytest.mark.parametrize("n", [3, 4, 5])
def test_commutator_box(n):
    report = check_commutators(n)
    assert report["passed"] and report["monomials"] == 13 * 7


def test_commutator_negative_control():
    # tampering with the dimension on one side must be caught
    f = mono(2, 1)
    lhs = v_field(hat_laplacian(3, f)) - hat_laplacian(3, v_field(f))
    rhs = mul_monomial(v_field(f), -2, 0, 4)  # n -> n+1 on one side
    assert not (lhs - rhs).is_zero()


@pytest.mark.parametrize(
    "perturb, monomial",
    [
        # the Laplacian of dimension n+1 fails on the first monomial
        (lambda lap: lambda n, f: lap(n + 1, f), "r^-6 z^0 (n=3)"),
        # without its z-derivatives it fails on the first monomial in z
        (lambda lap: lambda n, f: lap(n, f) + d_z(d_z(f)), "r^-6 z^1 (n=3)"),
    ],
    ids=["dimension", "no-z-part"],
)
def test_commutator_failure_names_identity_and_monomial(monkeypatch, perturb, monomial):
    monkeypatch.setattr(symcheck, "hat_laplacian", perturb(symcheck.hat_laplacian))
    with pytest.raises(IdentityFailed) as failure:
        check_commutators(3)
    message = str(failure.value)
    assert "commutator with the weighted Laplacian" in message
    assert monomial in message


@pytest.mark.parametrize(
    "mutant, identity",
    [
        # an extra -z r^-1 f term breaks the commutator with L_n first
        (lambda v: lambda f: v(f) + mul_monomial(f, -1, 1), "commutator with the weighted Laplacian"),
        # r dz + z dr, the sign flipped, commutes with L_n but not with r^-2
        (lambda v: lambda f: mul_monomial(d_z(f), 1, 0) + mul_monomial(d_r(f), 0, 1),
         "commutator with r^-2"),
    ],
    ids=["extra-term", "sign-flip"],
)
def test_rotation_field_mutants_are_caught(monkeypatch, mutant, identity):
    monkeypatch.setattr(symcheck, "v_field", mutant(symcheck.v_field))
    with pytest.raises(IdentityFailed) as failure:
        check_commutators(3)
    message = str(failure.value)
    assert identity in message
    assert "r^-6 z^0 (n=3)" in message


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("j", [0, 1, 2, 3, 4, 5])
def test_harmonic_family_dimension_and_decomposition(n, k, j):
    f = build_harmonic_family(n, k, j)
    # the member is killed by the reduced operator, exactly
    assert (hat_laplacian(n, f) + mul_monomial(f, -2, 0, k * (k + n - 1))).is_zero()
    assert verify_decomposition(n, k, j)["passed"]


def test_harmonic_family_low_rungs():
    for n in (3, 5):
        for k in (0, 2):
            assert build_harmonic_family(n, k, 0) == mono(k, 0)
            assert build_harmonic_family(n, k, 1) == mono(k, 1)
    # kernel of the reduced operator on span{z^2, r^2}, primitive, r^2 coefficient positive
    assert build_harmonic_family(3, 0, 2) == mono(2, 0) + mono(0, 2, -4)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_harmonic_family_refuses_a_base_dimension_below_two(n):
    # at n = -3, k = 1, j = 2 the recurrence's diagonal factor -2m(2k+2m+n-1) is zero
    with pytest.raises(InvariantViolation, match=f"at least 2, got n={n}"):
        build_harmonic_family(n, 1, 2)


def test_harmonic_family_residual_failure_names_the_family(monkeypatch):
    # with the Laplacian of dimension n+1 the recurrence's family is no longer in the kernel
    laplacian = symcheck.hat_laplacian
    monkeypatch.setattr(symcheck, "hat_laplacian", lambda n, f: laplacian(n + 1, f))
    with pytest.raises(IdentityFailed, match=r"harmonic family \(n=3, k=2, j=2\)"):
        build_harmonic_family(3, 2, 2)


def test_dimension_count():
    assert len(ladder_basis(2, 4)) == len(ladder_basis(2, 2)) + 1
    assert len(ladder_basis(1, 2)) == 2  # kernel line + one shifted generator
    # at every height, so verify_decomposition needs no count of its own
    for k in (0, 1, 5):
        for j in range(2, 40):
            assert len(ladder_basis(k, j)) == len(ladder_basis(k, j - 2)) + 1 == j // 2 + 1


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("j", [0, 1, 2, 3, 4])
def test_formula_systems_close(n, k, j):
    assert verify_formulas1(n, k, j)["passed"]
    assert verify_formulas2(n, k, j)["passed"]
    assert verify_formulas3(n, k, j)["passed"]


def test_formulas_negative_control():
    # perturbing one coefficient of the derived polynomial breaks closure
    n, k, j = 3, 2, 2
    lam = Fraction(k * (k + n - 1))
    P = build_harmonic_family(n, k, j)
    Q = mul_monomial(P, -1, 1).scale(-1)
    R = (
        mul_monomial(d_z(P), 1, 0) + mul_monomial(d_r(Q), 1, 0) + Q.scale(n)
    ).scale(Fraction(1, lam))
    R_bad = R + mono(*R.terms[0][0], 1)
    residual = (
        hat_laplacian(n, R_bad)
        + mul_monomial(R_bad, -2, 0, lam + 2 - n)
        + mul_monomial(Q, -2, 0, -2)
    )
    assert not residual.is_zero()


def test_homogeneity_matches_radial_oracle():
    # the ladder member at (n, k, j) is homogeneous of degree k + j, and the
    # separated radial problem at coupling k(k+n-1) shows the matching
    # eigenvalue of the degree dictionary
    n, k, j = 3, 1, 2
    f = build_harmonic_family(n, k, j)
    assert {p + q for (p, q), _ in f.terms} == {k + j}
    target = float(degree_eigenvalue(n + 1, from_rational(k + j)))
    got = solve_radial(RadialProblem(n, Fraction(k * (k + n - 1)), grid_points=2000), j + 1)
    assert abs(got[j] - target) / target < 1e-3


def _exact_coefficients(f):
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for _, c in f.terms)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_families_and_closure_systems_stay_exact(monkeypatch, n):
    # every polynomial the closure checks hand to the Laplacian, R and S among
    # them, keeps int or Fraction coefficients: no float enters by 1 / int
    seen = []
    laplacian = symcheck.hat_laplacian

    def recording(m, f):
        seen.append(f)
        return laplacian(m, f)

    monkeypatch.setattr(symcheck, "hat_laplacian", recording)
    for k in range(4):
        for j in range(6):
            family = build_harmonic_family(n, k, j)
            assert family.terms and _exact_coefficients(family)
            checks = [verify_formulas1] * (k >= 1) + [verify_formulas2, verify_formulas3] * (k >= 2)
            for check in checks:
                assert check(n, k, j)["passed"]
    assert seen and all(_exact_coefficients(f) for f in seen)
    assert any(type(c) is Fraction for f in seen for _, c in f.terms)


@pytest.mark.parametrize(
    "make",
    [
        lambda: LaurentPoly2.from_terms({(0, 0): 0.1}),
        lambda: LaurentPoly2.from_terms([((1, 2), 1.0)]),
        lambda: LaurentPoly2.monomial(1, 1, 0.5),
        lambda: mono(1, 1).scale(0.25),
        lambda: mul_monomial(mono(1, 1), 0, 0, 2.0),
    ],
    ids=["from-terms-mapping", "from-terms-pairs", "monomial", "scale", "mul-monomial"],
)
def test_float_coefficients_are_refused(make):
    with pytest.raises(InvariantViolation, match="float"):
        make()


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda: LaurentPoly2.from_terms({(1.5, 0): 1}), "1.5"),
        (lambda: LaurentPoly2.from_terms({(True, 2.9): 1}), "True"),
        (lambda: LaurentPoly2.from_terms([((1, Fraction(2)), 1)]), "Fraction(2, 1)"),
        (lambda: LaurentPoly2.monomial(1, 2.0), "2.0"),
        (lambda: mul_monomial(mono(1, 1), 0.5, 0), "0.5"),
        (lambda: mul_monomial(mono(1, 1), 0, False), "False"),
    ],
    ids=["mapping-float", "mapping-bool", "pairs-fraction", "monomial", "mul-monomial-float",
         "mul-monomial-bool"],
)
def test_non_int_exponents_are_refused(make, named):
    with pytest.raises(InvariantViolation, match="exponents must be int") as failure:
        make()
    assert named in str(failure.value)
