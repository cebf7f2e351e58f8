from fractions import Fraction

import pytest

from sinecone.errors import IllPosed, InvariantViolation, VerificationFailed
from sinecone.radialoracle import (
    RadialProblem,
    closed_form_values,
    rayleigh_unbounded_demo,
    quotients_to_csv,
    solve_radial,
    verify_line,
)


def test_problem_invariants():
    with pytest.raises(InvariantViolation):
        RadialProblem(3, Fraction(0), grid_points=50)
    with pytest.raises(InvariantViolation):
        RadialProblem(3, Fraction(0), boundary_offset=0.1)
    with pytest.raises(IllPosed):
        RadialProblem(8, Fraction(-14), block="tt")
    with pytest.raises(IllPosed):
        RadialProblem(3, Fraction(-1), block="function")


def test_closed_forms():
    assert [float(v) for v in closed_form_values(3, Fraction(3), 3)] == [4.0, 10.0, 18.0]
    assert [float(v) for v in closed_form_values(3, Fraction(0), 3)] == [0.0, 4.0, 10.0]


@pytest.mark.parametrize(
    "n,c",
    [(3, 0), (3, 3), (3, 8), (4, 0), (4, 4), (4, 10), (5, 0), (5, 5), (5, 12)],
)
def test_oracle_agreement_sphere_couplings(n, c):
    report = verify_line(n, "function", Fraction(c), modes=3, tol=1e-3)
    assert report["passed"]


def test_constant_mode_exact():
    got = solve_radial(RadialProblem(4, Fraction(0)), 1)
    assert abs(got[0]) < 1e-9  # natural handling represents constants exactly


def test_convergence_is_second_order():
    # halving h must shrink the mode-1 error by at least a factor 3; mode 0 is
    # the gauge's constant psi, represented exactly up to roundoff
    errors = []
    for grid in (500, 1000, 2000):
        got = solve_radial(RadialProblem(3, Fraction(3), grid_points=grid), 2)
        errors.append(abs(got[1] - 10.0))
    assert errors[0] / errors[1] >= 3
    assert errors[1] / errors[2] >= 3


def test_monotone_in_coupling():
    lows = [
        solve_radial(RadialProblem(5, Fraction(c), block="tt", grid_points=1500), 1)[0]
        for c in range(-4, 9, 2)
    ]
    assert all(a <= b + 1e-9 for a, b in zip(lows, lows[1:]))


def test_negative_control_wrong_target():
    # targets shifted by one must be rejected
    with pytest.raises(VerificationFailed):
        verify_line(
            3, "function", Fraction(3), modes=2, tol=1e-3,
            grid_points=1000, targets=[5.0, 11.0],
        )



def test_verify_line_needs_a_target_per_mode():
    # a short target list must not shrink the check to fewer modes
    for targets in ([4.0], [0.0, 4.0, 10.0]):
        with pytest.raises(InvariantViolation):
            verify_line(3, "function", Fraction(3), modes=2, targets=targets)

def test_tt_block_n10_contains_zero_mode():
    # dimension-10 product line: ladder (j-3)(j+7), zero at index 3
    got = solve_radial(RadialProblem(10, Fraction(-18), block="tt"), 5)
    targets = [-21.0, -16.0, -9.0, 0.0, 11.0]
    for g, t in zip(got, targets):
        err = abs(g - t) if t == 0 else abs(g - t) / abs(t)
        assert err < 2e-3, (got, targets)


def test_tt_block_critical_case_converges_slowly():
    """The dimension-9 product coupling -16 sits exactly at -(n-1)^2/4, where
    the two pole exponents of the radial modes merge at -(n-1)/2 and the
    second branch carries a logarithm.  The ground-state gauge keeps only the
    regular branch, so the default grid and a refined one both reproduce the
    exact ladder (j-4)(j+5) to 1e-3 instead of paying O(1/log(1/eps)) for
    the truncation at eps."""
    targets = [float(v) for v in closed_form_values(9, Fraction(-16), 5)]
    assert targets == [-20.0, -18.0, -14.0, -8.0, 0.0]
    default = solve_radial(RadialProblem(9, Fraction(-16), block="tt"), 5)
    refined = solve_radial(
        RadialProblem(9, Fraction(-16), block="tt", grid_points=8000,
                      boundary_offset=1e-9),
        5,
    )
    for got in (default, refined):
        assert len(got) == len(targets)
        assert all(abs(g - t) < 1e-3 for g, t in zip(got, targets)), got


@pytest.mark.parametrize("n,c,modes", [(9, -16, 5), (5, -4, 3), (9, -15, 5)])
def test_verify_line_tt_couplings(n, c, modes):
    # Hardy-critical couplings (9, -16) and (5, -4), and one just above (9, -15)
    report = verify_line(n, "tt", Fraction(c), modes=modes, tol=1e-3)
    assert report["passed"]


def test_rayleigh_demo_blowdown_n8():
    eps = [0.4, 0.2, 0.1, 0.05]
    q = rayleigh_unbounded_demo(8, -14.0, eps)
    assert all(a > b for a, b in zip(q, q[1:]))  # strictly decreasing
    assert q[-1] < -1e3
    scaled = [e * e * v for e, v in zip(eps, q)]
    assert 0.5 < scaled[-2] / scaled[-1] < 2.0


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_rayleigh_demo_product_couplings(n):
    kappa = -2.0 * (n - 1)
    assert kappa < -((n - 1) ** 2) / 4  # sub-threshold for n <= 8
    q = rayleigh_unbounded_demo(n, kappa, [0.2, 0.1, 0.05])
    assert q[0] > q[1] > q[2]
    assert q[-1] < -1e2


def test_rayleigh_demo_eps2_limit():
    # eps^2 * quotient approaches a negative constant below the threshold
    eps = [0.1, 0.05, 0.025]
    q = rayleigh_unbounded_demo(8, -14.0, eps)
    scaled = [e * e * v for e, v in zip(eps, q)]
    assert scaled[-1] < 0
    assert abs(scaled[-1] - scaled[-2]) < 0.02 * abs(scaled[-1])


def test_rayleigh_demo_boundary_case_stays_bounded():
    q = rayleigh_unbounded_demo(9, -16.0, [0.4, 0.2, 0.1, 0.05])
    assert all(v > 0 for v in q)  # no blow-down at the boundary


def test_rayleigh_demo_nonnegative_coupling():
    q = rayleigh_unbounded_demo(6, 0.0, [0.4, 0.2, 0.1])
    assert all(v >= 0 for v in q)


def test_csv_dump(tmp_path):
    eps = [0.2, 0.1]
    q = rayleigh_unbounded_demo(8, -14.0, eps)
    path = tmp_path / "quotients.csv"
    quotients_to_csv(path, eps, q)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "eps,quotient,eps2_quotient"
    assert len(lines) == 3
