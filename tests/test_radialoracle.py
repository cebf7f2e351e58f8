from fractions import Fraction

import pytest

from sinecone import radialoracle
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


def test_solve_radial_refuses_zero_modes():
    with pytest.raises(InvariantViolation, match="at least one mode"):
        solve_radial(RadialProblem(3, Fraction(3)), 0)


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


def test_negative_control_wrong_target(monkeypatch):
    # targets shifted by one must be rejected
    def shifted(n, coupling, modes):
        return [v + 1 for v in closed_form_values(n, coupling, modes)]

    monkeypatch.setattr(radialoracle, "closed_form_values", shifted)
    with pytest.raises(VerificationFailed):
        verify_line(3, "function", Fraction(3), modes=2, tol=1e-3, grid_points=1000)


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


#: ``solve_radial`` at the default grid on the lines ``verify-engines`` and the
#: tests above solve: for n = 3..8 the function block at k(k+n-1), k = 2..4,
#: and the TT block at the Hardy bound, four modes each, plus the two product
#: TT lines with five.  Recorded from the solver so that a change of the
#: linear algebra underneath must reproduce it, not only the closed forms.
PINNED_VALUES = {
    (3, "function", "8"): [9.999999999991672, 17.999999588756413, 27.999996298887986, 39.99998612084239],
    (3, "function", "15"): [18.000000000005567, 27.999999485947768, 39.99999547641214, 53.99998334499149],
    (3, "function", "24"): [28.000000000020528, 39.999999383149145, 53.99999465394012, 69.99998056911184],
    (3, "tt", "-1"): [-2.000000000002343, 2.0561840052835123e-07, 4.000000308436423, 9.999998766284392],
    (4, "function", "10"): [11.999999999994792, 20.999999537350014, 31.999995887650037, 44.99998473289998],
    (4, "function", "18"): [20.99999999998247, 31.999999434550723, 44.99999506516832, 59.999981957044525],
    (4, "function", "28"): [31.999999999982933, 44.999999331751646, 59.9999942427027, 76.99997918117957],
    (4, "tt", "-9/4"): [-3.7499999999904805, -1.749999794379736, 2.250000308432842, 8.24999876629462],
    (5, "function", "12"): [14.000000000002995, 23.9999994859675, 35.99999547642571, 49.99998334498777],
    (5, "function", "21"): [23.99999999999376, 35.99999938314664, 49.999994653932745, 65.99998056911627],
    (5, "function", "32"): [36.0000000000201, 49.99999928033503, 65.99999383144579, 83.99997779322977],
    (5, "tt", "-4"): [-6.000000000012649, -3.999999794391641, 3.084177109258235e-07, 5.999998766274306],
    (6, "function", "14"): [16.000000000001947, 26.999999434555114, 39.999995065179974, 54.99998195705429],
    (6, "function", "24"): [26.999999999998323, 39.99999933175308, 54.99999424270766, 71.99997918117747],
    (6, "function", "36"): [39.99999999998272, 54.99999922892398, 71.99999342020088, 90.99997640527567],
    (6, "tt", "-25/4"): [-8.750000000008306, -6.74999979438147, -2.7499996915763063, 3.2499987662840297],
    (7, "function", "16"): [18.00000000000535, 29.999999383149607, 43.99999465394659, 59.99998056912182],
    (7, "function", "27"): [29.999999999996916, 43.999999280319244, 59.99999383144028, 77.99997779321289],
    (7, "function", "40"): [44.00000000000948, 59.99999917753942, 77.99999300898278, 97.99997501732415],
    (7, "tt", "-9"): [-11.999999999995165, -9.999999794372854, -5.999999691569634, -1.2337077848201261e-06],
    (8, "function", "18"): [19.999999999988525, 32.999999331737925, 47.99999424269026, 64.99997918116934],
    (8, "function", "30"): [32.99999999999348, 47.99999922892792, 64.99999342020763, 83.99997640528812],
    (8, "function", "44"): [47.999999999999744, 64.99999912612456, 83.99999259772981, 104.9999736293532],
    (8, "tt", "-49/4"): [-15.750000000004647, -13.749999794380479, -9.749999691568739, -3.750001233710229],
    (9, "tt", "-16"): [-20.000000000001155, -17.999999794378958, -13.99999969158226, -8.000001233709433, -7.196656476082808e-06],
    (10, "tt", "-18"): [-20.999999999990877, -16.0000002570223, -9.00000246739448, -9.715385026254353e-06, 10.999973681061839],
}


@pytest.mark.parametrize("n,block,coupling", sorted(PINNED_VALUES))
def test_solve_radial_reproduces_the_pinned_values(n, block, coupling):
    want = PINNED_VALUES[n, block, coupling]
    got = solve_radial(RadialProblem(n, Fraction(coupling), block), len(want))
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-9 * max(abs(w), 1.0), (got, want)


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
