import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg.lapack

from sinecone import radialoracle
from sinecone.errors import ConvergenceFailure, IllPosed, InvariantViolation, VerificationFailed
from sinecone.radialoracle import (
    RadialProblem,
    closed_form_values,
    grid_start,
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


@pytest.mark.parametrize(
    "n, block, coupling, theta0",
    [
        (3, "function", 3, 1e-6),  # k = 5: sin^k at eps is 1e-30
        (100, "tt", -2400, 1e-6),  # m = -49.5 + sqrt(50.25), k = 1 + 2 sqrt(50.25)
        (100, "function", 3, None),
        (10 ** 5, "function", 3, None),
    ],
)
def test_grid_start_keeps_the_weight_above_1e_minus_250(n, block, coupling, theta0):
    problem = RadialProblem(n, Fraction(coupling), block)
    start = grid_start(problem)
    half = (n - 1) / 2
    k = n + 2 * (math.sqrt(half * half + coupling) - half)
    if theta0 is not None:
        assert start == theta0
    else:
        assert start > problem.boundary_offset
        assert k * math.log10(math.sin(start)) == pytest.approx(-250)


def test_a_weight_below_1e_minus_250_everywhere_is_a_convergence_failure():
    # 10**(-250/k) rounds to 1: the grid [theta0, pi - theta0] is empty
    with pytest.raises(ConvergenceFailure, match=r"sin\^1e\+20 is below 10\*\*-250 off the equator"):
        solve_radial(RadialProblem(10 ** 20, Fraction(3)), 1)


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


def _coupling(n, block, above):
    return (Fraction(-((n - 1) ** 2), 4) if block == "tt" else 0) + above


@pytest.mark.parametrize("n,c,modes", [
    (9, -16, 5), (5, -4, 3), (9, -15, 5),
    (10 ** 7, _coupling(10 ** 7, "tt", 3), 4), (10 ** 9, _coupling(10 ** 9, "tt", 0), 4),
    (10 ** 9, _coupling(10 ** 9, "tt", 3), 4),
])
def test_verify_line_tt_couplings(n, c, modes):
    # Hardy-critical couplings (9, -16) and (5, -4), and one just above (9, -15);
    # at 10**9 m(m+n) - 1 rounds to m(m+n), so no shift of a matrix holding
    # m(m+n) M can stay one below the form's bound
    report = verify_line(n, "tt", Fraction(c), modes=modes, tol=1e-3)
    assert report["passed"]


@pytest.mark.parametrize("n, block, above", [(10 ** 9, "function", 3), (10 ** 9, "tt", 3)])
def test_exponents_keep_the_indicial_root_at_a_large_dimension(n, block, above):
    # m = -(n-1)/2 + sqrt((n-1)^2/4 + c) cancels in floats twice: the radicand
    # near the Hardy bound (n^2/4 + c rounds to n^2/4), and the subtraction for
    # small c (m rounds to 0.0 from about n = 3*10**8 on)
    coupling = _coupling(n, block, above)
    m, k = radialoracle._exponents(RadialProblem(n, coupling, block))
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        half = decimal.Decimal(n - 1) / 2
        root = (half * half + decimal.Decimal(coupling.numerator) / coupling.denominator).sqrt()
        assert m == pytest.approx(float(root - half), rel=1e-12)
        assert k == pytest.approx(float(1 + 2 * root), rel=1e-12)


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


@pytest.mark.parametrize("grid", [100, 400])
@pytest.mark.parametrize("modes", [1, 4, 10, 25])
@pytest.mark.parametrize(
    "n,block,coupling",
    [(3, "function", "8"), (6, "function", "5/2"), (6, "tt", "2"),
     (5, "tt", "-4"), (9, "tt", "-16")],
    ids=["function-3", "function-6", "tt-6", "tt-5-hardy", "tt-9-hardy"],
)
def test_solve_radial_skips_no_mode(grid, modes, n, block, coupling):
    # the lowest values of the dense operator M^(1/2) (K + M)^(-1) M^(1/2) on
    # the same grid: a start vector without a component along some mode (the
    # grid is symmetric about the equator, so an even start lacks every odd
    # mode) would let the eigensolve return a higher one in its place
    problem = RadialProblem(n, Fraction(coupling), block, grid_points=grid)
    diag, off, mass, _ = radialoracle._assemble(problem)
    r = np.sqrt(mass)
    pencil = np.diag(diag + mass) + np.diag(off, 1) + np.diag(off, -1)
    mus = np.linalg.eigvalsh(r[:, None] * np.linalg.inv(pencil) * r[None, :])[::-1][:modes]
    lower = float(problem.coupling) + radialoracle._exponents(problem)[0]
    want = [lower + (1.0 / mu - 1.0) for mu in mus]
    got = solve_radial(problem, modes)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-10 * max(abs(w), 1.0), (got, want)


def test_solve_radial_starts_near_the_wanted_modes(monkeypatch):
    # each Lanczos step applies (K + M)^(-1) once, by dpttrs; a start vector
    # rich in the smooth low modes, in a basis of 2 * modes + 4 vectors run to
    # a tolerance of 1e-12, needs 13 to 15 on every pinned line, where the
    # start without the sqrt(mass) weight needs 19 to 25 and np.ones
    # (psi = M^(-1/2), singular at both poles) 24 to 30
    solves = []
    factor = scipy.linalg.lapack.dpttrs

    def counted(*args, **kwargs):
        solves[-1] += 1
        return factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpttrs", counted)
    counts = {}
    for (n, block, coupling), want in sorted(PINNED_VALUES.items()):
        solves.append(0)
        solve_radial(RadialProblem(n, Fraction(coupling), block), len(want))
        counts[n, block, coupling] = solves[-1]
    # at least one application per mode: the count sees the solves
    assert all(len(PINNED_VALUES[key]) < c <= 18 for key, c in counts.items()), counts


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


@pytest.mark.parametrize("n, bound", [(3, Fraction(-3, 2)), (8, Fraction(-88, 7)),
                                      (9, Fraction(-261, 16)), (12, Fraction(-336, 11))])
def test_rayleigh_blowdown_bound_values(n, bound):
    # -(n+1)(n-2)^2/(4(n-1)) - 1, a closed form of -S/C
    assert radialoracle.rayleigh_blowdown_bound(n) == bound
    assert bound == Fraction(-(n + 1) * (n - 2) ** 2, 4 * (n - 1)) - 1


@pytest.mark.parametrize("n", range(3, 13))
def test_rayleigh_blowdown_bound_matches_the_quadrature(n):
    # S = I[(p+u)^2 (1-u)^(2p)] and C = I[(1-u)^(2p+2)] by the demonstrator's
    # Simpson rule, with p = (n-2)/2 written out here
    import numpy as np

    p = (n - 2) / 2
    u = np.linspace(0.0, 1.0, 10 ** 4 + 1)
    s = radialoracle._simpson((p + u) ** 2 * (1 - u) ** (2 * p), u)
    c = radialoracle._simpson((1 - u) ** (2 * p + 2), u)
    assert float(radialoracle.rayleigh_blowdown_bound(n)) == pytest.approx(-s / c, rel=1e-10)
    assert radialoracle.rayleigh_blowdown_bound(n) < Fraction(-((n - 1) ** 2), 4)


@pytest.mark.parametrize("n", [3, 9])
def test_rayleigh_demo_does_not_blow_down_above_the_bound(n):
    # halfway between -S/C and the Hardy bound eps^2 q stays positive
    kappa = (radialoracle.rayleigh_blowdown_bound(n) + Fraction(-((n - 1) ** 2), 4)) / 2
    eps = [0.1, 0.01, 0.001]
    assert all(e * e * v > 0 for e, v in zip(eps, rayleigh_unbounded_demo(n, float(kappa), eps)))


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
