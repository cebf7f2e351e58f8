"""Independent numerical verification of the separated radial problems.

The cone eigenvalue ladders are, fiber by fiber, the spectra of the singular
Sturm-Liouville pencil on (0, pi)

    stiffness  integral(phi'^2 sin^n)  +  c * integral(phi^2 sin^(n-2))
    mass       integral(phi^2 sin^n)

with coupling c equal to the base eigenvalue feeding the fiber.  Near each
pole the solutions behave like sin^m or sin^(-(n-1)-m), where m is the larger
indicial root -(n-1)/2 + sqrt((n-1)^2/4 + c); the Friedrichs extension keeps
the sin^m branch.  This module writes phi = sin^m psi (the ground-state
gauge), in which that branch is the regular one, and discretizes the gauged
form by second-order finite differences on a uniform grid over
[theta0, pi - theta0] with natural endpoint handling, theta0 the offset eps
unless the weight underflows there (:func:`grid_start`).  Without the gauge the
natural condition at eps mixes in the other branch, which at the
Hardy-critical coupling c = -(n-1)^2/4 is sin^m log(sin) and costs
O(1/log(1/eps)).  In the gauge the pencil is a tridiagonal stiffness K against
a diagonal mass M plus the constant m(m+n).  It is solved by
spectral-transformation Lanczos: K + M, positive definite as K is positive
semidefinite, is factored once by LAPACK's tridiagonal LDL^T (dpttrf), and
ARPACK finds the largest eigenvalues mu of the symmetric operator
M^(1/2) (K + M)^(-1) M^(1/2), with pencil values m(m+n) + (1/mu - 1).  No
coefficient of order n^2 enters the matrices, so the wanted low modes come out
to good relative accuracy despite the near-pole weight degeneration.  ARPACK
starts from M^(1/2) exp(cos theta), smooth and with a component along every
degree in cos theta, in a basis of 2 * modes + 4 vectors, and stops at a
relative tolerance of 1e-12, far below the grid's error of about 1e-6 (its
defaults, 20 vectors and machine precision, buy nothing a report reads): four
modes take 13 to 15 applications of (K + M)^(-1), 21 at the defaults; a start
of ones, psi = M^(-1/2), blows up at both poles: 24-30.

Floating point lives only here; results feed pass/fail reports, never the
exact machinery.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .conemaps import degree_eigenvalue, hardy_bound, harmonic_degree
from .errors import ConvergenceFailure, IllPosed, InvariantViolation, ParseError, VerificationFailed
from .exactreal import QuadReal
from .spectra import Record, _set

BLOCKS = ("function", "tt")


class RadialProblem(Record):
    __slots__ = ("n", "coupling", "block", "grid_points", "boundary_offset")

    def __init__(self, n: int, coupling: Fraction, block: str = "function",
                 grid_points: int = 4000, boundary_offset: float = 1e-6):
        if block not in BLOCKS:
            raise InvariantViolation(f"unknown block {block!r}")
        least = 3 if block == "tt" else 2
        if n < least:
            raise InvariantViolation(f"the {block} block needs base dimension n >= {least}, got {n}")
        if n > 10 ** 150:  # the pencil's coefficients, of order n^2, stay within the float range
            raise InvariantViolation(f"the radial pencil needs base dimension n <= 10**150, got {n}")
        if grid_points < 100:
            raise InvariantViolation("need at least 100 grid points")
        if grid_points > 10 ** 6:  # each point costs about 270 bytes
            raise InvariantViolation(f"need at most 10**6 grid points, got {grid_points}")
        if not 0 < boundary_offset < math.pi / (4 * grid_points):
            raise InvariantViolation("boundary offset must lie in (0, pi/(4N))")
        hardy = hardy_bound(n)
        if block == "tt" and coupling < hardy:
            raise IllPosed(
                f"coupling {coupling} below the Hardy bound {hardy}: the "
                "form is unbounded below (see rayleigh_unbounded_demo)"
            )
        if block == "function" and coupling < 0:
            raise IllPosed("scalar couplings are nonnegative")
        _set(self, "n", n)
        _set(self, "coupling", coupling)
        _set(self, "block", block)
        _set(self, "grid_points", grid_points)
        _set(self, "boundary_offset", boundary_offset)


def _exponents(problem: RadialProblem) -> tuple[float, float]:
    """(m, k): the coupling's larger indicial root m = c / ((n-1)/2 + root),
    root = sqrt((n-1)^2/4 + c) (the Friedrichs branch), and the gauged
    weight's k = n + 2m = 1 + 2 root.  The radicand is summed exactly and the
    root is not subtracted from (n-1)/2, so neither cancels at large n."""
    root = math.sqrt(Fraction(problem.n - 1, 2) ** 2 + problem.coupling)
    return float(problem.coupling) / ((problem.n - 1) / 2 + root), 1 + 2 * root


def grid_start(problem: RadialProblem) -> float:
    """The first grid point theta0 = max(eps, asin(10**(-250/k))): the weight
    sin^k stays above 10**-250 on [theta0, pi - theta0], never 0 in floats."""
    k = _exponents(problem)[1]
    theta0 = max(problem.boundary_offset, math.asin(10.0 ** (-250 / k)))
    if theta0 >= math.pi / 2:  # 10**(-250/k) rounds to 1
        raise ConvergenceFailure(f"the weight sin^{k:.6g} is below 10**-250 off the equator")
    return theta0


def _assemble(problem: RadialProblem):
    """The gauged stiffness diagonal and off-diagonal, the diagonal mass, the grid."""
    # Ground-state gauge phi = sin^m psi: integrating the cross term by parts
    # turns the pencil into
    #     stiffness  integral(psi'^2 sin^k)
    #                + integral(psi^2 [(c - m(m+n-1)) sin^(k-2) + m(m+n) sin^k])
    #     mass       integral(psi^2 sin^k),          k = n + 2m,
    # exactly for any m (m = 0 is the plain form).  With m the indicial root
    # the sin^(k-2) coefficient vanishes and psi is regular at the poles, so
    # the natural condition at eps does not mix in the second branch; what is
    # left is integral(psi'^2 sin^k) against the mass, shifted by m(m+n).
    k = _exponents(problem)[1]
    N = problem.grid_points
    theta0 = grid_start(problem)
    h = (math.pi - 2 * theta0) / N
    theta = theta0 + h * np.arange(N + 1)
    mid = theta[:-1] + h / 2
    s_mid = np.sin(mid) ** k
    w = np.full(N + 1, h)
    w[0] = w[-1] = h / 2
    diag = np.zeros(N + 1)
    diag[:-1] += s_mid / h
    diag[1:] += s_mid / h
    off = -s_mid / h
    return diag, off, w * np.sin(theta) ** k, theta


def solve_radial(problem: RadialProblem, modes: int) -> list[float]:
    """The ``modes`` smallest pencil eigenvalues, ascending."""
    if modes < 1:
        raise InvariantViolation(f"need at least one mode, got {modes}")
    if modes > problem.grid_points:
        raise InvariantViolation(
            f"a grid of {problem.grid_points} points resolves at most "
            f"{problem.grid_points} modes, got {modes}"
        )
    # scipy loads here, so the Rayleigh demonstrator runs on numpy alone
    from scipy.linalg.lapack import dpttrf, dpttrs
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

    diag, off, mass, theta = _assemble(problem)
    # the gauged stiffness K is positive semidefinite, so K + shift*M is
    # positive definite and dpttrf needs no pivoting; a shift of 1 keeps
    # 1/mu - shift from cancelling the low modes
    shift = 1.0
    d, e, info = dpttrf(diag + shift * mass, off)
    if info != 0:
        raise ConvergenceFailure(f"K + M is not positive definite (dpttrf info {info})")
    r = np.sqrt(mass)
    size = diag.shape[0]
    op = LinearOperator(
        (size, size), matvec=lambda x: r * dpttrs(d, e, r * x.ravel())[0], dtype=float
    )
    try:
        mus = eigsh(
            op, k=modes, which="LA", v0=r * np.exp(np.cos(theta)),
            ncv=min(size, 2 * modes + 4), tol=1e-12, return_eigenvectors=False, maxiter=5000,
        )
    except (ArpackError, ArpackNoConvergence) as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    # m(m+n) = c + m, as m solves m(m+n-1) = c
    lower = float(problem.coupling) + _exponents(problem)[0]
    return sorted(lower + (1.0 / float(mu) - shift) for mu in mus)


def closed_form_values(n: int, coupling: Fraction, modes: int) -> list[QuadReal]:
    """Exact ladder values degree_eigenvalue(n+1, harmonic_degree(n, c) + j)."""
    degree = harmonic_degree(n, coupling)
    return [degree_eigenvalue(n + 1, degree + j) for j in range(modes)]


def verify_line(
    n: int,
    block: str,
    coupling: Fraction,
    modes: int = 4,
    tol: float = 1e-3,
    grid_points: int = 4000,
    boundary_offset: float = 1e-6,
) -> dict:
    """Compare the lowest ``modes`` numerical eigenvalues against the exact
    ladder ``closed_form_values``; relative error below ``tol`` per mode
    (absolute when the target vanishes)."""
    problem = RadialProblem(n, Fraction(coupling), block, grid_points, boundary_offset)
    computed = solve_radial(problem, modes)
    targets = [float(t) for t in closed_form_values(n, Fraction(coupling), modes)]
    rows = []
    worst = (0.0, None)
    for j, (got, want) in enumerate(zip(computed, targets)):
        err = abs(got - want) if want == 0 else abs(got - want) / abs(want)
        rows.append({"j": j, "target": want, "computed": got, "rel_error": err})
        if err > worst[0]:
            worst = (err, j)
    report = {
        "n": n,
        "block": block,
        "coupling": str(Fraction(coupling)),
        "N": grid_points,
        "eps": boundary_offset,
        "theta0": grid_start(problem),
        "tol": tol,
        "modes": rows,
        "passed": worst[0] <= tol,
    }
    if not report["passed"]:
        raise VerificationFailed(
            f"mode {worst[1]} off by {worst[0]:.3e} (tol {tol:.1e}); "
            f"report: {json.dumps(report)}"
        )
    return report


def _profile_exponent(n: int) -> Fraction:
    # u^-p (1-u)^(p+1) with p = (n-2)/2: the inner exponent cancels the
    # sin^n weight degeneration exactly, keeping the Rayleigh ratio within a
    # few percent of the sharp bound (n-1)^2/4; bumps with nonnegative inner
    # powers sit at 2(n-1) or above and can never exhibit the blow-down.
    if n < 3:
        raise InvariantViolation("the demonstrator profile needs n >= 3")
    return Fraction(n - 2, 2)


def rayleigh_blowdown_bound(n: int) -> Fraction:
    """-S/C, exact: the demonstrator's profile blows down, eps^2 times its
    quotient tending to (S + kappa C)/M < 0, only for a coupling kappa
    below it.  With p = (n-2)/2 the Beta integrals are rational:

        S = I[(p+u)^2 (1-u)^(2p)] = (p+1)^2/(2p+1) - 1 + 1/(2p+3)
        C = I[(1-u)^(2p+2)]       = 1/(2p+3)

    so -S/C = n - n^2 (n+1) / (4 (n-1)), which lies (n+1)/(4(n-1)) below
    the Hardy bound -(n-1)^2/4."""
    p = _profile_exponent(n)
    return -((p + 1) ** 2 / (2 * p + 1) - 1 + 1 / (2 * p + 3)) * (2 * p + 3)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    h = x[1] - x[0]
    return float(h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-2:2].sum()))


def rayleigh_quotient(n: int, kappa: float, eps: float) -> float:
    """Quadratic-form Rayleigh quotient of the rescaled profile supported on
    (0, eps); composite Simpson quadrature on 10^4 intervals.

    With the profile psi(u) = u^-p (1-u)^(p+1), p = (n-2)/2, the singular
    u-powers cancel against the sin-weights exactly, leaving bounded
    integrands (psi' = -u^(-p-1) (1-u)^p (p+u)):

        stiffness = eps^(n-1) * I[(p+u)^2 (1-u)^(2p) r(u)^n]
        coupling  = eps^(n-1) * I[(1-u)^(2p+2) r(u)^(n-2)]
        mass      = eps^(n+1) * I[u^2 (1-u)^(2p+2) r(u)^n]

    where r(u) = sin(eps u)/(eps u), so the quotient scales exactly like
    eps^-2 up to the r-corrections.
    """
    p = float(_profile_exponent(n))
    u = np.linspace(0.0, 1.0, 10 ** 4 + 1)
    r = np.sinc(eps * u / math.pi)  # sin(eps u)/(eps u), exact 1 at u = 0
    one_minus = 1.0 - u
    i_stiff = _simpson((p + u) ** 2 * one_minus ** (2 * p) * r ** n, u)
    i_coupling = _simpson(one_minus ** (2 * p + 2) * r ** (n - 2), u)
    i_mass = _simpson(u ** 2 * one_minus ** (2 * p + 2) * r ** n, u)
    with np.errstate(all="ignore"):  # an eps^2 that underflows to 0 gives inf or nan, not an error
        return float((i_stiff + kappa * i_coupling) / np.float64(eps * eps * i_mass))


def rayleigh_unbounded_demo(n: int, kappa: float, epsilons: Sequence[float]) -> list[float]:
    """Quotient sequence on shrinking supports.

    For couplings strictly below :func:`rayleigh_blowdown_bound` the
    sequence decreases without bound like a negative constant times eps^-2;
    at or above it no blow-down occurs, also in the gap up to the Hardy
    bound -(n-1)^2/4 (and for kappa >= 0 every quotient is nonnegative).
    """
    return [rayleigh_quotient(n, kappa, e) for e in epsilons]


def quotients_to_csv(path, epsilons: Sequence[float], quotients: Sequence[float]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("eps,quotient,eps2_quotient\n")
            for e, q in zip(epsilons, quotients):
                fh.write(f"{e},{q},{e * e * q}\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
