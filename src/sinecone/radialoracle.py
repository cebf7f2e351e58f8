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
[eps, pi - eps] with natural endpoint handling.  Without the gauge the
natural condition at eps mixes in the other branch, which at the
Hardy-critical coupling c = -(n-1)^2/4 is sin^m log(sin) and costs
O(1/log(1/eps)).  The pencil is a tridiagonal stiffness against a diagonal
mass.  It is solved by spectral-transformation Lanczos: K - sigma*M, positive
definite for the shift sigma below the form's lower bound, is factored once by
LAPACK's tridiagonal LDL^T (dpttrf), and ARPACK finds the largest eigenvalues
mu of the symmetric operator M^(1/2) (K - sigma*M)^(-1) M^(1/2), with pencil
values sigma + 1/mu.  So the wanted low modes come out to good relative
accuracy despite the near-pole weight degeneration.

Floating point lives only here; results feed pass/fail reports, never the
exact machinery.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .conemaps import degree_eigenvalue, hardy_bound, harmonic_degree
from .errors import ConvergenceFailure, IllPosed, InvariantViolation, ParseError, VerificationFailed
from .exactreal import QuadReal

BLOCKS = ("function", "tt")


@dataclass(frozen=True)
class RadialProblem:
    n: int
    coupling: Fraction
    block: str = "function"
    grid_points: int = 4000
    boundary_offset: float = 1e-6

    def __post_init__(self):
        if self.block not in BLOCKS:
            raise InvariantViolation(f"unknown block {self.block!r}")
        least = 3 if self.block == "tt" else 2
        if self.n < least:
            raise InvariantViolation(
                f"the {self.block} block needs base dimension n >= {least}, got {self.n}"
            )
        if self.grid_points < 100:
            raise InvariantViolation("need at least 100 grid points")
        if not 0 < self.boundary_offset < math.pi / (4 * self.grid_points):
            raise InvariantViolation("boundary offset must lie in (0, pi/(4N))")
        hardy = hardy_bound(self.n)
        if self.block == "tt" and self.coupling < hardy:
            raise IllPosed(
                f"coupling {self.coupling} below the Hardy bound {hardy}: the "
                "form is unbounded below (see rayleigh_unbounded_demo)"
            )
        if self.block == "function" and self.coupling < 0:
            raise IllPosed("scalar couplings are nonnegative")


def _assemble(problem: RadialProblem):
    """The stiffness diagonal and off-diagonal and the diagonal mass."""
    # Ground-state gauge phi = sin^m psi: integrating the cross term by parts
    # turns the pencil into
    #     stiffness  integral(psi'^2 sin^k)
    #                + integral(psi^2 [(c - m(m+n-1)) sin^(k-2) + m(m+n) sin^k])
    #     mass       integral(psi^2 sin^k),          k = n + 2m,
    # exactly for any m (m = 0 is the plain form).  With m the indicial root
    # the sin^(k-2) coefficient vanishes and psi is regular at the poles, so
    # the natural condition at eps does not mix in the second branch.
    n = problem.n
    c = float(problem.coupling)
    # larger indicial root (Friedrichs branch); the clamp absorbs roundoff
    half = (n - 1) / 2
    m = -half + math.sqrt(max(half * half + c, 0.0))
    k = n + 2 * m
    N = problem.grid_points
    eps = problem.boundary_offset
    h = (math.pi - 2 * eps) / N
    theta = eps + h * np.arange(N + 1)
    mid = theta[:-1] + h / 2
    s_mid = np.sin(mid) ** k
    s = np.sin(theta)
    w = np.full(N + 1, h)
    w[0] = w[-1] = h / 2
    diag = np.zeros(N + 1)
    diag[:-1] += s_mid / h
    diag[1:] += s_mid / h
    diag += w * ((c - m * (m + n - 1)) * s ** (k - 2) + m * (m + n) * s ** k)
    off = -s_mid / h
    return diag, off, w * s ** k


def solve_radial(problem: RadialProblem, modes: int) -> list[float]:
    """The ``modes`` smallest pencil eigenvalues, ascending."""
    if modes < 1:
        raise InvariantViolation(f"need at least one mode, got {modes}")
    if modes > problem.grid_points:
        raise InvariantViolation(
            f"a grid of {problem.grid_points} points resolves at most "
            f"{problem.grid_points} modes, got {modes}"
        )
    diag, off, mass = _assemble(problem)
    # the discrete Rayleigh quotient is at least m(m+n) >= -n^2/4, so
    # K - sigma*M is positive definite and dpttrf needs no pivoting
    sigma = -(problem.n ** 2 / 4 + abs(min(float(problem.coupling), 0.0)) + 10.0)
    d, e, info = dpttrf(diag - sigma * mass, off)
    if info != 0:
        raise ConvergenceFailure(f"K - sigma*M is not positive definite (dpttrf info {info})")
    r = np.sqrt(mass)
    size = diag.shape[0]
    op = LinearOperator(
        (size, size), matvec=lambda x: r * dpttrs(d, e, r * x.ravel())[0], dtype=float
    )
    try:
        mus = eigsh(
            op, k=modes, which="LA", v0=np.ones(size),
            return_eigenvectors=False, maxiter=5000,
        )
    except (ArpackError, ArpackNoConvergence) as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    return sorted(sigma + 1.0 / float(mu) for mu in mus)


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


def _profile_exponent(n: int) -> float:
    # u^-p (1-u)^(p+1) with p = (n-2)/2: the inner exponent cancels the
    # sin^n weight degeneration exactly, keeping the Rayleigh ratio within a
    # few percent of the sharp bound (n-1)^2/4; bumps with nonnegative inner
    # powers sit at 2(n-1) or above and can never exhibit the blow-down.
    return (n - 2) / 2.0


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
    if n < 3:
        raise InvariantViolation("the demonstrator profile needs n >= 3")
    p = _profile_exponent(n)
    u = np.linspace(0.0, 1.0, 10 ** 4 + 1)
    r = np.sinc(eps * u / math.pi)  # sin(eps u)/(eps u), exact 1 at u = 0
    one_minus = 1.0 - u
    i_stiff = _simpson((p + u) ** 2 * one_minus ** (2 * p) * r ** n, u)
    i_coupling = _simpson(one_minus ** (2 * p + 2) * r ** (n - 2), u)
    i_mass = _simpson(u ** 2 * one_minus ** (2 * p + 2) * r ** n, u)
    return (i_stiff + kappa * i_coupling) / (eps * eps * i_mass)


def rayleigh_unbounded_demo(n: int, kappa: float, epsilons: Sequence[float]) -> list[float]:
    """Quotient sequence on shrinking supports.

    For couplings strictly below -(n-1)^2/4 the sequence decreases without
    bound like a negative constant times eps^-2; at or above the bound no
    blow-down occurs (and for kappa >= 0 every quotient is nonnegative).
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
