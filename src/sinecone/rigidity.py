"""Infinitesimal-Einstein-deformation finder for sine-cones.

Zeros of the TT block of the cone Einstein operator come only from TT ladders
of the base: a TT eigenvalue kappa contributes the ladder
``degree_eigenvalue(n+1, harmonic_degree(n, kappa) + j)``, whose roots are the
degrees 0 and -(n+1)+1 = -n; since harmonic_degree(n, .) >= -(n-1)/2 > -n,
the only reachable root is degree 0.  Hence a zero exists iff
harmonic_degree(n, kappa) is a nonpositive integer -j, and the resulting
deformation is bounded iff kappa = 0 (j = 0).

Two independent detections are run and asserted equal at runtime: the
degree-integrality test above, and the exact integer solution set of

    (2j + 1) m = -kappa - j (j + n),        m = harmonic_degree(n, kappa),

which is the same vanishing condition rewritten as a quadratic in j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .catalog import ProductMarker, product_geometric_spectrum, product_tt_marker
from .conemaps import degree_eigenvalue, hardy_bound, harmonic_degree, require_bounded_below
from .errors import InsufficientBaseCutoff, InvariantViolation, SolverDisagreement
from .exactreal import QuadReal, compare, from_rational, sign
from .spectra import GeometricSpectrum


@dataclass(frozen=True)
class IEDCertificate:
    """A witnessed zero of the cone's TT block.

    ``kappa`` is the source TT eigenvalue on the base, ``j`` the ladder index
    at which the cone eigenvalue vanishes, ``bounded`` whether the deformation
    profile stays bounded at the cone points (true exactly for kappa = 0),
    ``multiplicity`` the dimension of the deformation space from this line.
    """

    kappa: QuadReal
    j: int
    bounded: bool
    multiplicity: int

    def to_json(self) -> dict:
        return {
            "kappa": self.kappa.to_json(),
            "j": self.j,
            "bounded": self.bounded,
            "multiplicity": self.multiplicity,
        }


def _sqrt_exact(x: Fraction) -> Optional[Fraction]:
    """Rational square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    rn = isqrt(x.numerator)
    rd = isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def solve_zero_equation(n: int, kappa: QuadReal) -> list[int]:
    """Exact nonnegative-integer solution set of the ladder-zero equation.

    With m = harmonic_degree(n, kappa):  (2j+1) m = -kappa - j(j+n).  If m is
    irrational the left side is irrational for every integer j while the
    right side is rational, so there is no solution.  Otherwise solve the
    quadratic j^2 + (n + 2m) j + (m + kappa) = 0 exactly and keep integer
    roots >= 0.
    """
    if not kappa.is_rational():
        return []  # an irrational kappa never has an integral ladder degree
    kv = kappa.as_fraction()
    m = harmonic_degree(n, kv)
    if not m.is_rational():
        return []
    mv = m.as_fraction()
    b = n + 2 * mv
    c = mv + kv
    disc = b * b - 4 * c
    root = _sqrt_exact(disc)
    if root is None:
        return []
    out = []
    for r in {(-b + root) / 2, (-b - root) / 2}:
        if r.denominator == 1 and r >= 0:
            out.append(int(r))
    return sorted(out)


def _detect_zero_by_degree(n: int, kappa: QuadReal) -> Optional[int]:
    """Degree-integrality detection: j = -harmonic_degree(n, kappa) if that
    is a nonnegative integer, else None."""
    if not kappa.is_rational():
        return None
    m = harmonic_degree(n, kappa.as_fraction())
    if not m.is_integer():
        return None
    mv = m.as_fraction()
    if mv > 0:
        return None
    return int(-mv)


def find_ieds(gs: GeometricSpectrum) -> list[IEDCertificate]:
    """All certified zeros of the cone TT block generated by the base TT
    spectrum, with both detection routes asserted to agree.  The zeros come
    only from TT lines in [-(n-1)^2/4, 0], so the TT spectrum must be
    declared complete up to 0."""
    n = gs.n
    require_bounded_below(gs)
    if sign(gs.specE_TT.cutoff) < 0:
        raise InsufficientBaseCutoff(
            f"TT spectrum is complete only up to {gs.specE_TT.cutoff} but the "
            "zero modes of the cone TT block need completeness up to 0; "
            "refusing to report none"
        )
    certs = []
    for line in gs.specE_TT.lines:
        j_direct = _detect_zero_by_degree(n, line.value)
        j_eq = solve_zero_equation(n, line.value)
        if (set() if j_direct is None else {j_direct}) != set(j_eq):
            raise SolverDisagreement(
                f"degree-integrality found {j_direct} but the quadratic "
                f"solver found {j_eq} for kappa={line.value}, n={n}"
            )
        if j_direct is None:
            continue
        value = degree_eigenvalue(n + 1, harmonic_degree(n, line.value) + j_direct)
        if sign(value) != 0:
            raise InvariantViolation(
                f"certificate for kappa={line.value}, j={j_direct} does not vanish: {value}"
            )
        certs.append(
            IEDCertificate(
                kappa=line.value,
                j=j_direct,
                bounded=sign(line.value) == 0,
                multiplicity=line.multiplicity,
            )
        )
    return certs


@dataclass(frozen=True)
class ProductScanRow:
    n: int
    kappa: QuadReal
    unbounded_below: bool
    certificates: tuple[IEDCertificate, ...]

    @property
    def has_ied(self) -> bool:
        """Whether the scan certified a zero mode of the cone TT block."""
        return bool(self.certificates)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "kappa": self.kappa.to_json(),
            "unbounded_below": self.unbounded_below,
            "has_ied": self.has_ied,
            "certificates": [c.to_json() for c in self.certificates],
        }


def product_rigidity_scan(n_min: int, n_max: int) -> list[ProductScanRow]:
    """Classify the sine-cones of normalized Einstein products with strictly
    linearly stable factors, for every total dimension in [n_min, n_max].

    The distinguished TT line is -2(n-1); below total dimension 9 it lies
    under the Hardy bound and the cone operator is unbounded below, so those
    rows carry no zero-mode classification.
    """
    if not 4 <= n_min <= n_max:
        raise ValueError("scan range must satisfy 4 <= n_min <= n_max")
    rows = []
    for n in range(n_min, n_max + 1):
        marker = ProductMarker(2, n - 2)
        kappa, _ = product_tt_marker(marker)
        if compare(kappa, from_rational(hardy_bound(n))) < 0:
            rows.append(ProductScanRow(n, kappa, True, ()))
            continue
        gs = product_geometric_spectrum(marker)
        rows.append(ProductScanRow(n, kappa, False, tuple(find_ieds(gs))))
    return rows
