"""Infinitesimal-Einstein-deformation finder for sine-cones.

Zeros of the TT block of the cone Einstein operator come only from TT ladders
of the base.  A TT eigenvalue kappa of a dim-n base is the source of a zero
mode exactly when kappa = -j(n-1-j) for an integer 0 <= j <= (n-1)/2, that
is, when (n-1)^2 + 4 kappa is the square of n-1-2j; the cone ladder of kappa
then vanishes at index j, and the deformation is bounded iff j = 0 (kappa =
0).  One integer square root decides it; no radicand is factored.
"""

from __future__ import annotations

from math import isqrt

from .catalog import ProductMarker, product_geometric_spectrum, product_tt_marker
from .conemaps import hardy_bound, require_bounded_below
from .errors import BelowHardyBound, InsufficientBaseCutoff, UnboundedBelow
from .exactreal import QuadReal, sign
from .spectra import GeometricSpectrum, Record


class IEDCertificate(Record):
    """A witnessed zero of the cone's TT block.

    ``kappa`` is the source TT eigenvalue on the base, ``j`` the ladder index
    at which the cone eigenvalue vanishes, ``bounded`` whether the deformation
    profile stays bounded at the cone points (true exactly for kappa = 0),
    ``multiplicity`` the dimension of the deformation space from this line.
    """

    __slots__ = ("kappa", "j", "bounded", "multiplicity")

    def to_json(self) -> dict:
        return {
            "kappa": self.kappa.to_json(),
            "j": self.j,
            "bounded": self.bounded,
            "multiplicity": self.multiplicity,
        }


def solve_zero_equation(n: int, kappa: QuadReal) -> list[int]:
    """Ladder indices where the cone TT ladder of the base eigenvalue kappa
    vanishes: [j] when (n-1)^2 + 4 kappa is the square of an r <= n-1, with
    j = (n-1-r)/2 exact since r has the parity of n-1; else []."""
    if kappa.q != 0 or kappa.d != 1:
        return []  # an integral degree m gives the integer kappa = m(m+n-1)
    radicand = (n - 1) ** 2 + 4 * kappa.p
    if radicand < 0:
        raise BelowHardyBound(f"eigenvalue {kappa} lies below -(n-1)^2/4 = {hardy_bound(n)}")
    r = isqrt(radicand)
    return [(n - 1 - r) // 2] if r * r == radicand and r <= n - 1 else []


def find_ieds(gs: GeometricSpectrum) -> list[IEDCertificate]:
    """All certified zeros of the cone TT block generated by the base TT
    spectrum.  The zeros come only from TT lines in [-(n-1)^2/4, 0], so the
    TT spectrum must be declared complete up to 0."""
    require_bounded_below(gs)
    if sign(gs.specE_TT.cutoff) < 0:
        raise InsufficientBaseCutoff(
            f"TT spectrum is complete only up to {gs.specE_TT.cutoff} but the "
            "zero modes of the cone TT block need completeness up to 0; "
            "refusing to report none"
        )
    return [
        IEDCertificate(kappa=line.value, j=j, bounded=(j == 0), multiplicity=line.multiplicity)
        for line in gs.specE_TT.lines
        for j in solve_zero_equation(gs.n, line.value)
    ]


class ProductScanRow(Record):
    __slots__ = ("n", "kappa", "unbounded_below", "certificates")

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
    rows = []
    for n in range(n_min, n_max + 1):
        marker = ProductMarker(2, n - 2)
        kappa, _ = product_tt_marker(marker)
        try:
            certs = tuple(find_ieds(product_geometric_spectrum(marker)))
        except UnboundedBelow:
            certs = None
        rows.append(ProductScanRow(n, kappa, certs is None, certs or ()))
    return rows
