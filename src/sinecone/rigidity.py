"""Infinitesimal-Einstein-deformation finder for sine-cones.

Zeros of the TT block of the cone Einstein operator come only from TT ladders
of the base.  A TT eigenvalue kappa of degree m = harmonic_degree(n, kappa)
contributes the ladder

    degree_eigenvalue(n+1, m + j) = (j + m)(j + m + n),    j = 0, 1, 2, ...

whose roots are -m and -m - n.  Since m >= -(n-1)/2 > -n, a zero exists iff m
is a nonpositive integer, at j = -m; the deformation is bounded iff j = 0
(m = 0, kappa = 0).  The one runtime check is the degree's defining equation
degree_eigenvalue(n, m) == kappa for every rational m (SolverDisagreement).
"""

from __future__ import annotations

from .catalog import ProductMarker, product_geometric_spectrum, product_tt_marker
from .conemaps import degree_eigenvalue, harmonic_degree, require_bounded_below
from .errors import InsufficientBaseCutoff, SolverDisagreement, UnboundedBelow
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
    vanishes: [-m] when m = harmonic_degree(n, kappa) is a nonpositive integer,
    else [].  A rational m is first checked against its defining equation."""
    if not kappa.is_rational():
        return []  # an irrational kappa never has an integral ladder degree
    m = harmonic_degree(n, kappa)
    if m.is_rational() and degree_eigenvalue(n, m) != kappa:
        raise SolverDisagreement(
            f"harmonic degree {m} of kappa={kappa}, n={n} does not solve m(m+n-1) = kappa"
        )
    return [-m.p] if m.is_integer() and sign(m) <= 0 else []


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
