"""Sources of base spectral data: round spheres, product markers, user files.

The scalar sphere spectrum is constructed from first principles (harmonic
polynomial dimensions).  Coclosed 1-form and TT spectra of model spaces are
*not* hardcoded; full spectra come in as geometric-spectrum JSON files
(``--input``).  Pipelines that need the missing parts fail fast with a clear
message.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import InvariantViolation, ParseError
from .exactreal import QuadReal, _floor_scaled, from_rational
from .spectra import (
    GeometricSpectrum,
    Record,
    Spectrum,
    UNKNOWN_CUTOFF,
    _set,
    empty_spectrum,
    geometric_spectrum_from_json,
    merge,
)


class ProductMarker(Record):
    """Einstein product of two factors, dimensions n1 + n2, normalized.

    Carries the single distinguished TT eigenvalue -2(n-1) coming from the
    trace-free combination of the factor metrics.  The factors are taken to
    be strictly stable (an input assertion about them), which certifies that
    line as the unique nonpositive TT eigenvalue and so makes the marker's
    TT spectrum complete up to 0.
    """

    __slots__ = ("n1", "n2")

    def __init__(self, n1: int, n2: int):
        if n1 < 2 or n2 < 2:
            raise InvariantViolation("product factors must each have dimension >= 2")
        _set(self, "n1", n1)
        _set(self, "n2", n2)

    @property
    def n(self) -> int:
        return self.n1 + self.n2


def sphere_multiplicity(n: int, k: int) -> int:
    """dim of degree-k harmonic homogeneous polynomials in n+1 variables."""
    if k < 0:
        return 0
    return math.comb(n + k, k) - (math.comb(n + k - 2, k - 2) if k >= 2 else 0)


def sphere_functions(n: int, cutoff: QuadReal) -> Spectrum:
    """Scalar Laplace spectrum of the unit round n-sphere up to ``cutoff``:
    lines k(k+n-1) with harmonic-polynomial multiplicities.  For c =
    floor(cutoff), k(k+n-1) <= c exactly when 2k + n - 1 <= isqrt((n-1)^2 + 4c)."""
    if n < 2:
        raise InvariantViolation("sphere dimension must be at least 2")
    disc = (n - 1) ** 2 + 4 * _floor_scaled(cutoff, 0)
    top = (math.isqrt(disc) - n + 1) // 2 if disc >= 0 else -1
    return merge([(from_rational(k * (k + n - 1)), sphere_multiplicity(n, k), ("sphere", k, 0))
                  for k in range(top + 1)], cutoff)


def product_tt_marker(marker: ProductMarker) -> tuple[QuadReal, int]:
    """The distinguished TT line -2(n-1), multiplicity 1."""
    return from_rational(-2 * (marker.n - 1)), 1


def product_geometric_spectrum(marker: ProductMarker) -> GeometricSpectrum:
    """Minimal honest GeometricSpectrum of a normalized Einstein product.

    Only the pieces that are actually certain are asserted.  The scalar
    spectrum is {0} complete up to the dimension n: a closed space with this
    normalization has no positive scalar eigenvalue below n, and equality at
    n forces the round sphere, which a product never is.  The coclosed
    1-form spectrum is unknown but vacuously complete below its n-1 bound.
    The factors being strictly stable, the TT marker -2(n-1) is the unique
    nonpositive TT eigenvalue, making the TT spectrum complete up to 0.
    """
    n = marker.n
    value, mult = product_tt_marker(marker)
    return GeometricSpectrum(
        n=n,
        spec0=merge([(from_rational(0), 1, ("const", 0, 0))], from_rational(n)),
        spec1D=empty_spectrum(from_rational(Fraction(2 * n - 3, 2))),
        specE_TT=merge([(value, mult, ("product-tt", 1, 0))], from_rational(0)),
    )


def sphere_geometric_spectrum(n: int, cutoff: QuadReal) -> GeometricSpectrum:
    """GeometricSpectrum of S^n: the scalar part built in up to ``cutoff``,
    the 1-form and TT parts left unknown."""
    return GeometricSpectrum(
        n=n,
        spec0=sphere_functions(n, cutoff),
        spec1D=empty_spectrum(UNKNOWN_CUTOFF),
        specE_TT=empty_spectrum(UNKNOWN_CUTOFF),
    )


def load_geometric_spectrum(path, *, hypothesis_override: bool = False) -> GeometricSpectrum:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be an object")
    return geometric_spectrum_from_json(obj, hypothesis_override=hypothesis_override)

