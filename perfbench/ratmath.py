"""Exact rational helpers shared by the input generators and the oracles.

Nothing here imports ``sinecone``: the oracles must reach their answers by a
route of their own, with ``fractions.Fraction`` and integer square roots.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt


def rational_sqrt(x: Fraction) -> Fraction | None:
    """The rational square root of ``x``, or None when it is irrational."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_bounds(x: Fraction, digits: int = 12) -> tuple[Fraction, Fraction]:
    """Rational ``lo <= sqrt(x) <= hi`` with ``hi - lo <= 10**-digits``."""
    scale = 10 ** digits
    # floor(sqrt(x) * scale) = isqrt(floor(x * scale^2))
    lo_int = isqrt((x.numerator * scale * scale) // x.denominator)
    return Fraction(lo_int, scale), Fraction(lo_int + 1, scale)


def hardy(n: int) -> Fraction:
    """-(n-1)^2/4: the sharp lower bound of the radial quadratic form."""
    return Fraction(-((n - 1) ** 2), 4)


def line_value(n: int, y: Fraction) -> Fraction:
    """The base eigenvalue whose degree on an n-dimensional base is ``y``."""
    return y * (y + n - 1)


def rational_degree(n: int, x: Fraction) -> Fraction | None:
    """-(n-1)/2 + sqrt((n-1)^2/4 + x) when that is rational, else None."""
    root = rational_sqrt(Fraction((n - 1) ** 2, 4) + x)
    return None if root is None else Fraction(-(n - 1), 2) + root


def harmonic_dim(n: int, k: int) -> int:
    """Dimension of the degree-k harmonic polynomials in n+1 variables,
    (2k+n-1) (k+n-2)! / (k! (n-1)!): the multiplicity of k(k+n-1) on S^n."""
    return (2 * k + n - 1) * factorial(k + n - 2) // (factorial(k) * factorial(n - 1))


def sphere_lines(n: int, cutoff: Fraction) -> list[tuple[Fraction, int]]:
    """The scalar spectrum of the round S^n up to ``cutoff``."""
    out = []
    k = 0
    while k * (k + n - 1) <= cutoff:
        out.append((Fraction(k * (k + n - 1)), harmonic_dim(n, k)))
        k += 1
    return out


def rungs_below(n: int, y: Fraction, shift: int, cutoff: Fraction) -> int:
    """Number of j >= 0 with (y+j)(y+j+n) - shift <= cutoff, for rational
    y >= -n/2 (the ladder of degree y, one dimension up)."""
    x = cutoff + shift
    disc = Fraction(n * n, 4) + x
    if disc < 0:
        return 0

    def fits(j: int) -> bool:
        t = y + j
        return t * (t + n) <= x

    # estimate y + j <= -n/2 + sqrt(disc), then settle it by exact tests
    j = max(int((Fraction(-n, 2) + sqrt_bounds(disc, 6)[0] - y) // 1), -1)
    while fits(j + 1):
        j += 1
    while j >= 0 and not fits(j):
        j -= 1
    return j + 1


def sign_quadratic(a: Fraction, b: Fraction, s: int) -> int:
    """Exact sign of a + b*sqrt(s) for integer s >= 0."""
    if b == 0 or s == 0:
        v = a
    else:
        root = isqrt(s)
        if root * root == s:
            v = a + b * root
        elif a >= 0 and b >= 0:
            return 0 if a == 0 and b == 0 else 1
        elif a <= 0 and b <= 0:
            return -1
        else:
            d = a * a - b * b * s  # |a| against |b| sqrt(s)
            return (1 if a > 0 else -1) if d > 0 else (1 if b > 0 else -1)
    return (v > 0) - (v < 0)
