"""Exact operator algebra on bivariate Laurent polynomials in (r, z).

This is the mechanical verifier for the two-variable identities that drive
the cone spectral transforms: the commutators of the rotation field
V = r dz - z dr with the weighted flat Laplacian

    L_n = -d^2/dz^2 - d^2/dr^2 - n r^-1 d/dr,

the harmonic ladder spaces, built from their two-term recurrence, and their
direct-sum decomposition, and the three coupled first-order systems whose
closure makes the 1-form and tensor ladders work.  Everything is exact: a
coefficient is a Python int, or a Fraction handed in from outside, stored as
an int again once its denominator is 1.  No float is ever accepted.  The
coupled systems run on their unknowns scaled by their denominators, so every
polynomial they build has int coefficients.  A verification passes only when
the residual is the zero polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .errors import (
    DecompositionFailed,
    IdentityFailed,
    InvariantViolation,
)

#: A coefficient: an int, or a Fraction whose denominator is not 1.
Coeff = int | Fraction
#: Terms map (r-exponent, z-exponent) -> nonzero coefficient.
Terms = dict[tuple[int, int], Coeff]


def _exact(c: Coeff) -> Coeff:
    """An integral Fraction as the int it is; any other coefficient unchanged."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _coeff(c) -> Coeff:
    """Validate a coefficient from outside: a float would be silently rounded
    to a binary rational, so it is refused."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise InvariantViolation(f"Laurent coefficients must be exact, got the float {c!r}")
    return _exact(Fraction(c))


def _nonzero(out: Terms) -> "LaurentPoly2":
    """The polynomial of merged terms, zeros dropped."""
    return _poly({key: _exact(c) for key, c in out.items() if c})


def _exponent(e) -> int:
    """Validate an exponent from outside: int(1.5) or int(True) would name another monomial."""
    if type(e) is not int:
        raise InvariantViolation(f"Laurent exponents must be int, got {e!r}")
    return e


class LaurentPoly2:
    """Sparse Laurent polynomial in r (integer exponents) and z (nonnegative
    exponents) over the rationals.  It holds one dict from (p, q) to a nonzero
    coefficient and cannot be changed; ``terms`` is that dict as a tuple sorted
    by exponent, built when read.  Build one with from_terms, monomial or zero."""

    __slots__ = ("_d",)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"LaurentPoly2 is immutable: cannot change {name}")

    __delattr__ = __setattr__

    @property
    def terms(self) -> tuple[tuple[tuple[int, int], Coeff], ...]:
        return tuple(sorted(self._d.items()))

    @staticmethod
    def from_terms(terms: Mapping[tuple[int, int], Coeff] | Iterable) -> "LaurentPoly2":
        cleaned: Terms = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (p, q), c in items:
            key = (_exponent(p), _exponent(q))
            if q < 0:
                raise InvariantViolation("z-exponents must stay nonnegative")
            cleaned[key] = cleaned.get(key, 0) + _coeff(c)
        return _nonzero(cleaned)

    @staticmethod
    def monomial(p: int, q: int, coeff=1) -> "LaurentPoly2":
        return LaurentPoly2.from_terms((((p, q), coeff),))

    @staticmethod
    def zero() -> "LaurentPoly2":
        return _poly({})

    def is_zero(self) -> bool:
        return not self._d

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly2) and self._d == other._d

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"LaurentPoly2(terms={self.terms!r})"

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        return _merge(self._d, other._d, 1)

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        return _merge(self._d, other._d, -1)

    def scale(self, c) -> "LaurentPoly2":
        return mul_monomial(self, 0, 0, c)

    def __str__(self) -> str:
        return " + ".join(f"{c}*r^{p}*z^{q}" for (p, q), c in self.terms) or "0"


_poly_store = LaurentPoly2._d.__set__  # writes the slot itself, past __setattr__


def _poly(d: Terms) -> LaurentPoly2:
    """Wrap a dict of nonzero exact coefficients, which nothing changes later."""
    f = object.__new__(LaurentPoly2)
    _poly_store(f, d)
    return f


def _merge(a: Terms, b: Terms, sign: int) -> LaurentPoly2:
    """a + sign * b, a zero dropped where it arises."""
    out = dict(a)
    for key, c in b.items():
        c = out.get(key, 0) + sign * c
        if not c:
            del out[key]
        else:
            out[key] = _exact(c)
    return _poly(out)


# Each operator builds a new dict and sorts nothing.  A uniform exponent shift
# keeps keys distinct and coefficients nonzero, so d_r, d_z and mul_monomial
# need no merge; hat_laplacian, v_field and _lift merge and drop zeros.


def d_r(f: LaurentPoly2) -> LaurentPoly2:
    return _poly({(p - 1, q): _exact(p * c) for (p, q), c in f._d.items() if p})


def d_z(f: LaurentPoly2) -> LaurentPoly2:
    return _poly({(p, q - 1): _exact(q * c) for (p, q), c in f._d.items() if q})


def mul_monomial(f: LaurentPoly2, p: int, q: int, coeff=1) -> LaurentPoly2:
    p, q, coeff = _exponent(p), _exponent(q), _coeff(coeff)
    if q < 0 and f._d and min(qq for _, qq in f._d) + q < 0:
        raise InvariantViolation("z-exponents must stay nonnegative")
    if coeff == 0:
        return _poly({})
    return _poly({(pp + p, qq + q): _exact(coeff * c) for (pp, qq), c in f._d.items()})


def hat_laplacian(n: int, f: LaurentPoly2) -> LaurentPoly2:
    """-d2/dz2 - d2/dr2 - n r^-1 d/dr, term by term: the monomial r^p z^q maps
    to -q(q-1) r^p z^(q-2) - p(p+n-1) r^(p-2) z^q."""
    out: Terms = {}
    for (p, q), c in f._d.items():
        if q >= 2:
            key = (p, q - 2)
            out[key] = out.get(key, 0) - q * (q - 1) * c
        key = (p - 2, q)
        out[key] = out.get(key, 0) - (p * (p - 1) + n * p) * c
    return _nonzero(out)


def v_field(f: LaurentPoly2) -> LaurentPoly2:
    """The rotation derivation r d/dz - z d/dr, in one pass: the monomial
    r^p z^q maps to q r^(p+1) z^(q-1) - p r^(p-1) z^(q+1)."""
    out: Terms = {}
    for (p, q), c in f._d.items():
        if q:
            key = (p + 1, q - 1)
            out[key] = out.get(key, 0) + q * c
        if p:
            key = (p - 1, q + 1)
            out[key] = out.get(key, 0) - p * c
    return _nonzero(out)


def _r2(f: LaurentPoly2, coeff) -> LaurentPoly2:
    return mul_monomial(f, -2, 0, coeff)


def _tilt(f: LaurentPoly2) -> LaurentPoly2:
    """-z r^-1 f."""
    return mul_monomial(f, -1, 1, -1)


def _lift(f: LaurentPoly2, g: LaurentPoly2, c) -> LaurentPoly2:
    """r dz f + r dr g + c g, in one pass: r^p z^q in f maps to q r^(p+1) z^(q-1),
    and in g to (p + c) r^p z^q."""
    out: Terms = {}
    for (p, q), v in f._d.items():
        if q:
            key = (p + 1, q - 1)
            out[key] = out.get(key, 0) + q * v
    for key, v in g._d.items():
        out[key] = out.get(key, 0) + (key[0] + c) * v
    return _nonzero(out)


def _raise_residuals(tag: str, residuals: dict[str, LaurentPoly2]) -> dict:
    for name, res in residuals.items():
        if not res.is_zero():
            raise IdentityFailed(f"{tag}: residual {name} is nonzero: {res}")
    return {"checked": sorted(residuals), "passed": True}


# ---------------------------------------------------------------------------
# commutator identities


def check_commutators(n: int) -> dict:
    """Verify the five two-variable identities on every monomial r^p z^q of
    the box -6 <= p <= 6, 0 <= q <= 6.

    (1) [V, L_n] f        = n r^-2 V f
    (2) [V, r^-2] f       = 2 z r^-3 f
    (3) [V, z r^-1] f     = (1 + z^2 r^-2) f
    (4) L_n(-z r^-1 f)    = -z r^-1 L_n f + (n-2) r^-2 (-z r^-1 f) + 2 r^-2 V f
    (5) r dz f + r dr(-z r^-1 f) = V f - (-z r^-1 f)
    """
    count = 0
    lap = lambda g: hat_laplacian(n, g)
    for p in range(-6, 7):
        for q in range(7):
            f = LaurentPoly2.monomial(p, q)
            vf = v_field(f)
            lf = lap(f)
            g = _tilt(f)
            residuals = {
                "commutator with the weighted Laplacian": v_field(lf) - lap(vf) - _r2(vf, n),
                "commutator with r^-2": v_field(_r2(f, 1)) - _r2(vf, 1) - mul_monomial(f, -3, 1, 2),
                "commutator with z r^-1": _tilt(vf) - v_field(g) - f - mul_monomial(f, -2, 2),
                "Laplacian of the tilted partner":
                    lap(g) - _tilt(lf) - _r2(g, n - 2) - _r2(vf, 2),
                "first-order recombination": _lift(f, g, 1) - vf,
            }
            _raise_residuals(f"identities on r^{p} z^{q} (n={n})", residuals)
            count += 1
    return {"n": n, "monomials": count, "identities": 5, "passed": True}


# ---------------------------------------------------------------------------
# harmonic ladder spaces


def ladder_basis(k: int, j: int) -> list[tuple[int, int]]:
    """Monomial exponents spanning the ladder space at height j over degree k:
    r^(k+2l) z^(j-2l), l = 0 .. floor(j/2).  Homogeneous of degree k+j."""
    return [(k + 2 * l, j - 2 * l) for l in range(j // 2 + 1)]


def build_harmonic_family(n: int, k: int, j: int) -> LaurentPoly2:
    """The kernel of the reduced operator, lam = k(k+n-1), on the ladder space
    at (k, j), spanned by sum a_l r^(k+2l) z^(j-2l).  There the operator is
    bidiagonal, a_m * -2m(2k+2m+n-1) = a_(m-1) * (j-2m+2)(j-2m+1), so for
    n >= 2 the kernel is one line, run from a_0 = 1.  It is returned as the
    primitive integer vector whose coefficient of r^(k + 2 floor(j/2)), the top
    r-power, is positive."""
    if n < 2:
        raise InvariantViolation(f"harmonic ladder needs a base dimension of at least 2, got n={n}")
    if k < 0 or j < 0:
        raise InvariantViolation("ladder indices must be nonnegative")
    a = [Fraction(1)]
    for m in range(1, j // 2 + 1):
        a.append(a[-1] * ((j - 2 * m + 2) * (j - 2 * m + 1)) / (-2 * m * (2 * k + 2 * m + n - 1)))
    # a_0 = 1 makes the lcm of the denominators the primitive scale
    scale = lcm(*(c.denominator for c in a)) * (1 if a[-1] > 0 else -1)
    P = _poly({key: int(c * scale) for key, c in zip(ladder_basis(k, j), a)})
    _raise_residuals(f"harmonic family (n={n}, k={k}, j={j})",
                     {"reduced operator": hat_laplacian(n, P) + _r2(P, k * (k + n - 1))})
    return P


def verify_decomposition(n: int, k: int, j: int) -> dict:
    """Ladder splitting: the (k, j) space is the kernel line plus
    (r^2 + z^2) times the (k, j-2) space, in direct sum.  The i-th shifted
    generator is basis vector i plus basis vector i+1, so the shifted ladder is
    in echelon form and spans the kernel of phi(a) = sum (-1)^l a_l; the sum
    is direct exactly when phi does not vanish on the kernel line."""
    if j < 2:
        return {"n": n, "k": k, "j": j, "vacuous": True, "passed": True}
    basis = ladder_basis(k, j)  # j//2 + 1 vectors, one more than the shifted ladder's j//2
    s2 = LaurentPoly2.from_terms({(2, 0): 1, (0, 2): 1})
    for i, (p, q) in enumerate(ladder_basis(k, j - 2)):
        if mul_monomial(s2, p, q)._d != {basis[i]: 1, basis[i + 1]: 1}:
            raise DecompositionFailed(
                f"shifted generator {i} at (n={n}, k={k}, j={j}) is not "
                f"r^{basis[i][0]} z^{basis[i][1]} + r^{basis[i + 1][0]} z^{basis[i + 1][1]}"
            )
    h = build_harmonic_family(n, k, j)._d
    if not sum(h.get(key, 0) * (-1) ** l for l, key in enumerate(basis)):
        raise DecompositionFailed(
            f"kernel line and shifted ladder overlap at (n={n}, k={k}, j={j})"
        )
    return {"n": n, "k": k, "j": j, "dim": len(basis), "rank": len(basis), "passed": True}


# ---------------------------------------------------------------------------
# coupled first-order systems behind the 1-form and tensor ladders


def verify_formulas1(n: int, k: int, j: int) -> dict:
    """Closure of the two-component system behind the exact/coclosed 1-form
    ladder: from a kernel element P of L_n + lam r^-2 (lam = k(k+n-1), k >= 1)
    define Q = -z r^-1 P and lam R = r dz P + r dr Q + n Q; then

        L_n Q + (lam + n) r^-2 Q - 2 lam r^-2 R       = 0
        L_n R + (lam + 2 - n) r^-2 R - 2 r^-2 Q       = 0

    Both are checked on the integer unknown lam R, the second times lam > 0.
    """
    if k < 1:
        raise InvariantViolation("need k >= 1 so the seed eigenvalue is positive")
    lam = k * (k + n - 1)
    P = build_harmonic_family(n, k, j)
    Q = _tilt(P)
    R = _lift(P, Q, n)  # lam R
    lap = lambda f: hat_laplacian(n, f)
    residuals = {
        "second-component": lap(Q) + _r2(Q, lam + n) + _r2(R, -2),
        "third-component": lap(R) + _r2(R, lam + 2 - n) + _r2(Q, -2 * lam),
    }
    out = _raise_residuals(f"one-form system (n={n}, k={k}, j={j})", residuals)
    out.update({"n": n, "k": k, "j": j, "lam": str(lam)})
    return out


def verify_formulas2(n: int, l: int, j: int) -> dict:
    """Closure of the system behind the 1-form-seeded tensor ladder: with
    mu = l(l+n-1) - 1 (l >= 2, so mu > n-1), a kernel element P of
    L_n + (mu+1) r^-2, Q = -z r^-1 P and
    (mu - (n-1))/2 * R = r dz P + r dr Q + (n+1) Q; then

        L_n Q + (mu + n + 3) r^-2 Q - (mu + 1 - n) r^-2 R  = 0
        L_n R + (mu + 1 - n) r^-2 R - 4 r^-2 Q             = 0

    Both are checked on the integer unknown (mu - (n-1))/2 * R, the second
    times (mu - (n-1))/2 > 0.
    """
    if l < 2:
        raise InvariantViolation("need l >= 2 so the seed clears the Killing bound")
    mu = l * (l + n - 1) - 1
    P = build_harmonic_family(n, l, j)  # kernel of L_n + (mu+1) r^-2
    Q = _tilt(P)
    R = _lift(P, Q, n + 1)  # (mu - (n-1))/2 * R
    lap = lambda f: hat_laplacian(n, f)
    residuals = {
        "second-component": lap(Q) + _r2(Q, mu + n + 3) + _r2(R, -2),
        "third-component": lap(R) + _r2(R, mu + 1 - n) + _r2(Q, -2 * (mu + 1 - n)),
    }
    out = _raise_residuals(f"tensor one-form system (n={n}, l={l}, j={j})", residuals)
    out.update({"n": n, "l": l, "j": j, "mu": str(mu)})
    return out


def verify_formulas3(n: int, k: int, j: int) -> dict:
    """Closure of the seven-variable system behind the scalar-seeded tensor
    ladder, lam = k(k+n-1) with k >= 2 (so lam > n): from a kernel element P1
    of L_n + lam r^-2 define

        P2 = -z r^-1 P1,  P3 = z^2 r^-2 P1,  n S = -(P1 + P3),
        lam Q1 = r dz P1 + r dr P2 + n P2,   Q2 = -z r^-1 Q1,
        (n-1)(lam-n) R = r dz Q1 + r dr Q2 + (n+1) Q2 + S,

    check that the second defining route to Q2 is consistent, and that all
    six second-order closure equations hold identically.  They are checked
    on the integer unknowns n S, lam Q1, lam Q2 and n lam (n-1)(lam-n) R:
    the mixed-gradient equation times lam, trace-partner times n,
    radial-gradient times n lam and hessian-component times
    n lam (n-1)(lam-n), all nonzero; the others as they stand.
    """
    if k < 2:
        raise InvariantViolation("need k >= 2 so the seed clears the dimension bound")
    lam = k * (k + n - 1)
    P1 = build_harmonic_family(n, k, j)
    P2 = _tilt(P1)
    P3 = mul_monomial(P1, -2, 2)
    S = (P1 + P3).scale(-1)  # n S
    Q1 = _lift(P1, P2, n)  # lam Q1
    Q2 = _tilt(Q1)  # lam Q2
    R = _lift(Q1, Q2, n + 1).scale(n) + S.scale(lam)  # n lam (n-1)(lam-n) R
    lap = lambda f: hat_laplacian(n, f)
    residuals = {
        "q2-definition-consistency": Q2 - _lift(P2, P3, n) + S,
        "mixed-component": lap(P2) + _r2(P2, lam + n) + _r2(Q1, -2),
        "mixed-gradient": lap(Q1) + _r2(Q1, lam - n + 2) + _r2(P2, -2 * lam),
        "radial-radial": lap(P3) + _r2(P3, lam + 2 * n) + _r2(S, -2) + _r2(Q2, -4),
        "trace-partner": lap(S) + _r2(S, lam + 2) + _r2(P3, -2 * n) + _r2(Q2, 4),
        "radial-gradient": lap(Q2).scale(n)
        + _r2(Q2, n * (lam + 4))
        + _r2(P3, -2 * n * lam)
        + _r2(S, 2 * lam)
        + _r2(R, -2),
        "hessian-component": lap(R) + _r2(R, lam - 2 * n + 2) + _r2(Q2, -4 * (n - 1) * (lam - n)),
    }
    out = _raise_residuals(f"tensor scalar system (n={n}, k={k}, j={j})", residuals)
    out.update({"n": n, "k": k, "j": j, "lam": str(lam)})
    return out
