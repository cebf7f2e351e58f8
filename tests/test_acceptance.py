"""Acceptance suite: every shipped criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import random
import time
from fractions import Fraction

from sinecone.catalog import (
    ProductMarker,
    product_geometric_spectrum,
    sphere_functions,
    sphere_geometric_spectrum,
)
from sinecone.conemaps import (
    map_coclosed_one_forms,
    map_einstein,
    map_functions,
    required_source_cutoff,
)
from sinecone.errors import UnboundedBelow
from sinecone.exactreal import compare, from_rational, rational_ceiling
from sinecone.radialoracle import (
    RadialProblem,
    closed_form_values,
    rayleigh_unbounded_demo,
    solve_radial,
)
from sinecone.rigidity import IEDCertificate, find_ieds, product_rigidity_scan
from sinecone.spectra import GeometricSpectrum, equal_up_to, merge, positive_min
from sinecone.stability import cross_check
from sinecone.symcheck import (
    build_harmonic_family,
    check_commutators,
    verify_decomposition,
    verify_formulas1,
    verify_formulas2,
    verify_formulas3,
)

from tests.conftest import synthetic_base


def q(x):
    return from_rational(Fraction(x))


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_sphere_closure():
    started = time.monotonic()
    cut = q(100)
    for n in range(2, 7):
        need = required_source_cutoff(n, cut, 0)
        base = sphere_geometric_spectrum(n, from_rational(rational_ceiling(need)))
        cone = map_functions(base, cut)
        target = sphere_functions(n + 1, cut)
        assert equal_up_to(cone, target, cut), f"closure failed at n={n}"
    elapsed = time.monotonic() - started
    _report(
        "1",
        elapsed < 1.0,
        f"sphere closure exact for n=2..6 up to 100 in {elapsed:.2f}s",
    )


def test_criterion_2_first_cone_eigenvalue():
    rng = random.Random(2)
    checked = 0
    for _ in range(150):
        gs = synthetic_base(rng)
        out = map_functions(gs, q(2 * (gs.n + 2)))
        assert out.multiplicity_of(q(gs.n + 1)) >= 1, "dimension line missing"
        if positive_min(gs.spec0) is not None and compare(
            positive_min(gs.spec0), q(gs.n)
        ) >= 0:
            assert compare(positive_min(out), q(gs.n + 1)) >= 0
            checked += 1
    for n in (2, 3, 4, 5):
        need = required_source_cutoff(n, q(3 * n), 0)
        base = sphere_geometric_spectrum(n, from_rational(rational_ceiling(need)))
        out = map_functions(base, q(3 * n))
        assert out.multiplicity_of(q(n + 1)) >= 1
        assert positive_min(out) == q(n + 1)
    _report(
        "2",
        True,
        f"dimension line present and positive minimum transfers ({checked} randomized bases)",
    )


def test_criterion_3a_product_nine_certificate():
    started = time.monotonic()
    gs = product_geometric_spectrum(ProductMarker(4, 5))
    certs = find_ieds(gs)
    ok = (
        len(certs) == 1
        and certs[0].kappa == q(-16)
        and certs[0].j == 4
        and certs[0].multiplicity == 1
        and not certs[0].bounded
    )
    elapsed = time.monotonic() - started
    _report(
        "3a",
        ok and elapsed < 1.0,
        f"dimension-9 product: single unbounded-profile certificate (-16, j=4) in {elapsed:.2f}s",
    )


def test_criterion_3b_scan_certificates_only_at_nine():
    # The scan reports dimensions 9 and 10.  At n = 10 the product line -18
    # has ladder degree -(10-1)/2 + sqrt((10-1)^2/4 - 18) = -3, and the ladder
    # value (y+3)(y+3+10) at index 3 vanishes exactly; (n-1)(n-9) is a perfect
    # square only for n in {9, 10}, so no later dimension joins.
    started = time.monotonic()
    rows = product_rigidity_scan(9, 64)
    with_ied = sorted(r.n for r in rows if r.has_ied)
    certs = {r.n: r.certificates for r in rows if r.has_ied}
    elapsed = time.monotonic() - started
    expected = {
        9: (IEDCertificate(kappa=q(-16), j=4, bounded=False, multiplicity=1),),
        10: (IEDCertificate(kappa=q(-18), j=3, bounded=False, multiplicity=1),),
    }
    ok = with_ied == [9, 10] and certs == expected and elapsed < 1.0
    _report(
        "3b",
        ok,
        f"scan 9..64 found certificates at dimensions {with_ied}: "
        + ", ".join(
            f"n={n} kappa={c.kappa} j={c.j} bounded={c.bounded} mult={c.multiplicity}"
            for n, cs in certs.items()
            for c in cs
        )
        + f" in {elapsed:.2f}s",
    )


def test_criterion_3c_low_dimensions_unbounded():
    rows = product_rigidity_scan(4, 8)
    ok = all(r.unbounded_below for r in rows)
    gs8 = product_geometric_spectrum(ProductMarker(4, 4))
    try:
        map_einstein(gs8, q(0), blocks=("tt",))
        ok = False
    except UnboundedBelow:
        pass
    _report("3c", ok, "dimensions 4..8 report the unbounded-below regime")


def test_criterion_4_transfer_cross_check():
    started = time.monotonic()
    rng = random.Random(4)
    for trial in range(1000):
        gs = synthetic_base(rng)
        result = cross_check(gs)
        assert result.consistent, (
            f"trial {trial}, base n={gs.n}: {result.discrepancies}"
        )
        if result.direct is not None:
            for name in ("eh", "linear", "tangential", "physical"):
                for side in (result.predicted, result.direct):
                    verdict = getattr(side, name)
                    assert verdict.holds is not None and verdict.strict is not None
    elapsed = time.monotonic() - started
    _report(
        "4",
        elapsed < 30.0,
        f"1000 randomized bases: predicted and direct classifications agree "
        f"on all four notions, strict and non-strict, in {elapsed:.1f}s",
    )


def test_criterion_5_physical_boundary():
    gs = product_geometric_spectrum(ProductMarker(4, 5))
    tt = map_einstein(gs, q(0), blocks=("tt",)).tt_block
    bottom = tt.min_value()
    ok = (
        bottom == q(-20)
        and compare(bottom, q(Fraction(-(9 * 9 - 1), 4))) >= 0  # >= -20
        and compare(bottom, q(Fraction(-99, 4))) >= 0
        and compare(bottom, q(-25)) > 0
    )
    _report(
        "5",
        ok,
        "dimension-9 product cone TT block bottoms out at -20, on the "
        "boundedness margin and strictly above -25",
    )


def test_criterion_6a_radial_oracle_function_block():
    started = time.monotonic()
    for c in (0, 3, 8):
        computed = solve_radial(RadialProblem(3, Fraction(c), "function"), 4)
        targets = [float(t) for t in closed_form_values(3, Fraction(c), 4)]
        for got, want in zip(computed, targets):
            err = abs(got - want) if want == 0 else abs(got - want) / abs(want)
            assert err < 1e-3, (c, got, want)
    elapsed = time.monotonic() - started
    _report(
        "6a",
        elapsed < 30.0,
        f"n=3 scalar couplings 0, 3, 8: first four modes within 1e-3 at "
        f"N=4000, eps=1e-6 ({elapsed:.1f}s)",
    )


def test_criterion_6b_radial_oracle_tt_block_pinned_values():
    # Coupling -16 in base dimension 9 is the Hardy-critical value
    # -(9-1)^2/4; the ladder is y(y+9) at y = -4 + j.
    started = time.monotonic()
    computed = solve_radial(RadialProblem(9, Fraction(-16), "tt"), 5)
    pinned = [-20.0, -18.0, -14.0, -8.0, 0.0]
    errors = [
        abs(got - want) if want == 0 else abs(got - want) / abs(want)
        for got, want in zip(computed, pinned)
    ]
    elapsed = time.monotonic() - started
    _report(
        "6b",
        len(computed) == len(pinned) and max(errors) < 1e-3,
        f"n=9 TT coupling -16: computed {[round(v, 6) for v in computed]} vs "
        f"{pinned}, worst error {max(errors):.1e} at N=4000, eps=1e-6 "
        f"({elapsed:.2f}s)",
    )


def test_criterion_7_unboundedness_demonstrator():
    started = time.monotonic()
    eps = [0.4, 0.2, 0.1, 0.05]
    quot = rayleigh_unbounded_demo(8, -14.0, eps)
    scaled = [e * e * v for e, v in zip(eps, quot)]
    ok = (
        all(a > b for a, b in zip(quot, quot[1:]))
        and quot[-1] < -1e3
        and 0.5 < scaled[-2] / scaled[-1] < 2.0
    )
    elapsed = time.monotonic() - started
    _report(
        "7",
        ok and elapsed < 5.0,
        f"quotients {[round(v, 1) for v in quot]} strictly decreasing, final "
        f"< -1e3, eps^2-scaled stable ({elapsed:.2f}s)",
    )


def test_criterion_8_symbolic_suite():
    started = time.monotonic()
    for n in (3, 4, 5):
        check_commutators(n)
        for k in range(0, 4):
            for j in range(0, 6):
                build_harmonic_family(n, k, j)
                verify_decomposition(n, k, j)
        for k in (2, 3):
            for j in range(0, 5):
                verify_formulas1(n, k, j)
                verify_formulas2(n, k, j)
                verify_formulas3(n, k, j)
    elapsed = time.monotonic() - started
    _report(
        "8",
        elapsed < 60.0,
        f"commutator box, ladder dimensions, decompositions and all three "
        f"coupled systems close exactly for n=3,4,5 ({elapsed:.1f}s)",
    )


def test_criterion_9_killing_count():
    rng = random.Random(9)
    checked = 0
    for _ in range(300):
        n = rng.randint(3, 9)
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        extra_scalar = Fraction(rng.randint(2 * n, 4 * n))
        extra_form = Fraction(rng.randint(2 * n, 4 * n))
        cut = q(6 * n)
        gs = GeometricSpectrum(
            n=n,
            spec0=merge(
                [
                    (q(0), 1, ("b0", 0, 0)),
                    (q(n), b, ("b0", 1, 0)),
                    (q(extra_scalar), rng.randint(1, 3), ("b0", 2, 0)),
                ],
                cut,
            ),
            spec1D=merge(
                [
                    (q(n - 1), a, ("b1", 0, 0)),
                    (q(extra_form), rng.randint(1, 3), ("b1", 1, 0)),
                ],
                cut,
            ),
            specE_TT=merge([(q(1), 1, ("bE", 0, 0))], cut),
        )
        out = map_coclosed_one_forms(gs, q(2 * n))
        assert out.multiplicity_of(q(n)) == a + b, (n, a, b)
        checked += 1
    _report(
        "9",
        checked == 300,
        "cone coclosed 1-form multiplicity at the Killing value n equals the "
        "sum of the two boundary-line multiplicities on 300 randomized bases",
    )
