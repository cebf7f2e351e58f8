from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path

import pytest

from sinecone.catalog import ProductMarker, load_geometric_spectrum, product_geometric_spectrum
from sinecone.conemaps import ITERATE_PARTS, cone_step, supported_window
from sinecone.exactreal import from_rational, make_quad, to_decimal
from sinecone.spectra import UNKNOWN_CUTOFF, GeometricSpectrum, empty_spectrum, merge
from sinecone.stability import (
    classify,
    compute_cone,
    cross_check,
    linear_transfer_threshold,
    predict_cone,
    scalar_window,
)

from tests.conftest import synthetic_base


def q(x):
    return from_rational(Fraction(x))


def base_with(n, scalars, oneforms, tensors, cut=None):
    cut = q(cut if cut is not None else 4 * (n + 2))
    return GeometricSpectrum(
        n=n,
        spec0=merge([(q(v), m, ("b0", i, 0)) for i, (v, m) in enumerate(scalars)], cut),
        spec1D=merge([(q(v), m, ("b1", i, 0)) for i, (v, m) in enumerate(oneforms)], cut),
        specE_TT=merge([(q(v), m, ("bE", i, 0)) for i, (v, m) in enumerate(tensors)], cut),
    )


def test_classify_product_marker_n9():
    gs = product_geometric_spectrum(ProductMarker(4, 5))
    report = classify(gs)
    assert not report.eh.holds
    assert report.physical.holds  # -16 equals -(9-1)^2/4 exactly
    assert report.eh.witness_value == q(-16)


def test_classify_boundary_tt_zero():
    gs = base_with(4, [(0, 1), (12, 1)], [], [(0, 2), (5, 1)])
    report = classify(gs)
    assert report.eh.holds and not report.eh.strict


def test_classify_linear_thresholds():
    n = 5
    stable = base_with(n, [(0, 1), (2 * (n - 1), 1)], [], [(1, 1)])
    r = classify(stable)
    assert r.linear.holds and not r.linear.strict  # equality is non-strict
    unstable = base_with(n, [(0, 1), (2 * (n - 1) - 1, 1)], [], [(1, 1)])
    assert not classify(unstable).linear.holds


def test_classify_dimension_eigenvalue_is_exempt():
    # the eigenvalue n comes from conformal gradient fields and contributes
    # no essential perturbation; it must not break the threshold tests
    n = 5
    gs = base_with(n, [(0, 1), (n, 3), (3 * n, 1)], [], [(1, 1)])
    r = classify(gs)
    assert r.linear.holds and r.linear.strict
    assert r.tangential.holds


def test_classify_tangential_gap():
    n = 4
    inside_gap = base_with(n, [(0, 1), (2 * n + 1, 1)], [], [(1, 1)])
    assert not classify(inside_gap).tangential.holds
    at_top = base_with(n, [(0, 1), (2 * (n + 1), 1)], [], [(1, 1)])
    r = classify(at_top)
    # the boundary mode is a reparametrization on the cone level: equality
    # keeps both the plain and the strict verdicts
    assert r.tangential.holds and r.tangential.strict
    above = base_with(n, [(0, 1), (2 * n + 3, 1)], [], [(1, 1)])
    assert classify(above).tangential.holds


def _base_with_cutoffs(n, scalars, scalar_cut, hypothesis_override=False):
    """A base with the given scalar lines complete to ``scalar_cut``, no
    one-form data and an empty TT spectrum complete to 0."""
    return GeometricSpectrum(
        n=n,
        spec0=merge([(q(v), m, ("b0", i, 0)) for i, (v, m) in enumerate(scalars)], scalar_cut),
        spec1D=empty_spectrum(q(-1)),
        specE_TT=merge([], q(0)),
        hypothesis_override=hypothesis_override,
    )


def test_classify_tangential_gap_is_open_at_the_dimension():
    # a scalar line below the dimension (outside the usual hypotheses) lies
    # below the gap (m, 2(m+1)), so the line 3 at m = 4 keeps tangential
    # stability strict
    with pytest.warns(UserWarning, match="below the dimension bound"):
        gs = _base_with_cutoffs(4, [(0, 1), (3, 2), (12, 1)], q(12), hypothesis_override=True)
    for report in (classify(gs), predict_cone(gs)):
        assert (report.tangential.holds, report.tangential.strict) == (True, True)
        assert report.tangential.witness_value == q(3)


def test_transfer_is_decided_by_a_cutoff_exactly_at_its_threshold():
    # scalar lines complete exactly to t = 10 - 2 sqrt(3) decide the
    # transferred linear verdict at m = 4: the line 6 lies below t
    t = linear_transfer_threshold(4)
    assert t == make_quad(10, -2, 3)
    gs = _base_with_cutoffs(4, [(0, 1), (6, 2)], t)
    linear = predict_cone(gs).linear
    assert (linear.holds, linear.strict, linear.witness_value) == (False, False, q(6))


def test_implication_chain(rng):
    # tangential implies linear implies variational stability
    for _ in range(200):
        gs = synthetic_base(rng)
        r = classify(gs)
        if r.tangential.holds:
            assert r.linear.holds
        if r.linear.holds:
            assert r.eh.holds


def test_linear_transfer_threshold_value():
    t9 = linear_transfer_threshold(9)
    assert t9 == make_quad(Fraction(45, 2), Fraction(-1, 2), 153)
    assert t9 == make_quad(Fraction(45, 2), Fraction(-3, 2), 17)
    getcontext().prec = 60
    oracle = Decimal(45) / 2 - Decimal(3) / 2 * Decimal(17).sqrt()
    assert to_decimal(t9, 6) == str(oracle.quantize(Decimal("1.000000")))


def test_threshold_exactness_at_the_threshold():
    # feeding the exact threshold value distinguishes >= from >
    n = 6
    t = linear_transfer_threshold(n)
    scalars = merge(
        [(q(0), 1, ("b", 0, 0)), (t, 1, ("b", 1, 0))], q(4 * (n + 2))
    )
    gs = GeometricSpectrum(
        n=n,
        spec0=scalars,
        spec1D=empty_spectrum(q(4 * (n + 2))),
        specE_TT=merge([(q(1), 1, ("bE", 0, 0))], q(4 * (n + 2))),
    )
    pred = predict_cone(gs)
    assert pred.linear.holds
    assert not pred.linear.strict


def test_scalar_window_decides_every_verdict():
    # scalar completeness up to scalar_window(m) decides the linear, the
    # tangential and the transferred linear verdict; just below it the
    # tangential verdict stays open
    for m in range(2, 30):
        decided = base_with(m, [(0, 1)], [], [(1, 1)], cut=scalar_window(m))
        for report in (classify(decided), predict_cone(decided)):
            assert report.linear.holds is True
            assert report.tangential.holds is True
        short = base_with(m, [(0, 1)], [], [(1, 1)], cut=scalar_window(m) - Fraction(1, 2))
        assert classify(short).tangential.holds is None


def test_predict_cone_examples():
    # strict tangential stability transfers to the cone
    n = 5
    gs = base_with(n, [(0, 1), (2 * n + 3, 1)], [], [(1, 1)])
    pred = predict_cone(gs)
    assert pred.n == n + 1
    assert pred.tangential.holds and pred.tangential.strict
    # dimension-8 product: not bounded below
    gs8 = product_geometric_spectrum(ProductMarker(4, 4))
    assert not predict_cone(gs8).bounded_below


def test_cross_check_product_n9():
    gs = product_geometric_spectrum(ProductMarker(4, 5))
    res = cross_check(gs)
    assert res.consistent
    assert res.direct is not None
    assert not res.predicted.eh.holds and not res.direct.eh.holds
    assert res.predicted.physical.holds and res.direct.physical.holds
    # the cone TT block bottoms out at -20 = -(9^2-1)/4 exactly
    assert res.direct.physical.witness_value == q(-20)


def test_cross_check_boundary_zero():
    gs = base_with(4, [(0, 1), (12, 1)], [], [(0, 1)])
    res = cross_check(gs)
    assert res.consistent
    assert res.direct.eh.holds and not res.direct.eh.strict


def test_cross_check_unbounded_route():
    gs = product_geometric_spectrum(ProductMarker(4, 4))
    res = cross_check(gs)
    assert res.consistent
    assert res.cone_unbounded
    assert res.direct is None


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_the_narrowed_cone_classifies_as_the_full_cone_step(rng):
    # compute_cone builds only the spectra classify reads; the full cone step,
    # coclosed 1-forms included (and TT only over n >= 3, which the Einstein
    # transform needs), must give the same verdicts, strictness, witnesses,
    # witness origins and thresholds
    bases = [synthetic_base(rng, 2 if k % 4 == 0 else None) for k in range(500)]
    bases += [load_geometric_spectrum(GOLDEN / name)
              for name in ("base2-tt-unbounded.json", "base4.json", "base9.json")]
    for gs in bases:
        parts = ITERATE_PARTS if gs.n >= 3 else ("functions", "coclosed")
        windows = [from_rational(w) for w in supported_window(gs, ITERATE_PARTS)]
        full = classify(cone_step(gs, windows, parts))
        cone = compute_cone(gs)
        assert cone.spec1D.lines == () and cone.spec1D.cutoff == UNKNOWN_CUTOFF
        assert classify(cone) == full, gs


def test_cross_check_randomized(rng):
    for _ in range(300):
        gs = synthetic_base(rng)
        res = cross_check(gs)
        assert res.consistent, res.discrepancies
