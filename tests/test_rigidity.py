import json
from fractions import Fraction
from math import isqrt

import pytest

import sinecone.rigidity as rigidity
from sinecone.catalog import ProductMarker, product_geometric_spectrum
from sinecone.cli import run
from sinecone.conemaps import degree_eigenvalue, harmonic_degree
from sinecone.errors import InvariantViolation, SolverDisagreement, UnboundedBelow
from sinecone.exactreal import from_rational, sign
from sinecone.rigidity import (
    IEDCertificate,
    ProductScanRow,
    find_ieds,
    product_rigidity_scan,
    solve_zero_equation,
)
from sinecone.spectra import GeometricSpectrum, empty_spectrum, merge


def q(x):
    return from_rational(Fraction(x))


def tt_only_base(n, tensors, cut=0):
    return GeometricSpectrum(
        n=n,
        spec0=merge([(q(0), 1, ("b", 0, 0))], q(0)),
        spec1D=empty_spectrum(),
        specE_TT=merge(
            [(q(v), m, ("bE", i, 0)) for i, (v, m) in enumerate(tensors)], q(cut)
        ),
    )


def test_product_n9_certificate():
    gs = product_geometric_spectrum(ProductMarker(4, 5))
    certs = find_ieds(gs)
    assert certs == [IEDCertificate(kappa=q(-16), j=4, bounded=False, multiplicity=1)]


def test_zero_line_gives_bounded_certificate():
    gs = tt_only_base(6, [(0, 3)])
    (cert,) = find_ieds(gs)
    assert cert.bounded and cert.j == 0 and cert.multiplicity == 3


def test_product_n10_certificate_both_routes_agree():
    # the dimension-10 product line -18 has ladder degree -3, and the ladder
    # value at index 3 is exactly zero; the quadratic route returns the same
    # index, so a certificate is emitted (unbounded profile, multiplicity 1)
    assert harmonic_degree(10, -18) == q(-3)
    assert sign(degree_eigenvalue(11, q(-3) + 3)) == 0
    assert solve_zero_equation(10, q(-18)) == [3]
    gs = product_geometric_spectrum(ProductMarker(5, 5))
    certs = find_ieds(gs)
    assert certs == [IEDCertificate(kappa=q(-18), j=3, bounded=False, multiplicity=1)]


def test_solve_zero_equation_examples():
    assert solve_zero_equation(9, q(-16)) == [4]
    assert solve_zero_equation(12, q(-22)) == []  # degree (-11 + sqrt(33))/2 irrational
    assert harmonic_degree(12, -22).s == 33


def test_solve_zero_equation_irrational_kappa():
    from sinecone.exactreal import make_quad

    assert solve_zero_equation(7, make_quad(1, 1, 5)) == []


def test_find_ieds_rejects_sub_hardy():
    gs = tt_only_base(8, [(-14, 1)], cut=0)
    with pytest.raises(UnboundedBelow):
        find_ieds(gs)


@pytest.mark.parametrize("n", range(3, 16))
def test_equivalence_of_criteria_on_dense_grid(n):
    # both detectors must agree for every rational coupling on a dense grid
    hardy = Fraction(-((n - 1) ** 2), 4)
    for den in range(1, 13):
        num = int(hardy * den)
        while Fraction(num, den) < hardy:
            num += 1
        for k in range(num, 100 * den + 1, max(1, (100 * den - num) // 240)):
            kappa = Fraction(k, den)
            degree = harmonic_degree(n, kappa)
            direct = None
            if degree.is_integer() and degree.as_fraction() <= 0:
                direct = int(-degree.as_fraction())
            expected = [] if direct is None else [direct]
            assert solve_zero_equation(n, q(kappa)) == expected, (n, kappa)


def test_pythagorean_dimensions():
    # sqrt((n-9)(n-1)) is integral only at 9 and 10 within 4..64, and both
    # dimensions yield an integral ladder index for the product line
    integral = [
        n for n in range(4, 65)
        if (n - 9) * (n - 1) >= 0 and isqrt((n - 9) * (n - 1)) ** 2 == (n - 9) * (n - 1)
    ]
    assert integral == [9, 10]
    with_ied = [
        n for n in range(9, 65) if solve_zero_equation(n, q(-2 * (n - 1)))
    ]
    assert with_ied == [9, 10]


def test_boundedness_flags():
    gs = tt_only_base(9, [(-16, 1), (0, 2)])
    certs = find_ieds(gs)
    flags = {(str(c.kappa), c.bounded) for c in certs}
    assert flags == {("-16", False), ("0", True)}


def test_scan_rows():
    rows = product_rigidity_scan(4, 20)
    by_n = {r.n: r for r in rows}
    assert all(by_n[n].unbounded_below for n in range(4, 9))
    assert not any(by_n[n].unbounded_below for n in range(9, 21))
    assert {n for n in range(9, 21) if by_n[n].has_ied} == {9, 10}
    assert by_n[9].certificates[0].j == 4
    assert by_n[10].certificates[0].j == 3


def test_scan_rows_from_4_to_12_are_pinned():
    # the marker line -2(n-1) lies below the Hardy bound up to n = 8 (no
    # certificates), and is a zero mode's source at n = 9 and n = 10 only
    def certs(n, j):
        return (IEDCertificate(kappa=q(-2 * (n - 1)), j=j, bounded=False, multiplicity=1),)

    expected = [ProductScanRow(n, q(-2 * (n - 1)), n < 9, {9: certs(9, 4), 10: certs(10, 3)}.get(n, ()))
                for n in range(4, 13)]
    rows = product_rigidity_scan(4, 12)
    assert rows == expected
    assert all(type(row.certificates) is tuple for row in rows)


def test_scan_ranges_outside_the_products():
    # a total dimension below 4 has no two factors of dimension >= 2, and an
    # empty range has no rows
    with pytest.raises(InvariantViolation, match="product factors must each have dimension >= 2"):
        product_rigidity_scan(3, 5)
    assert product_rigidity_scan(6, 5) == []


def test_a_wrong_harmonic_degree_is_a_solver_disagreement(monkeypatch, capsys):
    # the defining equation degree_eigenvalue(n, m) == kappa is the one
    # runtime check of the detection: an off-by-one degree must not pass
    true_degree = rigidity.harmonic_degree

    def off_by_one(n, kappa):
        m = true_degree(n, kappa)
        return m - 1 if (n, m) == (9, q(-4)) else m  # kappa = -16 has degree -4

    monkeypatch.setattr(rigidity, "harmonic_degree", off_by_one)
    with pytest.raises(SolverDisagreement):
        find_ieds(product_geometric_spectrum(ProductMarker(4, 5)))
    assert run(["rigidity", "--product", "4,5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "SolverDisagreement"
