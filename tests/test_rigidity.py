import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinecone.catalog import ProductMarker, product_geometric_spectrum
from sinecone.cli import run
from sinecone.conemaps import degree_eigenvalue, harmonic_degree
from sinecone.errors import BelowHardyBound, InvariantViolation, UnboundedBelow
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
    # a fraction is never a source, though its numerator may be one: -2 at
    # n = 4 and -16 at n = 9 are sources, -2/3 and -16/3 are not
    assert solve_zero_equation(4, q(-2)) == [1]
    assert solve_zero_equation(4, q(Fraction(-2, 3))) == []
    assert solve_zero_equation(9, q(Fraction(-16, 3))) == []
    # below the Hardy bound find_ieds refuses the base first (UnboundedBelow);
    # a direct call meets the negative radicand itself
    with pytest.raises(BelowHardyBound):
        solve_zero_equation(9, q(-17))


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
    # the product line -2(n-1) is a source exactly when (n-1)(n-9) =
    # (n-5)^2 - 16 is a square, which for n >= 4 it is only at 9 and 10
    rows = product_rigidity_scan(4, 3000)
    assert [(r.n, [c.j for c in r.certificates]) for r in rows if r.has_ied] == [(9, [4]), (10, [3])]


def _source(n, j):
    return -j * (n - 1 - j)


_sizes = st.integers(min_value=2, max_value=10 ** 15).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(n - 1) // 2)))


@given(_sizes, st.integers(min_value=1, max_value=5))
@example((2, 0), 1)
@example((3, 1), 2)
@example((9, 4), 1)
@example((10 ** 15 + 1, 5 * 10 ** 14), 3)
@settings(max_examples=200, deadline=None)
def test_constructed_zero_modes_at_any_size(size, mult):
    # kappa = -j(n-1-j) is a source at index j; its neighbour kappa + 1 is
    # one only at n = 2j + 1, where it is -(j-1)(j+1), the source at j - 1
    n, j = size
    kappa = _source(n, j)
    gs = tt_only_base(n, [(kappa, mult), (kappa + 1, 1)], cut=max(0, kappa + 1))
    expected = [IEDCertificate(kappa=q(kappa), j=j, bounded=(j == 0), multiplicity=mult)]
    if n == 2 * j + 1 and j > 0:
        assert kappa + 1 == _source(n, j - 1)
        expected.append(IEDCertificate(kappa=q(kappa + 1), j=j - 1, bounded=(j == 1), multiplicity=1))
    assert find_ieds(gs) == expected


def test_a_line_at_a_large_dimension_is_answered_without_factoring(tmp_path, capsys):
    # (n-1)^2 + 12 at n = 10^13 has a cofactor no factoring can certify;
    # it is not a square, so the line 3 is no source
    base = {
        "n": 10 ** 13,
        "spec0": [{"value": 0, "mult": 1}],
        "specE_TT": [{"value": 3, "mult": 1}],
        "cutoff": {"spec0": 0, "spec1D": -1, "specE_TT": 5},
    }
    path = tmp_path / "large.json"
    path.write_text(json.dumps(base))
    assert run(["rigidity", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert "none: the cone TT block has no zero modes" in captured.out
    assert captured.err == ""


def test_the_product_scan_answers_at_any_dimension(capsys):
    assert run(["scan-products", "--from", "123456789012345678", "--to", "123456789012345680"]) == 0
    captured = capsys.readouterr()
    rows = [line.split() for line in captured.out.splitlines()[2:]]
    assert [int(row[0]) for row in rows] == [123456789012345678, 123456789012345679, 123456789012345680]
    assert all(row[2] == "rigid" for row in rows)
    assert captured.err == ""


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
