import itertools
import json
from fractions import Fraction

import pytest

from sinecone.catalog import (
    ProductMarker,
    load_geometric_spectrum,
    product_geometric_spectrum,
    product_tt_marker,
    sphere_functions,
    sphere_geometric_spectrum,
    sphere_multiplicity,
)
from sinecone.errors import InvariantViolation, ParseError
from sinecone.exactreal import compare, from_rational, make_quad
from sinecone.spectra import geometric_spectrum_to_json


def q(x):
    return from_rational(Fraction(x))


def brute_force_harmonic_dim(n: int, k: int) -> int:
    """Independent oracle: count degree-k monomials in n+1 variables, and
    subtract the degree-(k-2) count (the image of multiplication by |x|^2)."""

    def monomial_count(deg: int) -> int:
        if deg < 0:
            return 0
        return sum(
            1
            for combo in itertools.combinations_with_replacement(range(n + 1), deg)
        )

    return monomial_count(k) - monomial_count(k - 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sphere_multiplicities_against_monomial_count(n):
    for k in range(0, 7):
        assert sphere_multiplicity(n, k) == brute_force_harmonic_dim(n, k)


def test_sphere_multiplicity_special_values():
    for n in range(2, 8):
        assert sphere_multiplicity(n, 0) == 1
        assert sphere_multiplicity(n, 1) == n + 1
        for k in range(12):
            assert sphere_multiplicity(n, k) > 0
    # closed forms for the lowest dimensions
    assert [sphere_multiplicity(3, k) for k in range(5)] == [(k + 1) ** 2 for k in range(5)]
    assert [sphere_multiplicity(2, k) for k in range(5)] == [2 * k + 1 for k in range(5)]


def test_sphere_functions_examples():
    s3 = sphere_functions(3, q(15))
    assert [(l.value, l.multiplicity) for l in s3.lines] == [
        (q(0), 1), (q(3), 4), (q(8), 9), (q(15), 16)
    ]
    s2 = sphere_functions(2, q(6))
    assert [(l.value, l.multiplicity) for l in s2.lines] == [
        (q(0), 1), (q(2), 3), (q(6), 5)
    ]


@pytest.mark.parametrize("n", range(2, 13))
def test_sphere_functions_top_degree_at_every_boundary(n):
    # cutoffs on each line k(k+n-1), one below it, an irrational hair to
    # either side of it, and below 0: the top degree from one integer square
    # root is the last k with k(k+n-1) <= cutoff
    for k in range(12):
        line = k * (k + n - 1)
        for cutoff in (q(line), q(line - 1), make_quad(line, Fraction(1, 10 ** 9), 2),
                       make_quad(line, Fraction(-1, 10 ** 9), 2), q(Fraction(-1, 3) - k)):
            want = [j * (j + n - 1) for j in range(k + 2) if compare(q(j * (j + n - 1)), cutoff) <= 0]
            got = sphere_functions(n, cutoff)
            assert [l.value for l in got.lines] == [q(v) for v in want], (n, cutoff)
            assert [l.multiplicity for l in got.lines] == [sphere_multiplicity(n, j) for j in range(len(want))]
            assert got.cutoff == cutoff


def test_product_markers():
    assert product_tt_marker(ProductMarker(4, 5)) == (q(-16), 1)
    assert product_tt_marker(ProductMarker(2, 2)) == (q(-6), 1)
    assert product_tt_marker(ProductMarker(5, 5)) == (q(-18), 1)


def test_product_geometric_spectrum_completeness():
    gs = product_geometric_spectrum(ProductMarker(4, 5))
    assert gs.n == 9
    assert gs.specE_TT.cutoff == q(0)  # strictly stable factors: complete to 0
    assert gs.specE_TT.values() == [q(-16)]


def test_save_load_round_trip(tmp_path):
    gs = product_geometric_spectrum(ProductMarker(4, 5))
    path = tmp_path / "p9.json"
    path.write_text(json.dumps(geometric_spectrum_to_json(gs)), encoding="utf-8")
    back = load_geometric_spectrum(path)
    assert geometric_spectrum_to_json(back) == geometric_spectrum_to_json(gs)


def test_load_rejects_low_oneform_line(tmp_path):
    n = 5
    payload = {
        "n": n,
        "normalized": True,
        "spec0": [{"value": 0, "mult": 1}],
        "spec1D": [{"value": n - 2, "mult": 1}],  # below the Killing bound
        "specE_TT": [],
        "cutoff": 10,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(InvariantViolation, match="Killing bound"):
        load_geometric_spectrum(path)


def test_load_accepts_boundary_tt_line(tmp_path):
    n = 5
    payload = {
        "n": n,
        "normalized": True,
        "spec0": [{"value": 0, "mult": 1}],
        "spec1D": [],
        "specE_TT": [{"value": "-4", "mult": 1}],  # exactly -(n-1)^2/4
        "cutoff": 0,
    }
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(payload))
    gs = load_geometric_spectrum(path)
    assert gs.specE_TT.values() == [q(-4)]


def test_load_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_geometric_spectrum(path)


def test_sphere_geometric_spectrum_has_unknown_parts():
    gs = sphere_geometric_spectrum(3, q(20))
    assert gs.spec0.values()[0] == q(0)
    assert len(gs.spec1D) == 0
    assert gs.spec1D.cutoff == q(-1)  # unknown: downstream users must fail fast
