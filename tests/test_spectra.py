import json
from fractions import Fraction

import pytest

from sinecone.errors import CutoffTooSmall, InvariantViolation
from sinecone.exactreal import from_rational, make_quad
from sinecone.spectra import (
    GeometricSpectrum,
    Spectrum,
    empty_spectrum,
    equal_up_to,
    geometric_spectrum_from_json,
    geometric_spectrum_to_json,
    merge,
    positive_min,
)


def q(x):
    return from_rational(Fraction(x))


def test_merge_combines_coincident_values():
    s = merge(
        [(q(4), 1, ("A", 0, 0)), (q(4), 3, ("B", 0, 0)), (q(10), 2, ("A", 1, 0))],
        q(10),
    )
    assert [(l.value, l.multiplicity) for l in s.lines] == [(q(4), 4), (q(10), 2)]
    assert len(s.lines[0].origins) == 2


def test_merge_refuses_values_above_cutoff():
    with pytest.raises(InvariantViolation, match="exceeds its cutoff"):
        merge([(q(4), 1, ("A", 0, 0)), (q(11), 2, ("A", 1, 0))], q(10))


def test_merge_empty():
    assert len(merge([], q(5))) == 0


def test_merge_cross_family_coincidence():
    # scalar ladder at value n coinciding with a 1-form ladder value
    n = 5
    s = merge(
        [(q(n), 2, ("1f-co-scalar", 1, 0)), (q(n), 3, ("1f-co-form", 1, 0))],
        q(n),
    )
    (line,) = s.lines
    assert line.multiplicity == 5
    assert {o.block for o in line.origins} == {"1f-co-scalar", "1f-co-form"}


def test_merge_is_order_insensitive(rng):
    entries = [
        (make_quad(rng.randint(-5, 5), rng.randint(0, 3), rng.randint(0, 10)),
         rng.randint(1, 4), ("A", i, 0))
        for i in range(30)
    ]
    a = merge(entries, q(100))
    shuffled = entries[:]
    rng.shuffle(shuffled)
    b = merge(shuffled, q(100))
    assert a == b


def test_merge_round_trip_idempotent(rng):
    entries = [
        (make_quad(rng.randint(-5, 5), rng.randint(0, 3), rng.randint(0, 10)),
         rng.randint(1, 4), ("A", i, 0))
        for i in range(20)
    ]
    s = merge(entries, q(50))
    firsts = [(l, l.origins[0]) for l in s.lines]
    again = merge([(l.value, l.multiplicity, (o.block, o.i, o.j)) for l, o in firsts], q(50))
    assert [(l.value, l.multiplicity) for l in again.lines] == [
        (l.value, l.multiplicity) for l in s.lines
    ]


def test_spectrum_rejects_disorder_and_overflow():
    with pytest.raises(InvariantViolation):
        Spectrum(
            (merge([(q(4), 1, ("A", 0, 0))], q(5)).lines[0],),
            q(3),
        )


def test_positive_min():
    assert positive_min(merge([(q(0), 1, ("A", 0, 0))], q(0))) is None
    s = merge(
        [(q(-16), 1, ("A", 0, 0)), (q(0), 1, ("A", 1, 0)), (q(4), 1, ("A", 2, 0))],
        q(4),
    )
    assert positive_min(s) == q(4)


def test_positive_min_sphere():
    from sinecone.catalog import sphere_functions

    assert positive_min(sphere_functions(3, q(20))) == q(3)


def test_equal_up_to():
    s1 = merge([(q(4), 1, ("A", 0, 0))], q(10))
    s2 = merge([(q(4), 2, ("B", 0, 0))], q(10))
    assert equal_up_to(s1, s1, q(10))
    assert not equal_up_to(s1, s2, q(10))
    with pytest.raises(CutoffTooSmall):
        equal_up_to(s1, s2, q(11))


def test_equal_up_to_respects_bound_tightening():
    s1 = merge([(q(4), 1, ("A", 0, 0)), (q(9), 1, ("A", 1, 0))], q(10))
    s2 = merge([(q(4), 1, ("B", 0, 0)), (q(10), 1, ("B", 1, 0))], q(10))
    assert equal_up_to(s1, s2, q(8))
    assert not equal_up_to(s1, s2, q(10))


def _toy_geometric(n=4):
    return GeometricSpectrum(
        n=n,
        spec0=merge([(q(0), 1, ("g", 0, 0)), (q(n), 2, ("g", 1, 0))], q(2 * n)),
        spec1D=merge([(q(n - 1), 3, ("g", 0, 0))], q(2 * n)),
        specE_TT=merge([(q(-1), 1, ("g", 0, 0)), (q(2), 2, ("g", 1, 0))], q(2 * n)),
    )


def test_geometric_spectrum_invariants():
    _toy_geometric()  # accepted
    with pytest.raises(InvariantViolation):
        GeometricSpectrum(
            n=4,
            spec0=merge([(q(0), 2, ("g", 0, 0))], q(0)),  # disconnected
            spec1D=empty_spectrum(),
            specE_TT=empty_spectrum(),
        )
    with pytest.raises(InvariantViolation):
        GeometricSpectrum(
            n=4,
            spec0=merge([(q(0), 1, ("g", 0, 0)), (q(2), 1, ("g", 1, 0))], q(5)),
            spec1D=empty_spectrum(),
            specE_TT=empty_spectrum(),
        )


def test_geometric_spectrum_override_warns_instead():
    with pytest.warns(UserWarning):
        GeometricSpectrum(
            n=4,
            spec0=merge([(q(0), 1, ("g", 0, 0)), (q(2), 1, ("g", 1, 0))], q(5)),
            spec1D=empty_spectrum(),
            specE_TT=empty_spectrum(),
            hypothesis_override=True,
        )


def test_json_round_trip(tmp_path):
    gs = _toy_geometric()
    payload = geometric_spectrum_to_json(gs)
    text = json.dumps(payload)
    back = geometric_spectrum_from_json(json.loads(text))
    assert back.n == gs.n
    for name in ("spec0", "spec1D", "specE_TT"):
        a, b = getattr(gs, name), getattr(back, name)
        assert [(l.value, l.multiplicity) for l in a.lines] == [
            (l.value, l.multiplicity) for l in b.lines
        ]
        assert a.cutoff == b.cutoff
