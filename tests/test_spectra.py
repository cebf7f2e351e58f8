import copy
import dataclasses
import functools
import json
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sinecone import exactreal, spectra
from sinecone.catalog import ProductMarker, product_geometric_spectrum, sphere_geometric_spectrum
from sinecone.errors import CutoffTooSmall, InvariantViolation
from sinecone.exactreal import (
    QuadReal,
    compare,
    from_rational,
    make_quad,
    rational_ceiling,
    rational_floor,
)
from sinecone.spectra import (
    GeometricSpectrum,
    Origin,
    SpectralLine,
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


def _merge_by_value_keys(raw, cutoff):
    """merge as it was before integer keys: a QuadReal-keyed dict and a
    cmp_to_key(compare) sort, the reference the integer-keyed merge must
    reproduce object for object."""
    groups = {}
    for value, mult, (block, i, j) in raw:
        groups.setdefault(value, []).append(Origin(block, i, j, mult))
    lines = []
    for value in sorted(groups, key=functools.cmp_to_key(compare)):
        origins = tuple(sorted(groups[value], key=lambda o: (o.block, o.i, o.j)))
        lines.append(SpectralLine(value, sum(o.mult for o in origins), origins))
    return Spectrum(tuple(lines), cutoff)


def _rational(rng, size=60):
    return Fraction(rng.randint(-size, size), rng.randint(1, 9))


def _mixed_fields(rng):
    """Rationals, negative values included, beside values of Q(√2), Q(√3)
    and Q(√5)."""
    return [
        from_rational(_rational(rng)) if rng.random() < 0.4
        else make_quad(_rational(rng), _rational(rng, 9), rng.choice((2, 3, 5, 8, 12, 20)))
        for _ in range(40)
    ]


def _floor_key_ties(rng):
    """Values closer than 10**-3, so that many share floor(1000 v): steps of
    10**-5 around one point, in several fields, and rationals within 10**-6
    of an irrational."""
    centre = _rational(rng, 20)
    out = []
    for _ in range(30):
        x = make_quad(centre + Fraction(rng.randint(-50, 50), 10 ** 5),
                      Fraction(rng.randint(-3, 3), 10 ** 4), rng.choice((1, 2, 3, 7)))
        out.append(x)
        if x.b != 0:
            out += [from_rational(rational_floor(x)), from_rational(rational_ceiling(x))]
    return out


def _beyond_float_range(rng):
    """Values around 10**400, where a float key would overflow, at distances
    a float could not resolve."""
    big = 10 ** 400
    return [
        make_quad(big * rng.choice((1, -1)) + rng.randint(-5, 5),
                  rng.choice((0, 1, -1, big // 10 ** 5)), rng.choice((2, 3, 6)))
        for _ in range(30)
    ]


def _many_families(rng):
    """Few distinct values, each spelled several ways."""
    spellings = [
        [make_quad(0, 1, 8), make_quad(0, 2, 2), make_quad(0, Fraction(1, 2), 32)],
        [from_rational(Fraction(1, 2)), from_rational(Fraction(2, 4)), make_quad(0, 1, Fraction(1, 4))],
        [make_quad(1, 1, 3), make_quad(1, 0, 3) + make_quad(0, 1, 3)],
        [from_rational(-7), make_quad(-7, 0, 11), make_quad(-8, 1, 1)],
    ]
    return [rng.choice(rng.choice(spellings)) for _ in range(40)]


@pytest.mark.parametrize(
    "draw", [_mixed_fields, _floor_key_ties, _beyond_float_range, _many_families]
)
def test_merge_matches_the_value_keyed_reference(draw):
    rng = random.Random(0x3E26E)
    cutoff = from_rational(10 ** 401)
    for _ in range(25):
        values = draw(rng)
        blocks = ("A", "B", "C")
        raw = [
            (v, rng.randint(1, 4), (rng.choice(blocks), k, rng.randint(0, 2)))
            for k, v in enumerate(values)
        ]
        rng.shuffle(raw)
        got = merge(raw, cutoff)
        assert got == _merge_by_value_keys(raw, cutoff)
        assert all(type(o) is Origin for line in got for o in line.origins)


def test_merge_compares_only_values_that_share_a_floor_key(monkeypatch):
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return compare(x, y)

    # QuadReal.__lt__ looks compare up in exactreal at call time
    monkeypatch.setattr(exactreal, "compare", counted)
    apart = [q(Fraction(k, 7)) for k in range(50)] + [make_quad(k, 1, 2) for k in range(50)]
    merge([(v, 1, ("A", k, 0)) for k, v in enumerate(apart)], q(100))
    assert calls == []
    close = [q(Fraction(141421, 10 ** 5)), make_quad(0, 1, 2), q(Fraction(141422, 10 ** 5))]
    s = merge([(v, 1, ("A", k, 0)) for k, v in enumerate(close)], q(2))
    assert calls
    assert s.values() == [close[0], close[1], close[2]]


def _close_pair():
    """Two values that share the floor key 1414: 1.41421 and sqrt(2)."""
    return [q(Fraction(141421, 10 ** 5)), make_quad(0, 1, 2)]


@pytest.mark.parametrize("verdict", [lambda c: -c, lambda c: 0], ids=["reversed", "tied"])
def test_merge_checks_ascent_where_lines_share_a_floor_key(monkeypatch, verdict):
    close = _close_pair()

    def faulty(x, y):
        return verdict(compare(x, y)) if {x, y} == set(close) else compare(x, y)

    # merge's own ascent check reads compare from spectra; the sort does not
    monkeypatch.setattr(spectra, "compare", faulty)
    with pytest.raises(InvariantViolation, match="strictly ascending"):
        merge([(v, 1, ("A", k, 0)) for k, v in enumerate(close)], q(2))


def test_merge_checks_ascent_without_compare_across_floor_keys(monkeypatch):
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return compare(x, y)

    monkeypatch.setattr(spectra, "compare", counted)
    apart = [q(Fraction(k, 7)) for k in range(50)] + [make_quad(k, 1, 2) for k in range(50)]
    s = merge([(v, 1, ("A", k, 0)) for k, v in enumerate(apart)], q(100))
    assert calls == [(s.lines[-1].value, q(100))]  # the cutoff check alone
    calls.clear()
    close = _close_pair()
    merge([(v, 1, ("A", k, 0)) for k, v in enumerate(close)], q(2))
    assert calls == [tuple(close), (close[1], q(2))]


@pytest.mark.parametrize("mult", [0, -1])
def test_merge_refuses_non_positive_multiplicities(mult):
    with pytest.raises(InvariantViolation, match="must be positive"):
        merge([(q(1), 2, ("A", 0, 0)), (q(4), mult, ("A", 1, 0))], q(10))


def test_public_constructors_still_validate():
    one = Origin("A", 0, 0, 1)
    with pytest.raises(InvariantViolation, match="must be positive"):
        SpectralLine(q(1), 0)
    with pytest.raises(InvariantViolation, match="sum over origins"):
        SpectralLine(q(1), 2, (one,))
    low, high = SpectralLine(q(1), 1, (one,)), SpectralLine(q(2), 1, (one,))
    with pytest.raises(InvariantViolation, match="strictly ascending"):
        Spectrum((high, low), q(5))
    with pytest.raises(InvariantViolation, match="strictly ascending"):
        Spectrum((low, low), q(5))
    with pytest.raises(InvariantViolation, match="exceeds its cutoff"):
        Spectrum((low, high), q(1))


def test_merged_lines_are_interchangeable_with_public_ones():
    rng = random.Random(0x5107)
    values = _many_families(rng) + _mixed_fields(rng)
    raw = [(v, rng.randint(1, 4), (rng.choice("AB"), k, rng.randint(0, 2)))
           for k, v in enumerate(values)]
    got = merge(raw, from_rational(10 ** 4))
    assert any(len(line.origins) > 1 for line in got)
    for line in got:
        public = SpectralLine(line.value, line.multiplicity, line.origins)
        assert line == public and hash(line) == hash(public)
        for clone in (copy.copy(line), copy.deepcopy(line), pickle.loads(pickle.dumps(line))):
            assert type(clone) is SpectralLine
            assert clone == line and hash(clone) == hash(line)
        with pytest.raises(dataclasses.FrozenInstanceError):
            line.multiplicity = line.multiplicity + 1
    assert Spectrum(got.lines, got.cutoff) == got
    for clone in (copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
        assert clone == got
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.cutoff = q(0)


@pytest.mark.parametrize(
    "x, y",
    [
        (make_quad(0, 1, 8), make_quad(0, 2, 2)),
        (from_rational(Fraction(2, 4)), from_rational(Fraction(1, 2))),
        (make_quad(0, 1, Fraction(1, 2)), make_quad(0, Fraction(1, 2), 2)),
        (make_quad(1, 1, 2) * make_quad(1, -1, 2), from_rational(-1)),
        (make_quad(3, 2, 5) + make_quad(-3, -2, 5), from_rational(0)),
        (QuadReal(1, 0, 1), from_rational(1)),
    ],
)
def test_equal_values_hash_equal(x, y):
    assert x == y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


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


@pytest.mark.parametrize(
    "scalars, oneforms, message",
    [
        ([2], [], "positive scalar eigenvalue 2 below the dimension bound n=4 (closed Einstein "
                  "spaces with this normalization have no spectrum in (0, n))"),
        ([], [Fraction(5, 2)], "coclosed 1-form eigenvalue 5/2 below n-1=3 (the Killing bound "
                               "for this normalization)"),
    ],
)
def test_a_hypothesis_bound_refuses_or_warns_with_one_message(scalars, oneforms, message):
    # each bound refuses with its message, or under the override warns with
    # that message and the departure named
    def build(override):
        return GeometricSpectrum(
            n=4,
            spec0=merge([(q(v), 1, ("g", i, 0)) for i, v in enumerate([0, *scalars])], q(5)),
            spec1D=merge([(q(v), 1, ("g1", i, 0)) for i, v in enumerate(oneforms)], q(5)),
            specE_TT=empty_spectrum(),
            hypothesis_override=override,
        )

    with pytest.raises(InvariantViolation) as refused:
        build(False)
    assert str(refused.value) == message
    with pytest.warns(UserWarning) as warned:
        build(True)
    assert [str(w.message) for w in warned] == [message + "; proceeding outside the usual hypotheses"]


def _golden_base(name):
    path = Path(__file__).with_name("golden") / f"{name}.json"
    return geometric_spectrum_from_json(json.loads(path.read_text()))


@pytest.mark.parametrize(
    "build",
    [
        lambda: _golden_base("base4"),
        lambda: _golden_base("base9"),
        lambda: product_geometric_spectrum(ProductMarker(4, 5)),
        lambda: sphere_geometric_spectrum(3, make_quad(40, 1, 2)),
    ],
    ids=["base4", "base9", "product45", "sphere3"],
)
def test_json_output_loads_back_unchanged(build):
    gs = build()
    payload = geometric_spectrum_to_json(gs)
    back = geometric_spectrum_from_json(json.loads(json.dumps(payload)))
    assert geometric_spectrum_to_json(back) == payload
    for key in ("spec0", "spec1D", "specE_TT"):
        assert getattr(back, key).values() == getattr(gs, key).values()
        assert getattr(back, key).cutoff == getattr(gs, key).cutoff


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
