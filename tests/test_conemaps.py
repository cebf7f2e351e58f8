import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinecone import conemaps, exactreal, stability
from sinecone.catalog import (
    ProductMarker,
    product_geometric_spectrum,
    sphere_functions,
    sphere_geometric_spectrum,
)
from sinecone.conemaps import (
    ITERATE_PARTS,
    degree_eigenvalue,
    hardy_bound,
    harmonic_degree,
    iterate,
    iterate_base_requirements,
    map_coclosed_one_forms,
    map_einstein,
    map_functions,
    map_one_forms,
    required_source_cutoff,
    source_requirements,
    supported_window,
)
from sinecone.errors import (
    BelowHardyBound,
    IllPosed,
    InsufficientBaseCutoff,
    NotRepresentable,
    UnboundedBelow,
)
from sinecone.exactreal import (
    _norm,
    compare,
    from_rational,
    make_quad,
    rational_ceiling,
    rational_floor,
)
from sinecone.radialoracle import RadialProblem
from sinecone.rigidity import find_ieds
from sinecone.spectra import (
    UNKNOWN_CUTOFF,
    GeometricSpectrum,
    Origin,
    empty_spectrum,
    equal_up_to,
    line_spectrum,
    merge,
)
from sinecone.stability import classify


def q(x):
    return from_rational(Fraction(x))


def _sphere_base(n: int, cone_cutoff, shift: int = 0) -> GeometricSpectrum:
    need = required_source_cutoff(n, q(cone_cutoff), shift)
    cut = q(0) if need is None else from_rational(rational_ceiling(need))
    return sphere_geometric_spectrum(n, cut)


def _simple_base(n, scalars, oneforms, tensors, cutoffs):
    c0, c1, c2 = (q(c) for c in cutoffs)
    return GeometricSpectrum(
        n=n,
        spec0=merge([(q(v), m, ("b0", i, 0)) for i, (v, m) in enumerate(scalars)], c0),
        spec1D=merge([(q(v), m, ("b1", i, 0)) for i, (v, m) in enumerate(oneforms)], c1),
        specE_TT=merge([(q(v), m, ("bE", i, 0)) for i, (v, m) in enumerate(tensors)], c2),
    )


# -- degree dictionary -------------------------------------------------------


def test_harmonic_degree_inverts_sphere_eigenvalues():
    for n in range(2, 8):
        for k in range(0, 8):
            assert harmonic_degree(n, k * (k + n - 1)) == q(k)


def test_harmonic_degree_examples():
    assert harmonic_degree(9, -16) == q(-4)
    assert harmonic_degree(10, -18) == q(-3)
    with pytest.raises(BelowHardyBound):
        harmonic_degree(8, -14)  # below -(8-1)^2/4 = -49/4


def test_harmonic_degree_rejects_irrational_input():
    with pytest.raises(NotRepresentable):
        harmonic_degree(4, make_quad(0, 1, 2))


def test_degree_eigenvalue_examples():
    assert degree_eigenvalue(10, 0) == q(0)
    for n in range(3, 9):
        assert degree_eigenvalue(n + 1, 1) == q(n + 1)
    assert degree_eigenvalue(10, q(-4) + 4) == q(0)


@given(st.fractions(min_value=-3, max_value=400, max_denominator=12),
       st.integers(min_value=2, max_value=12))
@settings(max_examples=300)
def test_inverse_identity(x, n):
    if x < Fraction(-((n - 1) ** 2), 4):
        return
    y = harmonic_degree(n, x)
    assert degree_eigenvalue(n, y) == q(x)


def test_ladder_monotone_in_j():
    deg = harmonic_degree(5, Fraction(7, 2))
    values = [degree_eigenvalue(6, deg + j) for j in range(8)]
    assert all(compare(a, b) < 0 for a, b in zip(values, values[1:]))


def _family_by_steps(n, degree, out_shift, cutoff, mult, block, i,
                     first=0, doubled_from=None):
    """The reference ladder: one QuadReal product and one exact comparison
    per rung, stopping at the first rung above the cutoff."""
    shift = from_rational(Fraction(out_shift))
    out = []
    j = 0
    while True:
        value = degree_eigenvalue(n + 1, degree + j) - shift
        if compare(value, cutoff) > 0:
            break
        if j >= first:
            doubled = doubled_from is not None and j >= doubled_from
            out.append((value, 2 * mult if doubled else mult, (block, i, j)))
        j += 1
    return out


def _random_degree(r: random.Random, n: int, irrational: bool):
    """harmonic_degree(n, x) for a random x at or above the Hardy bound,
    rational or irrational as asked."""
    hardy = hardy_bound(n)
    while True:
        if irrational:
            x = hardy + Fraction(r.randint(0, 4000), r.choice((1, 2, 3, 4, 7)))
        else:
            y = Fraction(-(n - 1), 2) + Fraction(r.randint(0, 120), r.choice((1, 2, 3, 4, 6)))
            x = y * (y + n - 1)
        degree = harmonic_degree(n, x)
        if degree.is_rational() != irrational:
            return degree


def _random_cutoff(r: random.Random, kind: str, n: int, degree, shift: int):
    """A cutoff of the given kind for the ladder of ``degree``."""
    rung = lambda j: degree_eigenvalue(n + 1, degree + j) - shift  # noqa: E731
    if kind == "rational":
        return q(Fraction(r.randint(-400, 40000), r.choice((1, 2, 3, 10**6))))
    if kind == "same-field":  # irrational in the degree's field, or Q(sqrt(2))
        return make_quad(r.randint(-100, 4000), Fraction(r.randint(1, 300), r.randint(1, 9)),
                         degree.s if degree.s > 1 else 2)
    if kind == "other-field":
        s = r.choice([m for m in (3, 5, 6, 7, 11, 13) if m != degree.s])
        b = Fraction(r.choice((-1, 1)) * r.randint(1, 30), r.randint(1, 9))
        return make_quad(r.randint(-100, 4000), b, s)
    if kind == "on-rung":
        return rung(r.randint(0, 60))
    if kind == "below-rung":
        return rung(r.randint(0, 60)) - Fraction(1, r.choice((1, 10**3, 10**9)))
    # below rung 0, sometimes far below -(n+1)^2/4 - shift
    return rung(0) - r.choice((Fraction(1, 10**9), 1, 10**4))


CUTOFF_KINDS = ("rational", "same-field", "other-field", "on-rung", "below-rung", "below-first")


def _one_ladder(n, degree, out_shift, cutoff, mult, block, i, first=0, doubled_from=None):
    """The class enumerator over the class of ``degree`` with this one
    seed: its lines, ascending, and their (value, mult, tag) triples."""
    key = (degree.q, degree.d, degree.s, degree.p % degree.d)
    seed = (degree.p // degree.d, block, i, first, doubled_from, mult)
    top2 = conemaps._top2(n, cutoff, out_shift)
    lines = conemaps._class_lines(n, out_shift, cutoff, top2, key, [seed])
    assert all(compare(a[0], b[0]) < 0 for a, b in zip(lines, lines[1:]))
    return _as_triples(lines)


def _as_triples(lines):
    """One seed's class lines, (value, mult, (origin,)), as the reference's
    (value, mult, tag) triples; a value that is not canonical is unequal to
    the reference's, since QuadReal equality compares the four integers."""
    assert all(len(origins) == 1 and type(origins[0]) is Origin and origins[0].mult == mult
               for _, mult, origins in lines)
    return [(value, o.mult, (o.block, o.i, o.j)) for value, _, (o,) in lines]


@pytest.mark.parametrize("irrational", [False, True], ids=["rational-degree", "irrational-degree"])
@pytest.mark.parametrize("kind", CUTOFF_KINDS)
def test_family_matches_the_per_rung_loop(irrational, kind):
    r = random.Random(f"family-{irrational}-{kind}")
    for _ in range(40):
        n = r.randint(2, 9)
        degree = _random_degree(r, n, irrational)
        shift = r.choice((0, 1, n, n + 1, 2 * n))
        cutoff = _random_cutoff(r, kind, n, degree, shift)
        options = {"first": int(r.random() < 0.5), "doubled_from": r.choice((None, 0, 1, 2, 5))}
        args = (n, degree, shift, cutoff, r.randint(1, 5), "blk", r.randint(0, 3))
        got = _one_ladder(*args, **options)
        assert got == _family_by_steps(*args, **options)
        if kind == "on-rung":  # empty only when the cutoff is the skipped rung 0
            assert compare(got[-1][0], cutoff) == 0 if got else options["first"] == 1
        if kind == "below-first":
            assert got == []


def _fields(x):
    return (x.p, x.q, x.d, x.s)


# (n, base eigenvalue, output shift, the degree's (D, Q), integer lines):
# the class enumerator writes integer lines without a gcd exactly when
# Q == 0 and D == 1, the class of the integers (every output shift is an
# integer); a degree at -(n-1)/2 for even n sits at a negative class offset
FAMILY_BOUNDARIES = {
    "integer-degree-integer-shift": (3, 24, 4, (1, 0), True),
    "negative-integer-degree": (3, -1, 0, (1, 0), True),
    "negative-half-integer-degree": (4, Fraction(-9, 4), 1, (2, 0), False),
    "half-integer-degree": (4, Fraction(7, 4), 5, (2, 0), False),
    "irrational-degree-denominator-1": (3, 1, 4, (1, 1), False),
}


@pytest.mark.parametrize("case", FAMILY_BOUNDARIES)
@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("doubled_from", [None, 0, 2])
def test_family_paths_at_their_boundaries(case, first, doubled_from):
    n, x, shift, (big_d, big_q), integer_lines = FAMILY_BOUNDARIES[case]
    degree = harmonic_degree(n, x)
    assert (degree.d, degree.q) == (big_d, big_q)
    on_rung = degree_eigenvalue(n + 1, degree + 7) - from_rational(shift)
    for cutoff in (q(300), on_rung, q(-50)):
        args = (n, degree, shift, cutoff, 3, "blk", 1, first, doubled_from)
        got = _one_ladder(*args)
        assert got == _family_by_steps(*args)
        assert bool(got) == (cutoff != q(-50))
        for value, _, _ in got:  # canonical: each line value is _norm's fields
            assert _fields(value) == _fields(_norm(*_fields(value)))
            assert (value.q, value.d) == (0, 1) or not integer_lines


def test_family_key_of_a_rational_rung_of_an_irrational_degree():
    # degree -n/2 + sqrt(2): rung 0 is (sqrt(2) - n/2)(sqrt(2) + n/2) = 2 - n^2/4,
    # rational, so its value takes _norm's s = 1
    for n in (3, 4, 7):
        degree = make_quad(Fraction(-n, 2), 1, 2)
        args = (n, degree, 0, q(60), 1, "blk", 0)
        got = _one_ladder(*args)
        first = got[0][0]
        assert _fields(first) == _fields(q(2 - Fraction(n * n, 4))) == _fields(_norm(*_fields(first)))
        assert got == _family_by_steps(*args)


def _rungs_by_steps(base, part, cutoff):
    """Every rung feeding ``part``, as (value, mult, tag) triples from the
    per-rung reference loop, on the rungs FEEDS names for each line."""
    n = base.n
    raw = []
    out, entries = conemaps._feeds(part, n)
    for source, inner, block, rungs in entries:
        for i, line in enumerate(getattr(base, source).lines):
            named = [k for k in rungs if k is not None and line.value == q(k[0] * n + k[1])]
            pattern = rungs[named[0]] if named else rungs.get(None, (0, None))
            if pattern is not None:
                degree = harmonic_degree(n, line.value + inner)
                raw += _family_by_steps(n, degree, out, cutoff, line.multiplicity, block, i, *pattern)
    return raw


#: The public cone map of each part, as (base, cutoff) -> Spectrum, and the
#: parts whose completeness it asks for.
PART_MAPS = {
    "functions": (map_functions, ("functions",)),
    "exact": (lambda b, c: map_one_forms(b, c).exact_part, ("exact", "coclosed")),
    "coclosed": (map_coclosed_one_forms, ("coclosed",)),
    "conformal": (lambda b, c: map_einstein(b, c, ("conformal",)).conformal_block, ("conformal",)),
    "vector": (lambda b, c: map_einstein(b, c, ("vector",)).vector_block, ("vector",)),
    "tt": (lambda b, c: map_einstein(b, c, ("tt",)).tt_block, ("tt",)),
}


def _part_lines(base, part, cutoff):
    """The lines ``_ladders`` enumerates for ``part``, after checking each
    one: origins in tag order, summing to the line's multiplicity."""
    lines = conemaps._ladders(base, part, cutoff)
    for _, mult, origins in lines:
        assert all(type(o) is Origin for o in origins)
        assert list(origins) == sorted(origins) and mult == sum(o.mult for o in origins)
    return lines


@pytest.mark.parametrize("part", sorted(conemaps.FEEDS))
def test_keyed_cone_map_equals_merge_over_the_same_rungs(part):
    from tests.conftest import synthetic_base

    r = random.Random(f"keyed-{part}")
    cone_map, needs = PART_MAPS[part]
    for _ in range(30):
        base = synthetic_base(r)
        window = min(supported_window(base, needs))
        if r.random() < 0.3:  # an irrational cutoff, below the window
            cutoff = make_quad(window - 2, Fraction(1, r.randint(2, 9)), r.choice((2, 3, 5)))
        else:
            cutoff = q(Fraction(r.randint(-4, 4 * int(window)), 4))
        got = cone_map(base, cutoff)
        # the same rungs, as QuadReal triples from _ladders' class lines
        # and from the per-rung reference, which merge takes in shuffled order
        lines = _part_lines(base, part, cutoff)
        keyed = [(value, o.mult, o[:3]) for value, _, origins in lines for o in origins]
        by_steps = _rungs_by_steps(base, part, cutoff)
        assert sorted(keyed, key=lambda t: t[2]) == sorted(by_steps, key=lambda t: t[2])
        r.shuffle(by_steps)
        assert got == merge(by_steps, cutoff) == line_spectrum(lines, cutoff)


def _assert_part_matches_reference(base, part, cutoff):
    """Every line of ``part``, value, multiplicity and origins in order,
    equals the per-rung reference merged; returns the class lines."""
    lines = _part_lines(base, part, cutoff)
    assert line_spectrum(lines, cutoff) == merge(_rungs_by_steps(base, part, cutoff), cutoff)
    return lines


#: the boundary pattern of a ladder-deep-style base: (scalar line on n,
#: coclosed 1-form line on the Killing value n - 1)
BOUNDARY_PATTERNS = ((False, False), (True, False), (False, True), (True, True))


def _ladder_base(r: random.Random, k: int, rungs: int = 14):
    """A base in the style of the ladder-deep benchmark, and its window:
    every line is y(y+n-1) for a rational y of one denominator, one
    nonzero scalar line, one coclosed 1-form line (eigenvalue
    y(y+n-1) - 1, at ladder degree y) and two TT lines, on boundary
    pattern k % 4; every third base puts a TT line on the Hardy bound."""
    n = 3 + k % 6
    den = (1, 2, 3, 4, 6)[k % 5]
    on_n, on_killing = BOUNDARY_PATTERNS[k % 4]

    def draw(lo, hi):
        return Fraction(r.randint(-((-lo * den) // 1), (hi * den) // 1), den)

    def value(y):
        return y * (y + n - 1)

    y0 = Fraction(1) if on_n else draw(Fraction(5, 4), 4)
    y1 = Fraction(1) if on_killing else draw(Fraction(5, 4), 4)
    tt = {Fraction(-(n - 1), 2)} if k % 3 == 0 else set()
    while len(tt) < 2:
        tt.add(draw(Fraction(-(n - 1), 2), 3))
    window = Fraction(rungs * (rungs + n))
    cut = window + 2 * n + 1
    base = _simple_base(n, [(0, 1), (value(y0), r.randint(1, 4))], [(value(y1) - 1, r.randint(1, 4))],
                        [(value(y), r.randint(1, 3)) for y in sorted(tt)], (cut, cut, cut))
    return base, window


@pytest.mark.parametrize("part", sorted(conemaps.FEEDS))
def test_class_lines_match_the_per_rung_reference_on_ladder_bases(part):
    r = random.Random(f"classes-{part}")
    for k in range(24):  # every boundary pattern, denominator and dimension
        base, window = _ladder_base(r, k)
        for cutoff in (q(window), q(window - Fraction(1, 7)), make_quad(window - 3, 1, 2)):
            _assert_part_matches_reference(base, part, cutoff)


@pytest.mark.parametrize("part", sorted(conemaps.FEEDS))
def test_class_lines_match_the_per_rung_reference_on_irrational_degrees(part):
    from tests.conftest import synthetic_base

    r = random.Random(f"irrational-classes-{part}")
    _, needs = PART_MAPS[part]
    irrational = 0
    for _ in range(30):
        base = synthetic_base(r, n=r.randint(3, 6), max_den=7)
        window = min(supported_window(base, needs))
        cutoff = (make_quad(window - 2, Fraction(r.choice((-1, 1)), r.randint(2, 9)), r.choice((2, 3, 5)))
                  if r.random() < 0.5 else q(Fraction(r.randint(0, 7 * int(window)), 7)))
        lines = _assert_part_matches_reference(base, part, cutoff)
        irrational += sum(1 for value, _, _ in lines if value.q != 0)
    assert irrational > 0


@pytest.mark.parametrize("part", sorted(conemaps.FEEDS))
def test_a_boundary_numerator_over_a_denominator_is_an_ordinary_line(part):
    # under the low-spectrum override a scalar line n/d and a coclosed 1-form
    # line (n-1)/d with d > 1 pass validation: they share a boundary line's
    # numerator, not its value, so their ladders are the ordinary ones, while
    # the dimension line 5 and the Killing line 4 keep their boundary rungs
    n, cut = 5, q(80)
    with pytest.warns(UserWarning, match="proceeding outside the usual hypotheses"):
        base = GeometricSpectrum(
            n=n,
            spec0=merge([(q(0), 1, ("b0", 0, 0)), (q(Fraction(5, 2)), 2, ("b0", 1, 0)),
                         (q(5), 3, ("b0", 2, 0))], cut),
            spec1D=merge([(q(Fraction(4, 3)), 1, ("b1", 0, 0)), (q(4), 2, ("b1", 1, 0))], cut),
            specE_TT=merge([(q(0), 1, ("bE", 0, 0))], cut),
            hypothesis_override=True,
        )
    for cutoff in (q(40), make_quad(30, 1, 3)):
        assert _assert_part_matches_reference(base, part, cutoff)


@pytest.mark.parametrize("source", ["spec0", "spec1D"])
def test_an_irrational_line_on_a_boundary_numerator_needs_its_degree(source):
    # n + sqrt(2) and (n-1) + sqrt(2) are not the dimension and Killing lines
    # that the TT part skips: their ladders need a nested radical
    n, cut = 5, q(80)
    scalars, forms = [(q(0), 1, ("b0", 0, 0))], []
    if source == "spec0":
        scalars.append((make_quad(n, 1, 2), 1, ("b0", 1, 0)))
    else:
        forms.append((make_quad(n - 1, 1, 2), 1, ("b1", 0, 0)))
    base = GeometricSpectrum(n=n, spec0=merge(scalars, cut), spec1D=merge(forms, cut),
                             specE_TT=merge([(q(0), 1, ("bE", 0, 0))], cut))
    with pytest.raises(NotRepresentable, match="harmonic degree of irrational eigenvalue"):
        map_einstein(base, q(40), ("tt",))


def test_feeds_of_tt_meet_in_one_class_at_a_negative_offset():
    # n = 4, all degrees in 1/2 + Z: scalar 5/2, 1-form 3/2, TT -3/2 (the
    # Hardy bound, class offset -2) and 1/2; every line of the class above
    # 5/2 takes a rung of each of the four seeds, in (block, i) order
    n = 4

    def value(y):
        return y * (y + n - 1)

    base = _simple_base(n, [(0, 1), (value(Fraction(5, 2)), 2)], [(value(Fraction(3, 2)) - 1, 3)],
                        [(hardy_bound(n), 1), (value(Fraction(1, 2)), 2)], (80, 80, 80))
    for cutoff in (q(60), q(Fraction(129, 4)), make_quad(30, 1, 3)):
        lines = _assert_part_matches_reference(base, "tt", cutoff)
        blocks = [tuple(o.block for o in origins) for _, _, origins in lines]
        assert blocks[-1] == ("E-tt-form", "E-tt-scalar", "E-tt-tensor", "E-tt-tensor")
        assert lines[0][0] == q(Fraction(-15, 4)) and lines[0][2] == (Origin("E-tt-tensor", 0, 0, 1),)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_conformal_doubling_inside_the_integer_class(n):
    # over a sphere every scalar degree is an integer: the zero line (doubled
    # from rung 2), the dimension line (from rung 1) and the rest (from rung
    # 0) share the class of the integers, as do the vector block's seeds
    big = q(200)
    forms = [(q(n - 1), n * (n + 1) // 2, ("b1", 0, 0)), (q(2 * n + 1), 3, ("b1", 1, 0))]  # degrees 1, 2
    base = GeometricSpectrum(n=n, spec0=sphere_functions(n, big), spec1D=merge(forms, big),
                             specE_TT=empty_spectrum(big))
    for part in ("conformal", "vector", "exact", "functions"):
        for cutoff in (q(60), q(59), make_quad(40, -1, 5)):
            lines = _assert_part_matches_reference(base, part, cutoff)
            assert any(len(origins) > 1 for _, _, origins in lines)
    lines = conemaps._ladders(base, "conformal", q(60))
    mults = {o[:3]: o.mult for _, _, origins in lines for o in origins}
    assert [mults.get(("E-conf", 0, j)) for j in range(4)] == [1, 1, 2, 2]
    assert [mults.get(("E-conf", 1, j)) for j in range(3)] == [n + 1, 2 * (n + 1), 2 * (n + 1)]


def test_a_seed_whose_first_rung_lies_above_the_class_last_line():
    # n = 4: the TT line 0 sits at degree 0 and the scalar line 18 at degree
    # 3, one class; at cutoff 11/2 the class ends at degree 1, below the
    # scalar seed's first rung, which adds nothing
    base = _simple_base(4, [(0, 1), (18, 2)], [], [(0, 1)], (40, 40, 40))
    cutoff = q(Fraction(11, 2))
    lines = _assert_part_matches_reference(base, "tt", cutoff)
    assert [(value, mult) for value, mult, _ in lines] == [(q(0), 1), (q(5), 1)]
    seeds = [(3, "E-tt-scalar", 1, 0, None, 2), (0, "E-tt-tensor", 0, 0, None, 1)]
    assert conemaps._class_lines(4, 0, cutoff, conemaps._top2(4, cutoff, 0), (0, 1, 1, 0), seeds) == lines


@pytest.mark.parametrize("part", ["tt", "conformal"])
def test_a_cutoff_below_the_integer_bound_but_not_below_the_ladders(part):
    # n = 3, the TT degree -1 on the Hardy bound and the scalar degree 0:
    # with cutoff + out = -17/8, 4 c + n^2 = -3 < 0 for c = floor(cutoff) +
    # out, yet cutoff + out >= -n^2/4; no line lies that low, and none is made
    n = 3
    out = conemaps._feeds(part, n)[0]
    cutoff = q(Fraction(-17, 8) - out)
    c = cutoff.p // cutoff.d + out
    assert 4 * c + n * n < 0 <= cutoff.as_fraction() + out + Fraction(n * n, 4)
    base = _simple_base(n, [(0, 1), (3, 1)], [], [(hardy_bound(n), 2)], (20, 20, 20))
    assert _assert_part_matches_reference(base, part, cutoff) == []
    assert _one_ladder(n, harmonic_degree(n, hardy_bound(n)), out, cutoff, 1, "blk", 0) == []


def test_the_class_enumerator_counts_a_class_once(monkeypatch):
    # the scalar cone of S^3 at 2 * 10**4: 140 seeds in the class of the
    # integers, one harmonic degree each and at most two step-up comparisons
    cutoff = q(20000)
    base = _sphere_base(3, 20000)
    calls = {"compare": 0, "harmonic_degree": 0}
    for name in calls:
        original = getattr(conemaps, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(conemaps, name, counted)
    spectrum = map_functions(base, cutoff)
    assert len(base.spec0.lines) == calls["harmonic_degree"] == 140
    assert calls["compare"] <= 2
    assert spectrum.lines[-1].multiplicity == sum(o.mult for o in spectrum.lines[-1].origins)


# -- scalar map --------------------------------------------------------------


def test_map_functions_sphere_closure_example():
    base = _sphere_base(3, 18)
    out = map_functions(base, q(18))
    assert [(l.value, l.multiplicity) for l in out.lines] == [
        (q(0), 1), (q(4), 5), (q(10), 14), (q(18), 30)
    ]
    target = sphere_functions(4, q(18))
    assert equal_up_to(out, target, q(18))


def test_map_functions_minimal_base():
    base = _simple_base(3, [(0, 1)], [], [], (10, -1, -1))
    out = map_functions(base, q(10))
    assert [(l.value, l.multiplicity) for l in out.lines] == [
        (q(0), 1), (q(4), 1), (q(10), 1)
    ]


def test_map_functions_always_contains_dimension_line(rng):
    from tests.conftest import synthetic_base

    for _ in range(25):
        gs = synthetic_base(rng)
        out = map_functions(gs, q(2 * (gs.n + 2)))
        assert out.multiplicity_of(q(gs.n + 1)) >= 1


def test_map_functions_obata_transfer(rng):
    from tests.conftest import synthetic_base
    from sinecone.spectra import positive_min

    for _ in range(25):
        gs = synthetic_base(rng)
        if positive_min(gs.spec0) is None or compare(positive_min(gs.spec0), q(gs.n)) < 0:
            continue
        out = map_functions(gs, q(2 * (gs.n + 2)))
        assert compare(positive_min(out), q(gs.n + 1)) >= 0


def test_map_functions_refuses_incomplete_base():
    base = _simple_base(3, [(0, 1)], [], [], (5, -1, -1))
    with pytest.raises(InsufficientBaseCutoff):
        map_functions(base, q(100))


# -- one-form map ------------------------------------------------------------


def test_killing_count_identity():
    # base with both boundary lines: coclosed cone value n with mult a + b
    n, a, b = 5, 3, 2
    base = _simple_base(
        n,
        [(0, 1), (n, b), (2 * n + 2, 1)],
        [(n - 1, a), (2 * n, 1)],
        [],
        (30, 30, -1),
    )
    out = map_coclosed_one_forms(base, q(3 * n))
    assert out.multiplicity_of(q(n)) == a + b


def test_one_form_killing_single_sources():
    n = 4
    base_mu = _simple_base(n, [(0, 1), (2 * n, 1)], [(n - 1, 2)], [], (30, 30, -1))
    out = map_coclosed_one_forms(base_mu, q(10))
    assert out.multiplicity_of(q(n)) == 2
    base_lam = _simple_base(n, [(0, 1), (n, 3)], [], [], (30, 30, -1))
    out = map_coclosed_one_forms(base_lam, q(10))
    assert out.multiplicity_of(q(n)) == 3


def test_one_form_exact_part_drops_constant_rung():
    n = 3
    base = _simple_base(n, [(0, 1)], [], [], (40, 40, -1))
    out = map_one_forms(base, q(10))
    # ladder j(j+3) - 3 for j >= 1: 1, 7, ...; the j=0 rung -3 is absent
    assert out.exact_part.values() == [q(1), q(7)]
    assert out.coclosed_part.values() == []


def test_one_form_coclosed_minimum_bound(rng):
    # cone Killing bound: every coclosed cone value is at least n (cone dim - 1... the
    # cone has dimension n+1 and Einstein constant n, so the bound is n)
    from tests.conftest import synthetic_base

    for _ in range(20):
        gs = synthetic_base(rng)
        out = map_coclosed_one_forms(gs, q(2 * (gs.n + 2)))
        for line in out.lines:
            assert compare(line.value, q(gs.n)) >= 0


# -- Einstein map ------------------------------------------------------------


def test_map_einstein_product_marker_n9():
    gs = product_geometric_spectrum(ProductMarker(4, 5))
    out = map_einstein(gs, q(0), blocks=("tt",))
    assert [(l.value, l.multiplicity) for l in out.tt_block.lines] == [
        (q(-20), 1), (q(-18), 1), (q(-14), 1), (q(-8), 1), (q(0), 1)
    ]


def test_map_einstein_unbounded_below():
    gs = product_geometric_spectrum(ProductMarker(4, 4))  # n=8, tt line -14 < -49/4
    with pytest.raises(UnboundedBelow):
        map_einstein(gs, q(0), blocks=("tt",))


@pytest.mark.parametrize("n", range(3, 13))
def test_hardy_bound_is_one_boundary_across_modules(n):
    # a TT line exactly at the bound passes every layer; a quarter below it
    # is refused by the transform and the zero-mode finder with one message,
    # classified as physically unstable, and rejected by the radial oracle
    def tt_base(kappa):
        return _simple_base(n, [(0, 1)], [], [(kappa, 1)], (n, n - 1, 0))

    hardy = hardy_bound(n)
    at = tt_base(hardy)
    map_einstein(at, q(0), blocks=("tt",))
    find_ieds(at)
    assert classify(at).physical.holds is True
    RadialProblem(n, hardy, "tt")

    below = hardy - Fraction(1, 4)
    gs = tt_base(below)
    with pytest.raises(UnboundedBelow) as transform:
        map_einstein(gs, q(0), blocks=("tt",))
    with pytest.raises(UnboundedBelow) as finder:
        find_ieds(gs)
    assert str(transform.value) == str(finder.value)
    assert classify(gs).physical.holds is False
    with pytest.raises(IllPosed):
        RadialProblem(n, below, "tt")


def test_map_einstein_scalar_boundary_drops_tt_ladder():
    n = 4
    base = _simple_base(n, [(0, 1), (n, 2), (2 * n + 3, 1)], [], [(1, 1)], (40, 40, 40))
    out = map_einstein(base, q(12), blocks=("tt",))
    assert out.scalar_boundary_case
    # the dimension-line ladder contributes nowhere in the TT block
    assert all(
        all(o.block != "E-tt-scalar" or base.spec0.lines[o.i].value != q(n) for o in l.origins)
        for l in out.tt_block.lines
    )
    # but a non-boundary base keeps it
    base2 = _simple_base(n, [(0, 1), (n + 1, 2), (2 * n + 3, 1)], [], [(1, 1)], (40, 40, 40))
    out2 = map_einstein(base2, q(12), blocks=("tt",))
    assert any(o.block == "E-tt-scalar" for l in out2.tt_block.lines for o in l.origins)


def test_map_einstein_oneform_boundary_drops():
    n = 4
    base = _simple_base(n, [(0, 1)], [(n - 1, 2), (n + 1, 1)], [(1, 1)], (40, 40, 40))
    out = map_einstein(base, q(12), blocks=("vector", "tt"))
    assert out.oneform_boundary_case
    assert all(
        all(o.block != "E-tt-form" or base.spec1D.lines[o.i].value != q(n - 1) for o in l.origins)
        for l in out.tt_block.lines
    )
    # vector block drops only the first rung of the boundary ladder
    boundary_vec = [
        (l.value, o.j)
        for l in out.vector_block.lines
        for o in l.origins
        if o.block == "E-vec-form" and base.spec1D.lines[o.i].value == q(n - 1)
    ]
    assert boundary_vec and all(j >= 1 for _, j in boundary_vec)


def test_map_einstein_conformal_multiplicities():
    n = 4
    base = _simple_base(n, [(0, 1), (n + 2, 3)], [], [], (60, -1, -1))
    out = map_einstein(base, q(5), blocks=("conformal",))
    lines = {l.value: l.multiplicity for l in out.conformal_block.lines}
    # constant ladder: j=0 gives -2n with a single copy, j=1 gives 1-n single
    assert lines[q(-2 * n)] == 1
    assert lines[q(1 - n)] == 1
    # j=2 rung of the constant ladder is doubled
    assert lines[q(degree_eigenvalue(n + 1, 2).as_fraction() - 2 * n)] == 2
    # positive-line ladder rungs are doubled (2 * mult 3 = 6)
    deg = harmonic_degree(n, n + 2)
    first = degree_eigenvalue(n + 1, deg) - 2 * n
    assert lines[first] == 6


def test_map_einstein_scalar_boundary_conformal_single_copy():
    n = 4
    base = _simple_base(n, [(0, 1), (n, 5)], [], [], (60, -1, -1))
    out = map_einstein(base, q(5), blocks=("conformal",))
    lines = {l.value: l.multiplicity for l in out.conformal_block.lines}
    # boundary ladder rung j=0 keeps a single copy (value (n+1) - 2n = 1-n is
    # shared with the constant ladder's j=1 rung, mult 1): total 5 + 1
    assert lines[q(1 - n)] == 6
    # its j=1 rung is doubled (10) and merges with the doubled j=2 rung of
    # the constant ladder (2): value 2(n+2) - 2n = 4
    assert lines[q(4)] == 12


def test_tt_block_lower_bound(rng):
    # with all tensor lines >= -(n-1)^2/4, every TT cone value >= -(n^2-1)/4
    from tests.conftest import synthetic_base

    for _ in range(25):
        gs = synthetic_base(rng)
        out = map_einstein(gs, q(2 * (gs.n + 2)), blocks=("tt",))
        bound = from_rational(Fraction(-(gs.n * gs.n - 1), 4))
        for line in out.tt_block.lines:
            assert compare(line.value, bound) >= 0


# -- windows -----------------------------------------------------------------


def test_window_round_trip(rng):
    # the forward window of a part is the largest one the declared
    # completeness supports: its backward requirement fits every source,
    # and the requirement one past it does not
    from tests.conftest import synthetic_base

    for _ in range(300):
        gs = synthetic_base(rng)
        declared = (gs.spec0.cutoff, gs.spec1D.cutoff, gs.specE_TT.cutoff)
        parts = ("functions", "coclosed", "tt")
        for part, w in zip(parts, supported_window(gs, parts)):
            fits = source_requirements(gs.n, {part: q(w)})
            beyond = source_requirements(gs.n, {part: q(w + 1)})
            assert all(compare(q(r), c) <= 0 for r, c in zip(fits, declared)), (gs, part, w)
            assert any(compare(q(r), c) > 0 for r, c in zip(beyond, declared)), (gs, part, w)


def _count_radicands(monkeypatch):
    """Record each harmonic_degree call of conemaps as (n, x), and each
    squarefree_decompose call as the n of the harmonic_degree call that
    made it (None outside one)."""
    real_degree, real_decompose = conemaps.harmonic_degree, conemaps.squarefree_decompose
    degrees, decomposed, inside = [], [], []

    def counting_degree(n, x):
        degrees.append((n, x))
        inside.append(n)
        try:
            return real_degree(n, x)
        finally:
            inside.pop()

    def counting_decompose(m):
        decomposed.append(inside[-1] if inside else None)
        return real_decompose(m)

    monkeypatch.setattr(conemaps, "harmonic_degree", counting_degree)
    monkeypatch.setattr(conemaps, "squarefree_decompose", counting_decompose)
    monkeypatch.setattr(exactreal, "squarefree_decompose", counting_decompose)
    return degrees, decomposed


def test_window_step_of_a_cone_step_factors_no_radicand(rng, monkeypatch):
    # compute_cone's window step decides every window top by an integer
    # square root: no harmonic degree, no squarefree decomposition
    from tests.conftest import synthetic_base

    real_window = stability.supported_window
    degrees, decomposed = _count_radicands(monkeypatch)
    seen = []

    def window_step(gs, parts):
        degrees.clear()
        decomposed.clear()
        windows = real_window(gs, parts)
        seen.append((list(degrees), list(decomposed)))
        return windows

    monkeypatch.setattr(stability, "supported_window", window_step)
    for _ in range(20):
        stability.compute_cone(synthetic_base(rng))
    assert seen == [([], [])] * 20


def test_window_keeps_a_source_at_two_inner_shifts_apart(rng, monkeypatch):
    # every FEEDS source has one inner shift today; a source fed at two shifts
    # needs both degrees, so one call must agree with a call per part
    from tests.conftest import synthetic_base

    monkeypatch.setitem(conemaps.FEEDS, "low", ((0, 0), (("spec0", 0, "low", {}),)))
    monkeypatch.setitem(conemaps.FEEDS, "high", ((0, 1), (("spec0", 2, "high", {}),)))
    for _ in range(50):
        gs = synthetic_base(rng)
        low, high = supported_window(gs, ("low", "high"))
        assert [low, high] == supported_window(gs, ("low",)) + supported_window(gs, ("high",))
        assert low < high


# The window algebra in integers against its QuadReal reference: a window
# top is rational_floor(degree_eigenvalue(n+1, harmonic_degree(n, c))), a
# requirement degree_eigenvalue(n, harmonic_degree(n+1, x)) - inner at the
# shifted cutoff x, each built in QuadReal arithmetic.


def _quad_windows(gs, parts):
    tops = {}
    feeds = {part: conemaps._feeds(part, gs.n) for part in parts}
    for source, inner, _, _ in (f for _, entries in feeds.values() for f in entries):
        c = rational_floor(getattr(gs, source).cutoff) + inner
        if c >= hardy_bound(gs.n):
            tops[source, inner] = rational_floor(degree_eigenvalue(gs.n + 1, harmonic_degree(gs.n, c)))
    return [min(tops[s, i] - out if (s, i) in tops else Fraction(-1)
                for s, i, _, _ in entries) for out, entries in feeds.values()]


def _quad_requirement(n, cutoff, out, inner):
    # required_source_cutoff in QuadReal arithmetic from end to end
    x = cutoff + q(out)
    if compare(x, q(Fraction(-(n * n - 1), 4))) < 0:
        return None
    x = x.as_fraction() if x.is_rational() else rational_ceiling(x)
    return degree_eigenvalue(n, harmonic_degree(n + 1, x)) - inner


def _quad_requirements(n, windows):
    need = dict.fromkeys(conemaps.SOURCES, Fraction(-1))
    for part, window in windows.items():
        out, entries = conemaps._feeds(part, n)
        for source, inner, _, _ in entries:
            bound = _quad_requirement(n, window, out, inner)
            if bound is not None:
                need[source] = max(need[source], rational_ceiling(bound))
    return tuple(need.values())


@pytest.mark.parametrize("n", [2, 3, 4, 9, 12])
def test_required_source_cutoff_is_the_quadreal_requirement_on_every_feed(n):
    # every FEEDS entry, at cutoffs from below the least rung (None) through
    # the least rung itself, a rational requirement (n^2 + 4x a square) and
    # irrational cutoffs on either side of the least rung, 10**-4 away and
    # within 10**-6, where 10**6 x floors to the rung's own grid point
    for part in sorted(conemaps.FEEDS):
        out, entries = conemaps._feeds(part, n)
        for _, inner, _, _ in entries:
            least = Fraction(-(n * n - 1), 4) - out
            below = q(least - Fraction(1, 10 ** 6))
            cutoffs = [below, q(least - 7), q(least), q(0), q(Fraction(37, 3)), q(20 * n),
                       q(Fraction(5 * 5 - n * n, 4) - out), make_quad(Fraction(7, 2), Fraction(-1, 3), 2),
                       make_quad(least, Fraction(1, 10 ** 4), 3), make_quad(least, Fraction(-1, 10 ** 4), 3),
                       make_quad(least, Fraction(1, 10 ** 7), 3), make_quad(least, Fraction(-1, 10 ** 7), 3)]
            assert _quad_requirement(n, below, out, inner) is None
            assert _quad_requirement(n, q(least), out, inner) is not None
            for cutoff in cutoffs:
                assert required_source_cutoff(n, cutoff, out, inner) == _quad_requirement(
                    n, cutoff, out, inner), (n, part, out, inner, cutoff)


_ns = st.integers(min_value=2, max_value=14)
_roots = st.fractions(min_value=0, max_value=60, max_denominator=12)


@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6), st.sampled_from([-1, 1]),
       st.integers(min_value=0, max_value=10 ** 9), st.booleans(),
       st.integers(min_value=1, max_value=10 ** 4), st.booleans())
@example(p=7, sign=-1, r=9, square=False, d=2, up=True)  # (7 - 3)/2 = 2 exactly
@example(p=0, sign=1, r=0, square=False, d=1, up=False)
@settings(max_examples=300)
def test_grid_bound_matches_the_quadreal_floor_and_ceiling(p, sign, r, square, d, up):
    r = r * r if square else r
    value = make_quad(Fraction(p, d), Fraction(sign, d), r)
    bound = Fraction(*conemaps._grid_bound(p, sign, r, d, up))
    assert bound == (rational_ceiling(value) if up else rational_floor(value))


@given(_ns, _roots, st.booleans(), st.integers(min_value=0, max_value=2))
@example(n=9, t=Fraction(0), square=True, inner=0)  # a cutoff at the Hardy bound
@example(n=4, t=Fraction(5, 2), square=True, inner=0)  # a rational top
@settings(max_examples=150)
def test_window_top_matches_the_quadreal_top(n, t, square, inner):
    # c = hardy(n) + t^2 gives a rational top, c = hardy(n) + t mostly not
    c = hardy_bound(n) + (t * t if square else t)
    cut = c - inner
    gs = GeometricSpectrum(n, merge([(q(0), 1, ("g0", 0, 0))], q(max(cut, 0))),
                           empty_spectrum(q(cut)), empty_spectrum(q(cut)))
    parts = sorted(conemaps.FEEDS)
    assert supported_window(gs, parts) == _quad_windows(gs, parts)


def test_window_matches_the_quadreal_windows_on_declared_bases(rng):
    # rational and irrational declared cutoffs, on every part of FEEDS
    from tests.conftest import synthetic_base

    parts = sorted(conemaps.FEEDS)
    for k in range(200):
        gs = synthetic_base(rng)
        if k % 2:
            tilt = make_quad(0, Fraction(rng.choice([-1, 1]), rng.randint(2, 10 ** 4)), rng.choice([2, 3, 7]))
            gs = GeometricSpectrum(gs.n, gs.spec0, gs.spec1D,
                                   merge([(line.value, line.multiplicity, ("gE", i, 0))
                                          for i, line in enumerate(gs.specE_TT.lines)
                                          if compare(line.value, gs.specE_TT.cutoff + tilt) <= 0],
                                         gs.specE_TT.cutoff + tilt))
        assert supported_window(gs, parts) == _quad_windows(gs, parts), gs


@st.composite
def _requirement_windows(draw):
    """(n, windows): a window per drawn part, rational, irrational, one that
    makes a feed's requirement rational (n^2 + 4x a square, x = window + out),
    or one at the least rung -(n^2-1)/4 and just below it."""
    n = draw(st.integers(min_value=3, max_value=14))
    parts = draw(st.lists(st.sampled_from(sorted(conemaps.FEEDS)), min_size=1, unique=True))
    windows = {}
    for part in parts:
        out = conemaps._feeds(part, n)[0]
        kind = draw(st.sampled_from(["rational", "irrational", "square", "least", "below"]))
        if kind == "rational":
            windows[part] = q(draw(st.fractions(min_value=-n * n, max_value=40 * n, max_denominator=12)))
        elif kind == "irrational":
            a = draw(st.fractions(min_value=-n * n, max_value=40 * n, max_denominator=12))
            b = draw(st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(bool))
            windows[part] = make_quad(a, b, draw(st.sampled_from([2, 3, 5, 30])))
        elif kind == "square":
            w = draw(st.fractions(min_value=1, max_value=40, max_denominator=12))
            windows[part] = q((w * w - n * n) / 4 - out)
        else:
            below = Fraction(1, 10 ** 6) if kind == "below" else 0
            windows[part] = q(Fraction(-(n * n - 1), 4) - out - below)
    return n, windows


@given(_requirement_windows())
@example(case=(4, {"functions": q(10)}))  # an irrational requirement, 12 - sqrt(14)
@settings(max_examples=100)
def test_source_requirements_match_the_quadreal_ceilings(case):
    n, windows = case
    assert source_requirements(n, windows) == _quad_requirements(n, windows)


@given(_requirement_windows(), st.integers(min_value=0, max_value=2),
       st.fractions(min_value=-30, max_value=30, max_denominator=12))
# n^2 + 4x = 9 at x = -7/4: the requirement is the rational -5/4 - inner
@example(case=(4, {"functions": q(Fraction(-7, 4))}), inner=0, offset=Fraction(30))
@settings(max_examples=100)
def test_falls_short_matches_the_quadreal_comparison(case, inner, offset):
    # haves: the requirement itself when it is rational, its rational floor
    # and ceiling, and the requirement moved by a rational offset
    n, windows = case
    for part, window in windows.items():
        out = conemaps._feeds(part, n)[0]  # one output shift serves every feed of the part
        need = _quad_requirement(n, window, out, inner)
        assert required_source_cutoff(n, window, out, inner) == need
        x = conemaps._shifted_cutoff(n, window, out)
        assert (need is None) == (x is None)
        if need is None:
            continue
        p, r, d = conemaps._requirement(n, x, inner)
        assert make_quad(Fraction(p, d), Fraction(-1, d), r) == need
        haves = [rational_floor(need), rational_ceiling(need), rational_floor(need) + offset]
        if need.is_rational():
            haves.append(need.as_fraction())
        for have in haves:
            assert conemaps._falls_short(p, r, d, q(have)) == (compare(q(have), need) < 0), (
                n, window, out, inner, have)


@given(st.integers(min_value=2, max_value=14),
       st.fractions(min_value=0, max_value=200, max_denominator=6),
       st.sampled_from([-1, 0, 1]), st.integers(min_value=0, max_value=8))
@example(n=4, window=Fraction(10), side=0, digits=0)  # exactly the irrational 12 - sqrt(14)
@settings(max_examples=200)
def test_an_irrational_source_cutoff_is_decided_against_the_quadreal_requirement(
        n, window, side, digits):
    # the scalar spectrum declared complete to its requirement, or to it
    # moved by an irrational hair (in the requirement's field): refused
    # exactly when the cutoff lies below it
    cutoff = q(window)
    need = _quad_requirement(n, cutoff, 0, 0)
    have = need + make_quad(0, Fraction(side, 10 ** digits), need.s if need.q else 2)
    gs = GeometricSpectrum(n, merge([(q(0), 1, ("g0", 0, 0))] if compare(have, q(0)) >= 0 else [], have),
                           empty_spectrum(), empty_spectrum())
    if compare(have, need) < 0:
        with pytest.raises(InsufficientBaseCutoff, match=f"complete only up to {re.escape(str(have))} "
                           f"but the requested output window needs completeness up to {re.escape(str(need))};"):
            map_functions(gs, cutoff)
    else:
        assert map_functions(gs, cutoff).cutoff == cutoff


# -- iteration ---------------------------------------------------------------


def test_iterate_zero_is_identity():
    gs = product_geometric_spectrum(ProductMarker(4, 5))
    assert iterate(gs, 0, q(0)) is gs


def test_iterate_sphere_closure():
    base = _sphere_base(3, 0)  # cutoff recomputed below, parts-only scalar chain
    need = iterate_base_requirements(3, 1, q(100), parts=("functions",))
    base = sphere_geometric_spectrum(3, q(need[0]))
    out = iterate(base, 1, q(100), parts=("functions",))
    assert out.n == 4
    assert equal_up_to(out.spec0, sphere_functions(4, q(100)), q(100))


def test_iterate_two_steps_matches_composition():
    need2 = iterate_base_requirements(2, 2, q(60), parts=("functions",))
    base = sphere_geometric_spectrum(2, q(need2[0]))
    two = iterate(base, 2, q(60), parts=("functions",))
    need_mid = iterate_base_requirements(3, 1, q(60), parts=("functions",))
    mid = iterate(base, 1, from_rational(need_mid[0]), parts=("functions",))
    composed = iterate(mid, 1, q(60), parts=("functions",))
    assert two.n == composed.n == 4
    assert equal_up_to(two.spec0, composed.spec0, q(60))
    assert equal_up_to(two.spec0, sphere_functions(4, q(60)), q(60))


def test_iterate_product_keeps_zero_mode():
    gs = product_geometric_spectrum(ProductMarker(4, 5))
    cone = iterate(gs, 1, q(0))
    assert cone.n == 10
    assert cone.specE_TT.multiplicity_of(q(0)) == 1
    # two steps from the base: the zero mode survives as a cone eigenvalue;
    # in fact every first-cone TT line has integral ladder degree, so all
    # five ladders reach zero on the second cone
    cone2 = iterate(gs, 2, q(0))
    assert cone2.n == 11
    assert cone2.specE_TT.multiplicity_of(q(0)) == 5
    zero_line = cone2.specE_TT.lines[-1]
    assert any(o.i == 4 and o.j == 0 for o in zero_line.origins)  # image of the kappa=0 line


@pytest.mark.parametrize("part", ITERATE_PARTS)
def test_single_iterate_part_brings_the_parts_it_reads(part):
    # functions read the scalar spectrum, coclosed forms also the coclosed
    # one, TT tensors all three: asking for one part carries its closure
    closure = ITERATE_PARTS[: ITERATE_PARTS.index(part) + 1]
    assert iterate_base_requirements(9, 2, q(0), (part,)) == iterate_base_requirements(
        9, 2, q(0), closure
    )
    gs = product_geometric_spectrum(ProductMarker(4, 5))
    out = iterate(gs, 2, q(0), (part,))
    assert out == iterate(gs, 2, q(0), closure)
    for name, spec in zip(ITERATE_PARTS, (out.spec0, out.spec1D, out.specE_TT)):
        assert spec.cutoff == (q(0) if name in closure else UNKNOWN_CUTOFF)


def test_iterate_rejects_irrational_intermediates():
    base = _simple_base(3, [(0, 1), (7, 1)], [], [], (200, 200, 200))
    with pytest.raises((NotRepresentable, InsufficientBaseCutoff)):
        iterate(base, 2, q(10))


def test_cone_scalar_spectrum_invariants(rng):
    # emergent invariants of the scalar transform: nonnegative values and a
    # single zero line
    from tests.conftest import synthetic_base

    for _ in range(30):
        gs = synthetic_base(rng)
        out = map_functions(gs, q(2 * (gs.n + 2)))
        assert out.multiplicity_of(q(0)) == 1
        for line in out.lines:
            assert compare(line.value, q(0)) >= 0


def test_merge_preserves_separate_counts_through_origins(rng):
    # coincident ladder values keep their per-family counts recoverable
    from tests.conftest import synthetic_base

    for _ in range(15):
        gs = synthetic_base(rng)
        out = map_functions(gs, q(2 * (gs.n + 2)))
        for line in out.lines:
            assert sum(o.mult for o in line.origins) == line.multiplicity


def test_a_cone_step_factors_no_requirement_radicand(rng, monkeypatch):
    # a successful cone step decides each source's completeness by integers:
    # it builds no required_source_cutoff, takes no harmonic degree over the
    # dim-(n+1) cone, and factors a radicand only for its ladder degrees
    from tests.conftest import synthetic_base

    real_need = conemaps.required_source_cutoff
    needs = []

    def counting_need(*args):
        needs.append(args)
        return real_need(*args)

    monkeypatch.setattr(conemaps, "required_source_cutoff", counting_need)
    degrees, decomposed = _count_radicands(monkeypatch)
    for _ in range(20):
        gs = synthetic_base(rng)
        windows = [q(w) for w in supported_window(gs, ITERATE_PARTS)]
        degrees.clear()
        decomposed.clear()
        conemaps.cone_step(gs, windows)
        assert needs == [], needs
        assert degrees and {n for n, _ in degrees} == {gs.n}, degrees
        assert set(decomposed) <= {gs.n}, decomposed


@pytest.mark.parametrize("part", sorted(conemaps.FEEDS))
def test_a_short_source_is_named_with_its_feed_requirement(part, rng):
    # the first feed, in FEEDS order, whose source is short is refused with
    # required_source_cutoff(n, cutoff, out, inner) for that feed
    from tests.conftest import synthetic_base

    refused = 0
    for _ in range(40):
        gs = synthetic_base(rng)
        cutoff = q(Fraction(rng.randint(2, 12 * gs.n), rng.randint(1, 2)))
        out, entries = conemaps._feeds(part, gs.n)
        short = [
            (source, need)
            for source, inner, _, _ in entries
            for need in [required_source_cutoff(gs.n, cutoff, out, inner)]
            if need is not None and compare(getattr(gs, source).cutoff, need) < 0
        ]
        if not short:
            conemaps._ladders(gs, part, cutoff)
            continue
        source, need = short[0]
        with pytest.raises(InsufficientBaseCutoff) as info:
            conemaps._ladders(gs, part, cutoff)
        assert str(info.value) == (
            f"{conemaps.SOURCES[source]} is complete only up to {getattr(gs, source).cutoff} "
            f"but the requested output window needs completeness up to {need}; refusing to "
            "truncate silently"
        )
        refused += 1
    assert 0 < refused < 40
