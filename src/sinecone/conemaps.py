"""Spectral transforms from an Einstein base to its sine-cone.

The sine-cone over an n-dimensional base normalized to Ric = (n-1)g is an
(n+1)-dimensional space normalized to Ric = n g.  Each eigenvalue family of
the base generates a ladder of cone eigenvalues through the degree dictionary

    harmonic_degree(n, x)  = -(n-1)/2 + sqrt((n-1)^2/4 + x)
    degree_eigenvalue(n, y) = y (y + n - 1)

which converts between eigenvalues and homogeneity degrees of harmonic
extensions: a base eigenvalue ``x`` feeds the cone ladder
``degree_eigenvalue(n+1, harmonic_degree(n, x) + j)`` for j = 0, 1, 2, ...

Which base spectra feed which part of the cone, and with which shifts, is
one table, :data:`FEEDS`.  The completeness checks of every transform, the
backward requirements of :func:`source_requirements` and the forward windows
of :func:`supported_window` are all read off it.

The windows and requirements are decided in integers.  Since
y^2 + (k-1) y = x at y = harmonic_degree(k, x),

    degree_eigenvalue(n+1, harmonic_degree(n, c)) = c + harmonic_degree(n, c)
    degree_eigenvalue(n, harmonic_degree(n+1, x)) = x - harmonic_degree(n+1, x)

so a window top and a requirement are each a rational plus or minus the
square root of a rational, settled by one ``math.isqrt`` (:func:`_grid_bound`);
a transform finds a rational source cutoff short by an integer inequality
(:func:`_falls_short`).  No radicand is factored on this round trip.

All enumeration is exact and completeness-aware: a transform refuses to run
(``InsufficientBaseCutoff``) when the base spectra are not known far enough to
make the requested output window complete.  Within one part, two rungs
coincide exactly when their seed degrees differ by an integer, so a transform
enumerates the part one degree class at a time (:func:`_class_lines`): each
class is counted once, from an integer square-root bound refined by exact
comparisons, and each of its lines is written once in closed form in the
field of its degree, one ``QuadReal`` per line.  A line's multiplicity is a
running sum over the seeds that reach it, and its origins come out in tag
order, so the lines need no grouping and no sorting of origins.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Mapping, Optional, Sequence

from .errors import (
    BelowHardyBound,
    InsufficientBaseCutoff,
    InvariantViolation,
    NotRepresentable,
    ParseError,
    UnboundedBelow,
)
from .exactreal import (
    QuadReal,
    _floor_scaled,
    _make,
    _norm,
    compare,
    from_rational,
    make_quad,
    rational_ceiling,
    squarefree_decompose,
)
from .spectra import GeometricSpectrum, Origin, Record, Spectrum, empty_spectrum, line_spectrum


def degree_eigenvalue(n: int, y: QuadReal | int | Fraction) -> QuadReal:
    """y (y + n - 1): the eigenvalue of a degree-y homogeneous harmonic
    restricted to the unit n-sphere of its cone."""
    if not isinstance(y, QuadReal):
        y = from_rational(y)
    return y * (y + (n - 1))


def hardy_bound(n: int) -> Fraction:
    """-(n-1)^2/4, the sharp lower bound of the radial quadratic form over a
    dim-n base: below it :func:`harmonic_degree` has no value, and a TT line
    below it makes the cone Einstein operator unbounded below."""
    return Fraction(-((n - 1) ** 2), 4)


def require_bounded_below(gs: GeometricSpectrum) -> None:
    """Raise UnboundedBelow when a TT line of ``gs`` lies below the Hardy
    bound: the one check that the cone Einstein operator is bounded below."""
    hardy = from_rational(hardy_bound(gs.n))
    for line in gs.specE_TT.lines:
        if compare(line.value, hardy) < 0:
            raise UnboundedBelow(
                f"TT eigenvalue {line.value} lies below -(n-1)^2/4 = {hardy}: "
                "the cone Einstein operator is unbounded below (shrinking "
                "radial bump profiles drive the Rayleigh quotient to -infinity)"
            )


def harmonic_degree(n: int, x: QuadReal | int | Fraction) -> QuadReal:
    """Right branch of the inverse of :func:`degree_eigenvalue`.

    Only rational inputs stay inside the quadratic-irrational system; an
    irrational input would need a nested radical and raises NotRepresentable.
    Inputs below :func:`hardy_bound` raise BelowHardyBound.
    """
    if not isinstance(x, QuadReal):
        x = from_rational(x)
    if not x.is_rational():
        raise NotRepresentable(
            f"harmonic degree of irrational eigenvalue {x} leaves the "
            "quadratic-irrational system"
        )
    # x = xn/xd; x - hardy_bound(n) = r/(4 xd), whose square root is
    # sqrt(r xd)/(2 xd) = t sqrt(s)/(2 xd)
    xn, xd = x.p, x.d
    r = 4 * xn + (n - 1) ** 2 * xd
    if r < 0:
        raise BelowHardyBound(f"eigenvalue {x} lies below -(n-1)^2/4 = {hardy_bound(n)}")
    if r == 0:
        return _norm(-(n - 1), 0, 2, 1)
    t, s = squarefree_decompose(r * xd)
    if s == 1:
        return _norm(t - (n - 1) * xd, 0, 2 * xd, 1)
    return _norm(-(n - 1) * xd, t, 2 * xd, s)


#: The base spectra of a GeometricSpectrum, by attribute, with the names
#: their completeness errors use.  A cone step produces them in this order.
SOURCES = {
    "spec0": "scalar spectrum",
    "spec1D": "coclosed 1-form spectrum",
    "specE_TT": "TT spectrum",
}

#: The feed of every part of the cone spectra: its output shift ``out`` and
#: its (source, inner shift, block, rungs) entries.  Each line x of the
#: source seeds the ladder degree_eigenvalue(n+1, harmonic_degree(n, x +
#: inner) + j) - out, whose rungs are tagged (block, line index, j).  The
#: output shift (a, b) stands for a*n + b over a dim-n base.  A transform
#: checks and enumerates a part's sources in the order listed.
#:
#: ``rungs`` holds the boundary lines, keyed like the shifts: (0, 0) is the
#: zero line, (1, 0) the dimension line n and (1, -1) the Killing line n-1.
#: A key maps to the ladder's (first rung, first doubled rung), or to None
#: when that line has no ladder.  The key None stands for every other line;
#: without it their ladders are whole and never doubled, (0, None).
FEEDS = {
    "functions": ((0, 0), (("spec0", 0, "fun", {}),)),
    "exact": ((1, 0), (("spec0", 0, "1f-exact", {(0, 0): (1, None)}),)),
    "coclosed": ((0, 1), (
        ("spec0", 0, "1f-co-scalar", {(0, 0): None}),
        ("spec1D", 1, "1f-co-form", {}),
    )),
    # a doubled rung is a conformal direction and its Hessian partner, which
    # vanishes on rungs 0 and 1 of the zero line and rung 0 of the dimension line
    "conformal": ((2, 0), (("spec0", 0, "E-conf", {None: (0, 0), (0, 0): (0, 2), (1, 0): (0, 1)}),)),
    "vector": ((1, 1), (
        ("spec0", 0, "E-vec-scalar", {(0, 0): None, (1, 0): (1, None)}),
        ("spec1D", 1, "E-vec-form", {(1, -1): (1, None)}),
    )),
    "tt": ((0, 0), (
        ("spec0", 0, "E-tt-scalar", {(0, 0): None, (1, 0): None}),
        ("spec1D", 1, "E-tt-form", {(1, -1): None}),
        ("specE_TT", 0, "E-tt-tensor", {}),
    )),
}


def _feeds(part: str, n: int) -> tuple[int, tuple[tuple[str, int, str, dict], ...]]:
    """The output shift of ``part`` over a dim-n base, and its feed entries."""
    (a, b), entries = FEEDS[part]
    return a * n + b, entries


def _shifted_cutoff(n: int, cutoff: QuadReal, out_shift: int) -> Optional[tuple[int, int]]:
    """(xn, xd), xd > 0: x = cutoff + out_shift, the top of the cone ladders
    over a dim-n base that a requirement serves, exact when rational and
    else its ceiling on the 10**-6 grid; ``None`` when x lies below
    -(n^2-1)/4, the least rung any source value can give.  An irrational x
    is never on the grid, so with low = floor(10**6 x) it lies below the
    rung exactly when low < 250000 (1 - n^2), and its ceiling is low + 1."""
    if cutoff.q == 0:
        xn, xd = cutoff.p + out_shift * cutoff.d, cutoff.d
        return None if 4 * xn < (1 - n * n) * xd else (xn, xd)
    low = _floor_scaled(cutoff, 6) + 10 ** 6 * out_shift
    return None if low < 250000 * (1 - n * n) else (low + 1, 10 ** 6)


def _requirement(n: int, x: tuple[int, int], inner_shift: int) -> tuple[int, int, int]:
    """(p, r, d) with (p - sqrt(r))/d = x - harmonic_degree(n+1, x) - inner_shift
    = x + n/2 - inner_shift - sqrt(n^2/4 + x), for x = xn/xd >= -n^2/4."""
    xn, xd = x
    return 2 * xn + (n - 2 * inner_shift) * xd, (n * n * xd + 4 * xn) * xd, 2 * xd


def _grid_bound(p: int, sign: int, r: int, d: int, up: bool = False) -> tuple[int, int]:
    """(num, den) of ``rational_floor`` (``rational_ceiling`` with ``up``) of
    (p + sign*sqrt(r))/d, for integers r >= 0 and d > 0, from one integer
    square root: the value itself when r is a square, else its floor
    (ceiling) on the 10**-6 grid, as the QuadReal of the value would give."""
    big = 10 ** 12 * r
    root = math.isqrt(big)
    if root * root == big:
        return 10 ** 6 * p + sign * root, 10 ** 6 * d
    # sqrt(big) is irrational: its floor is root, the floor of -sqrt(big) is -root-1
    return (10 ** 6 * p + (root if sign > 0 else -root - 1)) // d + up, 10 ** 6


def _falls_short(p: int, r: int, d: int, have: QuadReal) -> bool:
    """Whether a rational ``have`` = hn/hd lies below (p - sqrt(r))/d: with
    A = p hd - d hn, iff A > 0 and r hd^2 < A^2.  For a
    :func:`_requirement`, A is 2 xd hd (x + n/2 - inner_shift - have)."""
    a = p * have.d - d * have.p
    return a > 0 and r * have.d * have.d < a * a


def required_source_cutoff(
    n: int, cutoff: QuadReal, out_shift: int, inner_shift: int = 0
) -> Optional[QuadReal]:
    """Completeness a source spectrum must certify so that every cone line

        degree_eigenvalue(n+1, harmonic_degree(n, beta + inner_shift) + j) - out_shift

    with value <= ``cutoff`` is enumerated.  ``None`` means no source value
    can land below the cutoff at all (nothing is required).  Irrational
    cutoffs are replaced by a rational upper bound, which can only demand
    slightly more completeness than strictly necessary.  With x that bound
    it is :func:`_requirement`'s x + n/2 - inner_shift - sqrt(n^2/4 + x).
    """
    x = _shifted_cutoff(n, cutoff, out_shift)
    if x is None:
        return None
    p, r, d = _requirement(n, x, inner_shift)
    return make_quad(Fraction(p, d), Fraction(-1, d), r)


def source_requirements(
    n: int, windows: Mapping[str, QuadReal]
) -> tuple[Fraction, Fraction, Fraction]:
    """Completeness (spec0, spec1D, TT), as rational upper bounds, that a
    dim-n base must certify so that each part named in ``windows`` can be
    enumerated up to its window; -1 where nothing is required.  Each is the
    ``rational_ceiling`` of a :func:`required_source_cutoff`."""
    need = dict.fromkeys(SOURCES, Fraction(-1))
    for part, window in windows.items():
        out, entries = _feeds(part, n)
        x = _shifted_cutoff(n, window, out)
        for source, inner, _, _ in entries if x is not None else ():
            p, r, d = _requirement(n, x, inner)
            need[source] = max(need[source], Fraction(*_grid_bound(p, -1, r, d, up=True)))
    return need["spec0"], need["spec1D"], need["specE_TT"]


def supported_window(gs: GeometricSpectrum, parts: Sequence[str]) -> list[Fraction]:
    """Largest cone windows (rational lower bounds) that the declared
    completeness of ``gs`` fills for each of ``parts``: the inverse of
    :func:`source_requirements`, -1 when a source lies below the Hardy
    bound.  A feed at a floored source cutoff c gets the top
    rational_floor(degree_eigenvalue(n+1, harmonic_degree(n, c))), which is
    c - (n-1)/2 + sqrt((n-1)^2/4 + c); every output shift is an integer, so
    floor(top - out) = floor(top) - out, taken once from the least top."""
    n = gs.n
    windows = []
    for part in parts:
        out, entries = _feeds(part, n)
        low = None
        for source, inner, _, _ in entries:
            cut = getattr(gs, source).cutoff  # c = cn/cd = rational_floor(cut) + inner
            cn, cd = (cut.p, cut.d) if cut.q == 0 else (_floor_scaled(cut, 6), 10 ** 6)
            cn += inner * cd
            r = 4 * cn + (n - 1) ** 2 * cd  # 4 cd (c - hardy_bound(n))
            num, den = out - 1, 1  # the window -1 once the shift is taken off
            if r >= 0:
                num, den = _grid_bound(2 * cn - (n - 1) * cd, 1, r * cd, 2 * cd)
            if low is None or num * low[1] < low[0] * den:
                low = num, den
        windows.append(Fraction(low[0] - out * low[1], low[1]))
    return windows


_origin = partial(tuple.__new__, Origin)  # an Origin from its four fields, with no argument binding
_tag = itemgetter(1, 2)  # a seed's (block, i)
_started = partial(filter, None)  # the origins of a line, without the seeds not yet started


def _tags(block: str, i: int, rungs: range, mult: int):
    """The Origins (block, i, j, mult) of the rungs j in ``rungs``."""
    return map(_origin, zip(repeat(block), repeat(i), rungs, repeat(mult)))


def _top2(n: int, cutoff: QuadReal, out: int) -> Optional[int]:
    """2 top, with y (y + n) - out <= cutoff for every degree -n/2 <= y <= top:
    isqrt(4c + n^2) - n for c = floor(cutoff) + out, the root of y (y + n) = c
    rounded down; ``None`` when 4c + n^2 < 0."""
    c = _floor_scaled(cutoff, 0) + out
    return math.isqrt(4 * c + n * n) - n if 4 * c + n * n >= 0 else None


def _class_lines(
    n: int, out: int, cutoff: QuadReal, top2: Optional[int], key: tuple[int, int, int, int], seeds: list
) -> list[tuple[QuadReal, int, tuple[Origin, ...]]]:
    """The lines at or below ``cutoff`` of one degree class of a part with
    output shift ``out``, ascending, as (value, multiplicity, origins).

    The class ``key`` (Q, D, s, P) holds the degrees y0 + u, for integers u,
    of y0 = (P + Q sqrt(s))/D with 0 <= P < D; its line u is
    degree_eigenvalue(n+1, y0 + u) - out.  A seed (t, block, i, first,
    doubled, mult) is the ladder of line i of a feed at degree y0 + t: it
    puts ``mult`` on the lines u >= t + first, and ``2 * mult`` from
    t + doubled on (None: never).  Count, then fill: the part's integer
    square-root bound ``top2`` (:func:`_top2`) and one exact floor give a
    lower bound on the class's last line, exact comparisons step it up, and
    each line's value is written once in closed form in Q(sqrt(s)),

        (Y (Y + n D) + Q^2 s - out D^2 + Q (2Y + n D) sqrt(s)) / D^2,  Y = P + u D,

    reduced by the rule of :func:`exactreal._norm`, or directly when the
    class is the integers.  Each multiplicity is a running sum over the
    seeds' start and doubling events, and the origins of a line are taken
    seed by seed in (block, i) order, so they come out sorted.
    """
    big_q, dd, s, big_p = key
    if big_q == 0 and dd == 1:  # integer degrees and shift: integer lines, no gcd
        def value(u: int) -> QuadReal:
            return _make(u * (u + n) - out, 0, 1, 1)
    else:
        const, den, nd = big_q * big_q * s - out * dd * dd, dd * dd, n * dd

        def value(u: int) -> QuadReal:
            y = big_p + u * dd
            p, q = y * (y + nd) + const, big_q * (2 * y + nd)
            g = math.gcd(p, q, den)
            return _make(p // g, q // g, den // g, s if q else 1)

    # a harmonic degree is at least -(n-1)/2, so the lines increase in u from
    # the least seed degree on
    least = min(seeds)[0]
    last = least - 1
    if top2 is not None:  # floor(top - y0) = floor((top2 D - 2P - 2Q sqrt(s)) / (2D))
        last = max(last, _floor_scaled(_norm(top2 * dd - 2 * big_p, -2 * big_q, 2 * dd, s), 0))
    while compare(value(last + 1), cutoff) <= 0:
        last += 1
    # line k below is line u = least + k of the class
    size = last + 1 - least
    events = [0] * (size + 1)
    columns = []  # (first line, the seed's origins from that line on)
    seeds.sort(key=_tag)
    for t, block, i, first, doubled, mult in seeds:
        start = t - least + first
        if start >= size:  # the seed's first rung lies above the class's last line
            continue
        double = size if doubled is None else min(max(t - least + doubled, start), size)
        events[start] += mult
        events[double] += mult
        j = least - t  # the seed's rung on line k is j + k
        column = list(_tags(block, i, range(j + start, j + double), mult))
        if double < size:
            column += _tags(block, i, range(j + double, j + size), 2 * mult)
        columns.append((start, column))
    if not columns:
        return []
    if len(columns) == 1:  # one ladder: its rungs are the lines
        (low, column), = columns
        origins = zip(column)
    else:  # a line takes a rung from every seed started at or below it, in seed order
        low = min(start for start, _ in columns)
        padded = zip(*[chain(repeat(None, start - low), column) for start, column in columns])
        origins = map(tuple, map(_started, padded))
    # every event lies at or above the first start
    return list(zip(map(value, range(least + low, last + 1)), accumulate(events[low:size]), origins))


def _ladders(base: GeometricSpectrum, part: str, cutoff: QuadReal) -> list:
    """Check that every source feeding ``part`` is complete far enough for
    ``cutoff``, then enumerate the part's lines, one degree class at a time
    (:func:`_class_lines`), as (value, multiplicity, origins).  Each line of
    a source on the rungs its feed names seeds one ladder at its harmonic
    degree (P + Q sqrt(s))/D, tagged (block, line index, rung) with the
    feed's block.  Every feed of a part has one output shift, and
    y -> y (y + n) is injective above -n/2, so two rungs of a part coincide
    exactly when their seed degrees differ by an integer: the seeds group on
    the class key (Q, D, s, P mod D), at offset P div D.  A rational source
    cutoff is checked by :func:`_falls_short` in integers; the QuadReal of
    :func:`required_source_cutoff` is built only against an irrational
    source cutoff and to word a refusal."""
    n = base.n
    out, entries = _feeds(part, n)
    x = _shifted_cutoff(n, cutoff, out)
    for source, inner, _, _ in entries if x is not None else ():
        have = getattr(base, source).cutoff
        if (_falls_short(*_requirement(n, x, inner), have) if have.q == 0
                else compare(have, required_source_cutoff(n, cutoff, out, inner)) < 0):
            try:
                need = required_source_cutoff(n, cutoff, out, inner)
            except NotRepresentable:  # a radicand too large to factor: state it unreduced
                need = "({} - √{})/{}".format(*_requirement(n, x, inner))
            raise InsufficientBaseCutoff(
                f"{SOURCES[source]} is complete only up to {have} but the requested "
                f"output window needs completeness up to {need}; refusing to "
                "truncate silently"
            )
    classes: dict[tuple[int, int, int, int], list] = {}
    for source, inner, block, rungs in entries:
        boundary = {k[0] * n + k[1]: r for k, r in rungs.items() if k is not None}
        other = rungs.get(None, (0, None))
        for i, line in enumerate(getattr(base, source).lines):
            v = line.value  # a boundary line is an integer, matched on its numerator
            pattern = boundary.get(v.p, other) if v.q == 0 and v.d == 1 else other
            if pattern is None:
                continue
            degree = harmonic_degree(n, v + inner if inner else v)
            big_p, dd = degree.p, degree.d
            seed = (big_p // dd, block, i, *pattern, line.multiplicity)
            classes.setdefault((degree.q, dd, degree.s, big_p % dd), []).append(seed)
    top2 = _top2(n, cutoff, out)
    lines = []
    for key, seeds in classes.items():
        lines += _class_lines(n, out, cutoff, top2, key, seeds)
    return lines


def map_functions(base: GeometricSpectrum, cutoff: QuadReal) -> Spectrum:
    """Scalar Laplace spectrum of the sine-cone from the base scalar spectrum:
    the full ladder of every base line, multiplicities inherited."""
    return line_spectrum(_ladders(base, "functions", cutoff), cutoff)


class ConeOneFormSpectrum(Record):
    """Connection-Laplacian spectrum of the cone on 1-forms, split into the
    exact part (differentials of functions) and the coclosed part."""

    __slots__ = ("exact_part", "coclosed_part")

def map_coclosed_one_forms(base: GeometricSpectrum, cutoff: QuadReal) -> Spectrum:
    """Coclosed part of the cone 1-form spectrum: scalar ladders (positive
    lines only) shifted down by 1, plus 1-form ladders seeded at degree
    harmonic_degree(n, mu+1), also shifted down by 1.  The constant family
    produces no coclosed forms."""
    return line_spectrum(_ladders(base, "coclosed", cutoff), cutoff)


def map_one_forms(base: GeometricSpectrum, cutoff: QuadReal) -> ConeOneFormSpectrum:
    """1-form spectrum of the sine-cone.

    Exact part: scalar ladders shifted down by n, with the constant-function
    rung (i=0, j=0) absent.  Coclosed part: see
    :func:`map_coclosed_one_forms`.
    """
    exact = line_spectrum(_ladders(base, "exact", cutoff), cutoff)
    return ConeOneFormSpectrum(exact, map_coclosed_one_forms(base, cutoff))


ALL_BLOCKS = ("conformal", "vector", "tt")


class ConeEinsteinSpectrum(Record):
    """Einstein-operator spectrum of the sine-cone in its invariant blocks.

    ``conformal_block``: directions built from functions times the metric and
    their Hessian partners.  ``vector_block``: symmetrized derivatives of
    coclosed 1-forms.  ``tt_block``: transverse traceless directions; this is
    the block that decides stability and rigidity.
    """

    __slots__ = ("conformal_block", "vector_block", "tt_block", "scalar_boundary_case",
                 "oneform_boundary_case")

def map_einstein(
    base: GeometricSpectrum,
    cutoff: QuadReal,
    blocks: Sequence[str] = ALL_BLOCKS,
) -> ConeEinsteinSpectrum:
    """Einstein-operator spectrum of the sine-cone, by block.

    Requesting a subset of blocks relaxes the completeness demands to the
    spectra that actually feed those blocks.
    """
    n = base.n
    if n < 3:
        raise InvariantViolation("Einstein transform needs base dimension >= 3")
    unknown = set(blocks) - set(ALL_BLOCKS)
    if unknown:
        raise ParseError(
            f"unknown blocks {sorted(unknown)}; the blocks are {', '.join(ALL_BLOCKS)}"
        )
    require_bounded_below(base)

    out = {
        block: line_spectrum(_ladders(base, block, cutoff), cutoff)
        if block in blocks
        else empty_spectrum(cutoff)
        for block in ALL_BLOCKS
    }
    return ConeEinsteinSpectrum(
        conformal_block=out["conformal"],
        vector_block=out["vector"],
        tt_block=out["tt"],
        scalar_boundary_case=base.spec0.multiplicity_of(from_rational(n)) > 0,
        oneform_boundary_case=base.spec1D.multiplicity_of(from_rational(n - 1)) > 0,
    )


#: The parts a cone step carries, producing the cone's spec0, spec1D and
#: specE_TT in that order.
ITERATE_PARTS = ("functions", "coclosed", "tt")


def cone_step(
    gs: GeometricSpectrum,
    cutoffs: Sequence[QuadReal],
    parts: Sequence[str] = ITERATE_PARTS,
) -> GeometricSpectrum:
    """One sine-cone step: the cone's scalar, coclosed 1-form and TT spectra,
    complete up to the matching entry of ``cutoffs``.  A part left out of
    ``parts`` comes back empty and unknown."""
    c0, c1, c2 = cutoffs
    return GeometricSpectrum(
        n=gs.n + 1,
        spec0=map_functions(gs, c0) if "functions" in parts else empty_spectrum(),
        spec1D=map_coclosed_one_forms(gs, c1) if "coclosed" in parts else empty_spectrum(),
        specE_TT=(
            map_einstein(gs, c2, blocks=("tt",)).tt_block if "tt" in parts else empty_spectrum()
        ),
        hypothesis_override=gs.hypothesis_override,
    )


def _closure_of_parts(parts: Sequence[str]) -> tuple[str, ...]:
    """``parts`` and, one cone step earlier, the parts producing the sources
    they read.  A part reads only what it or an earlier part produces, so
    one pass from the last part closes the set."""
    parts = set(parts)
    unknown = parts - set(ITERATE_PARTS)
    if unknown:
        raise ParseError(
            f"unknown iterate parts {sorted(unknown)}; the parts are {', '.join(ITERATE_PARTS)}"
        )
    producer = dict(zip(SOURCES, ITERATE_PARTS))
    for part in reversed(ITERATE_PARTS):
        if part in parts:
            parts |= {producer[entry[0]] for entry in FEEDS[part][1]}
    return tuple(p for p in ITERATE_PARTS if p in parts)


def _requirement_chain(
    n: int, k: int, cutoff: QuadReal, parts: Sequence[str]
) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Completeness (spec0, spec1D, TT) that the dim-n base and each of its
    cones up to the k-fold one must carry so that the k-fold cone is complete
    up to ``cutoff`` in ``parts``; entry s is for the s-fold cone."""
    final = rational_ceiling(cutoff)
    chain = [(final, final, final)]
    for m in range(n + k - 1, n - 1, -1):
        windows = {
            part: from_rational(c) for part, c in zip(ITERATE_PARTS, chain[0]) if part in parts
        }
        chain.insert(0, source_requirements(m, windows))
    return chain


def iterate_base_requirements(
    n: int, k: int, cutoff: QuadReal, parts: Sequence[str] = ITERATE_PARTS
) -> tuple[Fraction, Fraction, Fraction]:
    """Completeness (spec0, spec1D, TT) a dim-n base must certify so that
    ``iterate(base, k, cutoff, parts)`` can run."""
    return _requirement_chain(n, k, cutoff, _closure_of_parts(parts))[0]


def _require_rational_lines(gs: GeometricSpectrum) -> None:
    for spec in (gs.spec0, gs.spec1D, gs.specE_TT):
        for line in spec.lines:
            if not line.value.is_rational():
                raise NotRepresentable(
                    f"iterated cone construction hit the irrational eigenvalue "
                    f"{line.value}; its further ladder would need nested radicals"
                )


def iterate(
    base: GeometricSpectrum,
    k: int,
    cutoff: QuadReal,
    parts: Sequence[str] = ITERATE_PARTS,
) -> GeometricSpectrum:
    """k-fold sine-cone of the base, carrying (spec0, coclosed 1-forms,
    TT tensors) through each step.  Intermediate completeness targets are
    derived backward from the requested final cutoff, and every intermediate
    eigenvalue must stay rational (a couple of radicals deep is not
    representable exactly)."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    parts = _closure_of_parts(parts)
    if k == 0:
        return base
    chain = _requirement_chain(base.n, k, cutoff, parts)
    gs = base
    for step in range(k):
        if step > 0:
            _require_rational_lines(gs)
        if step == k - 1:
            cutoffs = (cutoff, cutoff, cutoff)
        else:
            cutoffs = tuple(from_rational(c) for c in chain[step + 1])
        gs = cone_step(gs, cutoffs, parts)
    return gs
