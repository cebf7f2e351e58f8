"""Seeded input generators of the benchmark.

Every generator takes the ``--seed`` of the run and returns plain data
(``Fraction`` lines, integers, argument lists); the workloads hand that data
to the program and nothing else.  The same seed gives the same inputs.  Each
workload draws from its own stream, so adding a draw to one workload leaves
the inputs of the others unchanged.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from ratmath import hardy, line_value, sqrt_bounds


def stream(seed: int, name: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{name}")


@dataclass(frozen=True)
class Base:
    """A base spectrum as plain data.

    ``spec0``, ``spec1D`` and ``specE_TT`` hold (eigenvalue, multiplicity)
    pairs in ascending order; ``cutoffs`` is the completeness declared for
    each of them, and ``window`` the cone window the base was made for.
    ``degrees`` maps each line to the degree it was generated from, when the
    generator drew a degree rather than an eigenvalue.
    """

    n: int
    spec0: tuple[tuple[Fraction, int], ...]
    spec1D: tuple[tuple[Fraction, int], ...]
    specE_TT: tuple[tuple[Fraction, int], ...]
    cutoffs: tuple[Fraction, Fraction, Fraction]
    window: Fraction
    degrees: tuple[tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]] = ((), (), ())


def _source_need(n: int, window: Fraction, shift: int) -> Fraction:
    """Rational upper bound of the completeness a source spectrum of an
    n-dimensional base needs so that its cone ladders, shifted down by
    ``shift``, are complete up to ``window``.  The top cone degree is
    h = -n/2 + sqrt(n^2/4 + window + shift), and the base line feeding it is
    h(h+n-1) = window + shift - h."""
    x = window + shift
    if x < Fraction(-(n * n), 4):
        return Fraction(-1)
    lo, _ = sqrt_bounds(Fraction(n * n, 4) + x, 6)
    return x - (Fraction(-n, 2) + lo)


# ---------------------------------------------------------------------------
# ladder-deep: rational degrees, thousands of rungs per family

#: Round spheres mapped at the scalar window of the ROADMAP figure.
SPHERE_CUTOFF = 20000
#: S^2 iterated twice (to S^4) with parts=functions, up to this window.
ITERATE_CUTOFF = 5000
#: Denominators of the generated degrees.
LADDER_DENOMINATORS = (1, 2, 3, 4, 6)
#: Rungs per family at the window of a synthetic base, for the 1-form and
#: the Einstein transform: each op then enumerates about 3-4k rungs.
ONEFORM_RUNGS = 900
EINSTEIN_RUNGS = 500


#: Boundary patterns (scalar line on n, 1-form line on n-1), cycled so that
#: every four consecutive bases hold each pattern once.
BOUNDARY_CYCLE = ((False, False), (True, False), (False, True), (True, True))


def _draw_degree(rng: random.Random, lo: Fraction, hi: Fraction, den: int) -> Fraction:
    """A degree in [lo, hi] with denominator dividing ``den``."""
    return Fraction(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)


def rational_base(rng: random.Random, rungs: int, k: int) -> Base:
    """The k-th base of a pool: every line is y(y+n-1) for a rational y, so
    every cone rung is rational.  One nonzero scalar line, one coclosed
    1-form line (eigenvalue y(y+n-1) - 1, so its ladder degree is y) and two
    TT lines.  The dimension n, the denominator of the degrees and the
    boundary pattern cycle with k (see ``BOUNDARY_CYCLE``), so that any run
    of consecutive bases has the same make-up whatever the seed; the seed
    draws the numerators, the multiplicities and the order of the ops.  The
    window gives every family about ``rungs`` rungs."""
    n = 3 + k % 6
    den = LADDER_DENOMINATORS[k % len(LADDER_DENOMINATORS)]
    boundary = BOUNDARY_CYCLE[k % len(BOUNDARY_CYCLE)]
    y0 = Fraction(1) if boundary[0] else _draw_degree(rng, Fraction(5, 4), Fraction(4), den)
    y1 = Fraction(1) if boundary[1] else _draw_degree(rng, Fraction(5, 4), Fraction(4), den)
    tt_lo = Fraction(-(n - 1), 2)
    ytt = set()
    while len(ytt) < 2:
        ytt.add(_draw_degree(rng, tt_lo, Fraction(3), den))
    window = Fraction(rungs * (rungs + n))
    cut = window + 2 * n + 1  # above every source requirement of the window
    spec0 = ((Fraction(0), 1), (line_value(n, y0), rng.randint(1, 4)))
    spec1 = ((line_value(n, y1) - 1, rng.randint(1, 4)),)
    ys_tt = sorted(ytt)
    spec_tt = tuple((line_value(n, y), rng.randint(1, 3)) for y in ys_tt)
    return Base(
        n=n,
        spec0=spec0,
        spec1D=spec1,
        specE_TT=spec_tt,
        cutoffs=(cut, cut, cut),
        window=window,
        degrees=((Fraction(0), y0), (y1,), tuple(ys_tt)),
    )


@dataclass(frozen=True)
class LadderInputs:
    spheres: tuple[int, ...]
    oneform_bases: tuple[Base, ...]
    einstein_bases: tuple[Base, ...]


def ladder_inputs(seed: int, pool: int = 16) -> LadderInputs:
    rng = stream(seed, "ladder-deep")
    return LadderInputs(
        spheres=tuple(rng.randint(2, 6) for _ in range(pool)),
        oneform_bases=tuple(rational_base(rng, ONEFORM_RUNGS, k) for k in range(pool)),
        einstein_bases=tuple(rational_base(rng, EINSTEIN_RUNGS, k) for k in range(pool)),
    )


# ---------------------------------------------------------------------------
# crosscheck-sweep: small bases with generic rational lines

CROSS_DENOMINATORS = 6


@functools.lru_cache(maxsize=None)
def _generic_cutoffs(n: int) -> tuple[Fraction, tuple[Fraction, Fraction, Fraction]]:
    """Window 2(n+2) and the completeness each spectrum needs for it."""
    window = Fraction(2 * (n + 2))
    need0, need1 = _source_need(n, window, 0), _source_need(n, window, 1)
    return window, (max(need0, need1), max(need0, need1) - 1, need0)


def generic_base(rng: random.Random) -> Base:
    """A small admissible base with generic rational lines (so most degrees
    are irrational), complete as far as one cone step with window 2(n+2)
    needs.  Specials put lines on the dimension, linear-stability,
    tangential and Killing thresholds, on zero-mode TT values y(y+n-1) with
    integral y <= 0, and one base in ten gets a TT line under the Hardy
    bound, whose cone is unbounded below."""
    n = rng.randint(3, 10)
    window, (c0, c1, c2) = _generic_cutoffs(n)

    def draw(lo: Fraction, hi: Fraction, count: int, specials) -> list[Fraction]:
        vals = set()
        for _ in range(count):
            if specials and rng.random() < 0.35:
                v = Fraction(rng.choice(specials))
            else:
                den = rng.randint(1, CROSS_DENOMINATORS)
                lo_i, hi_i = int(lo * den), int(hi * den)
                v = Fraction(rng.randint(lo_i, max(lo_i, hi_i)), den)
            if lo <= v <= hi:
                vals.add(v)
        return sorted(vals)

    scalar_specials = [Fraction(n), Fraction(2 * (n - 1)), Fraction(2 * (n + 1)),
                       Fraction(2 * n + 1), Fraction(4 * n + 1, 2)]
    s0 = [Fraction(0)] + draw(Fraction(n), c0, rng.randint(1, 4), scalar_specials)
    s1 = draw(Fraction(n - 1), c1, rng.randint(0, 3), [Fraction(n - 1)])
    zero_modes = [line_value(n, Fraction(-j)) for j in range(0, (n - 1) // 2 + 1)]
    s_tt = draw(hardy(n), c2, rng.randint(1, 4),
                [hardy(n), Fraction(-1), Fraction(1)] + zero_modes)
    if rng.random() < 0.1:
        s_tt = sorted(set(s_tt) | {hardy(n) - Fraction(rng.randint(1, 12), 4)})

    def mults(values, zero_single=False):
        return tuple((v, 1 if (zero_single and v == 0) else rng.randint(1, 3)) for v in values)

    return Base(
        n=n,
        spec0=mults(s0, zero_single=True),
        spec1D=mults(s1),
        specE_TT=mults(s_tt),
        cutoffs=(c0, c1, c2),
        window=window,
    )


@dataclass(frozen=True)
class CrossInputs:
    bases: tuple[Base, ...]
    scans: tuple[tuple[int, int], ...]


def cross_inputs(seed: int, pool: int = 2000, scans: int = 40) -> CrossInputs:
    rng = stream(seed, "crosscheck-sweep")
    bases = tuple(generic_base(rng) for _ in range(pool))
    ranges = tuple((4, rng.randint(12, 40)) for _ in range(scans))
    return CrossInputs(bases, ranges)


# ---------------------------------------------------------------------------
# verify-engines: seeds (n, k) of the symbolic and the radial verifier

@dataclass(frozen=True)
class VerifySeed:
    n: int
    k: int
    jmax: int
    modes: int


#: The (n, k) grid of verify-engines: every round verifies each pair once.
VERIFY_GRID = tuple((n, k) for n in range(3, 9) for k in range(2, 5))


def verify_round(rng: random.Random) -> list[VerifySeed]:
    """One round: every (n, k) of ``VERIFY_GRID`` in a seeded order, with the
    ladder up to j = 3 and four radial modes."""
    seeds = [VerifySeed(n=n, k=k, jmax=3, modes=4) for n, k in VERIFY_GRID]
    rng.shuffle(seeds)
    return seeds


# ---------------------------------------------------------------------------
# cli-oneshot: the README command set and one large exact spectrum

#: Output of the demonstrator's ``--csv``, inside the checkout.
CSV_PATH = "perfbench/out/quotients.csv"


def cli_commands(rng: random.Random) -> list[tuple[str, list[str]]]:
    """One round of (kind, argv): each of the seven exact README commands
    three times, the two verify-radial commands once and the large sphere
    spectrum once.  The seed varies the cheap parameters (sphere and product
    dimensions, symbolic n) and the order."""
    exact = []
    for _ in range(3):
        sphere = rng.randint(2, 6)
        n1 = rng.randint(2, 7)
        n2 = rng.choice((9, 10)) - n1
        exact += [
            ["spectrum", "--sphere", str(sphere), "--operator", "laplace", "--cutoff", "100"],
            ["spectrum", "--product", f"{n1},{n2}", "--operator", "einstein",
             "--blocks", "tt", "--cutoff", "0"],
            ["stability", "--product", f"{n1},{n2}", "--cross-check"],
            ["rigidity", "--product", f"{n1},{n2}"],
            ["scan-products", "--from", "4", "--to", str(rng.randint(16, 24))],
            ["verify-symbolic", "--n", str(rng.randint(3, 6)), "--k", "2", "--jmax", "4"],
            ["iterate", "--sphere", "2", "--count", "2", "--cutoff", "40", "--parts", "functions"],
        ]
    ops = [("exact", argv) for argv in exact]
    ops.append(("numeric", ["verify-radial", "--n", "3", "--coupling", "3", "--modes", "4"]))
    ops.append(("numeric", ["verify-radial", "--n", "8", "--block", "tt", "--coupling", "-14",
                            "--csv", CSV_PATH]))
    ops.append(("heavy", ["spectrum", "--sphere", "3", "--cutoff", "20000"]))
    rng.shuffle(ops)
    return ops
