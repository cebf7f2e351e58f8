"""Correctness oracles, computed apart from the program.

Every check takes the program's output as plain data (see ``workloads.plain``)
and recomputes the expected answer from the generated inputs with
``fractions.Fraction`` and integer square roots; nothing here imports
``sinecone``.  A check raises ``Mismatch`` on the first disagreement.

Plain data: a spectrum is ``(rows, cutoff)``; a row is
``((a, b, s), multiplicity, origins)`` for the value a + b*sqrt(s), and an
origin is ``(block, i, j, multiplicity)``.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction

from inputs import Base
from ratmath import (
    hardy,
    harmonic_dim,
    rational_degree,
    rungs_below,
    sign_quadratic,
    sphere_lines,
)


class Mismatch(AssertionError):
    """The program's output disagrees with the oracle."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _rational(value) -> Fraction:
    a, b, s = value
    expect(b == 0 and s == 1, f"value {value} should be rational")
    return a


# ---------------------------------------------------------------------------
# ladders with rational degrees


def _ladder_rungs(n: int, y: Fraction, shift: int, window: Fraction, skip_first: bool):
    """(j, value) of the ladder of degree y over an n-dimensional base, one
    dimension up, shifted down by ``shift``, up to ``window``."""
    q = y.denominator
    p = y.numerator
    count = rungs_below(n, y, shift, window)
    out = []
    for j in range(1 if skip_first else 0, count):
        t = p + j * q
        out.append((j, Fraction(t * (t + n * q) - shift * q * q, q * q)))
    return out


def _family_rules(base: Base, block: str):
    """The families feeding one output block: (tag, degree, shift, mult
    rule, skip_first) for every base line that contributes.  These are the
    transform rules of the paper, stated once here."""
    n = base.n
    ys0, ys1, ys_tt = base.degrees
    scalar = list(zip(ys0, (m for _, m in base.spec0)))
    form = list(zip(ys1, (m for _, m in base.spec1D)))
    tensor = list(zip(ys_tt, (m for _, m in base.specE_TT)))
    is_zero = lambda y: y == 0
    is_dim = lambda y: y == 1  # scalar eigenvalue n, 1-form eigenvalue n-1
    fams = []

    def add(tag, lines, shift, keep=lambda y: True, skip=lambda y: False, mult=None):
        for i, (y, m) in enumerate(lines):
            if keep(y):
                fams.append((tag, i, y, shift, mult(y, m) if mult else (lambda j, m=m: m), skip(y)))

    if block == "fun":
        add("fun", scalar, 0)
    elif block == "1f-exact":
        add("1f-exact", scalar, n, skip=is_zero)
    elif block == "1f-co":
        add("1f-co-scalar", scalar, 1, keep=lambda y: not is_zero(y))
        add("1f-co-form", form, 1)
    elif block == "E-conf":
        def conf(y, m):
            def rule(j):
                if (is_zero(y) and j in (0, 1)) or (is_dim(y) and j == 0):
                    return m  # the Hessian partner vanishes
                return 2 * m
            return rule
        add("E-conf", scalar, 2 * n, mult=conf)
    elif block == "E-vec":
        add("E-vec-scalar", scalar, n + 1, keep=lambda y: not is_zero(y), skip=is_dim)
        add("E-vec-form", form, n + 1, skip=is_dim)
    elif block == "E-tt":
        add("E-tt-scalar", scalar, 0, keep=lambda y: not is_zero(y) and not is_dim(y))
        add("E-tt-form", form, 0, keep=lambda y: not is_dim(y))
        add("E-tt-tensor", tensor, 0)
    else:
        raise ValueError(block)
    return fams


def check_rational_block(base: Base, block: str, spectrum) -> dict:
    """One output block of a transform of a rational-degree base: every row
    recomputed from the origins it names, every family's rung count counted
    apart, and the rows grouped and ordered as the expected multiset.
    Returns the rung count of each family."""
    rows, cutoff = spectrum
    window = base.window
    expect(_rational(cutoff) == window, f"{block}: cutoff {cutoff} != window {window}")
    expected: dict[Fraction, list] = {}
    counts = {}
    for tag, i, y, shift, mult, skip in _family_rules(base, block):
        rungs = _ladder_rungs(base.n, y, shift, window, skip)
        counts[(tag, i)] = len(rungs)
        for j, value in rungs:
            expected.setdefault(value, []).append((tag, i, j, mult(j)))
    seen = Counter()
    prev = None
    for value, mult, origins in rows:
        v = _rational(value)
        expect(prev is None or v > prev, f"{block}: rows not strictly ascending at {v}")
        prev = v
        want = expected.get(v)
        expect(want is not None, f"{block}: unexpected line {v}")
        expect(sorted(origins) == sorted(want), f"{block}: line {v} origins {origins} != {want}")
        expect(mult == sum(o[3] for o in want), f"{block}: line {v} multiplicity {mult}")
        for tag, i, _, _ in origins:
            seen[(tag, i)] += 1
    expect(len(rows) == len(expected), f"{block}: {len(rows)} lines, expected {len(expected)}")
    for fam, count in counts.items():
        expect(seen[fam] == count, f"{block}: family {fam} has {seen[fam]} rungs, expected {count}")
    return counts


def check_sphere_cone(n_base: int, window: Fraction, spectrum, block: str = "fun") -> int:
    """The scalar spectrum of the cone over S^n is that of S^(n+1): lines
    k(k+n) with the harmonic-polynomial dimension, each made of the rungs
    (i, j) with i + j = k and multiplicity dim H_i on S^n.  Returns the
    number of rungs."""
    rows, cutoff = spectrum
    expect(_rational(cutoff) == window, f"sphere cone cutoff {cutoff} != {window}")
    want = sphere_lines(n_base + 1, window)
    expect(len(rows) == len(want), f"S^{n_base + 1}: {len(rows)} lines, expected {len(want)}")
    rungs = 0
    for k, ((value, mult, origins), (w_value, w_mult)) in enumerate(zip(rows, want)):
        expect(_rational(value) == w_value, f"S^{n_base + 1} line {k}: {value} != {w_value}")
        expect(mult == w_mult, f"S^{n_base + 1} line {w_value}: multiplicity {mult} != {w_mult}")
        expect(
            sorted(origins) == [(block, i, k - i, harmonic_dim(n_base, i)) for i in range(k + 1)],
            f"S^{n_base + 1} line {w_value}: origins {origins}",
        )
        rungs += len(origins)
    return rungs


# ---------------------------------------------------------------------------
# verdicts of small bases


def _and3(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def expected_verdicts(base: Base) -> dict:
    """Predicted cone verdicts of ``stability.cross_check``, from the base
    lines: EH and physical from the TT minimum, linear from the scalar
    bound 2(n-1) and the transfer bound 5n/2 - sqrt(n^2+8n)/2, tangential
    from the gap (n, 2(n+1)); the scalar line n is exempt."""
    n = base.n
    c0, _, c2 = base.cutoffs
    tt = [v for v, _ in base.specE_TT]
    scalars = [v for v, _ in base.spec0 if v > 0 and v != n]
    if c2 < 0:
        eh = physical = (None, None)
    else:
        lo = min(tt) if tt else None
        eh = (lo is None or lo >= 0, lo is None or lo > 0)
        phys = lo is None or lo >= hardy(n)
        physical = (phys, phys)

    def notion(threshold_known: bool, viol: bool, viol_strict: bool):
        if not threshold_known:
            return (None, None)
        if eh[0] is False:
            return (False, False)
        return (_and3(eh[0], not viol), _and3(eh[1], not viol_strict))

    lin_bound = 2 * (n - 1)
    linear = notion(c0 >= lin_bound,
                    any(v < lin_bound for v in scalars),
                    any(v <= lin_bound for v in scalars))
    gap = any(n < v < 2 * (n + 1) for v in scalars)
    tangential = notion(c0 >= 2 * (n + 1), gap, gap)
    # v < t  <=>  5n/2 - v - sqrt(n^2 + 8n)/2 > 0
    rad = n * n + 8 * n
    below = lambda v: sign_quadratic(Fraction(5 * n, 2) - v, Fraction(-1, 2), rad)
    t_known = below(c0) <= 0
    clears = None if not t_known else not any(below(v) > 0 for v in scalars)
    clears_strictly = None if not t_known else not any(below(v) >= 0 for v in scalars)
    return {
        "eh": eh,
        "linear": (_and3(linear[0], clears), _and3(linear[1], clears_strictly)),
        "tangential": tangential,
        "physical": physical,
        "cone_unbounded": physical[0] is False,
    }


def check_cross_check(base: Base, result: dict) -> None:
    """``result`` holds the cross-check's predicted verdicts as
    {notion: (holds, strict)}, ``cone_unbounded`` and ``consistent``."""
    want = expected_verdicts(base)
    for key, value in want.items():
        expect(result[key] == value, f"n={base.n} {key}: {result[key]} != {value}")
    expect(result["consistent"] is True, f"n={base.n}: cross-check inconsistent")


def expected_certificates(n: int, tt_lines) -> list | None:
    """(kappa, j, bounded, multiplicity) for every TT line whose degree is a
    nonpositive integer -j; None when a line lies under the Hardy bound (the
    program must refuse)."""
    if any(v < hardy(n) for v, _ in tt_lines):
        return None
    out = []
    for kappa, mult in tt_lines:
        y = rational_degree(n, kappa)
        if y is not None and y.denominator == 1 and y <= 0:
            out.append((kappa, int(-y), kappa == 0, mult))
    return out


def check_certificates(n: int, tt_lines, certificates) -> None:
    """``certificates`` is the list of (kappa, j, bounded, multiplicity), or
    None when the program refused the base as unbounded below."""
    want = expected_certificates(n, tt_lines)
    if want is None:
        expect(certificates is None, f"n={n}: certificates for a base under the Hardy bound")
        return
    expect(certificates is not None, f"n={n}: refused a base above the Hardy bound")
    got = [(_rational(k), j, b, m) for k, j, b, m in certificates]
    expect(got == want, f"n={n}: certificates {got} != {want}")


def expected_scan_row(n: int) -> tuple:
    """(n, kappa, unbounded_below, certificates) of the product scan: the
    marker -2(n-1) sits under the Hardy bound iff (n-1)(n-9) < 0, and its
    degree (-(n-1) + r)/2 is an integer exactly when (n-1)(n-9) = r^2 with
    n-1-r even; the ladder index is minus that degree."""
    kappa = Fraction(-2 * (n - 1))
    d = (n - 1) * (n - 9)
    if d < 0:
        return (n, kappa, True, ())
    r = rational_degree(n, kappa)
    certs = ()
    if r is not None and r.denominator == 1 and r <= 0:
        certs = ((kappa, int(-r), False, 1),)
    return (n, kappa, False, certs)


def check_scan(lo: int, hi: int, rows) -> None:
    """``rows``: (n, kappa, unbounded_below, has_ied, certificates)."""
    expect(len(rows) == hi - lo + 1, f"scan {lo}..{hi}: {len(rows)} rows")
    for n, row in zip(range(lo, hi + 1), rows):
        rn, kappa, unbounded, has_ied, certs = row
        want = expected_scan_row(n)
        got = (rn, _rational(kappa), unbounded,
               tuple((_rational(k), j, b, m) for k, j, b, m in certs))
        expect(got == want, f"scan row {n}: {got} != {want}")
        expect(has_ied == bool(want[3]), f"scan row {n}: has_ied {has_ied}")


# ---------------------------------------------------------------------------
# the two verifiers


def radial_targets(n: int, coupling: Fraction, modes: int) -> list[float]:
    """y(y+n) for y = degree(coupling) + j, j < modes."""
    y = rational_degree(n, coupling)
    expect(y is not None, f"coupling {coupling} has no rational degree on n={n}")
    return [float((y + j) * (y + j + n)) for j in range(modes)]


def check_radial_report(n: int, coupling: Fraction, modes: int, report: dict,
                        tol: float = 1e-3) -> float:
    """Each of the ``modes`` requested modes within ``tol`` of y(y+n),
    relative (absolute at a zero target).  Returns the largest error."""
    rows = report["modes"]
    expect(len(rows) == modes, f"radial n={n} c={coupling}: {len(rows)} modes of {modes}")
    worst = 0.0
    for j, (row, target) in enumerate(zip(rows, radial_targets(n, coupling, modes))):
        expect(row["target"] == target, f"radial mode {j}: target {row['target']} != {target}")
        got = row["computed"]
        err = abs(got - target) if target == 0 else abs(got - target) / abs(target)
        expect(err <= tol, f"radial n={n} c={coupling} mode {j}: {got} vs {target}")
        worst = max(worst, err)
    expect(report["passed"] is True, "radial report not passed")
    return worst


def _laurent_residual(n: int, lam: Fraction, terms: dict) -> dict:
    """(L_n + lam r^-2) f for f = sum c r^p z^q, where
    L_n = -d^2/dz^2 - d^2/dr^2 - n r^-1 d/dr."""
    out: dict = {}
    for (p, q), c in terms.items():
        if q >= 2:
            out[(p, q - 2)] = out.get((p, q - 2), 0) - q * (q - 1) * c
        out[(p - 2, q)] = out.get((p - 2, q), 0) + (lam - p * (p + n - 1)) * c
    return {k: v for k, v in out.items() if v != 0}


def check_harmonic_family(n: int, k: int, j: int, terms: dict) -> None:
    """A nonzero kernel element of L_n + k(k+n-1) r^-2 spanned by
    r^(k+2l) z^(j-2l)."""
    expect(bool(terms), f"harmonic family ({n},{k},{j}) is zero")
    allowed = {(k + 2 * l, j - 2 * l) for l in range(j // 2 + 1)}
    expect(set(terms) <= allowed, f"harmonic family ({n},{k},{j}) leaves its ladder space")
    residual = _laurent_residual(n, Fraction(k * (k + n - 1)), terms)
    expect(not residual, f"harmonic family ({n},{k},{j}) residual {residual}")


def check_symbolic_reports(k: int, j: int, decomposition: dict, formulas: list[dict]) -> int:
    """Decomposition rank equals the ladder-space dimension j//2 + 1; the
    closure systems check 2, 2 and 7 residuals.  Returns identities checked."""
    if j < 2:
        expect(decomposition.get("vacuous") is True, f"decomposition j={j} not vacuous")
    else:
        dim = j // 2 + 1
        expect(decomposition["dim"] == dim and decomposition["rank"] == dim,
               f"decomposition j={j}: {decomposition}")
    want = [2] * (k >= 1) + [2, 7] * (k >= 2)
    expect([len(f["checked"]) for f in formulas] == want, f"closure systems k={k}: {formulas}")
    expect(all(f["passed"] is True for f in formulas), "closure system not passed")
    return sum(want)


COMMUTATOR_BOX = 13 * 7  # monomials r^p z^q, -6 <= p <= 6, 0 <= q <= 6


def check_commutator_report(report: dict) -> int:
    expect(report["monomials"] == COMMUTATOR_BOX and report["identities"] == 5
           and report["passed"] is True, f"commutator report {report}")
    return COMMUTATOR_BOX * 5


# ---------------------------------------------------------------------------
# CLI output


def decimal6(x: Fraction) -> str:
    """x correctly rounded (half to even) to 6 places."""
    q = round(x * 10 ** 6)
    sign = "-" if q < 0 else ""
    whole, frac = divmod(abs(q), 10 ** 6)
    return f"{sign}{whole}.{frac:06d}"


_ROW = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\d+)\s+(.*)$")
_ORIGIN = re.compile(r"^(\S+)\[(\d+)\]\+(\d+)\(x(\d+)\)$")


def parse_tables(text: str) -> list[tuple[str, list, Fraction]]:
    """The spectrum tables of a table-form command: (title, rows, cutoff),
    rows as (value, decimal, multiplicity, origins)."""
    tables = []
    for block in text.strip("\n").split("\n\n"):
        lines = block.split("\n")
        title, rows = lines[0], []
        expect(lines[1].split() == ["value", "decimal", "mult", "origins"], f"table header {lines[1]!r}")
        for line in lines[2:-1]:
            m = _ROW.match(line)
            expect(m is not None, f"table row {line!r}")
            origins = []
            for item in m.group(4).split(", "):
                om = _ORIGIN.match(item)
                expect(om is not None, f"origin {item!r}")
                origins.append((om.group(1), int(om.group(2)), int(om.group(3)), int(om.group(4))))
            rows.append((Fraction(m.group(1)), m.group(2), int(m.group(3)), origins))
        tail = re.match(r"^\s+\(complete up to (\S+)\)$", lines[-1])
        expect(tail is not None, f"table footer {lines[-1]!r}")
        tables.append((title, rows, Fraction(tail.group(1))))
    return tables


def check_sphere_table(n_base: int, cutoff: Fraction, table) -> None:
    """A table of the cone over S^n: S^(n+1) lines with decimals."""
    title, rows, declared = table
    expect(declared == cutoff, f"{title}: complete up to {declared}, expected {cutoff}")
    for value, dec, _, _ in rows:
        expect(dec == decimal6(value), f"{title}: decimal {dec} of {value}")
    plain = [((v, Fraction(0), 1), m, tuple(o)) for v, _, m, o in rows]
    check_sphere_cone(n_base, cutoff, (plain, (cutoff, Fraction(0), 1)))


def check_product_tt_table(n: int, table) -> None:
    """TT block up to 0 over a product marker of dimension n >= 9: the
    ladder of -2(n-1), one line per rung."""
    title, rows, declared = table
    expect(declared == 0, f"{title}: complete up to {declared}")
    y = rational_degree(n, Fraction(-2 * (n - 1)))
    want = []
    j = 0
    while (y + j) * (y + j + n) <= 0:
        want.append(((y + j) * (y + j + n), 1, [("E-tt-tensor", 0, j, 1)]))
        j += 1
    expect([(v, m, o) for v, _, m, o in rows] == want, f"{title}: {rows} != {want}")
    for value, dec, _, _ in rows:
        expect(dec == decimal6(value), f"{title}: decimal {dec} of {value}")


def _verdict_rows(block: str) -> dict:
    out = {}
    for line in block.split("\n")[1:]:
        parts = line.split()
        if parts[0] == "bounded-below":
            out["bounded"] = parts[-1]
        elif parts[1] == "undecided":
            out[parts[0]] = None
        else:
            out[parts[0]] = (parts[1] == "yes", parts[2].strip("(") == "strict", parts[-1])
    return out


def check_stability_product(n: int, text: str) -> None:
    """Base and predicted cone verdicts of a product marker of dimension n:
    TT is {-2(n-1)} complete to 0, scalars {0} complete to n."""
    kappa = -2 * (n - 1)
    base, cone, cross = text.strip("\n").split("\n\n")
    phys = kappa >= hardy(n)
    want = {"eh": (False, False, str(kappa)), "linear": None, "tangential": None,
            "physical": (phys, phys, str(kappa))}
    got = _verdict_rows(base)
    expect(got.pop("bounded") == ("yes" if phys else "no"), f"product {n}: bounded-below row")
    expect(got == want, f"product {n} base verdicts {got} != {want}")
    expect(_verdict_rows(cone) == want, f"product {n} cone verdicts")
    expect(cross == "cross-check: consistent", f"product {n}: {cross!r}")


def check_rigidity_product(n: int, text: str) -> None:
    rows = text.strip("\n").split("\n\n")
    expect(rows[0] == f"deformation certificates (base n={n}):", f"rigidity header {rows[0]!r}")
    want = [f"  source {str(k):>10}  ladder index {j}  unbounded-profile  multiplicity {m}"
            for k, j, _, m in expected_scan_row(n)[3]]
    expect(rows[1:] == want, f"rigidity rows {rows[1:]} != {want}")


def check_scan_table(lo: int, hi: int, text: str) -> None:
    lines = text.strip("\n").split("\n")[2:]
    expect(len(lines) == hi - lo + 1, "scan-products row count")
    for n, line in zip(range(lo, hi + 1), lines):
        _, kappa, unbounded, certs = expected_scan_row(n)
        if unbounded:
            status = "unbounded below"
        elif certs:
            status = "L2 deformation ({}, unbounded profile)".format(
                ", ".join(f"j={c[1]}" for c in certs))
        else:
            status = "rigid (no zero modes)"
        expect(line == f"  {n:>4} {str(kappa):>10}  {status}", f"scan row {line!r}")


def check_demonstrator(text: str, csv_text: str) -> None:
    """Below the Hardy bound the Rayleigh quotients on shrinking supports
    fall like eps^-2: every eps^2 q is negative and halving eps multiplies
    q by about 4."""
    payload = json.loads(text)
    eps, q = payload["epsilons"], payload["quotients"]
    expect(len(q) == len(eps) >= 2, "demonstrator sequence length")
    expect(all(e * e * x < 0 for e, x in zip(eps, q)), "demonstrator quotients not negative")
    for (e0, q0), (e1, q1) in zip(zip(eps, q), zip(eps[1:], q[1:])):
        ratio = (q1 / q0) / (e0 / e1) ** 2
        expect(0.9 <= ratio <= 1.1, f"demonstrator ratio {ratio} at eps {e1}")
    rows = csv_text.strip("\n").split("\n")
    expect(rows[0] == "eps,quotient,eps2_quotient" and len(rows) == len(q) + 1, "demonstrator csv")
    for row, e, x in zip(rows[1:], eps, q):
        ce, cq, _ = (float(v) for v in row.split(","))
        expect(ce == e and cq == x, f"demonstrator csv row {row}")


def symbolic_report_count(k: int, jmax: int) -> int:
    return 1 + (jmax + 1) * (1 + (k >= 1) + 2 * (k >= 2))
