"""The four workloads: set-up, the operations of one round, and their checks.

Each workload is driven by one caller in a closed loop (see ``run.py``).  An
operation is a ``run`` callable, timed, and a ``check`` callable, run after
the timing stops, that holds the output against ``oracles``.  ``run`` raises
only on a program fault; expected refusals (a base under the Hardy bound)
are part of the output.

``tail_q`` is the percentile reported as ``op_latency_tail_s``, and
``min_rounds`` the rounds every run makes at least: together they leave at
least ten samples beyond the tail in every run, and a faster program only
adds samples.  ``calibrated`` says whether op times are scaled to the
reference speed of the host (see ``run.py``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import inputs
import oracles
from ratmath import hardy

SRC = os.path.abspath("src")
OUT_DIR = os.path.join("perfbench", "out")


class OpFailed(Exception):
    """The program failed an operation: a crash or a nonzero exit code."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def plain_value(v) -> tuple:
    return (v.a, v.b, v.s)


def plain(spec) -> tuple:
    """A program Spectrum as oracle plain data."""
    rows = [
        (plain_value(l.value), l.multiplicity, tuple((o.block, o.i, o.j, o.mult) for o in l.origins))
        for l in spec.lines
    ]
    return rows, plain_value(spec.cutoff)


def program_base(b: inputs.Base):
    """Hand a generated base to the program: one merge per spectrum."""
    from sinecone import exactreal, spectra

    def spec(lines, cutoff, tag):
        raw = [(exactreal.from_rational(v), m, (tag, i, 0)) for i, (v, m) in enumerate(lines)]
        return spectra.merge(raw, exactreal.from_rational(cutoff))

    c0, c1, c2 = b.cutoffs
    return spectra.GeometricSpectrum(
        n=b.n,
        spec0=spec(b.spec0, c0, "g0"),
        spec1D=spec(b.spec1D, c1, "g1"),
        specE_TT=spec(b.specE_TT, c2, "gE"),
    )


# ---------------------------------------------------------------------------


class LadderDeep:
    """Few base lines, thousands of rational rungs each."""

    name = "ladder-deep"
    calibrated = True
    tail_q = 0.75
    min_rounds = 4

    def setup(self, seed: int) -> None:
        from sinecone import catalog, conemaps, exactreal

        self.conemaps = conemaps
        q = exactreal.from_rational
        self.inp = inputs.ladder_inputs(seed)
        self.order = inputs.stream(seed, "ladder-deep-order")
        self.spheres = {}
        cut = q(inputs.SPHERE_CUTOFF)
        for n in sorted(set(self.inp.spheres)):
            need = exactreal.rational_ceiling(conemaps.required_source_cutoff(n, cut, 0))
            self.spheres[n] = catalog.sphere_geometric_spectrum(n, q(need))
        self.sphere_cut = cut
        self.iterate_cut = q(inputs.ITERATE_CUTOFF)
        need = conemaps.iterate_base_requirements(2, 2, self.iterate_cut, ("functions",))[0]
        self.s2 = catalog.sphere_geometric_spectrum(2, q(need))
        self.oneform_bases = [(b, program_base(b), q(b.window)) for b in self.inp.oneform_bases]
        self.einstein_bases = [(b, program_base(b), q(b.window)) for b in self.inp.einstein_bases]

    def round(self, r: int) -> list[Op]:
        """One sphere, one iterated S^2, four 1-form and four Einstein
        transforms: nine ops of about the same size and the sphere above."""
        cm = self.conemaps
        n = self.inp.spheres[r % len(self.inp.spheres)]
        gs = self.spheres[n]
        ops = [
            Op("sphere", lambda: cm.map_functions(gs, self.sphere_cut),
               lambda out: oracles.check_sphere_cone(n, Fraction(inputs.SPHERE_CUTOFF), plain(out))),
            Op("iterate", lambda: cm.iterate(self.s2, 2, self.iterate_cut, parts=("functions",)),
               self._check_iterate),
        ]
        for k in range(4 * r, 4 * r + 4):
            b, gs_b, w = self.oneform_bases[k % len(self.oneform_bases)]
            ops.append(Op("one-forms", lambda gs_b=gs_b, w=w: cm.map_one_forms(gs_b, w),
                          lambda out, b=b: self._check_one_forms(b, out)))
            b, gs_b, w = self.einstein_bases[k % len(self.einstein_bases)]
            ops.append(Op("einstein", lambda gs_b=gs_b, w=w: cm.map_einstein(gs_b, w),
                          lambda out, b=b: self._check_einstein(b, out)))
        self.order.shuffle(ops)
        return ops

    @staticmethod
    def _check_iterate(out) -> None:
        oracles.check_sphere_cone(3, Fraction(inputs.ITERATE_CUTOFF), plain(out.spec0))
        oracles.expect(out.n == 4, f"iterated dimension {out.n}")
        for spec in (out.spec1D, out.specE_TT):
            rows, cutoff = plain(spec)
            oracles.expect(not rows and cutoff == (-1, 0, 1), "parts=functions left other parts")

    @staticmethod
    def _check_one_forms(b, out) -> None:
        oracles.check_rational_block(b, "1f-exact", plain(out.exact_part))
        oracles.check_rational_block(b, "1f-co", plain(out.coclosed_part))

    @staticmethod
    def _check_einstein(b, out) -> None:
        oracles.check_rational_block(b, "E-conf", plain(out.conformal_block))
        oracles.check_rational_block(b, "E-vec", plain(out.vector_block))
        oracles.check_rational_block(b, "E-tt", plain(out.tt_block))
        ys0, ys1, _ = b.degrees
        oracles.expect(out.scalar_boundary_case == (1 in ys0), "scalar boundary flag")
        oracles.expect(out.oneform_boundary_case == (1 in ys1), "1-form boundary flag")


# ---------------------------------------------------------------------------


class CrossSweep:
    """Thousands of small bases with irrational degrees, a few rungs each."""

    name = "crosscheck-sweep"
    calibrated = True
    tail_q = 0.95
    min_rounds = 20
    bases_per_round = 49

    def setup(self, seed: int) -> None:
        from sinecone import errors, rigidity, stability

        self.stability, self.rigidity, self.errors = stability, rigidity, errors
        self.inp = inputs.cross_inputs(seed)
        self.order = inputs.stream(seed, "crosscheck-sweep-order")

    def round(self, r: int) -> list[Op]:
        bases = self.inp.bases
        first = r * self.bases_per_round
        ops = [self._base_op(bases[(first + i) % len(bases)]) for i in range(self.bases_per_round)]
        lo, hi = self.inp.scans[r % len(self.inp.scans)]
        rig = self.rigidity
        ops.append(Op("scan", lambda: rig.product_rigidity_scan(lo, hi),
                      lambda rows: oracles.check_scan(lo, hi, [
                          (row.n, plain_value(row.kappa), row.unbounded_below, row.has_ied,
                           [_plain_cert(c) for c in row.certificates]) for row in rows])))
        self.order.shuffle(ops)
        return ops

    def _base_op(self, b: inputs.Base) -> Op:
        stability, rigidity, errors = self.stability, self.rigidity, self.errors

        def run():
            gs = program_base(b)
            result = stability.cross_check(gs)
            try:
                certs = rigidity.find_ieds(gs)
            except errors.UnboundedBelow:
                certs = None
            return result, certs

        def check(out):
            result, certs = out
            p = result.predicted
            oracles.check_cross_check(b, {
                "eh": (p.eh.holds, p.eh.strict),
                "linear": (p.linear.holds, p.linear.strict),
                "tangential": (p.tangential.holds, p.tangential.strict),
                "physical": (p.physical.holds, p.physical.strict),
                "cone_unbounded": result.cone_unbounded,
                "consistent": result.consistent,
            })
            oracles.check_certificates(
                b.n, b.specE_TT, None if certs is None else [_plain_cert(c) for c in certs])

        return Op("base", run, check)


def _plain_cert(c) -> tuple:
    return (plain_value(c.kappa), c.j, c.bounded, c.multiplicity)


# ---------------------------------------------------------------------------


class VerifyEngines:
    """Each op verifies one seed (n, k) symbolically and numerically."""

    name = "verify-engines"
    calibrated = True
    tail_q = 0.75
    min_rounds = 6

    def setup(self, seed: int) -> None:
        from sinecone import radialoracle, symcheck

        self.radial, self.symcheck = radialoracle, symcheck
        self.rng = inputs.stream(seed, "verify-engines")

    def round(self, r: int) -> list[Op]:
        return [self._op(s) for s in inputs.verify_round(self.rng)]

    def _op(self, s: inputs.VerifySeed) -> Op:
        sym, rad = self.symcheck, self.radial
        n, k = s.n, s.k
        lam = Fraction(k * (k + n - 1))

        def run():
            comm = sym.check_commutators(n)
            ladder = []
            for j in range(s.jmax + 1):
                family = sym.build_harmonic_family(n, k, j)
                ladder.append((
                    family,
                    sym.verify_decomposition(n, k, j),
                    [sym.verify_formulas1(n, k, j), sym.verify_formulas2(n, k, j),
                     sym.verify_formulas3(n, k, j)],
                ))
            function = rad.verify_line(n, "function", lam, s.modes)
            tt = rad.verify_line(n, "tt", hardy(n), s.modes)
            return comm, ladder, function, tt

        def check(out):
            comm, ladder, function, tt = out
            oracles.check_commutator_report(comm)
            for j, (family, decomposition, formulas) in enumerate(ladder):
                oracles.check_harmonic_family(n, k, j, dict(family.terms))
                oracles.check_symbolic_reports(k, j, decomposition, formulas)
            oracles.check_radial_report(n, lam, s.modes, function)
            oracles.check_radial_report(n, hardy(n), s.modes, tt)

        return Op("seed", run, check)


# ---------------------------------------------------------------------------


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def spawn(cmd: list[str]) -> tuple[int, str, str, int]:
    """Run one child to its end; exit code, output and its peak RSS."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    out = proc.stdout.read()
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), err.decode(), usage.ru_maxrss


class CliOneshot:
    """The README command set, each op one fresh ``sinecone`` process."""

    name = "cli-oneshot"
    calibrated = False  # process start and module loading, which the reference does not track
    tail_q = 0.75
    min_rounds = 2

    def __init__(self):
        self.tracer = None  # set by the traced run: ops then go through cliprobe
        self.probes: list[tuple[str, dict]] = []
        self.peak_rss_kb = 0  # of the largest child
        self.interp_start_s = 0.0  # the bare-interpreter control, set by the traced run

    def setup(self, seed: int) -> None:
        import sinecone.cli

        sinecone.cli.build_parser()
        os.makedirs(OUT_DIR, exist_ok=True)
        self.rng = inputs.stream(seed, "cli-oneshot")

    def round(self, r: int) -> list[Op]:
        return [self._op(kind, argv) for kind, argv in inputs.cli_commands(self.rng)]

    def _op(self, kind: str, argv: list[str]) -> Op:
        def run():
            if self.tracer is not None:
                return self._probe(kind, argv)
            code, out, err, rss = spawn([sys.executable, "-m", "sinecone.cli", *argv])
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            if code != 0:
                raise OpFailed(f"sinecone {' '.join(argv)} exited {code}: {err.strip()}")
            return out

        return Op(kind, run, lambda stdout: check_cli(argv, stdout))

    def _probe(self, kind: str, argv: list[str]) -> str:
        """The traced op: the command through cliprobe, its spans absorbed."""
        spans = os.path.join(OUT_DIR, "probe-spans.bin")
        code, out, err, _ = spawn([sys.executable, os.path.join("perfbench", "cliprobe.py"),
                                   spans, str(time.perf_counter_ns()), *argv])
        reaped_ns = time.perf_counter_ns()
        if code != 0:
            raise OpFailed(f"probe of {' '.join(argv)} exited {code}: {err.strip()}")
        report = json.loads(out.rsplit("\n", 2)[-2])
        if report["code"] != 0:
            raise OpFailed(f"sinecone {' '.join(argv)} returned {report['code']}")
        self.tracer.absorb(report, spans, reaped_ns)
        self.probes.append((kind, report))
        return report["stdout"]


def check_cli(argv: list[str], stdout: str) -> None:
    """Dispatch one command's output to its oracle."""
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
    cmd = argv[0]
    if cmd == "spectrum" and "--product" in opt:
        n = sum(int(x) for x in opt["--product"].split(","))
        (table,) = oracles.parse_tables(stdout)
        oracles.check_product_tt_table(n, table)
    elif cmd == "spectrum":
        (table,) = oracles.parse_tables(stdout)
        oracles.check_sphere_table(int(opt["--sphere"]), Fraction(opt["--cutoff"]), table)
    elif cmd == "iterate":
        scalar, form, tt = oracles.parse_tables(stdout)
        oracles.check_sphere_table(3, Fraction(opt["--cutoff"]), scalar)
        for table in (form, tt):
            oracles.expect(not table[1] and table[2] == -1, f"iterate: {table[0]} not empty")
    elif cmd == "stability":
        oracles.check_stability_product(sum(int(x) for x in opt["--product"].split(",")), stdout)
    elif cmd == "rigidity":
        oracles.check_rigidity_product(sum(int(x) for x in opt["--product"].split(",")), stdout)
    elif cmd == "scan-products":
        oracles.check_scan_table(int(opt["--from"]), int(opt["--to"]), stdout)
    elif cmd == "verify-symbolic":
        count = oracles.symbolic_report_count(int(opt["--k"]), int(opt["--jmax"]))
        oracles.expect(stdout == f"all {count} symbolic reports passed\n", f"verify-symbolic: {stdout!r}")
    elif cmd == "verify-radial" and "--csv" in opt:
        with open(opt["--csv"], encoding="utf-8") as fh:
            csv_text = fh.read()
        os.remove(opt["--csv"])  # so that the next op must write it afresh
        oracles.check_demonstrator(stdout, csv_text)
    elif cmd == "verify-radial":
        oracles.check_radial_report(int(opt["--n"]), Fraction(opt["--coupling"]),
                                    int(opt["--modes"]), json.loads(stdout))
    else:
        raise ValueError(f"no oracle for {cmd}")


WORKLOADS = {w.name: w for w in (CliOneshot, LadderDeep, CrossSweep, VerifyEngines)}
