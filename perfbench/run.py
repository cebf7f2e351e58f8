"""The sinecone benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``.  One caller drives the workload in a closed loop, whole rounds at
a time, until the next round would end after S seconds (but at least the
workload's minimum number of rounds).  Every output is checked against the
oracles.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Op times of the in-process workloads are reported at the reference speed
of the host: the speed of a shared host drifts by tens of percent within a
minute, so the run reads the host's speed off a fixed piece of pure-Python
work (``reference``) every ``CALIBRATE_EVERY`` seconds of op time and
scales every op time by ``REFERENCE_S`` over the median reading.
Times set by starting processes (``setup_s``, every ``cli-oneshot`` op) are
wall times as measured: the reference does not track them.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh starts whose median is ``setup_s``.
SETUP_STARTS = 5
#: Fresh bare interpreters (``python -c "print('ready')"``) whose median is
#: ``cli.interp_start_s``.
INTERP_STARTS = 5

#: What ``reference()`` takes on the reference machine (nproc 2, Python
#: 3.11.7), between its fast (3 ms) and slow (5 ms) states; times are
#: reported at this speed.
REFERENCE_S = 0.0045
#: Seconds of op time between two readings of the host's speed.
CALIBRATE_EVERY = 0.3

TIME_LAYERS = (
    "exactreal.compare", "exactreal.make_quad", "exactreal.squarefree_decompose",
    "exactreal.arith", "spectra.merge", "spectra.validate", "conemaps.map_functions",
    "conemaps.map_one_forms", "conemaps.map_einstein", "conemaps.required_source_cutoff",
    "stability.classify", "stability.predict_cone", "stability.compute_cone",
    "stability.cross_check", "rigidity.find_ieds", "rigidity.solve_zero_equation",
    "catalog.sphere_geometric_spectrum", "radialoracle.solve_radial",
    "symcheck.check_commutators", "symcheck.build_harmonic_family",
    "symcheck.verify_decomposition", "symcheck.verify_formulas",
)
CALL_LAYERS = (
    "exactreal.compare", "exactreal.make_quad", "exactreal.squarefree_decompose",
    "exactreal.arith", "spectra.merge", "conemaps.harmonic_degree", "stability.classify",
    "rigidity.find_ieds", "radialoracle.solve_radial", "symcheck.build_harmonic_family",
)
COUNTS = (
    "spectra.merge.raw_in", "spectra.merge.lines_out", "conemaps.rungs",
    "rigidity.certificates", "radialoracle.grid_points", "radialoracle.modes_checked",
    "symcheck.identities_checked",
)
MODULES = ("cli", "exactreal", "spectra", "catalog", "conemaps", "stability", "rigidity",
           "radialoracle", "symcheck")


def reference() -> Fraction:
    """Fixed pure-Python work of the kind the exact layers do (Fraction
    products and sums): the yardstick of the host's speed.  It belongs to
    the benchmark, so no change to the program moves it."""
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, i + 7) * Fraction(2 * i + 1, 3)
    return acc


def host_factor() -> float:
    """REFERENCE_S over the reference's time now (best of three): below 1
    while the host runs slow."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - t0)
    return REFERENCE_S / best


class Phase:
    """Outcome of one closed-loop phase."""

    def __init__(self):
        self.raw: list[float] = []  # op times as measured
        self.readings: list[float] = []  # host_factor readings
        self.kinds: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.mismatches: list[str] = []
        self.rounds = 0
        self.wall = 0.0

    @property
    def factor(self) -> float:
        """Median reading of the host's speed; 1 for an uncalibrated phase."""
        return statistics.median(self.readings) if self.readings else 1.0

    @property
    def latencies(self) -> list[float]:
        """Op times at the reference speed."""
        factor = self.factor
        return [t * factor for t in self.raw]

    @property
    def busy(self) -> float:
        return sum(self.raw) * self.factor


def run_phase(workload, seconds: float, min_rounds: int, tracer=None) -> Phase:
    """Closed loop, whole rounds; op times exclude the checks between ops
    and the readings of the host's speed."""
    phase = Phase()
    # The benchmark's inputs are not the program's heap: keep the cyclic
    # collector from walking them during the ops.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    since = CALIBRATE_EVERY
    while True:
        for op in workload.round(phase.rounds):
            if workload.calibrated and since >= CALIBRATE_EVERY:
                phase.readings.append(host_factor())
                since = 0.0
            phase.attempted += 1
            run = op.run
            if tracer is not None:
                tracer.op = phase.attempted - 1
                run = tracer.wrap("op", op.run)
            t0 = time.perf_counter()
            try:
                out = run()
            except Exception as exc:  # a program fault: counted, the loop goes on
                phase.failed += 1
                phase.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            since += elapsed
            phase.raw.append(elapsed)
            phase.kinds.append(op.kind)
            try:
                op.check(out)
            except Exception as exc:  # Mismatch, or output too malformed to compare
                phase.mismatches.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        phase.rounds += 1
        phase.wall = time.perf_counter() - start
        if phase.rounds >= min_rounds and phase.wall * (phase.rounds + 1) / phase.rounds > seconds:
            return phase


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def fresh_start(cmd: list[str]) -> float:
    """Seconds from spawning ``cmd`` to its first line of output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line != b"ready\n":
        raise RuntimeError(f"fresh start {cmd} failed")
    return elapsed


def setup_seconds(name: str, seed: int) -> float:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    return statistics.median(fresh_start(cmd) for _ in range(SETUP_STARTS))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, phase: Phase, setup_s: float) -> dict:
    if workload.name == "cli-oneshot":
        peak_kb = workload.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": metric(setup_s, "s"),
        "throughput_ops_per_s": metric(len(phase.raw) / phase.busy, "1/s"),
        "op_latency_p50_s": metric(statistics.median(phase.latencies), "s"),
        "op_latency_tail_s": metric(quantile(phase.latencies, workload.tail_q), "s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    }


def per_layer(workload, tracer, at_setup: tuple, traced: Phase, plain: Phase) -> dict:
    """Per-op layer metrics of the traced phase; a layer that runs only
    during set-up is reported per set-up.  ``at_setup`` is the tracer's
    (totals, counters, span count) when set-up ended."""
    ops = max(len(traced.raw), 1)
    totals = tracer.totals()
    setup_totals, setup_counters, setup_spans = at_setup
    counters = tracer.counters - setup_counters
    scale = traced.factor / 1e9  # ns as measured -> s at reference speed

    def op_and_setup(name):
        calls, self_ns = totals.get(name, (0, 0))
        s_calls, s_ns = setup_totals.get(name, (0, 0))
        if calls > s_calls:
            return (calls - s_calls) / ops, (self_ns - s_ns) * scale / ops
        return s_calls, s_ns * scale

    out = {}
    for name in TIME_LAYERS:
        out[f"{name}.self_s"] = metric(op_and_setup(name)[1], "s")
    for name in CALL_LAYERS:
        out[f"{name}.calls"] = metric(op_and_setup(name)[0], "count")
    for name in COUNTS:
        out[name] = metric(counters[name] / ops, "count")
    out["radialoracle.max_rel_error"] = metric(
        tracer.maxima.get("radialoracle.max_rel_error", 0.0), "ratio")
    rungs = counters["conemaps.rungs"]
    families = counters["conemaps.families"]
    out["conemaps.rungs_per_family"] = metric(rungs / families if families else 0.0, "count")
    out["conemaps.irrational_rung_share"] = metric(
        counters["conemaps.irrational_rungs"] / rungs if rungs else 0.0, "ratio")
    for module in MODULES:
        self_s = sum(op_and_setup(n)[1] for n in totals if n.startswith(module + "."))
        out[f"{module}.self_s"] = metric(self_s, "s")
    out.update(workload_cli_metrics(workload, scale * 1e9))
    op_ns = totals.get("op", (0, 0))[1]
    out["trace.op_s"] = metric(traced.busy / ops, "s")
    out["trace.unattributed_share"] = metric(op_ns / 1e9 / sum(traced.raw), "ratio")
    plain_tput = len(plain.raw) / plain.busy
    traced_tput = len(traced.raw) / traced.busy
    out["trace.overhead_share"] = metric(1 - traced_tput / plain_tput, "ratio")
    out["trace.spans"] = metric((len(tracer.spans) - setup_spans) / 6 / ops, "count")
    return out


def workload_cli_metrics(workload, scale: float) -> dict:
    """The cli.* metrics, from the probes of a traced cli-oneshot run; zero
    on the other workloads, which start no sinecone process.  ``scale``
    brings measured times to the reference speed."""
    probes = getattr(workload, "probes", [])
    cli = {k: 0.0 for k in ("interp", "import", "run", "bytes", "scipy")}
    if probes:
        cli = {
            "interp": workload.interp_start_s,
            "import": statistics.median(p["import_ns"] for _, p in probes) / 1e9 * scale,
            "run": statistics.median(p["run_ns"] for _, p in probes) / 1e9 * scale,
            "bytes": statistics.fmean(p["stdout_bytes"] for _, p in probes),
            "scipy": max(p["scipy_modules"] for kind, p in probes if kind == "exact"),
        }
    return {
        "cli.interp_start_s": metric(cli["interp"], "s"),
        "cli.import_s": metric(cli["import"], "s"),
        "cli.scipy_modules_loaded": metric(cli["scipy"], "count"),
        "cli.run_s": metric(cli["run"], "s"),
        "cli.stdout_bytes": metric(cli["bytes"], "bytes"),
    }


def report_phase(workload, phase: Phase, label: str) -> None:
    """Human-readable lines ahead of the result: per-kind medians."""
    by_kind: dict[str, list[float]] = {}
    for kind, lat in zip(phase.kinds, phase.latencies):
        by_kind.setdefault(kind, []).append(lat)
    kinds = ", ".join(f"{k} {len(v)}x p50 {statistics.median(v):.4f}s"
                      for k, v in sorted(by_kind.items()))
    speed = f"host speed {phase.factor:.3f} of the reference; " if workload.calibrated else ""
    print(f"{workload.name} {label}: {phase.rounds} rounds, {phase.attempted} ops in "
          f"{phase.wall:.2f}s wall; {speed}as measured: p50 {statistics.median(phase.raw):.4f}s, "
          f"{len(phase.raw) / sum(phase.raw):.4g} ops/s; reported: {kinds}")
    for line in (phase.errors + phase.mismatches)[:10]:
        print(f"  {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sinecone benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "sinecone", "__init__.py")):
        print("perfbench: run from the root of a sinecone checkout (src/sinecone is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()

    if args.setup_probe:
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0

    if args.trace == 0:
        setup_s = setup_seconds(workload.name, args.seed)
        workload.setup(args.seed)
        phase = run_phase(workload, args.seconds, workload.min_rounds)
        report_phase(workload, phase, "untraced")
        metrics = end_to_end(workload, phase, setup_s)
        attempted, failed = phase.attempted, phase.failed
        correct = not phase.mismatches
    else:
        from tracing import Tracer

        workload.setup(args.seed)
        plain = run_phase(workload, args.seconds / 2, 1)
        report_phase(workload, plain, "untraced half")
        tracer = Tracer()
        if workload.name == "cli-oneshot":
            workload.interp_start_s = statistics.median(
                fresh_start([sys.executable, "-c", "print('ready')"])
                for _ in range(INTERP_STARTS))
            workload.tracer = tracer
        else:
            tracer.install()
            tracer.wrap("setup", workload.setup)(args.seed)
        at_setup = (tracer.totals(), Counter(tracer.counters), len(tracer.spans))
        traced = run_phase(workload, args.seconds / 2, 1, tracer)
        tracer.uninstall()
        report_phase(workload, traced, "traced half")
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        spans_path = os.path.join(workloads.OUT_DIR, f"spans-{workload.name}.tsv")
        count = tracer.write(spans_path)
        print(f"{count} spans written to {spans_path}")
        metrics = per_layer(workload, tracer, at_setup, traced, plain)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        correct = not (plain.mismatches or traced.mismatches)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
