"""One traced ``sinecone`` command, run in a fresh process by the traced
cli-oneshot run.

    python perfbench/cliprobe.py SPANS_FILE SPAWN_NS ARGV...

Times the interpreter start (from SPAWN_NS, the parent's clock at spawn),
the import of ``sinecone.cli`` and ``cli.run(ARGV)`` with every layer
wrapped, writes the spans to SPANS_FILE and prints one JSON line: the exit
code, the command's output, the timings, the number of scipy modules loaded,
the layer totals and the clock at the end, from which the parent times the
interpreter's exit.
"""

import time

START_NS = time.perf_counter_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, spawn_ns, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = 0
    tracer.record("cli.interp", spawn_ns, START_NS)
    t0 = time.perf_counter_ns()
    import sinecone.cli as cli

    t1 = time.perf_counter_ns()
    tracer.record("cli.import", t0, t1)
    tracer.install()
    run = tracer.wrap("cli.run", cli.run)
    buf = io.StringIO()
    t2 = time.perf_counter_ns()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    t3 = time.perf_counter_ns()
    with open(spans_path, "wb") as fh:
        tracer.spans.tofile(fh)
    stdout = buf.getvalue()
    print(json.dumps({
        "code": code,
        "stdout": stdout,
        "stdout_bytes": len(stdout.encode()),
        "import_ns": t1 - t0,
        "run_ns": t3 - t2,
        "scipy_modules": sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
        "names": tracer.names,
        "calls": tracer.calls,
        "self_ns": tracer.self_ns,
        "counters": dict(tracer.counters),
        "maxima": tracer.maxima,
        "end_ns": time.perf_counter_ns(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
