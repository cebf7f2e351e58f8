"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install`` wraps the public functions named in ``PLAN`` and rebinds
each wrapper in every ``sinecone`` module namespace that bound the original:
``from .exactreal import compare`` copies the binding into the importing
module, so wrapping ``exactreal.compare`` alone would miss most calls.  The
``QuadReal`` operators are wrapped on the class.

A span is (id, parent, name, op, start_ns, end_ns); spans are kept in memory
and written out by ``write``.  A layer's self time is its span's duration
minus the time its child spans cover, accumulated as the spans close.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

#: (module, attribute, span name).  Several attributes may share one span
#: name; the name is the layer metric the spans feed.  ``spectra.merge`` is
#: wrapped apart, with counters (see ``_count_merge``).
PLAN = (
    ("sinecone.exactreal", "compare", "exactreal.compare"),
    ("sinecone.exactreal", "make_quad", "exactreal.make_quad"),
    ("sinecone.exactreal", "squarefree_decompose", "exactreal.squarefree_decompose"),
    ("sinecone.exactreal", "sign", "exactreal.sign"),
    ("sinecone.exactreal", "to_decimal", "exactreal.to_decimal"),
    ("sinecone.exactreal", "rational_ceiling", "exactreal.rational_bound"),
    ("sinecone.exactreal", "rational_floor", "exactreal.rational_bound"),
    ("sinecone.exactreal", "quad_from_json", "exactreal.quad_from_json"),
    ("sinecone.spectra", "validate_geometric_spectrum", "spectra.validate"),
    ("sinecone.spectra", "geometric_spectrum_from_json", "spectra.from_json"),
    ("sinecone.spectra", "geometric_spectrum_to_json", "spectra.to_json"),
    ("sinecone.catalog", "sphere_geometric_spectrum", "catalog.sphere_geometric_spectrum"),
    ("sinecone.catalog", "product_geometric_spectrum", "catalog.product_geometric_spectrum"),
    ("sinecone.catalog", "load_geometric_spectrum", "catalog.load_geometric_spectrum"),
    ("sinecone.conemaps", "map_functions", "conemaps.map_functions"),
    ("sinecone.conemaps", "map_coclosed_one_forms", "conemaps.map_one_forms"),
    ("sinecone.conemaps", "map_one_forms", "conemaps.map_one_forms"),
    ("sinecone.conemaps", "map_einstein", "conemaps.map_einstein"),
    ("sinecone.conemaps", "harmonic_degree", "conemaps.harmonic_degree"),
    ("sinecone.conemaps", "required_source_cutoff", "conemaps.required_source_cutoff"),
    ("sinecone.conemaps", "iterate", "conemaps.iterate"),
    ("sinecone.conemaps", "iterate_base_requirements", "conemaps.iterate_base_requirements"),
    ("sinecone.stability", "classify", "stability.classify"),
    ("sinecone.stability", "predict_cone", "stability.predict_cone"),
    ("sinecone.stability", "compute_cone", "stability.compute_cone"),
    ("sinecone.stability", "cross_check", "stability.cross_check"),
    ("sinecone.rigidity", "find_ieds", "rigidity.find_ieds"),
    ("sinecone.rigidity", "solve_zero_equation", "rigidity.solve_zero_equation"),
    ("sinecone.rigidity", "product_rigidity_scan", "rigidity.product_rigidity_scan"),
    ("sinecone.radialoracle", "solve_radial", "radialoracle.solve_radial"),
    ("sinecone.radialoracle", "verify_line", "radialoracle.verify_line"),
    ("sinecone.radialoracle", "rayleigh_unbounded_demo", "radialoracle.rayleigh"),
    ("sinecone.symcheck", "check_commutators", "symcheck.check_commutators"),
    ("sinecone.symcheck", "build_harmonic_family", "symcheck.build_harmonic_family"),
    ("sinecone.symcheck", "verify_decomposition", "symcheck.verify_decomposition"),
    ("sinecone.symcheck", "verify_formulas1", "symcheck.verify_formulas"),
    ("sinecone.symcheck", "verify_formulas2", "symcheck.verify_formulas"),
    ("sinecone.symcheck", "verify_formulas3", "symcheck.verify_formulas"),
)

#: QuadReal operators, all feeding the span ``exactreal.arith``.
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__")

SPAN_FIELDS = ("id", "parent", "name", "op", "start_ns", "end_ns")


def _count_identities(tracer, args, out) -> None:
    tracer.counters["symcheck.identities_checked"] += (
        out["monomials"] * out["identities"] if "monomials" in out else len(out["checked"]))


def _count_modes(tracer, args, out) -> None:
    tracer.counters["radialoracle.modes_checked"] += len(out["modes"])
    worst = max((m["rel_error"] for m in out["modes"]), default=0.0)
    tracer.maxima["radialoracle.max_rel_error"] = max(
        tracer.maxima.get("radialoracle.max_rel_error", 0.0), worst)


#: Work counted from a layer's result, by span name: (tracer, args, result).
HOOKS = {
    "rigidity.find_ieds":
        lambda t, args, out: t.counters.update({"rigidity.certificates": len(out)}),
    "radialoracle.solve_radial":
        lambda t, args, out: t.counters.update({"radialoracle.grid_points": args[0].grid_points + 1}),
    "radialoracle.verify_line": _count_modes,
    "symcheck.check_commutators": _count_identities,
    "symcheck.verify_formulas": _count_identities,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.spans = array("q")
        self.stack: list[list[int]] = []  # [span id, child ns, name index]
        self.next_id = 0
        self.op = -1
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._installed: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return idx

    def parent_name(self) -> str | None:
        """Name of the span enclosing the innermost open span."""
        return self.names[self.stack[-2][2]] if len(self.stack) >= 2 else None

    def wrap(self, name: str, fn):
        idx = self.name_id(name)
        stack, spans, calls, self_ns = self.stack, self.spans, self.calls, self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns[idx] += dur - frame[1]
                calls[idx] += 1
                if stack:
                    stack[-1][1] += dur
                spans.extend((sid, parent, idx, tracer.op, t0, t1))

        traced.__wrapped__ = fn
        return traced

    def record(self, name: str, start_ns: int, end_ns: int, parent: int = -1) -> int:
        """Add a closed span measured elsewhere (e.g. in a child process);
        its whole duration counts as self time."""
        idx = self.name_id(name)
        sid = self.next_id
        self.next_id += 1
        self.calls[idx] += 1
        self.self_ns[idx] += end_ns - start_ns
        self.spans.extend((sid, parent, idx, self.op, start_ns, end_ns))
        return sid

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sinecone" or mod_name.startswith("sinecone.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._installed.append((mod, attr, original))

    def install(self) -> None:
        """Wrap the layers the process has imported; imports nothing."""
        for mod_name, attr, name in PLAN:
            mod = sys.modules.get(mod_name)
            if mod is not None:
                original = getattr(mod, attr)
                self._rebind(original, self.wrap(name, self._hooked(name, original)))
        cls = sys.modules["sinecone.exactreal"].QuadReal
        for attr in ARITH:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap("exactreal.arith", original))
            self._installed.append((cls, attr, original))
        self._count_merge()

    def _hooked(self, name: str, fn):
        hook = HOOKS.get(name)
        if hook is None:
            return fn

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook(self, args, out)
            return out

        return counted

    def _count_merge(self) -> None:
        """Count what merge takes and gives, and the rungs conemaps feeds it."""
        original = sys.modules["sinecone.spectra"].merge
        counters = self.counters
        tracer = self

        def merge(raw, cutoff):
            raw = list(raw)
            counters["spectra.merge.raw_in"] += len(raw)
            parent = tracer.parent_name()
            if parent is not None and parent.startswith("conemaps."):
                counters["conemaps.rungs"] += len(raw)
                counters["conemaps.irrational_rungs"] += sum(1 for v, _, _ in raw if v.b != 0)
                counters["conemaps.families"] += len({tag[:2] for _, _, tag in raw})
            out = original(raw, cutoff)
            counters["spectra.merge.lines_out"] += len(out.lines)
            return out

        self._rebind(original, self.wrap("spectra.merge", merge))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def absorb(self, report: dict, spans_path, reaped_ns: int) -> None:
        """Take in the spans and totals of a traced child process (see
        ``cliprobe.py``) as children of the innermost open span, and its
        exit, from its last clock reading to ``reaped_ns``, as ``cli.exit``."""
        child = array("q")
        with open(spans_path, "rb") as fh:
            child.frombytes(fh.read())
        remap = [self.name_id(name) for name in report["names"]]
        offset = self.next_id
        parent = self.stack[-1][0] if self.stack else -1
        fields = len(SPAN_FIELDS)
        top_ns = 0
        top_id = -1
        for k in range(0, len(child), fields):
            sid, par, idx, _, t0, t1 = child[k: k + fields]
            if par < 0:
                top_ns += t1 - t0
            self.spans.extend((sid + offset, parent if par < 0 else par + offset,
                               remap[idx], self.op, t0, t1))
            top_id = max(top_id, sid)
        self.next_id = offset + top_id + 1
        for idx, calls, self_ns in zip(remap, report["calls"], report["self_ns"]):
            self.calls[idx] += calls
            self.self_ns[idx] += self_ns
        self.counters.update(report["counters"])
        for key, value in report["maxima"].items():
            self.maxima[key] = max(self.maxima.get(key, 0.0), value)
        if self.stack:
            self.stack[-1][1] += top_ns + reaped_ns - report["end_ns"]
        self.record("cli.exit", report["end_ns"], reaped_ns, parent)

    def totals(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, self ns), over every span recorded."""
        return {n: (self.calls[i], self.self_ns[i]) for i, n in enumerate(self.names)}

    def write(self, path) -> int:
        """Write the spans as tab-separated lines; returns the span count."""
        fields = len(SPAN_FIELDS)
        spans, names = self.spans, self.names
        count = len(spans) // fields
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(SPAN_FIELDS) + "\n")
            for base in range(0, count * fields, 4096 * fields):
                chunk = spans[base: base + 4096 * fields]
                lines = []
                for k in range(0, len(chunk), fields):
                    sid, parent, idx, op, t0, t1 = chunk[k: k + fields]
                    lines.append(f"{sid}\t{parent}\t{names[idx]}\t{op}\t{t0}\t{t1}\n")
                fh.write("".join(lines))
        return count
