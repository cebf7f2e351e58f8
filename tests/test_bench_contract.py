"""The benchmark's traced run wraps the functions named in
``perfbench/tracing.py``'s ``PLAN``; every one must exist, or
``perfbench/run.py --trace 1`` breaks.  The file is only read here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PLAN
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.PLAN
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
