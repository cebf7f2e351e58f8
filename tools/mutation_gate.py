"""Mutation gate for the exact core: every named source edit must be caught.

Each mutant is one exact ``(old, new)`` edit of one source file, which must
match exactly once.  The gate copies the repository to a temporary
directory, applies each mutant there in turn, and runs the test files named
for it.  A mutant is killed when those tests fail.  The gate exits 1 unless
every mutant is killed, or is listed in ``EQUIVALENT`` with the reason it
cannot change any result (and then it must survive).  It takes no flags:

    python3 tools/mutation_gate.py

The mutants run one after another, one pytest process at a time.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RECORDS = ("tests/test_records.py",)
CONEMAPS = ("tests/test_conemaps.py",)
RADIAL = ("tests/test_radialoracle.py",)

#: name -> (source file, old text, new text, test files)
MUTANTS = {
    "_norm keeps the sign of q under a negative d": (
        "src/sinecone/exactreal.py", "p, q, d = -p, -q, -d", "p, q, d = -p, q, -d",
        ("tests/test_exactreal.py",)),
    "_sign compares p^2 with q s, not q^2 s": (
        "src/sinecone/exactreal.py", "if p * p > q * q * s:", "if p * p > q * s:",
        ("tests/test_exactreal.py",)),
    "_grid_bound floors -sqrt(big) to -root": (
        "src/sinecone/conemaps.py", "(root if sign > 0 else -root - 1)", "(root if sign > 0 else -root)",
        CONEMAPS),
    "_falls_short's second clause admits equality": (
        "src/sinecone/conemaps.py", "r * have.d * have.d < a * a", "r * have.d * have.d <= a * a",
        CONEMAPS),
    "_falls_short's first clause admits A = 0": (
        "src/sinecone/conemaps.py", "return a > 0 and", "return a >= 0 and", CONEMAPS),
    "FEEDS shifts the exact 1-forms by n + 1": (
        "src/sinecone/conemaps.py", '"exact": ((1, 0),', '"exact": ((1, 1),', CONEMAPS),
    "FEEDS keeps the exact rung 0 of the zero line": (
        "src/sinecone/conemaps.py", '"1f-exact", {(0, 0): (1, None)}', '"1f-exact", {(0, 0): (0, None)}',
        CONEMAPS),
    "classify breaks linear stability at the bound": (
        "src/sinecone/stability.py", "lambda v: compare(v, lin_bound) < 0,",
        "lambda v: compare(v, lin_bound) <= 0,", ("tests/test_stability.py",)),
    "predict_cone puts the transfer threshold below itself": (
        "src/sinecone/stability.py", "if compare(v, t) < 0]", "if compare(v, t) <= 0]",
        ("tests/test_stability.py",)),
    "line_spectrum skips its ascent check": (
        "src/sinecone/spectra.py", "if any(f == g and compare(v, w) >= 0", "if any(f == g and compare(v, w) > 0",
        ("tests/test_spectra.py",)),
    "the class key leaves out P mod D": (
        "src/sinecone/conemaps.py", "(degree.q, dd, degree.s, big_p % dd)", "(degree.q, dd, degree.s, 0)",
        CONEMAPS),
    "the running multiplicity drops the doubling event": (
        "src/sinecone/conemaps.py", "events[double] += mult", "events[double] += 0", CONEMAPS),
    "the class ends one line early": (
        "src/sinecone/conemaps.py", "size = last + 1 - least", "size = last - least", CONEMAPS),
    "a class's seeds keep their feed order": (
        "src/sinecone/conemaps.py", "        seeds.sort(key=_tag)\n", "        pass\n", CONEMAPS),
    "solve_radial returns sigma - 1/mu": (
        "src/sinecone/radialoracle.py", "sigma + 1.0 / float(mu)", "sigma - 1.0 / float(mu)", RADIAL),
    "solve_radial ignores a positive dpttrf info": (
        "src/sinecone/radialoracle.py", "if info != 0:", "if info < 0:", ("tests/test_cli.py",)),
    "grid_start keeps the weight above 1e-300": (
        "src/sinecone/radialoracle.py", "10.0 ** (-250 / k)", "10.0 ** (-300 / k)", RADIAL),
    "the compiled constructor takes its fields in reverse": (
        "src/sinecone/spectra.py", "def __init__(self, {', '.join(fields)})",
        "def __init__(self, {', '.join(reversed(fields))})", RECORDS),
    "a written constructor is replaced by the compiled one": (
        "src/sinecone/spectra.py", "if cls.__init__ is object.__init__:", "if True:", RECORDS),
    "Record.__eq__ accepts a subclass": (
        "src/sinecone/spectra.py", "if other.__class__ is not self.__class__:",
        "if not isinstance(other, self.__class__):", RECORDS),
    "a record's fields are its own class's slots": (
        "src/sinecone/spectra.py", "for klass in reversed(cls.__mro__)", "for klass in (cls,)", RECORDS),
    "Record.__setstate__ sets nothing": (
        "src/sinecone/spectra.py", "            _set(self, name, value)\n",
        "            pass\n", RECORDS),
}

#: name -> why the mutant cannot change any result
EQUIVALENT = {
    "_falls_short's first clause admits A = 0": (
        "at A = 0 the second clause reads r hd^2 < 0, false for every r >= 0"),
}


def _pytest(tree: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main() -> int:
    unknown = EQUIVALENT.keys() - MUTANTS.keys()
    if unknown:
        print(f"EQUIVALENT names no mutant: {sorted(unknown)}")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "out"))
        all_tests = sorted({t for *_, tests in MUTANTS.values() for t in tests})
        if _pytest(tree, all_tests) != 0:
            print("the unmutated tests fail: no mutant can be scored")
            return 1
        killed = failures = 0
        for name, (path, old, new, tests) in MUTANTS.items():
            source = tree / path
            original = source.read_text(encoding="utf-8")
            count = original.count(old)
            if count != 1:
                print(f"BAD        {name}: the edit matches {count} times in {path}")
                failures += 1
                continue
            source.write_text(original.replace(old, new), encoding="utf-8")
            code = _pytest(tree, tests)
            source.write_text(original, encoding="utf-8")
            if code not in (0, 1, 2):  # 2: a mutant that fails at import stops the collection
                verdict = f"ERROR      (pytest exit {code})"
            elif name in EQUIVALENT:
                verdict = "KILLED     but listed as equivalent" if code else "equivalent"
            else:
                verdict = "killed" if code else "SURVIVED"
            killed += verdict == "killed"
            failures += verdict not in ("killed", "equivalent")
            reason = f" ({EQUIVALENT[name]})" if verdict == "equivalent" else ""
            print(f"{verdict:10} {name}{reason}")
    print(f"score: {killed}/{len(MUTANTS) - len(EQUIVALENT)} killed, {len(EQUIVALENT)} listed as equivalent")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
