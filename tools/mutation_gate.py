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
EXACT = ("tests/test_exactreal.py", "tests/test_exactreal_reference.py")
SYMBOLIC = ("tests/test_symcheck.py", "tests/test_symcheck_reference.py")
STABILITY = ("tests/test_stability.py",)
RIGIDITY = ("tests/test_rigidity.py",)

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
        "lambda v: compare(v, lin_bound) <= 0,", STABILITY),
    "the tangential gap loses its low edge": (
        "src/sinecone/stability.py", "return compare(v, dim_value) > 0 and compare(v, gap_hi) < 0",
        "return compare(v, gap_hi) < 0", STABILITY),
    "the tangential gap admits its low edge": (
        "src/sinecone/stability.py", "compare(v, dim_value) > 0 and", "compare(v, dim_value) >= 0 and", STABILITY),
    "the tangential gap admits its high edge": (
        "src/sinecone/stability.py", "compare(v, gap_hi) < 0", "compare(v, gap_hi) <= 0", STABILITY),
    "predict_cone needs the scalar cutoff above the transfer threshold": (
        "src/sinecone/stability.py", "t_known = compare(gs.spec0.cutoff, t) >= 0",
        "t_known = compare(gs.spec0.cutoff, t) > 0", STABILITY),
    "predict_cone puts the transfer threshold below itself": (
        "src/sinecone/stability.py", "if compare(v, t) < 0]", "if compare(v, t) <= 0]",
        STABILITY),
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
    "a boundary line is matched on the numerator of a fraction": (
        "src/sinecone/conemaps.py", "if v.q == 0 and v.d == 1 else other", "if v.q == 0 else other",
        CONEMAPS),
    "a boundary line is matched on the rational part of an irrational": (
        "src/sinecone/conemaps.py", "if v.q == 0 and v.d == 1 else other", "if v.d == 1 else other",
        CONEMAPS),
    "compute_cone leaves out the TT part": (
        "src/sinecone/stability.py", 'parts = ("functions", "tt") if gs.n >= 3', 'parts = ("functions",) if gs.n >= 3',
        STABILITY),
    "a class's seeds keep their feed order": (
        "src/sinecone/conemaps.py", "    seeds.sort(key=_tag)\n", "", CONEMAPS),
    "_norm reduces by gcd(p, d) alone": (
        "src/sinecone/exactreal.py", "g = gcd(p, q, d)", "g = gcd(p, d)", EXACT),
    "_floor_scaled floors -sqrt to -isqrt": (
        "src/sinecone/exactreal.py", "(root if q > 0 else -root - 1)", "(root if q > 0 else -root)", EXACT),
    "to_decimal rounds up from 6": (
        "src/sinecone/exactreal.py", "(_floor_scaled(x, digits + 1) + 5) // 10", "(_floor_scaled(x, digits + 1) + 4) // 10",
        EXACT),
    "Miller-Rabin is asked below its floor": (
        "src/sinecone/exactreal.py", "if _MR_FLOOR < m < _MR_LIMIT", "if 1 < m < _MR_LIMIT", EXACT),
    "Miller-Rabin is trusted at psi_13 and above": (
        "src/sinecone/exactreal.py", "< m < _MR_LIMIT and", "< m and", EXACT),
    "Miller-Rabin is asked twice about a refused cofactor": (
        "src/sinecone/exactreal.py", " and m != refused:", ":", EXACT),
    "an irrational shifted cutoff on the least rung's grid point is dropped": (
        "src/sinecone/conemaps.py", "low < 250000 * (1 - n * n)", "low <= 250000 * (1 - n * n)", CONEMAPS),
    "an irrational source cutoff equal to its requirement is refused": (
        "src/sinecone/conemaps.py", "required_source_cutoff(n, cutoff, out, inner)) < 0",
        "required_source_cutoff(n, cutoff, out, inner)) <= 0", CONEMAPS),
    "the part's isqrt bound is one degree high": (
        "src/sinecone/conemaps.py", "math.isqrt(4 * c + n * n) - n if", "math.isqrt(4 * c + n * n) - n + 2 if",
        CONEMAPS),
    "the sphere's top degree is one high": (
        "src/sinecone/catalog.py", "(math.isqrt(disc) - n + 1) // 2", "(math.isqrt(disc) - n + 3) // 2",
        ("tests/test_catalog.py",)),
    "line_spectrum keys an irrational on its rational part": (
        "src/sinecone/spectra.py", "(exactreal._floor_scaled(v, 3), v, m, origins)", "(v.p * 1000 // v.d, v, m, origins)",
        ("tests/test_spectra.py", "tests/test_conemaps.py")),
    "solve_zero_equation takes every radicand for a square": (
        "src/sinecone/rigidity.py", "r * r == radicand and", "True and", RIGIDITY),
    "solve_zero_equation misses the index 0": (
        "src/sinecone/rigidity.py", "r <= n - 1", "r < n - 1", RIGIDITY),
    "solve_zero_equation reads a fraction's numerator as an integer": (
        "src/sinecone/rigidity.py", "if kappa.q != 0 or kappa.d != 1:", "if kappa.q != 0:", RIGIDITY),
    "build_harmonic_family's recurrence drops a factor": (
        "src/sinecone/symcheck.py", "((j - 2 * m + 2) * (j - 2 * m + 1))", "((j - 2 * m + 2) * (j - 2 * m))", SYMBOLIC),
    "verify_decomposition's sum does not alternate": (
        "src/sinecone/symcheck.py", "* (-1) ** l for l, key", "* 1 for l, key", SYMBOLIC),
    "verify_decomposition skips its shifted-generator check": (
        "src/sinecone/symcheck.py", "if mul_monomial(s2, p, q)._d != {", "if False and mul_monomial(s2, p, q)._d != {",
        SYMBOLIC),
    "_class_lines' integer class takes the general value": (
        "src/sinecone/conemaps.py", "if big_q == 0 and dd == 1:", "if False:", CONEMAPS),
    "_class_lines' one column takes the general origins path": (
        "src/sinecone/conemaps.py", "if len(columns) == 1:", "if False:", CONEMAPS),
    "solve_radial returns lower - 1/mu": (
        "src/sinecone/radialoracle.py", "lower + (1.0 / float(mu) - shift)", "lower + (-1.0 / float(mu) - shift)",
        RADIAL),
    "solve_radial shifts by n^2/4 + 10 again": (
        "src/sinecone/radialoracle.py", "shift = 1.0", "shift = problem.n ** 2 / 4 + 10.0", ("tests/test_cli.py",)),
    "_exponents subtracts (n-1)/2 from the root": (
        "src/sinecone/radialoracle.py", "float(problem.coupling) / ((problem.n - 1) / 2 + root)",
        "root - (problem.n - 1) / 2", RADIAL),
    "_exponents sums the radicand in floats": (
        "src/sinecone/radialoracle.py", "Fraction(problem.n - 1, 2) ** 2 + problem.coupling",
        "((problem.n - 1) / 2) ** 2 + float(problem.coupling)", RADIAL),
    "solve_radial ignores a positive dpttrf info": (
        "src/sinecone/radialoracle.py", "if info != 0:", "if info < 0:", ("tests/test_cli.py",)),
    "grid_start keeps the weight above 1e-300": (
        "src/sinecone/radialoracle.py", "10.0 ** (-250 / k)", "10.0 ** (-300 / k)", RADIAL),
    "solve_radial starts ARPACK from ones": (
        "src/sinecone/radialoracle.py", "v0=r * np.exp(np.cos(theta))", "v0=np.ones(size)", RADIAL),
    "solve_radial's start drops the sqrt(mass) weight": (
        "src/sinecone/radialoracle.py", "v0=r * np.exp(np.cos(theta))", "v0=np.exp(np.cos(theta))", RADIAL),
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

#: name -> why the mutant cannot change any result; a fast path that gives
#: what its general path gives is kept only with the time its removal cost
#: (CPU time of the removal over the tree, in one process with the workload
#: ops interleaved, 16 alternations on 2-core x86-64 under CPython 3.11: median
#: [3rd lowest, 3rd highest])
EQUIVALENT = {
    "the tangential gap admits its low edge": (
        "_positive_scalars removes the dimension line, so v = m never reaches in_gap"),
    "_falls_short's first clause admits A = 0": (
        "at A = 0 the second clause reads r hd^2 < 0, false for every r >= 0"),
    "_class_lines' integer class takes the general value": (
        "the general value reduces by gcd(p, 0, 1) = 1 to the same integer line; without the "
        "fast path ladder-deep one-forms ops read 1.076 [1.026, 1.136], einstein 1.049 [0.986, 1.150]"),
    "_class_lines' one column takes the general origins path": (
        "one padded column with no leading None is its own origins; without the fast path "
        "ladder-deep ops read 1.034 [0.977, 1.097], crosscheck-sweep base ops 1.070 [0.920, 1.178]"),
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
