import argparse
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from scipy.linalg.lapack import dpttrf
from scipy.sparse.linalg import ArpackNoConvergence

from sinecone import radialoracle
from sinecone.cli import build_parser, run
from sinecone.errors import ConvergenceFailure, SineconeError
from sinecone.exactreal import quad_from_json

SRC = Path(__file__).resolve().parent.parent / "src"


def _capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_sphere_closure(capsys):
    code, out, _ = _capture(
        capsys, ["--output", "json", "spectrum", "--sphere", "3", "--cutoff", "100"]
    )
    assert code == 0
    payload = json.loads(out)
    rows = [(entry["value"], entry["mult"]) for entry in payload["spectrum"]]
    # leading lines of the 4-sphere
    assert rows[0] == ({"a": "0", "b": "0", "s": 1}, 1)
    assert rows[1] == ({"a": "4", "b": "0", "s": 1}, 5)
    assert rows[2] == ({"a": "10", "b": "0", "s": 1}, 14)


def test_output_is_deterministic(capsys):
    argv = ["--output", "json", "spectrum", "--sphere", "4", "--cutoff", "60"]
    _, first, _ = _capture(capsys, argv)
    _, second, _ = _capture(capsys, argv)
    assert first == second


def test_scan_products_table(capsys):
    code, out, _ = _capture(capsys, ["scan-products", "--from", "4", "--to", "12"])
    assert code == 0
    assert "unbounded below" in out
    lines = {int(l.split()[0]): l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()}
    assert "unbounded" in lines[8]
    assert "deformation" in lines[9] and "j=4" in lines[9]
    assert "deformation" in lines[10] and "j=3" in lines[10]
    assert "rigid" in lines[11]


def test_rigidity_product(capsys):
    code, out, _ = _capture(
        capsys, ["--output", "json", "rigidity", "--product", "4,5"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certificates"] == [
        {"kappa": {"a": "-16", "b": "0", "s": 1}, "j": 4, "bounded": False, "multiplicity": 1}
    ]


def test_stability_product(capsys):
    code, out, _ = _capture(
        capsys, ["--output", "json", "stability", "--product", "4,5", "--cross-check"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["base"]["eh"]["verdict"] is False
    assert payload["base"]["physical"]["verdict"] is True
    assert payload["cross_check"]["consistent"] is True


def test_exit_code_unbounded_below(capsys):
    code, _, err = _capture(
        capsys,
        ["--output", "json", "spectrum", "--product", "4,4",
         "--operator", "einstein", "--blocks", "tt", "--cutoff", "0"],
    )
    assert code == 3
    assert json.loads(err)["error"] == "UnboundedBelow"


def test_exit_code_verification_failure(capsys):
    code, _, err = _capture(
        capsys,
        ["verify-radial", "--n", "3", "--coupling", "3", "--modes", "2",
         "--tol", "1e-12", "--grid", "800"],
    )
    assert code == 2
    assert json.loads(err)["error"] == "VerificationFailed"


def test_spectrum_from_input_file(tmp_path, capsys):
    import json as _json

    base = {
        "n": 3,
        "normalized": True,
        "spec0": [
            {"value": 0, "mult": 1},
            {"value": 3, "mult": 4},
            {"value": 8, "mult": 9},
            {"value": 15, "mult": 16},
            {"value": 24, "mult": 25},
            {"value": 35, "mult": 36},
            {"value": 48, "mult": 49},
            {"value": 63, "mult": 64},
            {"value": 80, "mult": 81},
        ],
        "spec1D": [],
        "specE_TT": [],
        "cutoff": {"spec0": 81, "spec1D": -1, "specE_TT": -1},
    }
    path = tmp_path / "s3.json"
    path.write_text(_json.dumps(base))
    code, out, _ = _capture(
        capsys,
        ["--output", "json", "spectrum", "--input", str(path),
         "--operator", "laplace", "--cutoff", "80"],
    )
    assert code == 0
    rows = [(e["value"]["a"], e["mult"]) for e in json.loads(out)["spectrum"]]
    # the 4-sphere up to 80
    assert rows == [
        ("0", 1), ("4", 5), ("10", 14), ("18", 30), ("28", 55),
        ("40", 91), ("54", 140), ("70", 204),
    ]


def test_exit_code_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = _capture(capsys, ["rigidity", "--input", str(bad)])
    assert code == 4
    assert json.loads(err)["error"] == "ParseError"


def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"n": 3, "note": "caf\u00e9"}'.encode("latin-1"))
    code, out, err = _capture(capsys, ["rigidity", "--input", str(bad)])
    assert code == 4
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert str(bad) in error["message"] and "UTF-8" in error["message"]


def test_verify_radial_pass(capsys):
    code, out, _ = _capture(
        capsys,
        ["--output", "json", "verify-radial", "--n", "3", "--coupling", "3",
         "--modes", "3", "--grid", "2000"],
    )
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True


def test_verify_radial_tt_critical_coupling(capsys):
    code, out, _ = _capture(
        capsys,
        ["--output", "json", "verify-radial", "--n", "9", "--block", "tt",
         "--coupling", "-16", "--modes", "5"],
    )
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True


def _indefinite_factor(d, e):
    # a sound factorization reported as a leading minor that is not positive:
    # only the info check can refuse it
    d, e, _ = dpttrf(d, e)
    return d, e, 1


def _no_convergence(*args, **kwargs):
    raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])


@pytest.mark.parametrize(
    "name,fake", [("dpttrf", _indefinite_factor), ("eigsh", _no_convergence)]
)
def test_verify_radial_solver_failure_is_a_convergence_failure(monkeypatch, capsys, name, fake):
    monkeypatch.setattr(radialoracle, name, fake)
    with pytest.raises(ConvergenceFailure):
        radialoracle.solve_radial(radialoracle.RadialProblem(3, Fraction(3)), 2)
    code, out, err = _capture(
        capsys, ["verify-radial", "--n", "3", "--coupling", "3", "--modes", "2"]
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ConvergenceFailure"


def test_verify_radial_demo_regime(tmp_path, capsys):
    csv = tmp_path / "q.csv"
    code, out, _ = _capture(
        capsys,
        ["--output", "json", "verify-radial", "--n", "8", "--block", "tt",
         "--coupling", "-14", "--epsilons", "0.2,0.1", "--csv", str(csv)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["quotients"][0] > payload["quotients"][1]
    assert csv.exists()


@pytest.mark.parametrize("target", ["missing/q.csv", "."], ids=["missing-directory", "a-directory"])
def test_verify_radial_csv_that_cannot_be_written_is_a_parse_error(tmp_path, capsys, target):
    path = tmp_path / target
    code, out, err = _capture(
        capsys,
        ["verify-radial", "--n", "8", "--block", "tt", "--coupling", "-14", "--csv", str(path)],
    )
    assert (code, out) == (4, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert str(path) in error["message"]


def test_verify_symbolic(capsys):
    code, out, _ = _capture(
        capsys, ["--output", "json", "verify-symbolic", "--n", "3", "--k", "2", "--jmax", "4"]
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_iterate_command(capsys):
    code, out, _ = _capture(
        capsys,
        ["--output", "json", "iterate", "--sphere", "2", "--count", "2",
         "--cutoff", "40", "--parts", "functions"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    got = [(e["value"]["a"], e["mult"]) for e in payload["spec0"]]
    assert got[:3] == [("0", 1), ("4", 5), ("10", 14)]


def test_iterate_product_tt(capsys):
    code, out, _ = _capture(
        capsys,
        ["--output", "json", "iterate", "--product", "4,5", "--count", "1", "--cutoff", "0"],
    )
    assert code == 0
    payload = json.loads(out)
    values = [e["value"]["a"] for e in payload["specE_TT"]]
    assert values == ["-20", "-18", "-14", "-8", "0"]


def test_cutoff_parsing(capsys):
    code, out, _ = _capture(
        capsys,
        ["--output", "json", "spectrum", "--sphere", "2", "--cutoff", "21/2"],
    )
    assert code == 0
    values = [e["value"]["a"] for e in json.loads(out)["spectrum"]]
    assert values == ["0", "3", "8"]
    code, out, _ = _capture(
        capsys,
        ["--output", "json", "spectrum", "--sphere", "2", "--cutoff",
         '{"a": "21/2", "b": "0", "s": 1}'],
    )
    assert code == 0
    assert [e["value"]["a"] for e in json.loads(out)["spectrum"]] == ["0", "3", "8"]


def test_rigidity_needs_tt_data(tmp_path, capsys):
    # cone zero modes come only from TT lines in [-(n-1)^2/4, 0]: a base
    # whose TT spectrum is not known up to 0 cannot be answered with "none"
    base = {
        "n": 9,
        "spec0": [{"value": 0, "mult": 1}],
        "specE_TT": [],
        "cutoff": {"spec0": 9, "spec1D": -1, "specE_TT": -30},
    }
    path = tmp_path / "no_tt.json"
    path.write_text(json.dumps(base))
    for source in (["--sphere", "4"], ["--input", str(path)]):
        code, out, err = _capture(capsys, ["rigidity", *source])
        assert code == 4
        assert out == ""
        assert json.loads(err)["error"] == "InsufficientBaseCutoff"


def test_stability_cross_check_on_a_surface(capsys):
    # the Einstein transform needs n >= 3, so the cone over S^2 keeps its TT
    # spectrum unknown and the TT-decided verdicts stay undecided
    code, out, _ = _capture(
        capsys, ["--output", "json", "stability", "--sphere", "2", "--cross-check"]
    )
    assert code == 0
    result = json.loads(out)["cross_check"]
    assert result["consistent"] is True
    for notion in ("eh", "physical"):
        assert result["direct"][notion]["verdict"] is None


def test_every_error_has_a_documented_exit_code():
    def walk(cls):
        yield cls
        for sub in cls.__subclasses__():
            yield from walk(sub)

    codes = {cls.__name__: cls.exit_code for cls in walk(SineconeError)}
    assert {name for name, code in codes.items() if code not in {2, 3, 4}} == set()


@pytest.mark.parametrize("product", ["4", "4,x5", "4,5,6"])
def test_malformed_product_is_a_parse_error(capsys, product):
    code, out, err = _capture(capsys, ["spectrum", "--product", product, "--cutoff", "3"])
    assert code == 4
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert "--product" in error["message"]


@pytest.mark.parametrize("normalized", [False, "yes"])
def test_input_normalized_is_checked_not_coerced(tmp_path, capsys, normalized):
    base = {"n": 3, "normalized": normalized, "spec0": [{"value": 0, "mult": 1}], "cutoff": 0}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    code, out, err = _capture(capsys, ["spectrum", "--input", str(path), "--cutoff", "0"])
    assert code == 4
    assert out == ""
    assert json.loads(err)["message"] == "spectra must be stated for the Ric = (n-1)g scaling"


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--n", "3", "--coupling", "1/0"], "--coupling"),
        (["--n", "3", "--coupling", "x"], "--coupling"),
        (["--n", "3", "--block", "tt", "--coupling", "-5", "--epsilons", "0.1,a"], "--epsilons"),
        (["--n", "8", "--block", "tt", "--coupling", "-14", "--epsilons", "0,0.1"], "--epsilons"),
        (["--n", "8", "--block", "tt", "--coupling", "-14", "--epsilons", "nan"], "--epsilons"),
        (["--n", "3", "--coupling", "3", "--modes", "0"], "--modes"),
        (["--n", "3", "--coupling", "3", "--tol", "nan"], "--tol"),
        (["--n", "3", "--coupling", "3", "--tol", "inf"], "--tol"),
        (["--n", "3", "--coupling", "3", "--tol", "1e300"], "--tol"),
        (["--n", "3", "--coupling", "3", "--tol", "0"], "--tol"),
        (["--n", "3", "--coupling", "3", "--tol", "-1"], "--tol"),
        (["--n", "3", "--coupling", "3", "--tol", "1"], "--tol"),
        (["--n", "3", "--coupling", "3", "--tol", "x"], "--tol"),
        (["--n", "3", "--coupling", "2.5"], "--coupling"),
    ],
)
def test_verify_radial_bad_flag_is_a_parse_error(capsys, flags, flag):
    code, out, err = _capture(capsys, ["verify-radial", *flags])
    assert code == 4
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"].startswith(flag + " needs")


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "-2", "--coupling", "3", "--modes", "2"],
        ["--n", "0", "--coupling", "3", "--modes", "2"],
        ["--n", "1", "--coupling", "3", "--modes", "2"],
        ["--n", "2", "--block", "tt", "--coupling", "0", "--modes", "2"],
    ],
)
def test_verify_radial_refuses_dimensions_below_its_block(capsys, flags):
    code, out, err = _capture(capsys, ["verify-radial", *flags])
    assert code == 4
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "InvariantViolation"
    assert "needs base dimension" in error["message"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["spectrum", "--sphere", "4", "--operator", "einstein", "--blocks", "bogus",
          "--cutoff", "10"], "blocks"),
        (["iterate", "--sphere", "3", "--count", "1", "--cutoff", "10", "--parts", "bogus"],
         "parts"),
        (["iterate", "--product", "4,5", "--count", "0", "--cutoff", "0", "--parts", "bogus"],
         "parts"),
        (["iterate", "--sphere", "3", "--count", "-1", "--cutoff", "10"], "--count"),
        (["scan-products", "--from", "3", "--to", "5"], "--from"),
        (["scan-products", "--from", "6", "--to", "5"], "--from"),
        (["spectrum", "--sphere", "3", "--cutoff", "{bad"], "--cutoff"),
        (["verify-symbolic", "--n", "0", "--k", "1"], "--n"),
        (["verify-symbolic", "--n", "1", "--k", "2"], "--n"),
        # argparse's own errors: a negative value read as an option, a missing
        # required flag, a value that is not an integer
        (["spectrum", "--sphere", "3", "--cutoff", "-3/4"], "--cutoff"),
        (["spectrum", "--sphere", "3"], "--cutoff"),
        (["verify-symbolic", "--n", "x"], "--n"),
        (["--output", "xml", "spectrum", "--sphere", "3", "--cutoff", "4"], "--output"),
        (["bogus"], "bogus"),
        # a negative count would run no ladder check, or fail deep inside
        (["verify-symbolic", "--n", "3", "--k", "2", "--jmax=-1"], "--jmax"),
        (["verify-symbolic", "--n", "3", "--k=-1"], "--k"),
    ],
)
def test_flag_errors_are_parse_errors_naming_the_flag(capsys, argv, name):
    code, out, err = _capture(capsys, argv)
    assert code == 4
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert name in error["message"]


def test_negative_cutoff_is_passed_with_an_equals_sign(capsys):
    code, out, err = _capture(capsys, ["spectrum", "--sphere", "3", "--cutoff=-3/4"])
    assert (code, err) == (0, "")
    assert "(complete up to -3/4)" in out


@pytest.mark.parametrize("argv", [["--help"], ["spectrum", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        run(argv)
    assert exit_.value.code == 0
    assert "usage: sinecone" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--sphere", "3", "--cutoff", "-3/4"], ["spectrum", "--sphere", "3"],
     ["verify-symbolic", "--n", "x"]],
)
def test_argparse_errors_exit_4_from_the_entry_point(argv):
    done = _fresh_python("-m", "sinecone.cli", *argv)
    assert (done.returncode, done.stdout) == (4, "")
    assert json.loads(done.stderr)["error"] == "ParseError"


@pytest.mark.parametrize("key", ["spec0", "spec1D", "specE_TT"])
@pytest.mark.parametrize("above", [False, True], ids=["not-a-list", "line-above-cutoff"])
def test_input_spectrum_is_a_list_within_its_cutoff(tmp_path, capsys, key, above):
    # every spectrum of base4 is declared complete up to 30
    base = json.loads((Path(__file__).with_name("golden") / "base4.json").read_text())
    base[key] = base[key] + [{"value": 40, "mult": 1}] if above else 5
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    code, out, err = _capture(capsys, ["spectrum", "--input", str(path), "--cutoff", "10"])
    assert code == 4
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"] == (
        f"{key} line 40 lies above its declared cutoff 30" if above
        else f"{key} must be a list of value/mult entries, got 5"
    )


@pytest.mark.parametrize("key", ["spec0", "spec1D", "specE_TT"])
def test_input_value_listed_twice_is_a_parse_error(tmp_path, capsys, key):
    base = json.loads((Path(__file__).with_name("golden") / "base4.json").read_text())
    # the last value again, spelled as a QuadReal object
    value = quad_from_json(base[key][-1]["value"])
    base[key] = base[key] + [{"value": value.to_json(), "mult": 2}]
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    code, out, err = _capture(capsys, ["spectrum", "--input", str(path), "--cutoff", "10"])
    assert code == 4
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"] == (
        f"{key} lists the value {value} twice; list it once with its full multiplicity"
    )


@pytest.mark.parametrize("operator", [[], ["--operator", "laplace"], ["--operator", "oneform"]],
                         ids=["default", "laplace", "oneform"])
@pytest.mark.parametrize("blocks", ["bogus", "tt"])
def test_blocks_is_refused_for_a_non_einstein_operator(capsys, operator, blocks):
    base = str(Path(__file__).with_name("golden") / "base4.json")
    argv = ["spectrum", "--input", base, *operator, "--blocks", blocks, "--cutoff", "10"]
    code, out, err = _capture(capsys, argv)
    assert code == 4
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert "--blocks" in error["message"]
    # the same command without --blocks answers
    code, out, _ = _capture(capsys, [a for a in argv if a not in ("--blocks", blocks)])
    assert code == 0 and out


def _input_base(n=3, mult=4, s=1):
    return {
        "n": n,
        "spec0": [
            {"value": 0, "mult": 1},
            {"value": {"a": "3", "b": "0", "s": s}, "mult": mult},
        ],
        "cutoff": 3,
    }


@pytest.mark.parametrize(
    "field, value",
    [("n", 3.7), ("n", True), ("n", "3"), ("mult", 2.9), ("mult", True), ("mult", "4"),
     ("s", 2.7), ("s", True)],
)
def test_input_integer_fields_are_checked_not_coerced(tmp_path, capsys, field, value):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(_input_base()))
    argv = ["spectrum", "--input", str(path), "--cutoff", "0"]
    assert _capture(capsys, argv)[0] == 0
    path.write_text(json.dumps(_input_base(**{field: value})))
    code, out, err = _capture(capsys, argv)
    assert code == 4
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert f"{field!r} must be an integer, got {value!r}" in error["message"]


def _rename(obj, old, new):
    obj[new] = obj.pop(old)


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda b: _rename(b, "spec1D", "spec1d"), "spec1d"),
        (lambda b: b.update(comment="from a paper"), "comment"),
        (lambda b: b.update(cutoff={"spec1d": 40}), "spec1d"),
        (lambda b: b.update(cutoff={"spec0": 30, "spec1D": 30, "specE_TT": 30, "S": 2}), "S"),
        (lambda b: b.update(cutoff={"a": 30, "spec0": 30}), "a"),
        (lambda b: b.update(cutoff={"a": 30, "c": 1}), "c"),
        (lambda b: b["spec0"][1].update(multiplicity=9), "multiplicity"),
        (lambda b: b["spec0"].append({"value": {"a": 0, "b": 6, "S": 2}, "mult": 1}), "S"),
    ],
    ids=["top-spec1d", "top-comment", "cutoff-spec1d", "cutoff-S", "cutoff-mixed",
         "cutoff-quad-c", "entry-multiplicity", "value-S"],
)
def test_input_unknown_keys_are_parse_errors_naming_the_key(tmp_path, capsys, edit, key):
    base = json.loads((Path(__file__).with_name("golden") / "base4.json").read_text())
    edit(base)
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    argv = ["spectrum", "--input", str(path), "--operator", "oneform", "--cutoff", "6"]
    code, out, err = _capture(capsys, argv)
    assert code == 4
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert f"unknown key {key!r}" in error["message"]


def test_input_with_spec1D_spelled_right_keeps_its_one_form_line(capsys):
    # with "spec1d" the coclosed line 4 lost the 1-form family's six modes
    base = str(Path(__file__).with_name("golden") / "base4.json")
    argv = ["--output", "json", "spectrum", "--input", base, "--operator", "oneform", "--cutoff", "6"]
    code, out, _ = _capture(capsys, argv)
    assert code == 0
    assert json.loads(out)["coclosed_part"] == [{"mult": 11, "value": {"a": "4", "b": "0", "s": 1}}]


def _fresh_python(*args):
    """Run a fresh interpreter on the source tree: the in-process suite has
    numpy and scipy loaded already."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "statement",
    [
        "pass",
        "cli.run(['spectrum', '--sphere', '3', '--cutoff', '20'])",
        "cli.run(['verify-radial', '--n', '3', '--coupling', '1/0'])",
        "cli.run(['verify-radial', '--n', '3', '--coupling', '3', '--modes', '0'])",
    ],
)
def test_exact_commands_do_not_load_numpy_or_scipy(statement):
    script = (
        "import sys; import sinecone.cli as cli; " + statement + "; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _sinecone_modules_after(module):
    proc = _fresh_python(
        "-c",
        f"import json, sys, {module}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'sinecone')))",
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_an_engine_loads_only_the_modules_it_uses():
    # the package itself re-exports nothing, so it pulls in no other module
    assert _sinecone_modules_after("sinecone.symcheck") == {
        "sinecone", "sinecone.errors", "sinecone.symcheck"}
    loaded = _sinecone_modules_after("sinecone.radialoracle")
    assert "sinecone.radialoracle" in loaded
    assert not loaded & {"sinecone.catalog", "sinecone.stability", "sinecone.rigidity",
                         "sinecone.symcheck"}


def test_verify_radial_loads_its_engine_in_a_fresh_process():
    proc = _fresh_python(
        "-m", "sinecone.cli", "verify-radial", "--n", "3", "--coupling", "3", "--modes", "2"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_verify_radial_block_choices_are_the_engine_blocks():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    block = next(a for a in sub.choices["verify-radial"]._actions if a.dest == "block")
    assert tuple(block.choices) == radialoracle.BLOCKS


def test_verify_radial_refuses_more_modes_than_grid_points():
    # the pencil has grid + 1 rows and the eigensolver needs fewer modes than rows
    proc = _fresh_python(
        "-m", "sinecone.cli", "verify-radial", "--n", "3", "--coupling", "3",
        "--modes", "101", "--grid", "100",
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "InvariantViolation"
    assert "at most 100 modes" in error["message"]


def test_a_failed_radial_check_carries_its_report_as_json():
    # 100 modes on 100 intervals: the top modes are far off the exact ladder
    proc = _fresh_python(
        "-m", "sinecone.cli", "verify-radial", "--n", "3", "--coupling", "3",
        "--modes", "100", "--grid", "100",
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    error = json.loads(proc.stderr)
    assert error["error"] == "VerificationFailed"
    head, sep, report = error["message"].partition("; report: ")
    assert sep and re.fullmatch(r"mode \d+ off by \S+ \(tol 1\.0e-03\)", head), head
    report = json.loads(report)
    assert report["passed"] is False
    assert [row["j"] for row in report["modes"]] == list(range(100))
