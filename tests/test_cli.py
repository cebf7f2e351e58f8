import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
import scipy.linalg.lapack
import scipy.sparse.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpttrf
from scipy.sparse.linalg import ArpackNoConvergence

from sinecone import errors, radialoracle
from sinecone.cli import build_parser, run
from sinecone.errors import ConvergenceFailure, SineconeError
from sinecone.exactreal import quad_from_json

SRC = Path(__file__).resolve().parent.parent / "src"
#: The names a refusal may carry: the package's errors.
SINECONE_ERRORS = {name for name, obj in vars(errors).items()
                   if isinstance(obj, type) and issubclass(obj, errors.SineconeError)}


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


@pytest.mark.parametrize("n, coupling", [(100, "3"), (200, "3"), (1000, "7")])
def test_verify_radial_starts_the_grid_where_the_weight_is_representable(capsys, n, coupling):
    # sin^k, k = n + 2m, underflowed to 0 at the first grid point; the grid
    # now starts at theta0 = asin(10**(-250/k)) > eps
    code, out, _ = _capture(
        capsys, ["--output", "json", "verify-radial", "--n", str(n), "--coupling", coupling]
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["passed"] is True and report["eps"] == 1e-6 < report["theta0"] < 1
    assert max(row["rel_error"] for row in report["modes"]) < 1e-6


@pytest.mark.parametrize("n", [10 ** 7, 10 ** 8, 2 * 10 ** 8, 5 * 10 ** 8, 10 ** 9])
def test_verify_radial_keeps_the_low_modes_at_a_large_dimension(capsys, n):
    # a shift of -(n^2/4 + 10) cancelled sigma + 1/mu against modes near 3
    # (off by 1.0e-1 at 10**7, by 1 to 2.3e2 from 10**8 on); shifting the
    # gauged stiffness alone by 1 keeps them
    code, out, _ = _capture(
        capsys, ["--output", "json", "verify-radial", "--n", str(n), "--coupling", "3"]
    )
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True


def test_verify_radial_without_a_trim_starts_the_grid_at_eps(capsys):
    code, out, _ = _capture(
        capsys, ["--output", "json", "verify-radial", "--n", "20", "--coupling", "3", "--eps", "1e-5"]
    )
    assert code == 0
    assert json.loads(out)["report"]["theta0"] == 1e-5


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
    # solve_radial imports its scipy routines when it runs: fake them where they live
    home = {"dpttrf": scipy.linalg.lapack, "eigsh": scipy.sparse.linalg}[name]
    monkeypatch.setattr(home, name, fake)
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


def _irrational_one_form_base(tmp_path, n, scalars, cutoff):
    """A base whose one coclosed 1-form line is 3 + sqrt(2): its cone ladder
    would need the harmonic degree of 4 + sqrt(2), a nested radical."""
    path = tmp_path / f"base{n}.json"
    path.write_text(json.dumps({
        "n": n,
        "normalized": True,
        "spec0": [{"value": v, "mult": m} for v, m in scalars],
        "spec1D": [{"value": {"a": 3, "b": 1, "s": 2}, "mult": 2}],
        "specE_TT": [],
        "cutoff": cutoff,
    }))
    return str(path)


def test_the_cross_check_over_a_surface_builds_no_one_form_ladder(tmp_path, capsys):
    # the direct path classifies the cone's scalar and TT spectra only, and
    # over a surface the TT part is not built: the 1-form line is never read
    path = _irrational_one_form_base(tmp_path, 2, [(0, 1), (2, 3), (6, 5)], 7)
    code, out, err = _capture(capsys, ["stability", "--input", path, "--cross-check"])
    assert (code, err) == (0, "")
    assert "cross-check: consistent" in out


def test_the_cross_check_refuses_a_one_form_line_its_tt_part_reads(tmp_path, capsys):
    # over n >= 3 the cone's TT part is fed by the base's 1-form lines
    path = _irrational_one_form_base(tmp_path, 3, [(0, 1), (3, 4), (8, 9)], 9)
    code, out, err = _capture(capsys, ["stability", "--input", path, "--cross-check"])
    assert (code, out) == (4, "")
    assert err == (
        '{"error": "NotRepresentable", "message": "harmonic degree of irrational '
        'eigenvalue 4 + \\u221a2 leaves the quadratic-irrational system"}\n'
    )


@pytest.mark.parametrize(
    "n,need",
    [(10 ** 6, "500010 - \\u221a250000000010"),
     (10 ** 13, "(10000000000020 - \\u221a100000000000000000000000040)/2")],
    ids=["factored", "too-large-to-factor"],
)
def test_a_completeness_refusal_states_its_requirement_at_any_dimension(tmp_path, capsys, n, need):
    # at n = 10**13 the requirement's radicand has a cofactor no trial
    # division certifies, so it is stated unreduced rather than factored
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"n": n, "spec0": [{"value": 0, "mult": 1}],
                                "cutoff": {"spec0": 0, "spec1D": -1, "specE_TT": -1}}))
    code, out, err = _capture(capsys, ["spectrum", "--input", str(path), "--cutoff", "10"])
    assert (code, out) == (4, "")
    assert err == (
        '{"error": "InsufficientBaseCutoff", "message": "scalar spectrum is complete only up to 0 '
        f'but the requested output window needs completeness up to {need}; refusing to truncate '
        'silently"}\n'
    )


def test_a_warning_is_one_json_line_on_stderr(tmp_path, capsys):
    path = tmp_path / "base.json"
    path.write_text(json.dumps({
        "n": 3,
        "spec0": [{"value": 0, "mult": 1}, {"value": 3, "mult": 4}, {"value": 8, "mult": 9}],
        "spec1D": [{"value": 1, "mult": 2}],
        "specE_TT": [{"value": 2, "mult": 1}],
        "cutoff": 9,
    }))
    code, out, err = _capture(capsys, ["stability", "--input", str(path), "--allow-low-spectrum"])
    assert code == 0
    assert "tangential   yes" in out
    assert err == (
        '{"warning": "coclosed 1-form eigenvalue 1 below n-1=2 (the Killing bound for this '
        'normalization); proceeding outside the usual hypotheses"}\n'
    )


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
    "flags, flag",
    [
        # a coupling the line check runs takes no flag of the demonstrator
        (["--n", "3", "--coupling", "3", "--modes", "2", "--csv", "CSV", "--epsilons", "9"],
         "--epsilons"),
        (["--n", "3", "--coupling", "3", "--modes", "2", "--csv", "CSV"], "--csv"),
        (["--n", "8", "--coupling", "-14", "--csv", "CSV"], "--csv"),  # not a TT coupling
        # a TT coupling below the Hardy bound runs the demonstrator, which
        # takes no flag of the line check
        (["--n", "8", "--block", "tt", "--coupling", "-14", "--modes", "99"], "--modes"),
        (["--n", "8", "--block", "tt", "--coupling", "-14", "--tol", "0.5"], "--tol"),
        (["--n", "8", "--block", "tt", "--coupling", "-14", "--grid", "3"], "--grid"),
        (["--n", "8", "--block", "tt", "--coupling", "-14", "--eps", "0.3", "--csv", "CSV"],
         "--eps"),
    ],
)
def test_verify_radial_refuses_a_flag_of_the_other_regime(tmp_path, capsys, flags, flag):
    csv = tmp_path / "x.csv"
    argv = ["verify-radial", *(str(csv) if f == "CSV" else f for f in flags)]
    code, out, err = _capture(capsys, argv)
    assert (code, out) == (4, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"].startswith(flag + " does not apply")
    assert not csv.exists()


@pytest.mark.parametrize(
    "flags, bound, hardy",
    [
        (["--n", "3", "--block", "tt", "--coupling=-6/5"], "-3/2", "-1"),
        (["--n", "9", "--block", "tt", "--coupling=-65/4"], "-261/16", "-16"),
        (["--n", "9", "--block", "tt", "--coupling=-261/16"], "-261/16", "-16"),
        (["--n", "12", "--block", "tt", "--coupling=-122/4", "--csv", "CSV"], "-336/11", "-121/4"),
    ],
)
def test_verify_radial_refuses_a_coupling_its_profile_cannot_blow_down(tmp_path, capsys, flags,
                                                                       bound, hardy):
    # from -S/C up to the Hardy bound the demonstrator's quotients do not
    # blow down: exit 2, naming -S/C exactly, and no CSV written
    csv = tmp_path / "x.csv"
    code, out, err = _capture(capsys, ["verify-radial", *(str(csv) if f == "CSV" else f for f in flags)])
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "VerificationFailed"
    coupling = flags[4].split("=")[1]
    assert error["message"] == (
        f"TT coupling {Fraction(coupling)} lies in [{bound}, {hardy}): the demonstrator's profile "
        f"u^-p (1-u)^(p+1) blows down only below {bound}, so its quotients cannot show the form "
        "unbounded below"
    )
    assert not csv.exists()


_BIG = "1" + "0" * 400  # a numeral beyond the float range


@pytest.mark.parametrize(
    "argv, flag",
    [
        # the line check and the demonstrator compute in floats
        (["verify-radial", "--n", "3", "--coupling", _BIG], "--coupling"),
        (["verify-radial", "--n", "3", "--block", "tt", f"--coupling=-{_BIG}"], "--coupling"),
        # eps^2 underflows to 0; a quotient overflows to -inf
        (["verify-radial", "--n", "3", "--block", "tt", "--coupling=-10", "--epsilons", "1e-300"],
         "--epsilons"),
        (["--output", "json", "verify-radial", "--n", "3", "--block", "tt", "--coupling=-10",
          "--epsilons", "0.4,1e-160"], "--epsilons"),
    ],
)
def test_verify_radial_refuses_what_floats_cannot_hold(tmp_path, capsys, argv, flag):
    # exit 4 with a ParseError naming the flag, also with --csv, which writes nothing
    csv = tmp_path / "x.csv"
    for extra in ([], ["--csv", str(csv)]):
        code, out, err = _capture(capsys, argv + extra)
        assert (code, out) == (4, ""), err
        error = json.loads(err)
        assert error["error"] == "ParseError"
        assert error["message"].startswith(flag + " needs")
    assert not csv.exists()


def test_verify_radial_runs_the_demonstrator_just_below_the_bound(capsys):
    code, out, err = _capture(capsys, ["verify-radial", "--n", "3", "--block", "tt",
                                       "--coupling=-151/100", "--epsilons", "0.1,0.01"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["regime"] == "below the boundedness threshold"
    assert payload["quotients"][1] < payload["quotients"][0] < 0


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


@pytest.mark.parametrize(
    "argv, messages",
    [
        # argparse before Python 3.13 reads '--' attached to a flag as no value
        # at all; from 3.13 on it is the value '--', which parses as no integer
        (["iterate", "--sphere", "3", "--count=--", "--cutoff", "10"],
         ("sinecone: '--' attached", "sinecone iterate: argument --count/-k: invalid int value: '--'")),
        (["iterate", "--sphere", "3", "-k--", "--cutoff", "10"],
         ("sinecone: '--' attached", "sinecone iterate: argument --count/-k: invalid int value: '--'")),
        (["scan-products", "--from=--", "--to", "5"],
         ("sinecone: '--' attached", "sinecone scan-products: argument --from: invalid int value: '--'")),
        (["spectrum", "--sphere=--", "--cutoff", "4"],
         ("sinecone: '--' attached", "sinecone spectrum: argument --sphere: invalid int value: '--'")),
        (["stability", "--input=--"], ("sinecone: '--' attached", "cannot read --: ")),
        # an empty path is a path that cannot be read, not a missing source
        (["stability", "--input", ""], ("cannot read : ",)),
    ],
)
def test_a_dashed_or_empty_value_is_a_parse_error(capsys, argv, messages):
    code, out, err = _capture(capsys, argv)
    assert (code, out) == (4, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"].startswith(messages), error["message"]


def test_negative_cutoff_is_passed_with_an_equals_sign(capsys):
    code, out, err = _capture(capsys, ["spectrum", "--sphere", "3", "--cutoff=-3/4"])
    assert (code, err) == (0, "")
    assert "(complete up to -3/4)" in out


@pytest.mark.parametrize(
    "argv, flag",
    [(["spectrum", "--sphere", "3"], "--cutoff"),
     (["verify-radial", "--n", "3", "--block", "tt"], "--coupling")],
)
def test_a_negative_fraction_needs_an_equals_sign(capsys, argv, flag):
    # argparse reads "-8/5" after a space as a flag (it takes "-14" as a
    # number); README says to write the value with "="
    code, out, err = _capture(capsys, [*argv, flag, "-8/5"])
    assert (code, out) == (4, "")
    assert json.loads(err) == {
        "error": "ParseError",
        "message": f"sinecone {argv[0]}: argument {flag}: expected one argument",
    }
    code, out, err = _capture(capsys, [*argv, f"{flag}=-8/5"])
    assert (code, err) == (0, "")
    assert "-8/5" in out


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


#: What importing sinecone.cli loads: the exact core every command uses.
CLI_CORE = {"sinecone", "sinecone.cli", "sinecone.errors", "sinecone.exactreal", "sinecone.spectra"}

#: The modules each command runs beyond the core.  The verify-radial
#: statements below fail on a flag, before the command loads its engine.
RUNS = {
    None: set(),
    "spectrum": {"catalog", "conemaps"},
    "stability": {"catalog", "conemaps", "stability"},
    "rigidity": {"catalog", "conemaps", "rigidity"},
    "scan-products": {"catalog", "conemaps", "rigidity"},
    "verify-radial": {"conemaps"},
    "verify-symbolic": {"symcheck"},
    "iterate": {"catalog", "conemaps"},
}


def test_importing_the_cli_loads_only_its_core():
    script = (
        "import json, sys; before = set(sys.modules); import sinecone.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {m for m in loaded if m.split(".")[0] == "sinecone"} == CLI_CORE
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "statement",
    [
        "pass",
        "cli.run(['spectrum', '--sphere', '3', '--cutoff', '20'])",
        "cli.run(['verify-radial', '--n', '3', '--coupling', '1/0'])",
        "cli.run(['verify-radial', '--n', '3', '--coupling', '3', '--modes', '0'])",
        # the README's exact commands
        "cli.run(['spectrum', '--sphere', '3', '--operator', 'laplace', '--cutoff', '100'])",
        "cli.run(['spectrum', '--product', '4,5', '--operator', 'einstein', '--blocks', 'tt', "
        "'--cutoff', '0'])",
        "cli.run(['stability', '--product', '4,5', '--cross-check'])",
        "cli.run(['rigidity', '--product', '4,5'])",
        "cli.run(['scan-products', '--from', '4', '--to', '20'])",
        "cli.run(['verify-symbolic', '--n', '3', '--k', '2', '--jmax', '4'])",
        "cli.run(['iterate', '--sphere', '2', '--count', '2', '--cutoff', '40', '--parts', "
        "'functions'])",
    ],
)
def test_exact_commands_do_not_load_numpy_or_scipy(statement):
    # nor any sinecone module the command does not run
    script = (
        "import json, sys; import sinecone.cli as cli; " + statement + "; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('numpy', 'scipy', 'sinecone'))))"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    command = re.match(r"cli\.run\(\['([a-z-]+)'", statement)
    runs = RUNS[command and command.group(1)]
    assert loaded == CLI_CORE | {f"sinecone.{m}" for m in runs}


@pytest.mark.parametrize(
    "args,scipy_loads",
    [
        (["--n", "8", "--block", "tt", "--coupling", "-14", "--epsilons", "0.2,0.1"], False),
        (["--n", "3", "--coupling", "3", "--modes", "2"], True),
    ],
    ids=["rayleigh-demonstrator", "line-check"],
)
def test_only_the_radial_line_check_loads_scipy(args, scipy_loads):
    # the demonstrator is numpy quadrature; the line check needs LAPACK and ARPACK
    script = (
        "import json, sys; import sinecone.cli as cli; "
        f"code = cli.run(['verify-radial', *{args!r}]); "
        "print(json.dumps([code, sorted({m.split('.')[0] for m in sys.modules})]))"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    code, roots = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert "numpy" in roots
    assert ("scipy" in roots) is scipy_loads


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


# -- the total input contract, fuzzed ------------------------------------------

def _rational_text(draw, lo, hi):
    """A rational in [lo, hi], lo <= hi, as the schema writes it: an int or
    "p/q".  Its denominator is one whose grid meets [lo, hi]: one of 1..6,
    or lo's own, which always does."""
    dens = sorted({lo.denominator} | {d for d in range(1, 7) if math.ceil(lo * d) <= math.floor(hi * d)})
    den = draw(st.sampled_from(dens))
    x = Fraction(draw(st.integers(min_value=math.ceil(lo * den), max_value=math.floor(hi * den))), den)
    return x, x.numerator if x.denominator == 1 else str(x)


@given(st.data())
def test_a_drawn_rational_lies_on_a_grid_that_meets_its_interval(data):
    # n = 4: the TT lower end -(n-1)^2/4 - 1 = -13/4 and a cutoff -16/5; no
    # integer lies in between, and neither does a multiple of 1/2, 1/3 or 1/6
    lo, hi = Fraction(-13, 4), Fraction(-16, 5)
    x, text = _rational_text(data.draw, lo, hi)
    assert lo <= x <= hi and x.denominator in (4, 5)
    assert Fraction(text) == x


#: what the schema refuses in a value, a cutoff or a multiplicity
_BAD_VALUES = ["10.5", "1e3", "", "1/0", 2.5, True, None, [], {"a": 1, "c": 2}, {"a": 1, "b": 1, "s": -2}]
_BAD_MULTS = [0, -1, "2", 1.0, None]


@st.composite
def _base_documents(draw):
    """A base document: admissible lines under rational or irrational
    per-spectrum cutoffs, then, in most documents, one defect."""
    n = draw(st.integers(min_value=2, max_value=9))
    hardy = Fraction(-((n - 1) ** 2), 4)
    doc, cutoffs = {"n": n}, {}
    for key, lo in (("spec0", Fraction(n)), ("spec1D", Fraction(n - 1)), ("specE_TT", hardy - 1)):
        c, text = _rational_text(draw, lo - 2, 12 * n)
        if draw(st.booleans()):  # irrational: c + b sqrt(s) with a small b
            b = Fraction(draw(st.sampled_from([-1, 1])), draw(st.integers(min_value=2, max_value=50)))
            text = {"a": str(c), "b": str(b), "s": draw(st.sampled_from([2, 3, 5]))}
            c = c - 1
        cutoffs[key] = text
        entries = [{"value": 0, "mult": 1}] if key == "spec0" and c >= 0 else []
        for _ in range(draw(st.integers(min_value=0, max_value=3)) if c >= lo else 0):
            value, value_text = _rational_text(draw, lo, c)
            if all(e["value"] != value_text for e in entries):
                entries.append({"value": value_text, "mult": draw(st.integers(min_value=1, max_value=3))})
        doc[key] = entries
    doc["cutoff"] = cutoffs
    defect = draw(st.sampled_from(["none", "n", "cutoff", "value", "mult", "above", "twice", "key"]))
    spectrum = doc[draw(st.sampled_from(["spec0", "spec1D", "specE_TT"]))]
    if defect == "n":
        doc["n"] = draw(st.sampled_from([-1, 0, 1, "4", 4.0, True, None]))
    elif defect == "cutoff":
        doc["cutoff"][draw(st.sampled_from(sorted(cutoffs)))] = draw(st.sampled_from(_BAD_VALUES + [-10 ** 3]))
    elif defect in ("value", "mult", "above", "twice") and spectrum:
        entry = spectrum[-1]
        if defect == "value":
            entry["value"] = draw(st.sampled_from(_BAD_VALUES))
        elif defect == "mult":
            entry["mult"] = draw(st.sampled_from(_BAD_MULTS))
        elif defect == "above":
            entry["value"] = 20 * n
        else:
            spectrum.append(dict(entry))
    elif defect == "key":
        doc[draw(st.sampled_from(["normalized", "spec1d", "extra"]))] = draw(st.sampled_from([False, 1, "x"]))
    return doc


@given(_base_documents(),
       st.sampled_from([["stability", "--cross-check"], ["rigidity"], ["spectrum", "--cutoff", "40"],
                        ["spectrum", "--cutoff", "30", "--operator", "oneform"],
                        ["spectrum", "--cutoff=-3/4", "--operator", "einstein"],
                        ["spectrum", "--cutoff", '{"a": 20, "b": 1, "s": 2}', "--operator", "einstein"]]),
       st.booleans())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_input_document_exits_with_a_documented_code(tmp_path, capsys, doc, command, as_json):
    # whatever the --input document holds, each command answers or refuses
    # with exit 2, 3 or 4 and one JSON error on stderr; nothing raises
    path = tmp_path / "base.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["--output", "json" if as_json else "table", command[0], "--input", str(path), *command[1:]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = _capture(capsys, argv)
    if code == 0:
        assert err == "" and out, (doc, argv)
        return
    assert code in (2, 3, 4) and out == "", (doc, argv, code)
    error = json.loads(err)
    assert sorted(error) == ["error", "message"], (doc, argv, error)
    assert error["error"] in SINECONE_ERRORS, (doc, argv, error)


#: numerals beyond the float range or below its resolution, and text that is
#: no numeral; a flag whose value sets the amount of work (a window, a count,
#: a degree) takes all but the first, a huge positive numeral
_ODD_NUMERALS = [_BIG, "-" + _BIG, "1/" + _BIG, "-1/" + _BIG, "1e400", "1e-400", "1e-320", "-0", "1/0",
                 "nan", "inf", "2.5", "x", "", "0x10"]
_WORK_FLAGS = {"--cutoff", "--to", "--count", "--k", "--jmax"}
_GOLDEN = Path(__file__).resolve().parent / "golden"


def _fraction_text(draw, lo, hi):
    return str(Fraction(draw(st.integers(min_value=lo * 6, max_value=hi * 6)), draw(st.integers(1, 6))))


def _subset(draw, names):
    return ",".join(draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True)))


def _source_items(draw):
    kind = draw(st.sampled_from(["--sphere", "--product", "--input"]))
    if kind == "--sphere":
        item = [kind, str(draw(st.integers(2, 9)))]
    elif kind == "--product":
        item = [kind, f"{draw(st.integers(2, 6))},{draw(st.integers(2, 6))}"]
    else:
        name = draw(st.sampled_from(sorted(p.name for p in _GOLDEN.glob("base*.json")) + ["missing.json"]))
        item = [kind, str(_GOLDEN / name)]
    return [item] + ([["--allow-low-spectrum"]] if draw(st.booleans()) else [])


def _cutoff_item(draw):
    if draw(st.booleans()):
        text = _fraction_text(draw, -50, 200)
    else:
        text = json.dumps({"a": _fraction_text(draw, -50, 150), "b": _fraction_text(draw, -3, 3),
                           "s": draw(st.sampled_from([2, 3, 5]))})
    return [f"--cutoff={text}"] if text.startswith("-") else ["--cutoff", text]


def _valid_items(draw, command):
    """The flags of one admissible call, as items of one or two tokens."""
    def maybe(item):
        return [item] if draw(st.booleans()) else []

    if command in ("spectrum", "stability", "rigidity", "iterate"):
        items = _source_items(draw)
        if command == "spectrum":
            operator = draw(st.sampled_from(["laplace", "oneform", "einstein"]))
            items += [_cutoff_item(draw), ["--operator", operator]]
            if operator == "einstein":
                items += maybe(["--blocks", _subset(draw, ["conformal", "vector", "tt"])])
        elif command == "stability":
            items += maybe(["--cross-check"])
        elif command == "iterate":
            items += [["--count", str(draw(st.integers(0, 2)))], _cutoff_item(draw)]
            items += maybe(["--parts", _subset(draw, ["functions", "coclosed", "tt"])])
        return items
    if command == "scan-products":
        return [["--from", str(draw(st.integers(-2, 30)))], ["--to", str(draw(st.integers(-2, 30)))]]
    if command == "verify-symbolic":
        return [["--n", str(draw(st.integers(2, 8)))], ["--k", str(draw(st.integers(0, 3)))],
                *maybe(["--jmax", str(draw(st.integers(0, 4)))])]
    coupling = _fraction_text(draw, -100, 100)
    items = [["--n", str(draw(st.integers(2, 12)))], ["--block", draw(st.sampled_from(["function", "tt"]))],
             [f"--coupling={coupling}"] if coupling.startswith("-") else ["--coupling", coupling]]
    if draw(st.booleans()):  # flags of the line check
        items += maybe(["--modes", str(draw(st.integers(1, 4)))]) + maybe(["--tol", "1e-2"])
        items += maybe(["--grid", str(draw(st.integers(100, 4000)))]) + maybe(["--eps", "1e-7"])
    else:  # flags of the Rayleigh demonstrator
        items += maybe(["--epsilons", "0.4,0.1"]) + maybe(["--csv", "CSV"])
    return items


@st.composite
def _argument_lists(draw):
    """(argv, json output): an admissible call to one of the seven commands,
    then up to two defects: an unknown flag, a value of the wrong type, a
    negative fraction with and without '=', an odd numeral, a dropped or a
    repeated flag."""
    command = draw(st.sampled_from(sorted(RUNS.keys() - {None})))
    items = _valid_items(draw, command)
    for _ in range(draw(st.integers(0, 2))):
        defect = draw(st.sampled_from(["unknown", "type", "negative", "numeral", "drop", "repeat"]))
        k = draw(st.integers(0, len(items)))
        valued = [i for i, item in enumerate(items) if len(item) == 2 or "=" in item[0]]
        if defect == "unknown":
            items.insert(k, draw(st.sampled_from([["--bogus"], ["--bogus", "1"], ["-q"], ["--cutof", "3"]])))
        elif defect == "drop" and items:
            items.pop(k % len(items))
        elif defect == "repeat" and items:
            items.insert(k, items[k % len(items)])
        elif valued and defect in ("type", "negative", "numeral"):
            i = valued[k % len(valued)]
            flag = items[i][0].split("=")[0]
            if defect == "type":
                value = draw(st.sampled_from(["three", "[1]", "1,2,3", "{}", "--", "1 2"]))
            elif defect == "negative":
                value = draw(st.sampled_from(["-6/5", "-1/3", "-40", "-0/7"]))
            else:
                value = draw(st.sampled_from(_ODD_NUMERALS[flag in _WORK_FLAGS:]))
            items[i] = [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    as_json = draw(st.booleans())
    output = ["--output", "json" if as_json else "table"]
    tokens = [token for item in items for token in item]
    if draw(st.booleans()):
        return output + [command] + tokens, as_json
    return [command] + tokens + output, as_json


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@given(_argument_lists())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_argument_list_exits_with_a_documented_code(tmp_path, monkeypatch, capsys, case):
    # whatever the flags, each command answers or refuses with exit 2, 3 or
    # 4 and exactly one JSON error on stderr; JSON output holds no NaN or
    # Infinity; nothing raises.  A --csv value is a path, so run in tmp_path
    monkeypatch.chdir(tmp_path)
    argv, as_json = case
    argv = [str(tmp_path / "q.csv") if token == "CSV" else token for token in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = _capture(capsys, argv)
    if code == 0:
        assert err == "" and out, argv
        if as_json:
            json.loads(out, parse_constant=_no_constant)
        return
    assert code in (2, 3, 4) and out == "", (argv, code, err)
    assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    error = json.loads(err)
    assert sorted(error) == ["error", "message"], (argv, error)
    assert error["error"] in SINECONE_ERRORS, (argv, error)
