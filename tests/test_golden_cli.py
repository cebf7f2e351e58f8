"""Byte-for-byte CLI outputs against a recorded reference.

Every command in ``tests/golden/commands.json`` runs in-process through
``cli.run`` in both output formats; stdout must equal
``tests/golden/<name>.<format>.out`` and the exit code and stderr must equal
the entry in ``tests/golden/status.json``.  ``{golden}`` in an argument
stands for the golden directory (the ``--input`` bases live there).

The references are recorded from a known-good checkout, not from the code
under test.  To re-record after an intended output change, run this file as
a script with that checkout first on the path::

    PYTHONPATH=<checkout>/src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("table", "json")
COMMANDS = json.loads((GOLDEN / "commands.json").read_text(encoding="utf-8"))


def run_cli(argv: list[str], output: str) -> tuple[int, str, str]:
    from sinecone.cli import run

    argv = ["--output", output] + [a.replace("{golden}", str(GOLDEN)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def status():
    return json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("output", FORMATS)
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, output, status):
    key = f"{name}.{output}"
    code, out, err = run_cli(COMMANDS[name], output)
    assert out == (GOLDEN / f"{key}.out").read_text(encoding="utf-8")
    assert {"exit": code, "stderr": err} == status[key]


def regenerate() -> None:
    status = {}
    for name in sorted(COMMANDS):
        for output in FORMATS:
            key = f"{name}.{output}"
            code, out, err = run_cli(COMMANDS[name], output)
            (GOLDEN / f"{key}.out").write_text(out, encoding="utf-8")
            status[key] = {"exit": code, "stderr": err}
    text = json.dumps(status, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "status.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
