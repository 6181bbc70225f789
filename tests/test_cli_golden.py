"""Golden CLI outputs: exact stdout, stderr and exit code of fixed invocations.

The cases are every README example except ``verify`` (criterion 9 runs it),
each plain and with ``--json``; three help texts; usage and domain errors; and
rendering edge cases, each plain and with ``--json``: zero results, several
bimodule classes under a negative leading coefficient, fractional magnitudes
and constants, the quantum plane and a fractional abelianization relation.
``tests/golden/cli.json`` holds the recorded outputs.  After a deliberate
output change, rewrite it with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.  Help texts are argparse's layout at 80 columns on the
Python that recorded them (3.11).
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from downup.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.json")
QUIVER = "{quiver}"  # stands for the path of QUIVER_TEXT in argv and outputs
QUIVER_TEXT = "vertex e\narrow d e e\narrow u e e\nrelation d d u\nrelation d u u\n"

README = (
    ["nf", "--params", "2,-1,0", "d^2*u"],
    ["omega", "--params", "2,0,1", "d*u"],
    ["omega", "--params", "2,0,1", "--invert", "ω"],
    ["member", "--params", "2,0,1", "--power", "2", "ω^2"],
    ["bimod", "--params", "2,0,5", "--formula", "0,2,right"],
    ["project", "--params", "2,0,1", "d*u + u*d"],
    ["qnf", "--alpha", "2", "--weyl", "y*x"],
    ["abel", "--params", "2,0,1"],
    ["tor", "--params", "0,0,0", "--t1", "0,0", "--t2", "0,0"],
    ["torbound", "--params", "2,0,1"],
    ["classify", "type", "--params", "2,-1,5"],
    ["classify", "iso", "--left", "1,2,0", "--right", "-1/2,1/2,0"],
    ["classify", "report", "--left", "1,0,1", "--right", "2,0,1"],
    ["lambda", "--alpha", "2", "--terms", "3"],
    ["quiver-abel", QUIVER],
)

RENDERING = (
    ["nf", "--params", "1,1,1", "d^2*u - d*u*d - u*d^2 - d"],  # a relation: 0
    ["project", "--params", "2,0,1", "d*u - 2*u*d - 1"],  # omega maps to 0
    ["bimod", "--params", "2,0,1", "ω*d - 3*u^2*ω*d + 1/2*ω - ω^2"],
    ["nf", "--params", "1/2,-1/3,2", "u - 3/4*d^2*u + 5/2"],
    ["omega", "--params", "1/2,0,-3", "2/3*d*u - 7/5"],
    ["qnf", "--alpha", "-2/3", "x - y^2*x + 1/2"],
    ["abel", "--params", "1/2,0,-3/2"],
)

CASES = (
    [argv for argv in README]
    + [["--json"] + argv for argv in README]
    + [
        ["--help"],
        ["classify", "--help"],
        ["nf", "--help"],
        ["nf", "--params", "2,0,1"],  # usage error: missing expression
        ["bimod", "--params", "2,0,1", "--formula", "0,2,sideways"],  # usage error after parsing
        ["nf", "--params", "2,0", "d*u"],  # domain error: two parameters
        ["--json", "nf", "--params", "2,0", "d*u"],
    ]
    + [argv for argv in RENDERING]
    + [["--json"] + argv for argv in RENDERING]
)


def invoke(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def run_case(argv, quiver_path):
    """The case's outputs, with the quiver file path written as QUIVER."""
    code, out, err = invoke([quiver_path if arg == QUIVER else arg for arg in argv])
    return {
        "argv": argv,
        "code": code,
        "stdout": out.replace(quiver_path, QUIVER),
        "stderr": err.replace(quiver_path, QUIVER),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quiver_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "quiver.txt"
    path.write_text(QUIVER_TEXT, encoding="utf-8")
    return str(path)


def test_golden_file_lists_every_case(golden):
    assert [entry["argv"] for entry in golden] == [list(argv) for argv in CASES]


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: " ".join(CASES[i]))
def test_output_matches_the_golden_record(index, golden, quiver_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_case(CASES[index], quiver_path) == golden[index]


def write_golden():
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "quiver.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(QUIVER_TEXT)
        entries = [run_case(list(argv), path) for argv in CASES]
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, ensure_ascii=False, indent=1)
        handle.write("\n")
    print(f"wrote {len(entries)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    write_golden()
