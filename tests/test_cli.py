"""Tests for the command-line interface: outputs, exit codes, JSON stability."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from downup import cli
from downup.cli import build_parser, main


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of one call, usage errors and help included."""
    try:
        code = main(list(argv))
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf_example(capsys):
    code, out, _ = run_cli(capsys, "nf", "--params", "2,-1,0", "d^2*u")
    assert code == 0
    assert out == "2*d*u*d - u*d^2\n"


def test_tor_example(capsys):
    code, out, _ = run_cli(capsys, "tor", "--params", "0,0,0", "--t1", "0,0", "--t2", "0,0")
    assert code == 0
    assert out == "1,2,2,1\n"


def test_iso_example_with_a_negative_flag_value(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "iso", "--left", "1,2,0", "--right", "-1/2,1/2,0"
    )
    assert code == 0
    assert out == "isomorphic (parameter swap: (-1/2, 1/2))\n"


def test_omega_forward_and_inverse(capsys):
    code, out, _ = run_cli(capsys, "omega", "--params", "2,0,1", "d*u")
    assert code == 0
    assert out == "2*u*d + ω + 1\n"
    code, out, _ = run_cli(capsys, "omega", "--params", "2,0,1", "--invert", "ω")
    assert code == 0
    assert out == "d*u - 2*u*d - 1\n"


def test_omega_inversion_of_a_large_power(capsys):
    # omega^40 expands to 3^40 words; the inversion normalises one factor at a time
    code, out, _ = run_cli(capsys, "omega", "--params", "2,0,1", "--invert", "ω^40")
    assert code == 0
    assert out.startswith("d*u*d*u")
    assert out.count(" + ") + out.count(" - ") == 41


def test_member_and_bimod(capsys):
    code, out, _ = run_cli(capsys, "member", "--params", "2,0,1", "--power", "2", "ω^2")
    assert (code, out) == (0, "true\n")
    code, out, _ = run_cli(capsys, "bimod", "--params", "2,0,5", "ω*d^2*u")
    assert (code, out) == (0, "15*[ω*d]\n")
    code, out, _ = run_cli(capsys, "bimod", "--params", "2,0,5", "--formula", "0,2,right")
    assert (code, out) == (0, "15*[ω*d]\n")


def test_quantum_commands(capsys):
    code, out, _ = run_cli(capsys, "project", "--params", "2,0,1", "d*u + u*d")
    assert (code, out) == (0, "3*x*y + 1\n")
    code, out, _ = run_cli(capsys, "qnf", "--alpha", "2", "x*y*x")
    assert (code, out) == (0, "2*x^2*y\n")
    code, out, _ = run_cli(capsys, "qnf", "--alpha", "2", "--weyl", "y*x")
    assert (code, out) == (0, "2*x*y + 1\n")


def test_abel_output(capsys):
    code, out, _ = run_cli(capsys, "abel", "--params", "2,0,1")
    assert code == 0
    assert out.splitlines() == [
        "K (+) K[d,u]/(-d*u - 1)",
        "connected=false summand_count=2 units_finite_dimensional=false",
    ]


def test_lambda_and_torbound(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--alpha", "2", "--terms", "1")
    assert (code, out) == (0, "2,4/3\n")
    code, out, _ = run_cli(capsys, "torbound", "--params", "2,0,1", "--samples", "20")
    assert (code, out) == (0, "1\n")


def test_torbound_returns_when_samples_exceed_the_modules(capsys):
    # at gamma = 0, alpha != 1 the sampler finds only 1,021 modules
    code, out, _ = run_cli(capsys, "torbound", "--params", "2,0,0", "--samples", "2000")
    assert (code, out) == (0, "2\n")


def test_classify_report_certifies(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "report", "--left", "1,0,1", "--right", "2,0,1",
        "--samples", "15",
    )
    assert code == 0
    assert "tor1_bound: 0 vs 1" in out
    assert "certifies_non_isomorphism: true" in out


def test_domain_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "nf", "--params", "2,0", "d*u")
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, "tor", "--params", "2,0,1", "--t1", "1,1", "--t2", "0,0")
    assert code == 1 and "not a valid" in err
    code, _, err = run_cli(capsys, "lambda", "--alpha", "1", "--terms", "5")
    assert code == 1
    code, _, err = run_cli(capsys, "omega", "--params", "2,1,0", "d*u")
    assert code == 1
    code, _, err = run_cli(capsys, "quiver-abel", "/nonexistent/quiver.txt")
    assert code == 1
    for argv in (
        ["nf", "--params", "1e5,0,0", "d"],
        ["nf", "--params", "0,0,1E5", "d"],
        ["tor", "--params", "0,0,0", "--t1", "1e5,0", "--t2", "0,0"],
        ["qnf", "--alpha", "1E5", "y*x"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "") and "error: not a rational literal" in err
    code, out, err = run_cli(capsys, "nf", "--params", "1,1,1", "1" * 5000)
    assert (code, out, err) == (1, "", "error: number has too many digits (at position 0)\n")


def test_classify_monomial(capsys):
    assert run_cli(capsys, "classify", "monomial", "--params", "0,0,0") == (0, "true\n", "")
    assert run_cli(capsys, "classify", "monomial", "--params", "1,0,0") == (0, "false\n", "")
    code, out, _ = run_cli(capsys, "--json", "classify", "monomial", "--params", "0,0,0")
    assert code == 0
    assert json.loads(out) == {
        "subcommand": "classify monomial",
        "inputs": {"params": "0,0,0"},
        "result": True,
        "provenance": "monomiality criterion",
    }


@pytest.mark.parametrize(
    "argv, stdin, code, reason",
    [
        pytest.param(["torbound", "--params", "2,0,1", "--samples", "0"], "", 1,
                     "error: samples must be a positive integer", id="no-samples"),
        pytest.param(["bimod", "--params", "2,0,1", "--formula", "1,x,left"], "", 2,
                     "--formula indices must be integers", id="formula-index-not-an-integer"),
        pytest.param(["bimod", "--params", "2,0,1"], "", 2,
                     "bimod needs an expression or --formula", id="bimod-without-expression"),
        pytest.param(["quiver-abel", "-"], '{"vertices": ["e"], "arrows": [{"id": "d"}]}', 1,
                     "needs id/source/target", id="arrow-object-without-target"),
    ],
)
def test_rejected_calls_exit_with_their_code(capsys, monkeypatch, argv, stdin, code, reason):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    exit_code, out, err = run_cli(capsys, *argv)
    assert (exit_code, out) == (code, "") and reason in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["nf", "--params", "2,0,1"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["bimod", "--params", "2,0,1", "--formula", "0,2,right", "ω"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["bimod", "--params", "2,0,1", "--formula", "0,2,sideways"])
    assert info.value.code == 2
    capsys.readouterr()


def test_json_envelope_schema(capsys):
    code, out, _ = run_cli(capsys, "--json", "nf", "--params", "2,-1,0", "d^2*u")
    assert code == 0
    data = json.loads(out)
    assert sorted(data) == ["inputs", "provenance", "result", "subcommand"]
    assert data["subcommand"] == "nf"
    assert data["result"] == "2*d*u*d - u*d^2"
    assert data["inputs"] == {"expr": "d^2*u", "params": "2,-1,0"}
    assert list(out.index(f'"{key}"') for key in sorted(data)) == sorted(
        out.index(f'"{key}"') for key in data
    )


def test_json_flag_works_after_the_subcommand(capsys):
    _, before, _ = run_cli(capsys, "--json", "tor", "--params", "0,0,0", "--t1", "0,0", "--t2", "0,0")
    _, after, _ = run_cli(capsys, "tor", "--json", "--params", "0,0,0", "--t1", "0,0", "--t2", "0,0")
    assert before == after
    assert json.loads(before)["result"] == [1, 2, 2, 1]


def test_repeat_invocations_are_bit_identical(capsys):
    sampled = ["--json", "torbound", "--params", "2,0,1", "--samples", "25"]
    _, first, _ = run_cli(capsys, *sampled)
    _, second, _ = run_cli(capsys, *sampled)
    assert first == second
    reported = ["--json", "classify", "report", "--left", "2,0,0", "--right", "2,0,1",
                "--samples", "12"]
    _, first, _ = run_cli(capsys, *reported)
    _, second, _ = run_cli(capsys, *reported)
    assert first == second


def test_quiver_abel_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    flat = tmp_path / "quiver.txt"
    flat.write_text(
        "vertex e\narrow d e e\narrow u e e\nrelation d d u\nrelation d u u\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "quiver-abel", str(flat))
    assert (code, out) == (0, "K[X_d,X_u]/(X_d^2*X_u, X_d*X_u^2)\n")

    blob = json.dumps(
        {
            "vertices": ["e"],
            "arrows": [["d", "e", "e"], ["u", "e", "e"]],
            "relations": [["d", "d", "u"], ["d", "u", "u"]],
        }
    )
    as_json = tmp_path / "quiver.json"
    as_json.write_text(blob, encoding="utf-8")
    code, out, _ = run_cli(capsys, "quiver-abel", str(as_json))
    assert (code, out) == (0, "K[X_d,X_u]/(X_d^2*X_u, X_d*X_u^2)\n")

    monkeypatch.setattr(sys, "stdin", io.StringIO(blob))
    code, out, _ = run_cli(capsys, "quiver-abel", "-")
    assert (code, out) == (0, "K[X_d,X_u]/(X_d^2*X_u, X_d*X_u^2)\n")

    as_json.write_text('{"vertices": ["e"], "arrows": [5]}', encoding="utf-8")
    code, out, err = run_cli(capsys, "quiver-abel", str(as_json))
    assert (code, out, err) == (1, "", "error: arrow entry 5 must be [id, source, target]\n")


TOR = ["tor", "--params", "0,0,0", "--t1", "0,0", "--t2", "0,0"]
MIXED = [
    ["nf", "--params", "2,0,1"],  # usage error
    ["nf", "--params", "2,0", "d*u"],  # domain error
    ["--json"] + TOR,
    TOR,
    ["--help"],
]


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_the_cached_parser_keeps_no_state(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    forward = [run_cli(capsys, *argv) for argv in MIXED]
    backward = [run_cli(capsys, *argv) for argv in reversed(MIXED)][::-1]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    fresh = [run_cli(capsys, *argv) for argv in MIXED]
    assert forward == backward == fresh
    assert [code for code, _, _ in fresh] == [2, 1, 0, 0, 0]


def test_a_json_call_leaves_the_next_plain_call_plain(capsys):
    for flagged in (["--json"] + TOR, TOR[:1] + ["--json"] + TOR[1:]):
        assert json.loads(run_cli(capsys, *flagged)[1])["result"] == [1, 2, 2, 1]
        assert run_cli(capsys, *TOR) == (0, "1,2,2,1\n", "")


def test_console_script_is_installed():
    completed = subprocess.run(
        ["downup", "classify", "type", "--params", "0,0,0"],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0
    assert completed.stdout == "b\n"


def test_the_module_runs_as_a_script():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-m", "downup.cli", "classify", "type", "--params", "0,0,0"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert completed.returncode == 0
    assert completed.stdout == "b\n"
