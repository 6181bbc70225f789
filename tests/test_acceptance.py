"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

The named checks live in downup.verify so that the CLI `verify` subcommand and
this suite share one implementation.  The suite here pins each criterion to
its named check, asserts the stated runtime bounds, and prints a visible
PASS/FAIL line per criterion even under captured output.
"""

import time

import pytest

from downup import verify
from downup.cli import main
from downup.verify import run_all

RUNTIME_BOUNDS = {
    "pbw-normal-words": 10.0,
    "omega-roundtrip": 30.0,
    "resolution-complex": 5.0,
}


@pytest.fixture(scope="module")
def suite():
    return {result.name: result for result in run_all()}


def report(capsys, number, result):
    flag = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {number} {flag} [{result.name}] "
              f"({result.seconds:.2f}s) {result.detail}")
    assert result.passed, result.detail
    bound = RUNTIME_BOUNDS.get(result.name)
    if bound is not None:
        assert result.seconds < bound, f"{result.name} took {result.seconds:.2f}s"


def test_criterion_1_pbw_rewriting(suite, capsys):
    report(capsys, 1, suite["pbw-normal-words"])


def test_criterion_2_omega_calculus(suite, capsys):
    report(capsys, 2, suite["omega-roundtrip"])


def test_criterion_3_bimodule_action(suite, capsys):
    report(capsys, 3, suite["bimodule-action-formula"])


def test_criterion_4_resolution(suite, capsys):
    report(capsys, 4, suite["resolution-complex"])


def test_criterion_5_tor_table(suite, capsys):
    report(capsys, 5, suite["tor-table"])


def test_criterion_6_classifier(suite, capsys):
    report(capsys, 6, suite["classifier-truth-table"])


def test_criterion_7_abelianization(suite, capsys):
    report(capsys, 7, suite["abelianization-dimensions"])


def test_criterion_8_lambda_recursion(suite, capsys):
    report(capsys, 8, suite["lambda-recursion"])


def test_criterion_9_verify_command(capsys):
    start = time.perf_counter()
    code = main(["verify"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    passed = code == 0 and lines[-1] == "8 passed, 0 failed"
    passed = passed and sum(1 for line in lines if line.startswith("PASS ")) == 8
    with capsys.disabled():
        flag = "PASS" if passed and elapsed < 300 else "FAIL"
        print(f"\ncriterion 9 {flag} [verify-command] ({elapsed:.2f}s) "
              f"exit {code}, {len(lines) - 1} check lines")
    assert code == 0
    assert lines[-1] == "8 passed, 0 failed"
    assert sum(1 for line in lines if line.startswith("PASS ")) == 8
    assert all(not line.startswith("FAIL ") for line in lines)
    assert elapsed < 300.0


def test_unknown_and_failing_checks(monkeypatch):
    with pytest.raises(KeyError, match="unknown check 'nope'"):
        verify.run_check("nope")

    def failing():
        raise AssertionError("forced failure")

    monkeypatch.setattr(verify, "CHECKS", [("pbw-normal-words", failing)] + verify.CHECKS[1:])
    result = verify.run_check("pbw-normal-words")
    assert (result.passed, result.detail) == (False, "AssertionError: forced failure")
