"""Command-line surface for the down-up algebra toolkit.

Every subcommand prints a deterministic plain-text result; the global
``--json`` flag switches to a stable envelope {subcommand, inputs, result,
provenance} with sorted keys.  Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import NamedTuple

from .algebra import (
    Params,
    bimod_action_formula,
    bimod_class,
    ideal_power_membership,
    omega_coords,
    omega_to_pbw,
    pbw_normal_form,
)
from .classify import invariant_report, is_monomial, iso_verdict, lambda_sequence, type_of
from .errors import DomainError
from .expr import DU, DWU, YX, parse
from .homology import OneDimModule, tor_profile, tor1_bound
from .quiver import load_monomial_algebra, monomial_abelianization
from .quotients import (
    abelian_invariants,
    abelianization,
    project,
    q_normal_form,
    quantum_plane,
    quantum_weyl,
)
from .verify import run_all


class _Outcome(NamedTuple):
    """What a subcommand prints: plain text or a JSON result, and its exit code."""

    text: str
    result: object
    provenance: str
    exit_code: int = 0


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _invariant_text(invariants: dict) -> str:
    pieces = []
    for key in sorted(invariants):
        value = invariants[key]
        rendered = _bool_text(value) if isinstance(value, bool) else str(value)
        pieces.append(f"{key}={rendered}")
    return " ".join(pieces)


def _run_nf(args):
    params = Params.parse(args.params)
    result = str(pbw_normal_form(parse(args.expr, DU), params))
    return _Outcome(result, result, "pbw normal form by deglex rewriting")


def _run_omega(args):
    params = Params.parse(args.params)
    element = omega_coords(parse(args.expr, DWU), params)
    if args.invert:
        result = str(omega_to_pbw(element, params))
        return _Outcome(result, result, "omega basis inversion")
    result = str(element)
    return _Outcome(result, result, "omega basis conversion")


def _run_member(args):
    params = Params.parse(args.params)
    inside = ideal_power_membership(parse(args.expr, DWU), args.power, params)
    return _Outcome(_bool_text(inside), inside, "omega ideal power membership")


def _run_bimod(args):
    params = Params.parse(args.params)
    if args.formula is not None:
        if args.expr is not None:
            build_parser().error("pass either an expression or --formula, not both")
        fields = [piece.strip() for piece in args.formula.split(",")]
        if len(fields) != 3 or fields[2] not in ("left", "right"):
            build_parser().error(f"--formula wants I,L,left|right, got {args.formula!r}")
        try:
            i, l = int(fields[0]), int(fields[1])
        except ValueError:
            message = f"--formula indices must be integers, got {args.formula!r}"
            build_parser().error(message)
        result = str(bimod_action_formula(i, l, fields[2], params))
        return _Outcome(result, result, "bimodule action formula")
    if args.expr is None:
        build_parser().error("bimod needs an expression or --formula")
    result = str(bimod_class(parse(args.expr, DWU), params))
    return _Outcome(result, result, "omega bimodule class")


def _run_project(args):
    params = Params.parse(args.params)
    result = str(project(parse(args.expr, DU), params))
    return _Outcome(result, result, "quantum quotient projection")


def _run_qnf(args):
    algebra = quantum_weyl(args.alpha) if args.weyl else quantum_plane(args.alpha)
    result = str(q_normal_form(parse(args.expr, YX), algebra))
    return _Outcome(result, result, "quantum normal form")


def _run_abel(args):
    pres = abelianization(Params.parse(args.params))
    invariants = abelian_invariants(pres)
    text = f"{pres}\n{_invariant_text(invariants)}"
    return _Outcome(text, {"presentation": pres.to_json(), "invariants": invariants},
                    "abelianization case analysis")


def _run_tor(args):
    params = Params.parse(args.params)
    profile = tor_profile(OneDimModule.parse(args.t1), OneDimModule.parse(args.t2), params)
    return _Outcome(str(profile), list(profile.dims), "tor profile from the collapsed resolution")


def _run_torbound(args):
    bound = tor1_bound(Params.parse(args.params), args.samples)
    return _Outcome(str(bound), bound, "sampled tor-one supremum")


def _run_classify(args):
    if args.mode == "type":
        tag = str(type_of(Params.parse(args.params)))
        return _Outcome(tag, tag, "type table")
    if args.mode == "monomial":
        flag = is_monomial(Params.parse(args.params))
        return _Outcome(_bool_text(flag), flag, "monomiality criterion")
    left, right = Params.parse(args.left), Params.parse(args.right)
    if args.mode == "iso":
        verdict = iso_verdict(left, right)
        payload = {
            "isomorphic": verdict.isomorphic,
            "rule": verdict.rule,
            "detail": verdict.detail,
        }
        return _Outcome(str(verdict), payload, verdict.rule)
    report = invariant_report(left, right, args.samples)
    lines = [
        f"type: {report['left']['type']} vs {report['right']['type']}",
        f"tor1_bound: {report['left']['tor1_bound']} vs {report['right']['tor1_bound']}",
        "abelian: "
        + _invariant_text(report["left"]["abelian"])
        + " vs "
        + _invariant_text(report["right"]["abelian"]),
        "mismatches: " + (",".join(report["mismatches"]) or "none"),
        "certifies_non_isomorphism: " + _bool_text(report["certifies_non_isomorphism"]),
    ]
    return _Outcome("\n".join(lines), report, "separating invariant report")


def _run_lambda(args):
    values = lambda_sequence(args.alpha, args.terms)
    text = ",".join(str(value) for value in values)
    return _Outcome(text, [str(value) for value in values], "witness scalar recursion")


def _run_quiver_abel(args):
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as err:
            raise DomainError(f"cannot read quiver file: {err}") from None
    pres = monomial_abelianization(load_monomial_algebra(text))
    return _Outcome(str(pres), {"presentation": pres.to_json()}, "vertexwise loop abelianization")


def _run_verify(args):
    results = run_all()
    lines = []
    payload = []
    for result in results:
        flag = "PASS" if result.passed else "FAIL"
        lines.append(f"{flag} {result.name}: {result.detail}")
        payload.append({"name": result.name, "passed": result.passed, "detail": result.detail})
    failed = sum(1 for result in results if not result.passed)
    lines.append(f"{len(results) - failed} passed, {failed} failed")
    total = sum(result.seconds for result in results)
    print(f"verify suite finished in {total:.2f}s", file=sys.stderr)
    return _Outcome("\n".join(lines), payload, "acceptance property suite", 1 if failed else 0)


class _Parser(argparse.ArgumentParser):
    """Accepts comma-separated rational values that start with a minus sign."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d/.,-]*$")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared read-only.

    It depends on no input: ``parse_args`` returns a fresh namespace on every
    call, and help and errors go to the ``sys.stdout``/``sys.stderr`` in
    effect at call time, so reusing it changes no output.  Only callers that
    run ``main`` many times in one process gain: a ``downup`` process builds
    the parser once either way.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit a JSON envelope",
    )

    parser = _Parser(
        prog="downup",
        parents=[common],
        description="Exact computations in down-up algebras A(alpha, beta, gamma).",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    # Runners look library functions up as module globals when they run, so a
    # rebound name (a tracer's span, a test's patch) is seen on the next call.
    def sub(name, help_text, run):
        command = commands.add_parser(name, parents=[common], help=help_text)
        command.set_defaults(run=run)
        return command

    nf = sub("nf", "PBW normal form of a d,u expression", _run_nf)
    nf.add_argument("--params", required=True, help="alpha,beta,gamma")
    nf.add_argument("expr")

    omega = sub("omega", "omega-basis coordinates of an expression (beta = 0)", _run_omega)
    omega.add_argument("--params", required=True)
    omega.add_argument("--invert", action="store_true", help="convert back to the PBW basis")
    omega.add_argument("expr")

    member = sub("member", "membership in a power of the omega ideal", _run_member)
    member.add_argument("--params", required=True)
    member.add_argument("--power", type=int, required=True)
    member.add_argument("expr")

    bimod = sub("bimod", "class in the omega bimodule quotient", _run_bimod)
    bimod.add_argument("--params", required=True)
    bimod.add_argument("--formula", help="I,L,left|right: image of a basis class under the action")
    bimod.add_argument("expr", nargs="?")

    project_cmd = sub("project", "image in the quantum plane or Weyl algebra", _run_project)
    project_cmd.add_argument("--params", required=True)
    project_cmd.add_argument("expr")

    qnf = sub("qnf", "normal form in a quantum plane or Weyl algebra", _run_qnf)
    qnf.add_argument("--alpha", required=True)
    qnf.add_argument("--weyl", action="store_true", help="use the Weyl constant 1")
    qnf.add_argument("expr")

    abel = sub("abel", "abelianization presentation and its invariants", _run_abel)
    abel.add_argument("--params", required=True)

    tor = sub("tor", "Tor profile of two one-dimensional modules (beta = 0)", _run_tor)
    tor.add_argument("--params", required=True)
    tor.add_argument("--t1", required=True, help="delta,mu")
    tor.add_argument("--t2", required=True, help="delta,mu")

    torbound = sub("torbound", "largest sampled Tor_1 dimension (beta = 0)", _run_torbound)
    torbound.add_argument("--params", required=True)
    torbound.add_argument("--samples", type=int, default=40)

    classify = sub("classify", "type tag, isomorphism verdict, monomiality, report", _run_classify)
    modes = classify.add_subparsers(dest="mode", required=True, metavar="MODE")
    for mode in ("type", "monomial"):
        mode_parser = modes.add_parser(mode, parents=[common])
        mode_parser.add_argument("--params", required=True)
    for mode in ("iso", "report"):
        mode_parser = modes.add_parser(mode, parents=[common])
        mode_parser.add_argument("--left", required=True)
        mode_parser.add_argument("--right", required=True)
        if mode == "report":
            mode_parser.add_argument("--samples", type=int, default=40)

    lam = sub("lambda", "witness scalar sequence for an invertible alpha", _run_lambda)
    lam.add_argument("--alpha", required=True)
    lam.add_argument("--terms", type=int, default=20, help="largest index m")

    quiver_cmd = sub("quiver-abel", "abelianization of a quiver monomial algebra", _run_quiver_abel)
    quiver_cmd.add_argument("file", help="quiver description file, or - for stdin")

    sub("verify", "run the acceptance property suite", _run_verify)

    return parser


def _inputs_of(args) -> dict:
    skip = {"command", "mode", "json", "run"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None and value is not False
    }


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        outcome = args.run(args)
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if getattr(args, "json", False):
        envelope = {
            "subcommand": args.command if args.command != "classify" else f"classify {args.mode}",
            "inputs": _inputs_of(args),
            "result": outcome.result,
            "provenance": outcome.provenance,
        }
        print(json.dumps(envelope, sort_keys=True))
    else:
        print(outcome.text)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
