"""cli-session: ``downup.cli.main(argv)`` in-process over the cheap subcommands.

Many tiny inputs, so parsing, argparse, rendering and the JSON envelope
dominate; the expr and rewrite layers are used differently than in
nf-stream.  Half of the calls ask for ``--json``, a share are invalid and must
exit 1 or 2, and every call draws fresh parameters so that in-process caches
do not flatter what would be separate CLI processes.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from downup import cli

import reference as ref
from harness import Op, cap

NAME = "cli-session"
OMEGA = ref.OMEGA
MAX_DEGREE = 4
MAX_LAMBDA_TERMS = 8
QUIVER_FILES = 64
TWIN_SHARE = 0.25  # share of valid calls re-run in the other output mode by the check

BLOCK = (
    "nf", "nf", "omega", "omega_invert", "member", "bimod_expr", "bimod_formula",
    "project", "qnf", "abel", "tor", "classify_type", "classify_iso",
    "classify_monomial", "lambda", "quiver_abel", "readme", "readme",
    "invalid_domain", "invalid_usage",
)

SIZES = {
    "max_expression_degree": MAX_DEGREE,
    "max_lambda_terms": MAX_LAMBDA_TERMS,
    "quiver_files": QUIVER_FILES,
    "json_share": 0.5,
    "twin_share": TWIN_SHARE,
    "block": list(BLOCK),
}

# README examples with the outputs written there by hand.
README = (
    (["nf", "--params", "2,-1,0", "d^2*u"], "2*d*u*d - u*d^2"),
    (["omega", "--params", "2,0,1", "d*u"], "2*u*d + ω + 1"),
    (["omega", "--params", "2,0,1", "--invert", "ω"], "d*u - 2*u*d - 1"),
    (["member", "--params", "2,0,1", "--power", "2", "ω^2"], "true"),
    (["project", "--params", "2,0,1", "d*u + u*d"], "3*x*y + 1"),
    (["qnf", "--alpha", "2", "--weyl", "y*x"], "2*x*y + 1"),
    (["tor", "--params", "0,0,0", "--t1", "0,0", "--t2", "0,0"], "1,2,2,1"),
    (["classify", "type", "--params", "2,-1,5"], "c"),
    (["lambda", "--alpha", "2", "--terms", "3"], "2,4/3,8/21,16/315"),
)

ENVELOPE_KEYS = ["inputs", "provenance", "result", "subcommand"]


def invoke(argv):
    """One in-process CLI call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exit_:  # argparse usage errors exit with 2
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def _with_json(argv, where: str):
    if where == "front":
        return ["--json"] + argv
    if where == "back":
        return argv + ["--json"]
    return argv


def _triple(params) -> str:
    return ",".join(str(x) for x in params)


def _params(rng, beta_zero=False, alpha_not=()):
    while True:
        alpha = ref.small_fraction(rng)
        if alpha not in alpha_not:
            break
    beta = Fraction(0) if beta_zero else ref.small_fraction(rng)
    gamma = ref.small_fraction(rng) if rng.random() < 0.7 else Fraction(0)
    return (alpha, beta, gamma)


def _expr(terms: dict) -> str:
    """Expression argument; one that starts with '-' would read as an option."""
    text = ref.render_poly(dict(sorted(terms.items(), key=lambda kv: kv[1] < 0)))
    return "0 " + text if text.startswith("-") else text


def _random_terms(rng, letters, max_degree: int, count: int) -> dict:
    terms = {}
    for _ in range(count):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_degree)))
        terms[word] = ref.small_fraction(rng, nonzero=True)
    return terms


def _modules_where_omega_vanishes(params, rng):
    return [(d, m) for d, m in ref.valid_modules(params, rng, 3)
            if ref.omega_value(params, d, m) == 0]


def _character_check(text, input_terms, params, modules, shape):
    """Words of the printed output have the expected shape and the same characters."""
    table = ref.read_rendered(text)
    for word in table:
        if not shape(word):
            return f"word {word} of {text!r} has the wrong shape"
    for delta, mu in modules:
        omega = ref.omega_value(params, delta, mu)
        if ref.poly_char(input_terms, delta, mu, omega) != ref.poly_char(table, delta, mu, omega):
            return f"character at {(delta, mu)} changed: {text!r}"
    return None


def _ordered(word, letters) -> bool:
    """word is letters[0]^a letters[1]^b ... in that order."""
    rank = {letter: pos for pos, letter in enumerate(letters)}
    positions = [rank.get(letter, -1) for letter in word]
    return -1 not in positions and positions == sorted(positions)


def _classes(text) -> dict:
    """[u^i*ω*d^l] classes of the bimod printer as {(i, l): coeff}."""
    table = ref.read_rendered(text.replace("[", "").replace("]", ""))
    return {(w.count("u"), w.count("d")): c for w, c in table.items()}


def _plain_of_json(kind: str, result) -> str:
    """The plain-text output a JSON result stands for, as far as the checks read it."""
    if kind == "tor":
        return ",".join(str(x) for x in result)
    if kind == "lambda":
        return ",".join(result)
    if kind == "classify_iso":
        return ("isomorphic" if result["isomorphic"] else "not isomorphic") + f" ({result['rule']})"
    if kind in ("abel", "quiver_abel"):
        pieces = ["K" if s["kind"] == "field" else "K[...]" for s in result["presentation"]["summands"]]
        if kind == "quiver_abel":
            return " (+) ".join(pieces)
        flags = result["invariants"]
        line = " ".join(
            f"{key}={str(flags[key]).lower()}" for key in sorted(flags)
        )
        return " (+) ".join(pieces) + "\n" + line
    if isinstance(result, bool):
        return "true" if result else "false"
    return result


# Results that are objects: their plain twin is checked, not compared byte for byte.
STRUCTURED = ("abel", "quiver_abel", "classify_iso")


# -- op generators: each returns (argv, expected exit code, check of plain text)


def _gen_nf(rng):
    params = _params(rng)
    terms = _random_terms(rng, "du", MAX_DEGREE, rng.randint(1, 3))
    modules = ref.valid_modules(params, rng, 3)
    argv = ["nf", "--params", _triple(params), _expr(terms)]
    return argv, 0, lambda text: _character_check(
        text, terms, params, modules, lambda w: ref.pbw_shape(w) is not None)


def _gen_omega(rng):
    params = _params(rng, beta_zero=True)
    terms = _random_terms(rng, "du", MAX_DEGREE, rng.randint(1, 3))
    modules = ref.valid_modules(params, rng, 3)
    argv = ["omega", "--params", _triple(params), _expr(terms)]
    return argv, 0, lambda text: _character_check(
        text, terms, params, modules, lambda w: _ordered(w, ("u", OMEGA, "d")))


def _gen_omega_invert(rng):
    params = _params(rng, beta_zero=True)
    terms = _random_terms(rng, ("d", OMEGA, "u"), 3, rng.randint(1, 3))
    modules = ref.valid_modules(params, rng, 3)
    argv = ["omega", "--params", _triple(params), "--invert", _expr(terms)]
    return argv, 0, lambda text: _character_check(
        text, terms, params, modules, lambda w: ref.pbw_shape(w) is not None)


def _gen_member(rng):
    params = _params(rng, beta_zero=True)
    terms = {}
    for _ in range(2):
        word = ("u",) * rng.randint(0, 2) + (OMEGA,) * rng.randint(0, 3) + ("d",) * rng.randint(0, 2)
        terms[word] = ref.small_fraction(rng, nonzero=True)
    power = rng.randint(1, 3)
    expected = "true" if min(w.count(OMEGA) for w in terms) >= power else "false"
    argv = ["member", "--params", _triple(params), "--power", str(power), _expr(terms)]
    return argv, 0, lambda text: None if text == expected else f"expected {expected}"


def _bimod_params(rng):
    return _params(rng, beta_zero=True, alpha_not=(1,))


def _gen_bimod_expr(rng):
    params = _bimod_params(rng)
    alpha, _, gamma = params
    terms, expected = {}, {}
    for _ in range(rng.randint(1, 3)):
        i, l = rng.randint(0, 3), rng.randint(0, 3)
        c = ref.small_fraction(rng, nonzero=True)
        if rng.random() < 0.5:
            word = ("u",) * i + (OMEGA,) + ("d",) * l
            terms[word] = terms.get(word, 0) + c
            expected[(i, l)] = expected.get((i, l), 0) + c
        else:
            word = ("d",) + ("u",) * i + (OMEGA,) + ("d",) * l
            terms[word] = terms.get(word, 0) + c
            if i:
                key = (i - 1, l)
                expected[key] = expected.get(key, 0) + c * gamma * ref.geometric(alpha, i)
    expected = {k: v for k, v in expected.items() if v}
    argv = ["bimod", "--params", _triple(params), _expr(terms)]
    return argv, 0, lambda text: None if _classes(text) == expected else f"expected {expected}"


def _gen_bimod_formula(rng):
    params = _bimod_params(rng)
    alpha, _, gamma = params
    i, l, side = rng.randint(0, 5), rng.randint(0, 5), rng.choice(("left", "right"))
    m = i if side == "left" else l
    key = (i - 1, l) if side == "left" else (i, l - 1)
    value = gamma * ref.geometric(alpha, m) if m else Fraction(0)
    expected = {key: value} if value else {}
    argv = ["bimod", "--params", _triple(params), "--formula", f"{i},{l},{side}"]
    return argv, 0, lambda text: None if _classes(text) == expected else f"expected {expected}"


def _gen_project(rng):
    alpha = ref.small_fraction(rng, nonzero=True)
    params = (alpha, Fraction(0), Fraction(rng.randint(0, 1)))
    terms = _random_terms(rng, "du", MAX_DEGREE, rng.randint(1, 3))
    modules = _modules_where_omega_vanishes(params, rng)
    argv = ["project", "--params", _triple(params), _expr(terms)]
    return argv, 0, lambda text: _character_check(
        text, terms, params, modules, lambda w: _ordered(w, ("x", "y")))


def _gen_qnf(rng):
    alpha = ref.small_fraction(rng, nonzero=True)
    weyl = rng.random() < 0.5
    params = (alpha, Fraction(0), Fraction(int(weyl)))
    terms = _random_terms(rng, "xy", MAX_DEGREE, rng.randint(1, 3))
    modules = _modules_where_omega_vanishes(params, rng)
    argv = ["qnf", "--alpha", str(alpha)] + (["--weyl"] if weyl else []) + [_expr(terms)]
    return argv, 0, lambda text: _character_check(
        text, terms, params, modules, lambda w: _ordered(w, ("x", "y")))


def _abel_expectation(params):
    alpha, beta, gamma = params
    s = 1 - alpha - beta
    if beta == 0 and gamma != 0 and alpha != 1:
        return 2, False
    if s == 0:
        return 1, True
    return 1, gamma == 0


def _gen_abel(rng):
    params = _params(rng)
    count, units_fd = _abel_expectation(params)
    line = (f"connected={'true' if count == 1 else 'false'} summand_count={count} "
            f"units_finite_dimensional={'true' if units_fd else 'false'}")
    argv = ["abel", "--params", _triple(params)]

    def check(text):
        lines = text.split("\n")
        if len(lines) != 2 or lines[1] != line or len(lines[0].split(" (+) ")) != count:
            return f"expected {count} summands and {line!r}"
        return None

    return argv, 0, check


def _gen_tor(rng):
    params = _params(rng, beta_zero=True)
    (d1, m1), (d2, m2) = ref.valid_modules(params, rng, 2)
    argv = ["tor", "--params", _triple(params), "--t1", f"{d1},{m1}", "--t2", f"{d2},{m2}"]

    def check(text):
        dims = [int(x) for x in text.split(",")]
        if dims[0] - dims[1] + dims[2] - dims[3] != 0:
            return "Euler characteristic is not 0"
        if dims[0] != int((d1, m1) == (d2, m2)) or dims[3] != int(m1 == 0 and d2 == 0):
            return "Tor_0 or Tor_3 is wrong"
        if dims[1] > ref.tor1_regime_bound(params):
            return "Tor_1 above the regime bound"
        return None

    return argv, 0, check


def _gen_classify_type(rng):
    params = _params(rng)
    if rng.random() < 0.3:
        params = (params[0], 1 - params[0], params[2])
    expected = ref.type_tag(params)
    argv = ["classify", "type", "--params", _triple(params)]
    return argv, 0, lambda text: None if text == expected else f"expected {expected}"


def _gen_classify_iso(rng):
    p = _params(rng)
    if p[1] != 0 and rng.random() < 0.5:
        q = (-p[0] / p[1], 1 / p[1], p[2] * rng.randint(1, 5))
    else:
        q = _params(rng)
    expected = "isomorphic" if ref.isomorphic(p, q) else "not isomorphic"
    argv = ["classify", "iso", "--left", _triple(p), "--right", _triple(q)]
    return argv, 0, lambda text: None if text.split(" (")[0] == expected else f"expected {expected}"


def _gen_classify_monomial(rng):
    params = (Fraction(0),) * 3 if rng.random() < 0.3 else _params(rng)
    expected = "true" if params == (0, 0, 0) else "false"
    argv = ["classify", "monomial", "--params", _triple(params)]
    return argv, 0, lambda text: None if text == expected else f"expected {expected}"


def _gen_lambda(rng):
    while True:
        alpha = Fraction(rng.randint(-40, 40), rng.randint(1, 15))
        if alpha not in (0, 1, -1):
            break
    terms = rng.randint(1, MAX_LAMBDA_TERMS)
    cap(terms, MAX_LAMBDA_TERMS, "lambda terms")
    values, power = [alpha], alpha
    for _ in range(terms):
        power *= alpha
        values.append(values[-1] * alpha * (alpha - 1) / (power - 1))
    expected = ",".join(str(v) for v in values)
    argv = ["lambda", "--alpha", str(alpha), "--terms", str(terms)]
    return argv, 0, lambda text: None if text == expected else f"expected {expected}"


def _quiver_file(rng, path):
    vertices = [f"v{i}" for i in range(rng.randint(1, 4))]
    lines = [f"vertex {v}" for v in vertices]
    loops = {}
    for vertex in vertices:
        loops[vertex] = [f"{vertex}l{k}" for k in range(rng.randint(0, 2))]
        lines += [f"arrow {a} {vertex} {vertex}" for a in loops[vertex]]
        for a in loops[vertex]:
            if rng.random() < 0.5:
                lines.append(f"relation {a} {a}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return [bool(loops[v]) for v in sorted(vertices)]


def _gen_readme(rng):
    argv, expected = rng.choice(README)
    return list(argv), 0, lambda text: None if text == expected else f"expected {expected!r}"


def _gen_invalid_domain(rng):
    choices = (
        ["nf", "--params", "1,2", "d*u"],
        ["omega", "--params", _triple((Fraction(2), Fraction(1), Fraction(1))), "d*u"],
        ["nf", "--params", _triple(_params(rng)), "d*z"],
        ["nf", "--params", _triple(_params(rng)), "d^^u"],
        ["tor", "--params", "2,0,1", "--t1", "1,1", "--t2", "0,0"],
        ["lambda", "--alpha", "1"],
        ["project", "--params", "2,0,2", "d*u"],
    )
    return rng.choice(choices), 1, lambda text: None


def _gen_invalid_usage(rng):
    choices = (
        ["nf", "d*u"],
        ["no-such-subcommand"],
        ["member", "--params", "2,0,1", "--power", "x", "ω"],
        ["bimod", "--params", "2,0,1"],
        ["torbound"],
    )
    return rng.choice(choices), 2, lambda text: None


_MAKERS = {
    "nf": _gen_nf, "omega": _gen_omega, "omega_invert": _gen_omega_invert,
    "member": _gen_member, "bimod_expr": _gen_bimod_expr, "bimod_formula": _gen_bimod_formula,
    "project": _gen_project, "qnf": _gen_qnf, "abel": _gen_abel, "tor": _gen_tor,
    "classify_type": _gen_classify_type, "classify_iso": _gen_classify_iso,
    "classify_monomial": _gen_classify_monomial, "lambda": _gen_lambda,
    "readme": _gen_readme, "invalid_domain": _gen_invalid_domain,
    "invalid_usage": _gen_invalid_usage,
}


def _op(kind, argv, code, check_text, where, twin) -> Op:
    json_mode = where != "plain"
    full = _with_json(argv, where)
    shape = argv[0] if kind == "readme" else kind  # how the JSON result reads as text

    def check(out):
        got, stdout, stderr = out
        if got != code:
            return f"{full} exited {got}, expected {code}: {stderr.strip()[-200:]}"
        if code != 0:
            return None if stdout == "" else f"{full} printed to stdout on failure"
        text = stdout[:-1] if stdout.endswith("\n") else stdout
        if json_mode:
            envelope = json.loads(text)
            if sorted(envelope) != ENVELOPE_KEYS or text != json.dumps(envelope, sort_keys=True):
                return f"{full} printed a malformed envelope"
            text = _plain_of_json(shape, envelope["result"])
        bad = check_text(text)
        if bad or not twin:
            return bad
        # the twin call in the other output mode must say the same
        if json_mode:
            other = invoke(argv)[1][:-1]
        else:
            other = _plain_of_json(shape, json.loads(invoke(["--json"] + argv)[1])["result"])
        if shape in STRUCTURED:
            return check_text(other)
        return None if other == text else f"{full}: JSON result and plain text differ"

    return Op(kind, lambda: invoke(full), check)


def _quiver_op(rng, quivers, where) -> Op:
    path, has_loops = rng.choice(quivers)

    def check_text(text):
        pieces = text.split(" (+) ")
        if [piece != "K" for piece in pieces] != has_loops:
            return f"summands {pieces}, loops at {has_loops}"
        return None

    return _op("quiver_abel", ["quiver-abel", path], 0, check_text, where,
               rng.random() < TWIN_SHARE)


def block_maker(seed: int, workdir: str):
    """Block i of the seed's op stream, built on demand; inputs depend on (seed, i) only.

    The quiver files the blocks read are written here, before any block runs.
    """
    rng = random.Random(f"{NAME}:{seed}")
    quivers = []
    for index in range(QUIVER_FILES):
        path = os.path.join(workdir, f"quiver-{index}.txt")
        quivers.append((path, _quiver_file(rng, path)))

    def block(index: int) -> list[Op]:
        rng = random.Random(f"{NAME}:{seed}:{index}")
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        modes = ["plain", "front", "plain", "back"] * (len(kinds) // 4)
        ops = []
        for kind, where in zip(kinds, modes):
            if kind == "quiver_abel":
                ops.append(_quiver_op(rng, quivers, where))
                continue
            argv, code, check_text = _MAKERS[kind](rng)
            twin = code == 0 and rng.random() < TWIN_SHARE
            ops.append(_op(kind, argv, code, check_text, where, twin))
        return ops

    return block
