"""tor-classify: Tor profiles, Tor_1 bounds, invariant reports and verdicts.

homology and classify dominate and linalg sees thousands of 1x2 and 2x2
ranks.  Every op draws a fresh parameter triple, so caches keyed on
parameters miss; this is where a single Tor path or an exact Tor_1 supremum
(or a regression in either) shows.
"""

from __future__ import annotations

import random
from fractions import Fraction

from downup import classify, homology
from downup.algebra import Params

import reference as ref
from harness import Op, cap

NAME = "tor-classify"
SAMPLES = 40  # the CLI default for torbound and classify report
MAX_SAMPLES = 40

# One block: (kind, regime or relation).  The mix and the regimes are fixed;
# the seed draws the parameters and modules.
BLOCK = (
    [("tor_profile", r) for r in ("hyperbola", "hyperbola", "hyperbola", "axes",
                                  "axes", "axes", "plane", "origin")]
    + [("tor_matrices", "beta0")]
    + [("resolution_identity", r) for r in ("hyperbola", "axes", "plane")]
    + [("iso_verdict", r) for r in ("swap", "rescale", "mismatch", "dichotomy")]
    + [("tor1_bound", r) for r in ("hyperbola", "axes", "hyperbola")]
    + [("invariant_report", "mixed")]
)

SIZES = {
    "samples": SAMPLES,
    "module_pairs_per_tor1_bound": SAMPLES * SAMPLES,
    "block": [f"{kind}:{variant}" for kind, variant in BLOCK],
}


def _alpha(rng, one: bool) -> Fraction:
    if one:
        return Fraction(1)
    while True:
        value = ref.small_fraction(rng)
        if value != 1:
            return value


def _beta_zero_params(rng, shape: str) -> tuple:
    """A fresh (alpha, 0, gamma) whose module variety has the given shape."""
    alpha = _alpha(rng, one=shape in ("plane", "origin"))
    gamma = Fraction(0) if shape in ("axes", "plane") else ref.small_fraction(rng, nonzero=True)
    return (alpha, Fraction(0), gamma)


def _beta_params(rng, shape: str) -> tuple:
    """A fresh triple with beta != 0 and the given module variety."""
    beta = ref.small_fraction(rng, nonzero=True)
    if shape == "plane":
        alpha = 1 - beta
    else:
        while True:
            alpha = ref.small_fraction(rng)
            if alpha + beta != 1:
                break
    gamma = Fraction(0) if shape in ("axes", "plane") else ref.small_fraction(rng, nonzero=True)
    return (alpha, beta, gamma)


def _module_pair(rng, params):
    t1, t2 = ref.valid_modules(params, rng, 2)
    if rng.random() < 0.5:
        t2 = t1
    return t1, t2


def _tor_profile_op(rng, shape: str) -> Op:
    params = _beta_zero_params(rng, shape)
    (d1, m1), (d2, m2) = _module_pair(rng, params)
    P = Params(*params)
    T1, T2 = homology.OneDimModule(d1, m1), homology.OneDimModule(d2, m2)

    def call():
        return homology.tor_profile(T1, T2, P).dims

    def check(dims):
        if dims[0] - dims[1] + dims[2] - dims[3] != 0:
            return f"Euler characteristic of {dims} is not 0"
        if dims[0] != int((d1, m1) == (d2, m2)):
            return f"Tor_0 = {dims[0]} for modules {(d1, m1)}, {(d2, m2)}"
        if dims[3] != int(m1 == 0 and d2 == 0):
            return f"Tor_3 = {dims[3]} for modules {(d1, m1)}, {(d2, m2)}"
        if dims[1] > ref.tor1_regime_bound(params):
            return f"Tor_1 = {dims[1]} above the {shape} bound at {params}"
        return None

    return Op("tor_profile", call, check)


def _matrices_check(f0, f1, f2) -> str | None:
    if not ref.is_zero_matrix(ref.mat_mul(f0, f1)):
        return "f0*f1 != 0"
    if not ref.is_zero_matrix(ref.mat_mul(f1, f2)):
        return "f1*f2 != 0"
    return None


def _tor_matrices_op(rng, _variant: str) -> Op:
    params = _beta_zero_params(rng, rng.choice(("hyperbola", "axes")))
    (d1, m1), (d2, m2) = _module_pair(rng, params)
    P = Params(*params)
    T1, T2 = homology.OneDimModule(d1, m1), homology.OneDimModule(d2, m2)

    def call():
        return homology.tor_matrices(T1, T2, P)

    def check(out):
        bad = _matrices_check(*out)
        if bad:
            return f"{bad} at {params}"
        if tuple(out) != tuple(homology.closed_form_matrices(T1, T2, P)):
            return f"mechanical and closed-form matrices differ at {params}"
        return None

    return Op("tor_matrices", call, check)


def _identity_op(rng, shape: str) -> Op:
    params = _beta_params(rng, shape)
    (d1, m1), (d2, m2) = _module_pair(rng, params)
    P = Params(*params)
    T1, T2 = homology.OneDimModule(d1, m1), homology.OneDimModule(d2, m2)
    gen = homology.BimoduleElement.generator

    def call():
        matrices = homology.tor_matrices(T1, T2, P)
        d1d2 = [homology.apply_d1(homology.apply_d2(gen(2, tag), P), P) for tag in ("d2u", "du2")]
        d2d3 = homology.apply_d2(homology.apply_d3(gen(3, "d2u2"), P), P)
        return matrices, [bool(x) for x in d1d2 + [d2d3]]

    def check(out):
        matrices, nonzero = out
        if any(nonzero):
            return f"d1*d2 or d2*d3 is not zero at {params}"
        bad = _matrices_check(*matrices)
        return f"{bad} at {params}" if bad else None

    return Op("resolution_identity", call, check)


def _iso_pair(rng, relation: str):
    if relation == "swap":
        p = _beta_params(rng, rng.choice(("hyperbola", "axes")))
        c = ref.small_fraction(rng, nonzero=True)
        q = (-p[0] / p[1], 1 / p[1], c * p[2])
    elif relation == "rescale":
        p = _beta_zero_params(rng, "hyperbola")
        q = (p[0], p[1], ref.small_fraction(rng, nonzero=True))
    elif relation == "mismatch":
        p = _beta_params(rng, "hyperbola")
        q = _beta_params(rng, "hyperbola")
    else:  # dichotomy: exactly one side has beta = 0
        p = _beta_zero_params(rng, "axes")
        q = _beta_params(rng, "axes")
    return (q, p) if rng.random() < 0.5 else (p, q)


def _iso_op(rng, relation: str) -> Op:
    p, q = _iso_pair(rng, relation)
    P, Q = Params(*p), Params(*q)
    expected = ref.isomorphic(p, q)

    def call():
        return classify.iso_verdict(P, Q)

    def check(verdict):
        if verdict.isomorphic != expected:
            return f"{p} vs {q}: verdict {verdict}, expected isomorphic={expected}"
        if classify.iso_verdict(Q, P).isomorphic != verdict.isomorphic:
            return f"verdict for {p} vs {q} is not symmetric"
        return None

    return Op("iso_verdict", call, check)


def _tor1_bound_op(rng, shape: str) -> Op:
    params = _beta_zero_params(rng, shape)
    P = Params(*params)
    cap(SAMPLES, MAX_SAMPLES, "sample count")

    def call():
        return homology.tor1_bound(P, SAMPLES)

    def check(bound):
        expected = ref.tor1_regime_bound(params)
        return None if bound == expected else f"bound {bound} at {params}, expected {expected}"

    return Op("tor1_bound", call, check)


def _report_op(rng, _variant: str) -> Op:
    p = _beta_zero_params(rng, rng.choice(("hyperbola", "axes")))
    q = _beta_zero_params(rng, rng.choice(("hyperbola", "axes")))
    P, Q = Params(*p), Params(*q)
    cap(SAMPLES, MAX_SAMPLES, "sample count")

    def call():
        return classify.invariant_report(P, Q, SAMPLES)

    def check(report):
        for side, params in (("left", p), ("right", q)):
            if report[side]["tor1_bound"] != ref.tor1_regime_bound(params):
                return f"{side} tor1_bound {report[side]['tor1_bound']} at {params}"
            if report[side]["type"] != ref.type_tag(params):
                return f"{side} type {report[side]['type']} at {params}"
        differ = sorted(k for k in report["left"] if report["left"][k] != report["right"][k])
        if report["mismatches"] != differ:
            return f"mismatches {report['mismatches']}, sides differ in {differ}"
        if report["certifies_non_isomorphism"] != bool(differ):
            return "certification does not follow the mismatches"
        if differ and ref.isomorphic(p, q):
            return f"report refutes the isomorphic pair {p}, {q}"
        return None

    return Op("invariant_report", call, check)


_MAKERS = {
    "tor_profile": _tor_profile_op,
    "tor_matrices": _tor_matrices_op,
    "resolution_identity": _identity_op,
    "iso_verdict": _iso_op,
    "tor1_bound": _tor1_bound_op,
    "invariant_report": _report_op,
}


def block_maker(seed: int, workdir: str):
    """Block i of the seed's op stream, built on demand; inputs depend on (seed, i) only."""

    def block(index: int) -> list[Op]:
        rng = random.Random(f"{NAME}:{seed}:{index}")
        order = list(BLOCK)
        rng.shuffle(order)
        return [_MAKERS[kind](rng, variant) for kind, variant in order]

    return block
