"""Named end-to-end checks over the whole toolkit.

Each check re-derives one headline property from scratch with its own
sampling, so a regression in any module turns into a named failure here.
`run_all` powers the `verify` CLI subcommand and the acceptance test suite.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    OmegaElem,
    Params,
    PBWElem,
    bimod_action_formula,
    bimod_class,
    downup_rules,
    ideal_power_membership,
    omega_coords,
    omega_rules,
    omega_to_pbw,
    pbw_to_omega,
)
from .classify import is_monomial, iso_verdict, lambda_sequence
from .expr import DU, DWU, NcPoly, OMEGA
from .homology import (
    BimoduleElement,
    OneDimModule,
    apply_d1,
    apply_d2,
    apply_d3,
    enumerate_one_dim,
    tor_profile,
)
from .quiver import MonomialAlgebra, Quiver, monomial_abelianization
from .quotients import (
    abelian_invariants,
    abelianization,
    span_filtered_dim,
    summand_graded_dim,
)
from .rewrite import critical_pairs, reduce


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _random_params(rng, beta_zero=False):
    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    return Params(frac(), 0 if beta_zero else frac(), frac())


def _pbw_shape(word) -> bool:
    """Greedy parse as u^i (du)^j d^k, independent of the rewriting code."""
    position = 0
    while position < len(word) and word[position] == "u":
        position += 1
    while position + 1 < len(word) and word[position] == "d" and word[position + 1] == "u":
        position += 2
    while position < len(word) and word[position] == "d":
        position += 1
    return position == len(word)


def check_pbw_normal_words() -> str:
    rules = downup_rules(Params(1, 1, 1))
    words = 0
    for length in range(9):
        for letters in itertools.product("du", repeat=length):
            normal = rules.find_redex(letters) is None
            assert normal == _pbw_shape(letters), letters
            words += 1
    rng = random.Random(101)
    for _ in range(50):
        params = _random_params(rng)
        for _, residual in critical_pairs(downup_rules(params), 6):
            assert not residual, params
    return f"{words} words up to length 8, 50 parameter draws"


def _random_pbw(rng) -> PBWElem:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, 4)
        j = rng.randint(0, (8 - i) // 2)
        k = rng.randint(0, 8 - i - 2 * j)
        terms[(i, j, k)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return PBWElem({key: value for key, value in terms.items() if value})


def check_omega_roundtrip() -> str:
    rng = random.Random(103)
    roundtrips = 0
    while roundtrips < 500:
        params = _random_params(rng, beta_zero=True)
        element = _random_pbw(rng)
        assert omega_to_pbw(pbw_to_omega(element, params), params) == element, params
        roundtrips += 1
    omega = NcPoly.letter(DWU, OMEGA)
    d = NcPoly.letter(DWU, "d")
    u = NcPoly.letter(DWU, "u")
    closures = 0
    for _ in range(25):
        params = _random_params(rng, beta_zero=True)
        rules = omega_rules(params)
        assert not reduce(d * omega, rules)
        assert not reduce(omega * u, rules)
        for n in range(2, 5):
            factors = []
            for _ in range(n):
                left = u ** rng.randint(0, 2)
                right = d ** rng.randint(0, 2)
                factors.append(left * omega ** rng.randint(1, 2) * right)
            product = factors[0]
            for factor in factors[1:]:
                product = product * factor
            assert ideal_power_membership(product, n, params), (params, n)
            closures += 1
    return f"{roundtrips} roundtrips of degree <= 8, {closures} ideal-power products"


def check_bimodule_action_formula() -> str:
    rng = random.Random(107)
    compared = 0
    for _ in range(20):
        alpha = Fraction(0)
        while alpha in (0, 1):
            alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        params = Params(alpha, 0, Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        unit = Params(alpha, 0, 1)
        identity = omega_coords(
            NcPoly.monomial(DWU, (OMEGA, "d", "u")), unit
        )
        assert identity == OmegaElem({(0, 2, 0): 1, (0, 1, 0): 1}), alpha
        for i in range(7):
            for l in range(7):
                word = ("u",) * i + (OMEGA,) + ("d",) * l
                basis = NcPoly.monomial(DWU, word)
                right = bimod_class(basis * NcPoly.letter(DWU, "u"), params)
                assert right == bimod_action_formula(i, l, "right", params), (params, i, l)
                left = bimod_class(NcPoly.letter(DWU, "d") * basis, params)
                assert left == bimod_action_formula(i, l, "left", params), (params, i, l)
                compared += 2
    return f"{compared} formula/direct comparisons, identity at gamma = 1"


def check_resolution_complex() -> str:
    rng = random.Random(109)
    checked = 0
    for index in range(50):
        params = _random_params(rng, beta_zero=index < 10)
        assert not apply_d2(apply_d3(BimoduleElement.generator(3, "d2u2"), params), params)
        for tag in ("d2u", "du2"):
            image = apply_d2(BimoduleElement.generator(2, tag), params)
            assert not apply_d1(image, params)
        checked += 1
    return f"{checked} parameter draws including beta != 0"


def check_tor_table() -> str:
    rng = random.Random(113)
    trivial = OneDimModule(0, 0)
    pairs = 0
    for _ in range(100):
        gamma = Fraction(0)
        while gamma == 0:
            gamma = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        params = Params(1, 0, gamma)
        assert enumerate_one_dim(params, 50) == [trivial]
        assert tor_profile(trivial, trivial, params).dims[1] == 0
        pairs += 1
    for regime in ("diagonal", "axes"):
        regime_pairs = 0
        attained = False
        for _ in range(10):
            alpha = Fraction(1)
            while alpha == 1:
                alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if regime == "diagonal":
                gamma = Fraction(0)
                while gamma == 0:
                    gamma = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                params = Params(alpha, 0, gamma)
                bound = 1
            else:
                params = Params(alpha, 0, 0)
                bound = 2
            modules = enumerate_one_dim(params, 11)
            for t1 in modules:
                for t2 in modules:
                    tor1 = tor_profile(t1, t2, params).dims[1]
                    assert tor1 <= bound, (params, t1, t2)
                    attained = attained or tor1 == bound
                    regime_pairs += 1
            if regime == "axes":
                assert tor_profile(trivial, trivial, params).dims[1] == 2
                for module in modules:
                    if module != trivial:
                        assert tor_profile(module, module, params).dims[1] == 1, module
        assert regime_pairs >= 100 and attained, regime
        pairs += regime_pairs
    return f"{pairs} module pairs across the three regimes"


CLASSIFIER_TABLE = [
    ((1, 2, 0), (Fraction(-1, 2), Fraction(1, 2), 0), True, "parameter swap"),
    ((3, 0, 5), (3, 0, 7), True, "gamma rescaling"),
    ((3, 0, 0), (Fraction(1, 3), 0, 0), False, "alpha mismatch"),
    ((2, -1, 0), (2, -1, 5), False, "gamma class"),
    ((2, 0, 1), (Fraction(1, 2), 0, 1), False, "alpha mismatch"),
    ((2, 0, 1), (2, 0, 1), True, "identical parameters"),
    ((2, 1, 3), (2, 1, 3), True, "identical parameters"),
    ((2, 0, 1), (2, 1, 1), False, "noetherian dichotomy"),
    ((0, 0, 0), (0, 1, 0), False, "noetherian dichotomy"),
    ((2, 1, 5), (2, 1, 0), False, "gamma class"),
    ((1, 2, 0), (1, 2, 7), False, "gamma class"),
    ((2, 0, 0), (2, 0, 3), False, "gamma class"),
    ((1, 2, 3), (Fraction(-1, 2), Fraction(1, 2), 9), True, "parameter swap"),
    ((1, 2, 3), (1, 2, 8), True, "gamma rescaling"),
    ((1, 2, 0), (1, 3, 0), False, "parameter mismatch"),
    ((1, 2, 4), (Fraction(-1, 2), Fraction(1, 3), 4), False, "parameter mismatch"),
    ((0, 2, 0), (0, Fraction(1, 2), 0), True, "parameter swap"),
    ((4, 0, 0), (4, 0, 0), True, "identical parameters"),
    ((4, 0, 9), (4, 0, Fraction(9, 2)), True, "gamma rescaling"),
    ((4, 0, 9), (5, 0, 9), False, "alpha mismatch"),
    ((1, 0, 0), (1, 0, 2), False, "gamma class"),
    ((2, -1, 0), (-2, -1, 0), False, "parameter mismatch"),
    ((2, -1, 5), (2, -1, 10), True, "gamma rescaling"),
    ((3, 2, 0), (Fraction(-3, 2), Fraction(1, 2), 0), True, "parameter swap"),
    ((3, 2, 1), (Fraction(-3, 2), Fraction(1, 2), 0), False, "gamma class"),
    ((5, 0, 1), (5, 0, 1), True, "identical parameters"),
    ((0, 0, 0), (1, 0, 0), False, "alpha mismatch"),
    ((Fraction(1, 2), Fraction(1, 2), 0), (-1, 2, 0), True, "parameter swap"),
    ((1, 1, 1), (1, 1, 2), True, "gamma rescaling"),
    ((7, 0, 3), (7, 3, 3), False, "noetherian dichotomy"),
]


def check_classifier_truth_table() -> str:
    assert len(CLASSIFIER_TABLE) == 30
    for left, right, expected, rule in CLASSIFIER_TABLE:
        p, q = Params(*left), Params(*right)
        verdict = iso_verdict(p, q)
        assert verdict.isomorphic == expected, (left, right)
        assert verdict.rule == rule, (left, right, verdict.rule)
        assert iso_verdict(q, p).isomorphic == expected, (left, right)
    assert is_monomial(Params(0, 0, 0))
    for triple in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 0), (2, 0, 1)):
        assert not is_monomial(Params(*triple)), triple
    return "30 pairs, all seven clauses exercised, monomial only at the zero triple"


def _graded_dims_by_both_counts(summand) -> list[int]:
    """Graded dimensions to degree 6, asserted equal by standard monomials and the span oracle."""
    relations = summand.relation_polys()
    direct = [summand_graded_dim(summand, n) for n in range(7)]
    filtered = [span_filtered_dim(relations, 2, n, 4) for n in range(7)]
    oracle = [filtered[0]] + [filtered[n] - filtered[n - 1] for n in range(1, 7)]
    assert direct == oracle
    return direct


def check_abelianization_dimensions() -> str:
    for alpha in (2, 3, Fraction(-1, 2)):
        pres = abelianization(Params(alpha, 0, 0))
        assert len(pres.summands) == 1
        assert _graded_dims_by_both_counts(pres.summands[0]) == [1, 2, 3, 2, 2, 2, 2], alpha
    for alpha in (2, 3):
        invariants = abelian_invariants(abelianization(Params(alpha, 0, 1)))
        assert invariants["summand_count"] == 2, alpha
        assert invariants["units_finite_dimensional"] is False, alpha
    quiver = Quiver(("e",), (("d", "e", "e"), ("u", "e", "e")))
    algebra = MonomialAlgebra(quiver, (("d", "d", "u"), ("d", "u", "u")))
    pres = monomial_abelianization(algebra)
    assert str(pres) == "K[X_d,X_u]/(X_d^2*X_u, X_d*X_u^2)"
    _graded_dims_by_both_counts(pres.summands[0])
    return "graded dimensions to degree 6, split flags, quiver presentation"


def check_lambda_recursion() -> str:
    assert lambda_sequence(2, 1) == [2, Fraction(4, 3)]
    rng = random.Random(127)
    seen = 0
    while seen < 50:
        alpha = Fraction(rng.randint(-40, 40), rng.randint(1, 15))
        if alpha in (0, 1, -1):
            continue
        values = lambda_sequence(alpha, 20)
        assert values[0] == alpha
        assert all(value != 0 for value in values)
        seen += 1
    return "50 sampled alpha values, 21 terms each, all nonzero"


CHECKS = [
    ("pbw-normal-words", check_pbw_normal_words),
    ("omega-roundtrip", check_omega_roundtrip),
    ("bimodule-action-formula", check_bimodule_action_formula),
    ("resolution-complex", check_resolution_complex),
    ("tor-table", check_tor_table),
    ("classifier-truth-table", check_classifier_truth_table),
    ("abelianization-dimensions", check_abelianization_dimensions),
    ("lambda-recursion", check_lambda_recursion),
]


def run_check(name: str) -> CheckResult:
    table = dict(CHECKS)
    if name not in table:
        raise KeyError(f"unknown check {name!r}")
    start = time.perf_counter()
    try:
        detail = table[name]()
        passed = True
    except Exception as err:  # a failing property must not abort the suite
        detail = f"{type(err).__name__}: {err}"
        passed = False
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def run_all() -> list[CheckResult]:
    return [run_check(name) for name, _ in CHECKS]
