"""Tests for type tags, isomorphism verdicts, monomiality, and the witness sequence."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from downup.algebra import Params
from downup.classify import (
    DownUpType,
    invariant_report,
    is_monomial,
    iso_verdict,
    lambda_sequence,
    type_of,
)
from downup.errors import DomainError


def sample_params(rng, beta_zero=False):
    def frac():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    return Params(frac(), 0 if beta_zero else frac(), frac())


def test_type_table():
    assert type_of(Params(2, -1, 0)) is DownUpType.A
    assert type_of(Params(0, 0, 0)) is DownUpType.B
    assert type_of(Params(2, -1, 5)) is DownUpType.C
    assert type_of(Params(2, 0, 1)) is DownUpType.D
    assert str(type_of(Params(1, 0, 0))) == "a"


def test_swap_pair_is_isomorphic():
    verdict = iso_verdict(Params(1, 2, 0), Params(Fraction(-1, 2), Fraction(1, 2), 0))
    assert verdict.isomorphic
    assert verdict.rule == "parameter swap"
    assert "-1/2" in verdict.detail


def test_nonzero_gamma_rescales_freely():
    verdict = iso_verdict(Params(3, 0, 5), Params(3, 0, 7))
    assert verdict.isomorphic
    assert verdict.rule == "gamma rescaling"
    assert "5/7" in verdict.detail


def test_alpha_separates_beta_zero_algebras():
    verdict = iso_verdict(Params(3, 0, 0), Params(Fraction(1, 3), 0, 0))
    assert not verdict.isomorphic
    assert verdict.rule == "alpha mismatch"
    assert not iso_verdict(Params(2, 0, 1), Params(Fraction(1, 2), 0, 1)).isomorphic


def test_gamma_class_separates():
    verdict = iso_verdict(Params(2, -1, 0), Params(2, -1, 5))
    assert not verdict.isomorphic
    assert verdict.rule == "gamma class"


def test_noetherian_dichotomy_short_circuits():
    verdict = iso_verdict(Params(2, 0, 1), Params(2, 1, 1))
    assert not verdict.isomorphic
    assert verdict.rule == "noetherian dichotomy"


def test_noetherian_pair_with_plain_parameter_mismatch():
    verdict = iso_verdict(Params(1, 2, 0), Params(1, 3, 0))
    assert not verdict.isomorphic
    assert verdict.rule == "parameter mismatch"


def test_verdicts_are_reflexive_and_symmetric_on_a_grid():
    rng = random.Random(97)
    triples = [sample_params(rng, beta_zero=rng.random() < 0.5) for _ in range(200)]
    for p in triples:
        reflexive = iso_verdict(p, p)
        assert reflexive.isomorphic and reflexive.rule == "identical parameters"
        assert reflexive.detail
    for _ in range(200):
        p, q = rng.choice(triples), rng.choice(triples)
        forward, backward = iso_verdict(p, q), iso_verdict(q, p)
        assert forward.isomorphic == backward.isomorphic
        if forward.isomorphic:
            assert forward.detail and backward.detail


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
RATIONALS = st.fractions(-4, 4, max_denominator=4)
NONZERO = RATIONALS.filter(bool)
MAYBE_ZERO = st.one_of(st.just(0), RATIONALS)
PARAMS = st.builds(Params, RATIONALS, MAYBE_ZERO, MAYBE_ZERO)


def isomorphic_move(p, scale):
    """A gamma rescaling by a nonzero scale, or the swap (scale None) when beta != 0."""
    if scale is None:
        return Params(-p.alpha / p.beta, 1 / p.beta, p.gamma) if p.beta else p
    return Params(p.alpha, p.beta, p.gamma * scale)


@PROPERTY
@given(PARAMS, st.lists(st.one_of(st.none(), NONZERO), min_size=2, max_size=4), PARAMS)
def test_verdicts_are_transitive_along_rescalings_and_swaps(p, scales, other):
    chain = [p]
    for scale in scales:
        chain.append(isomorphic_move(chain[-1], scale))
    assert all(iso_verdict(q, r).isomorphic for q, r in zip(chain, chain[1:]))
    assert all(iso_verdict(p, r).isomorphic for r in chain)
    # an isomorphism class is one class: every member gets the same verdict against any other
    assert len({iso_verdict(r, other).isomorphic for r in chain}) == 1


@PROPERTY
@given(PARAMS, NONZERO)
def test_gamma_rescaling_names_its_scale(p, scale):
    q = isomorphic_move(p, scale)
    verdict = iso_verdict(p, q)
    if p == q:
        assert verdict.rule == "identical parameters"
    else:
        assert verdict.rule == "gamma rescaling"
        assert verdict.detail == f"gamma scale {1 / scale}"


def test_monomiality_is_the_zero_triple_only():
    assert is_monomial(Params(0, 0, 0))
    assert not is_monomial(Params(1, 0, 0))
    assert not is_monomial(Params(2, -1, 0))
    assert not is_monomial(Params(0, 0, Fraction(1, 7)))


def test_report_certifies_tor_bound_mismatch():
    report = invariant_report(Params(1, 0, 1), Params(2, 0, 1))
    assert report["left"]["tor1_bound"] == 0
    assert report["right"]["tor1_bound"] == 1
    assert "tor1_bound" in report["mismatches"]
    assert report["certifies_non_isomorphism"]


def test_report_certifies_connectedness_mismatch():
    report = invariant_report(Params(2, 0, 0), Params(2, 0, 1))
    assert report["left"]["abelian"]["connected"] is True
    assert report["right"]["abelian"]["connected"] is False
    assert report["certifies_non_isomorphism"]


def test_report_is_refutation_only():
    report = invariant_report(Params(2, 0, 0), Params(2, 0, 0))
    assert report["mismatches"] == []
    assert not report["certifies_non_isomorphism"]
    # same invariants, different alpha: the report alone cannot separate them
    subtle = invariant_report(Params(2, 0, 1), Params(Fraction(1, 2), 0, 1))
    assert not subtle["certifies_non_isomorphism"]
    with pytest.raises(DomainError):
        invariant_report(Params(1, 1, 1), Params(1, 0, 1))


def test_report_agrees_with_the_verdict_on_a_grid():
    rng = random.Random(11)
    triples = [sample_params(rng, beta_zero=True) for _ in range(12)]
    for p in triples:
        for q in triples:
            verdict = iso_verdict(p, q)
            report = invariant_report(p, q, samples=12)
            if verdict.isomorphic:
                assert not report["certifies_non_isomorphism"], (p, q)
            direct_mismatch = (
                report["left"]["type"] != report["right"]["type"]
                or report["left"]["tor1_bound"] != report["right"]["tor1_bound"]
                or report["left"]["abelian"]["connected"]
                != report["right"]["abelian"]["connected"]
            )
            if not verdict.isomorphic and direct_mismatch:
                assert report["certifies_non_isomorphism"], (p, q)


def test_lambda_sequence_start_and_recursion():
    values = lambda_sequence(2, 3)
    assert values[0] == 2
    assert values[1] == Fraction(4, 3)
    assert values[2] == values[1] * 2 * (2 - 1) / (2**3 - 1)
    assert len(values) == 4


def test_lambda_sequence_rejects_degenerate_alpha():
    for bad in (0, 1, -1):
        with pytest.raises(DomainError):
            lambda_sequence(bad, 5)
    with pytest.raises(DomainError):
        lambda_sequence(2, -1)


def test_lambda_sequence_is_nonzero_for_sampled_alpha():
    rng = random.Random(23)
    seen = 0
    while seen < 50:
        alpha = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if alpha in (0, 1, -1):
            continue
        values = lambda_sequence(alpha, 20)
        assert all(v != 0 for v in values)
        seen += 1
