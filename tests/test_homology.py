"""Tests for the bimodule resolution and Tor profiles of one-dimensional modules."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from downup.algebra import Params, pbw_normal_form
from downup.errors import DomainError
from downup.expr import DU, PBW, NcPoly
from downup.homology import (
    STAGE_TAGS,
    BimoduleElement,
    OneDimModule,
    TorProfile,
    _generator_image,
    apply_d1,
    apply_d2,
    apply_d3,
    closed_form_matrices,
    enumerate_one_dim,
    tor_matrices,
    tor_profile,
    tor1_bound,
)
from downup.linalg import rank


def random_params(rng, beta_zero=False):
    def frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    return Params(frac(), 0 if beta_zero else frac(), frac())


def test_d1_on_a_generator():
    p = Params(2, 0, 1)
    image = apply_d1(BimoduleElement.generator(1, "d"), p)
    expected = BimoduleElement(
        0, {(("d",), "", ()): Fraction(1), ((), "", ("d",)): Fraction(-1)}
    )
    assert image == expected


def test_d2_in_the_monomial_case_keeps_only_plain_summands():
    p = Params(0, 0, 0)
    image = apply_d2(BimoduleElement.generator(2, "d2u"), p)
    expected = BimoduleElement(
        1,
        {
            ((), "d", ("d", "u")): Fraction(1),
            (("d",), "d", ("u",)): Fraction(1),
            (("d", "d"), "u", ()): Fraction(1),
        },
    )
    assert image == expected


def test_d3_with_beta_zero_has_two_terms():
    p = Params(2, 0, 1)
    image = apply_d3(BimoduleElement.generator(3, "d2u2"), p)
    expected = BimoduleElement(
        2,
        {(("d",), "du2", ()): Fraction(1), ((), "d2u", ("u",)): Fraction(-1)},
    )
    assert image == expected


def test_composites_vanish_for_random_parameters():
    rng = random.Random(71)
    for _ in range(50):
        p = random_params(rng)
        assert not apply_d2(apply_d3(BimoduleElement.generator(3, "d2u2"), p), p)
        for tag in ("d2u", "du2"):
            assert not apply_d1(apply_d2(BimoduleElement.generator(2, tag), p), p)


def test_stage_mismatch_is_rejected():
    p = Params(1, 1, 1)
    with pytest.raises(DomainError):
        apply_d1(BimoduleElement.generator(2, "d2u"), p)
    with pytest.raises(DomainError):
        apply_d2(BimoduleElement.generator(1, "d"), p)
    with pytest.raises(DomainError):
        apply_d3(BimoduleElement.generator(2, "du2"), p)
    with pytest.raises(DomainError):
        BimoduleElement(1, {((), "d2u2", ()): Fraction(1)})
    with pytest.raises(DomainError):
        BimoduleElement(4, {})


def test_module_validity_equations():
    p = Params(2, 0, 1)
    assert OneDimModule(0, 0).satisfies(p)
    assert OneDimModule(1, -1).satisfies(p)
    assert not OneDimModule(1, 1).satisfies(p)
    assert OneDimModule(3, 5).satisfies(Params(1, 0, 0))
    assert not OneDimModule(1, 1).satisfies(Params(1, 0, 1))


def test_module_parsing_rejects_exponents():
    assert OneDimModule.parse(" 1/2 , -3 ") == OneDimModule(Fraction(1, 2), -3)
    assert OneDimModule.parse("0.5,0") == OneDimModule(Fraction(1, 2), 0)
    for text in ("1e5,0", "0,1E5"):
        with pytest.raises(DomainError, match="not a rational literal"):
            OneDimModule.parse(text)


def test_enumerate_trivial_regime_is_a_single_module():
    assert enumerate_one_dim(Params(1, 0, 1), 50) == [OneDimModule(0, 0)]


def test_enumerate_starts_at_zero_and_stays_valid():
    rng = random.Random(13)
    for _ in range(20):
        p = random_params(rng, beta_zero=True)
        modules = enumerate_one_dim(p, 25)
        assert modules[0] == OneDimModule(0, 0)
        assert len(modules) == len(set(modules))
        for m in modules:
            assert m.satisfies(p)
            for value in (m.delta, m.mu):
                assert abs(value.numerator) <= 400 and value.denominator <= 400


def test_enumerate_stops_when_the_axes_run_out_of_modules():
    p = Params(2, 0, 0)
    assert enumerate_one_dim(p, 1022) == enumerate_one_dim(p, 1021)


def test_enumerate_is_deterministic_and_finds_the_diagonal_witness():
    p = Params(2, 0, 1)
    first = enumerate_one_dim(p, 40)
    assert first == enumerate_one_dim(p, 40)
    assert OneDimModule(1, -1) in first
    assert all(m.delta * m.mu == -1 for m in first if m != OneDimModule(0, 0))


def test_profile_of_the_trivial_pair_at_gamma_zero():
    p = Params(2, 0, 0)
    k = OneDimModule(0, 0)
    assert tor_profile(k, k, p).dims == (1, 2, 2, 1)


def test_profile_collapses_when_alpha_is_one_and_gamma_nonzero():
    p = Params(1, 0, 1)
    k = OneDimModule(0, 0)
    assert tor_profile(k, k, p).dims == (1, 0, 0, 1)


def test_profile_of_a_nontrivial_self_pair():
    p = Params(2, 0, 0)
    t = OneDimModule(1, 0)
    assert tor_profile(t, t, p).dims == (1, 1, 0, 0)


def test_tor0_detects_equality_of_modules():
    rng = random.Random(37)
    for _ in range(15):
        p = random_params(rng, beta_zero=True)
        modules = enumerate_one_dim(p, 8)
        for t1 in modules:
            for t2 in modules:
                profile = tor_profile(t1, t2, p)
                assert profile.dims[0] == (1 if t1 == t2 else 0)
                total = profile.dims[0] - profile.dims[1] + profile.dims[2] - profile.dims[3]
                assert total == 0


def test_closed_forms_match_the_collapsed_differentials():
    rng = random.Random(41)
    checked = 0
    while checked < 20:
        p = random_params(rng, beta_zero=True)
        modules = enumerate_one_dim(p, 6)
        t1, t2 = rng.choice(modules), rng.choice(modules)
        assert tor_matrices(t1, t2, p) == closed_form_matrices(t1, t2, p)
        checked += 1


def test_profile_rejects_invalid_input():
    p = Params(2, 0, 1)
    with pytest.raises(DomainError):
        tor_profile(OneDimModule(1, 1), OneDimModule(0, 0), p)
    with pytest.raises(DomainError):
        tor_profile(OneDimModule(0, 0), OneDimModule(0, 0), Params(2, 1, 1))
    with pytest.raises(DomainError):
        closed_form_matrices(OneDimModule(0, 0), OneDimModule(0, 0), Params(2, 1, 1))
    with pytest.raises(DomainError):
        TorProfile((1, 1, 0, 1))
    with pytest.raises(DomainError):
        TorProfile((2, 2, 1, 1))


def test_tor1_bound_by_regime():
    assert tor1_bound(Params(2, 0, 1), 40) == 1
    assert tor1_bound(Params(1, 0, 1), 40) == 0
    assert tor1_bound(Params(2, 0, 0), 20) == 2
    assert tor1_bound(Params(1, 0, 0), 20) == 2
    with pytest.raises(DomainError):
        tor1_bound(Params(2, 1, 1), 10)


GRID = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(3), Fraction(1, 3),
        Fraction(-2)]


def test_tor1_bound_equals_the_all_pairs_maximum():
    for alpha in GRID:
        for gamma in GRID:
            p = Params(alpha, 0, gamma)
            tor1 = {}
            for samples in (1, 2, 3, 7, 40):
                modules = enumerate_one_dim(p, samples)
                for t1 in modules:
                    for t2 in modules:
                        if (t1, t2) not in tor1:
                            tor1[t1, t2] = tor_profile(t1, t2, p).dims[1]
                brute = max(tor1[t1, t2] for t1 in modules for t2 in modules)
                assert tor1_bound(p, samples) == brute, (p, samples)


RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def module_pairs(draw):
    """A beta = 0 triple and two valid modules, drawn from its module variety."""
    alpha = draw(st.one_of(st.just(Fraction(1)), RATIONALS))
    gamma = draw(st.one_of(st.just(Fraction(0)), RATIONALS))
    p = Params(alpha, 0, gamma)
    s = 1 - alpha

    def module():
        delta, mu = draw(RATIONALS), draw(RATIONALS)
        if s == 0:
            return OneDimModule(delta, mu) if gamma == 0 else OneDimModule(0, 0)
        if gamma == 0:
            return OneDimModule(delta, 0) if draw(st.booleans()) else OneDimModule(0, mu)
        return OneDimModule(delta, gamma / (s * delta)) if delta else OneDimModule(0, 0)

    return p, module(), module()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(module_pairs())
def test_distinct_modules_never_have_tor1_above_one(case):
    p, t1, t2 = case
    assert t1.satisfies(p) and t2.satisfies(p)
    assume(t1 != t2)
    assert tor_profile(t1, t2, p).dims[1] <= 1


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(module_pairs())
def test_nontrivial_modules_have_tor1_at_least_one_with_themselves(case):
    p, t, _ = case
    assume(t != OneDimModule(0, 0))
    assert tor_profile(t, t, p).dims[1] >= 1


NONZERO = RATIONALS.filter(bool)


@st.composite
def beta_module_pairs(draw):
    """A beta != 0 triple whose valid modules lie on the axes, a hyperbola or
    the plane, and two valid modules, each the origin or a point of that shape."""
    shape = draw(st.sampled_from(("axes", "hyperbola", "plane")))
    beta = draw(NONZERO)
    if shape == "plane":
        alpha = 1 - beta
    else:
        alpha = draw(RATIONALS)
        assume(alpha + beta != 1)
    gamma = draw(NONZERO) if shape == "hyperbola" else Fraction(0)
    p = Params(alpha, beta, gamma)
    s = 1 - alpha - beta

    def module():
        if draw(st.integers(0, 3)) == 0:
            return OneDimModule(0, 0)
        delta, mu = draw(NONZERO), draw(NONZERO)
        if shape == "plane":
            return OneDimModule(delta, mu)
        if shape == "axes":
            return OneDimModule(delta, 0) if draw(st.booleans()) else OneDimModule(0, mu)
        return OneDimModule(delta, gamma / (s * delta))

    return p, module(), module()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(beta_module_pairs())
def test_collapsed_complex_at_nonzero_beta(case):
    p, t1, t2 = case
    assert t1.satisfies(p) and t2.satisfies(p)
    f0, f1, f2 = tor_matrices(t1, t2, p)
    assert [[sum(f0[0][k] * f1[k][j] for k in range(2)) for j in range(2)]] == [[0, 0]]
    assert [sum(f1[i][k] * f2[k][0] for k in range(2)) for i in range(2)] == [0, 0]
    d1, m1, d2, m2, b = t1.delta, t1.mu, t2.delta, t2.mu, p.beta
    assert f0 == [[d2 - d1, m2 - m1]]
    assert f2 == [[-m1 - b * m2], [d2 + b * d1]]


def test_module_parsing():
    assert OneDimModule.parse("1,-1") == OneDimModule(1, -1)
    assert OneDimModule.parse(" 2/3 , 0 ") == OneDimModule(Fraction(2, 3), 0)
    with pytest.raises(DomainError):
        OneDimModule.parse("1")
    with pytest.raises(DomainError):
        OneDimModule.parse("1,x")


def test_element_rendering():
    p = Params(2, 0, 1)
    image = apply_d3(BimoduleElement.generator(3, "d2u2"), p)
    assert str(image) == "-1(x)d^2*u(x)u + d(x)d*u^2(x)1"
    assert str(BimoduleElement(0, {})) == "0"
    fractional = BimoduleElement(1, {(("u",), "d", ("d", "d")): Fraction(3, 2)})
    assert str(fractional) == "3/2*u(x)d(x)d^2"
    negative = BimoduleElement(1, {((), "u", ()): Fraction(-2), (("d",), "d", ()): Fraction(1)})
    assert str(negative) == "-2*1(x)u(x)1 + d(x)d(x)1"
    assert repr(fractional) == "BimoduleElement(1, {(('u',), 'd', ('d', 'd')): Fraction(3, 2)})"


def test_public_constructor_sums_equal_keys_and_drops_zeros():
    # the string legs "d" and "" name the same key as ("d",) and ()
    cancelled = BimoduleElement(1, {("d", "u", ""): 2, (("d",), "u", ()): -2, ((), "d", ()): 0})
    assert cancelled.terms == {} and not cancelled
    summed = BimoduleElement(1, {("d", "u", ""): "1/2", (("d",), "u", ()): 1})
    assert summed.terms == {(("d",), "u", ()): Fraction(3, 2)}
    with pytest.raises(DomainError, match="tag 'd2u' does not belong to stage 1"):
        BimoduleElement.build(1, [(1, (), "d2u", ())], Params(1, 0, 0))
    with pytest.raises(DomainError, match="stage must be 0..3, got 4"):
        BimoduleElement.build(4, [], Params(1, 0, 0))


def build_normalizing_every_leg(stage, parts, params):
    """`BimoduleElement.build` as it reads when every leg goes through
    `pbw_normal_form`, PBW words included: the reference for the short cut."""
    terms = {}
    for coeff, left, tag, right in parts:
        coeff = Fraction(coeff)
        if not coeff:
            continue
        left_nf = pbw_normal_form(NcPoly.monomial(DU, left), params).to_ncpoly().terms
        right_nf = pbw_normal_form(NcPoly.monomial(DU, right), params).to_ncpoly().terms
        for lword, lc in left_nf.items():
            for rword, rc in right_nf.items():
                key = (lword, tag, rword)
                terms[key] = terms.get(key, Fraction(0)) + coeff * lc * rc
    return BimoduleElement(stage, terms)


LEGS = st.lists(st.sampled_from("du"), max_size=4).map(tuple)


@st.composite
def build_cases(draw):
    """A triple (beta != 0 allowed), a stage and parts whose legs have length
    0-4, so legs that are PBW words and legs that are not both occur."""
    p = Params(draw(RATIONALS), draw(RATIONALS), draw(RATIONALS))
    stage = draw(st.integers(0, 3))
    part = st.tuples(
        st.one_of(st.just(Fraction(0)), RATIONALS),
        LEGS,
        st.sampled_from(STAGE_TAGS[stage]),
        LEGS,
    )
    return p, stage, draw(st.lists(part, max_size=6))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(build_cases())
def test_build_matches_normalizing_every_leg(case):
    p, stage, parts = case
    assert BimoduleElement.build(stage, parts, p) == build_normalizing_every_leg(stage, parts, p)


def test_generator_images_have_only_pbw_legs():
    rng = random.Random(43)
    for p in [Params(0, 0, 0), Params(2, 0, 1)] + [random_params(rng) for _ in range(10)]:
        for stage in (1, 2, 3):
            for tag in STAGE_TAGS[stage]:
                for _, left, _, right in _generator_image(stage, tag, p):
                    assert PBW.key(left) is not None and PBW.key(right) is not None


def test_profile_names_the_first_invalid_module():
    p = Params(2, 0, 1)
    bad, good = OneDimModule(1, 1), OneDimModule(1, -1)
    cases = [
        (bad, bad, "t1 = (1, 1) is not a valid one-dimensional module"),
        (bad, good, "t1 = (1, 1) is not a valid one-dimensional module"),
        (good, bad, "t2 = (1, 1) is not a valid one-dimensional module"),
    ]
    for t1, t2, message in cases:
        with pytest.raises(DomainError) as caught:
            tor_profile(t1, t2, p)
        assert str(caught.value) == message


@st.composite
def modules_of_every_kind(draw):
    """A triple and a module that is the origin, on an axis, on the hyperbola
    s*delta*mu = gamma, or an arbitrary (mostly invalid) pair."""
    p = Params(draw(st.one_of(st.just(Fraction(1)), RATIONALS)),
               draw(st.one_of(st.just(Fraction(0)), RATIONALS)),
               draw(st.one_of(st.just(Fraction(0)), RATIONALS)))
    s = 1 - p.alpha - p.beta
    kind = draw(st.sampled_from(("origin", "d-axis", "u-axis", "hyperbola", "any")))
    delta, mu = draw(NONZERO), draw(NONZERO)
    if kind == "origin":
        return p, OneDimModule(0, 0)
    if kind == "d-axis":
        return p, OneDimModule(delta, 0)
    if kind == "u-axis":
        return p, OneDimModule(0, mu)
    if kind == "hyperbola" and s:
        return p, OneDimModule(delta, p.gamma / (s * delta))
    return p, OneDimModule(delta, mu)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(modules_of_every_kind())
def test_satisfies_is_the_two_product_definition(case):
    p, t = case
    slack = (1 - p.alpha - p.beta) * t.delta * t.mu - p.gamma
    assert t.satisfies(p) == (t.delta * slack == 0 and t.mu * slack == 0)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(module_pairs())
def test_profile_dims_are_the_ranks_of_the_closed_forms(case):
    p, t1, t2 = case
    r0, r1, r2 = (rank(f) for f in closed_form_matrices(t1, t2, p))
    assert tor_profile(t1, t2, p).dims == (1 - r0, 2 - r0 - r1, 2 - r1 - r2, 1 - r2)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: enumerate_one_dim(Params(2, 0, 1), 0),
                     "samples must be a positive integer", id="no-samples"),
        pytest.param(lambda: TorProfile((1, -1, 0, 0)),
                     "profile needs four nonnegative dimensions", id="negative-dimension"),
    ],
)
def test_rejections_name_their_cause(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message
