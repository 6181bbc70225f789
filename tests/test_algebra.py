"""Tests for down-up algebra arithmetic and the omega-basis calculus."""

import random
from fractions import Fraction

import pytest

from downup.algebra import (
    BimodClass,
    OmegaElem,
    Params,
    PBWElem,
    _next_du_power,
    _next_omega_power,
    _power_nf,
    _power_table,
    bimod_action_formula,
    bimod_class,
    downup_rules,
    geometric_sum,
    ideal_power_membership,
    omega_coords,
    omega_poly,
    omega_rules,
    omega_to_pbw,
    pbw_normal_form,
    pbw_to_omega,
)
from downup.errors import DomainError
from downup.expr import DU, DWU, OMEGA, YX, NcPoly, parse
from downup.quotients import QuantumAlgebra, q_rules


def random_beta_zero_params(rng, alpha_not_one=False):
    while True:
        alpha = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        if not (alpha_not_one and alpha == 1):
            break
    gamma = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
    return Params(alpha, 0, gamma)


def random_du_poly(rng, max_degree, n_terms):
    terms = {}
    for _ in range(n_terms):
        length = rng.randint(0, max_degree)
        word = tuple(rng.choice("du") for _ in range(length))
        terms[word] = Fraction(rng.randint(-5, 5), rng.choice([1, 2]))
    return NcPoly(DU, terms)


def basis_word(i, j, l):
    return NcPoly.monomial(DWU, ("u",) * i + (OMEGA,) * j + ("d",) * l)


def test_params_parsing_and_coercion():
    p = Params.parse("2,-1/3,0")
    assert p == Params(2, Fraction(-1, 3), 0)
    assert isinstance(p.alpha, Fraction)
    with pytest.raises(DomainError):
        Params.parse("1,2")
    with pytest.raises(DomainError):
        Params.parse("1,x,3")
    assert Params.parse("2,-1/3,5") == Params(2, Fraction(-1, 3), 5)
    assert Params.parse(" 1/2 , 0 , 3 ") == Params(Fraction(1, 2), 0, 3)
    assert Params.parse("0.5,0,1") == Params(Fraction(1, 2), 0, 1)
    for text in ("1e5,0,0", "0,1E5,0"):
        with pytest.raises(DomainError, match="not a rational literal"):
            Params.parse(text)


def test_pbw_normal_form_of_relation_words():
    assert pbw_normal_form(parse("d^2*u", DU), Params(0, 0, 0)) == PBWElem({})
    assert pbw_normal_form(parse("d*u*d", DU), Params(9, -2, 4)) == PBWElem({(0, 1, 1): 1})
    assert pbw_normal_form(parse("d*u*u*d", DU), Params(3, 0, 2)) == PBWElem(
        {(1, 1, 1): 3, (1, 0, 1): 2}
    )


def test_omega_coordinates_of_du():
    p = pbw_to_omega(PBWElem({(0, 1, 0): 1}), Params(2, 0, 5))
    assert p == OmegaElem({(0, 1, 0): 1, (1, 0, 1): 2, (0, 0, 0): 5})


def test_omega_conjugate_of_du_at_gamma_one():
    # omega*d*u collapses to omega^2 + omega whenever gamma = 1
    for alpha in (2, -3, Fraction(1, 2)):
        coords = omega_coords(basis_word(0, 1, 0) * parse("d*u", DWU), Params(alpha, 0, 1))
        assert coords == OmegaElem({(0, 2, 0): 1, (0, 1, 0): 1})


def test_omega_basis_words_are_fixed_points():
    coords = omega_coords(basis_word(2, 1, 3), Params(7, 0, -2))
    assert coords == OmegaElem({(2, 1, 3): 1})


def test_omega_to_pbw_of_omega_itself():
    p = omega_to_pbw(OmegaElem({(0, 1, 0): 1}), Params(2, 0, 5))
    assert p == PBWElem({(0, 1, 0): 1, (1, 0, 1): -2, (0, 0, 0): -5})
    assert omega_to_pbw(OmegaElem({}), Params(2, 0, 5)) == PBWElem({})


def test_shifted_powers_drop_the_terms_that_cancel():
    # du - 2ud - 5 is omega: the ud and constant terms of the shifted powers cancel
    params = Params(2, 0, 5)
    omega = pbw_to_omega(PBWElem({(0, 1, 0): 1, (1, 0, 1): -2, (0, 0, 0): -5}), params)
    assert omega.terms == {(0, 1, 0): Fraction(1)}
    assert type(omega.terms[(0, 1, 0)]) is Fraction
    back = omega_to_pbw(OmegaElem({(0, 1, 0): 1, (1, 0, 1): 2, (0, 0, 0): 5}), params)
    assert back.terms == {(0, 1, 0): Fraction(1)}


ORACLE_PARAMS = (Params(1, 0, 0), Params(Fraction(-3, 2), 0, Fraction(5, 4)), Params(2, 0, 1))


def test_omega_to_pbw_matches_the_full_expansion():
    # Oracle: expand u^i * omega^j * d^l completely, then reduce once.
    for params in ORACLE_PARAMS:
        w = omega_poly(params)
        mixed = {}
        expanded = NcPoly.zero(DU)
        for j in range(7):
            power = w**j
            for i in range(3):
                for l in range(3):
                    full = NcPoly.monomial(DU, ("u",) * i) * power
                    full = full * NcPoly.monomial(DU, ("d",) * l)
                    expected = pbw_normal_form(full, params)
                    got = omega_to_pbw(OmegaElem({(i, j, l): 1}), params)
                    assert got == expected, (params, i, j, l)
                    coeff = Fraction(i - j + 1, l + 1)
                    mixed[(i, j, l)] = coeff
                    expanded = expanded + full.scaled(coeff)
        # several terms, some landing on the same PBW coordinates, at once
        assert omega_to_pbw(OmegaElem(mixed), params) == pbw_normal_form(expanded, params)


def test_cached_omega_powers_are_never_mutated():
    params = Params(Fraction(-1, 2), 0, 3)
    cached = _power_nf(params, _next_omega_power, 5)
    snapshot = dict(cached)
    element = OmegaElem({(0, 5, 0): 1, (2, 5, 1): Fraction(-7, 3), (1, 6, 0): 2})
    first = omega_to_pbw(element, params)
    for _ in range(3):
        assert omega_to_pbw(element, params) == first
        assert pbw_to_omega(first, params) == element
    assert _power_nf(params, _next_omega_power, 5) is cached
    assert cached == snapshot
    assert len(cached) == 5 + 2


def test_a_large_omega_power_has_linearly_many_terms():
    # The full expansion of omega^40 has 3^40 words; factor by factor it is cheap.
    params = Params(2, 0, 1)
    top = omega_to_pbw(OmegaElem({(0, 40, 0): 1}), params)
    assert len(top.terms) == 42
    # associativity from the other side: omega * nf(omega^39)
    below = omega_to_pbw(OmegaElem({(0, 39, 0): 1}), params).to_ncpoly()
    assert pbw_normal_form(omega_poly(params) * below, params) == top


def test_pbw_to_omega_matches_the_word_reduction():
    # oracle: reduce the word u^i (du)^j d^k with the omega rules
    for params in (Params(2, 0, 1), Params(Fraction(-1, 2), 0, 3), Params(3, 0, 0),
                   Params(1, 0, 0), Params(1, 0, 2)):
        for j in range(7):
            for i in range(3):
                for k in range(3):
                    element = PBWElem({(i, j, k): 1})
                    word = NcPoly(DWU, element.to_ncpoly().terms)
                    assert pbw_to_omega(element, params) == omega_coords(word, params), (
                        params, i, j, k)


def test_a_large_du_power_in_the_omega_basis():
    params = Params(2, 0, 1)
    element = PBWElem({(0, 40, 0): 1})
    coords = pbw_to_omega(element, params)
    assert len(coords.terms) == 41 * 42 // 2
    assert omega_to_pbw(coords, params) == element


def test_a_cold_du_power_past_64_grows_its_table_in_one_loop():
    # from a cold cache, one call fills the (du)^j table up to j = 65
    _power_table.cache_clear()
    params = Params(2, 0, 1)
    coords = pbw_to_omega(PBWElem({(0, 65, 0): 1}), params)
    assert coords.terms[(0, 65, 0)] == 1
    assert len(coords.terms) == 66 * 67 // 2 == 2211
    assert len(_power_table(params, _next_du_power)) == 66


def test_rule_caches_are_bounded():
    builders = [
        (downup_rules, lambda n: Params(n, Fraction(1, n + 1), 2)),
        (omega_rules, lambda n: Params(Fraction(n, 7), 0, -n)),
        (q_rules, lambda n: QuantumAlgebra(n + 1, 1)),
    ]
    for cached, fresh_key in builders:
        for n in range(300):
            cached(fresh_key(n))
        info = cached.cache_info()
        assert info.currsize <= info.maxsize
        for n in (0, 150, 299):
            assert cached(fresh_key(n)).rules == cached.__wrapped__(fresh_key(n)).rules


def test_omega_machinery_requires_beta_zero():
    bad = Params(1, 2, 3)
    with pytest.raises(DomainError):
        pbw_to_omega(PBWElem({(0, 1, 0): 1}), bad)
    with pytest.raises(DomainError):
        pbw_to_omega(PBWElem({}), bad)
    with pytest.raises(DomainError):
        omega_to_pbw(OmegaElem({(0, 1, 0): 1}), bad)
    with pytest.raises(DomainError):
        omega_to_pbw(OmegaElem({}), bad)
    with pytest.raises(DomainError):
        ideal_power_membership(parse("d*u", DU), 1, bad)
    with pytest.raises(DomainError):
        bimod_action_formula(1, 1, "right", bad)


def test_left_and_right_annihilation_of_omega():
    rng = random.Random(41)
    d = NcPoly.letter(DU, "d")
    u = NcPoly.letter(DU, "u")
    for _ in range(50):
        params = random_beta_zero_params(rng)
        w = omega_poly(params)
        assert pbw_normal_form(d * w, params) == PBWElem({})
        assert pbw_normal_form(w * u, params) == PBWElem({})


def test_roundtrip_through_the_omega_basis():
    rng = random.Random(43)
    for _ in range(40):
        params = random_beta_zero_params(rng)
        target = pbw_normal_form(random_du_poly(rng, 8, 4), params)
        assert omega_to_pbw(pbw_to_omega(target, params), params) == target


def test_ideal_power_membership_examples():
    params = Params(3, 0, 1)
    w = omega_poly(params)
    assert ideal_power_membership(w, 1, params) is True
    assert ideal_power_membership(w, 2, params) is False
    assert ideal_power_membership(NcPoly.letter(DU, "u"), 1, params) is False
    conjugate = basis_word(0, 1, 0) * parse("d*u", DWU) * basis_word(0, 1, 0)
    assert ideal_power_membership(conjugate, 2, params) is True
    with pytest.raises(DomainError):
        ideal_power_membership(w, 0, params)


def test_ideal_powers_close_under_products():
    rng = random.Random(47)
    for n in (2, 3, 4):
        for _ in range(4):
            params = random_beta_zero_params(rng)
            product = NcPoly.one(DWU)
            for _ in range(n):
                i, j, l = rng.randint(0, 2), rng.randint(1, 2), rng.randint(0, 2)
                product = product * basis_word(i, j, l)
            assert ideal_power_membership(product, n, params) is True


def test_bimod_class_of_basis_and_boundary_words():
    params = Params(2, 0, 1)
    assert bimod_class(basis_word(2, 1, 3), params) == BimodClass({(2, 3): 1})
    assert bimod_class(basis_word(0, 1, 1) * NcPoly.letter(DWU, "u"), params) == (
        BimodClass({(0, 0): 1})
    )
    assert bimod_class(basis_word(0, 1, 2) * NcPoly.letter(DWU, "u"), params) == (
        BimodClass({(0, 1): 3})
    )


def test_bimod_class_rejects_elements_outside_the_ideal():
    params = Params(2, 0, 1)
    with pytest.raises(DomainError):
        bimod_class(NcPoly.letter(DU, "u"), params)
    with pytest.raises(DomainError):
        bimod_class(omega_poly(params) + NcPoly.one(DU), params)


def test_action_formula_base_cases_and_gates():
    params = Params(3, 0, 1)
    assert bimod_action_formula(0, 0, "right", params) == BimodClass({})
    assert bimod_action_formula(0, 0, "left", params) == BimodClass({})
    assert bimod_action_formula(1, 1, "left", params) == BimodClass({(0, 1): 1})
    assert bimod_action_formula(0, 2, "right", Params(2, 0, 1)) == BimodClass({(0, 1): 3})
    # the coefficient scales linearly with gamma
    assert bimod_action_formula(0, 2, "right", Params(2, 0, 5)) == BimodClass({(0, 1): 15})
    with pytest.raises(DomainError):
        bimod_action_formula(1, 1, "right", Params(1, 0, 1))
    with pytest.raises(DomainError):
        bimod_action_formula(1, 1, "up", params)
    with pytest.raises(DomainError):
        bimod_action_formula(-1, 1, "right", params)


def test_action_formula_matches_direct_classes():
    rng = random.Random(53)
    d = NcPoly.letter(DWU, "d")
    u = NcPoly.letter(DWU, "u")
    for _ in range(5):
        params = random_beta_zero_params(rng, alpha_not_one=True)
        for i in range(7):
            for l in range(7):
                w = basis_word(i, 1, l)
                assert bimod_class(w * u, params) == bimod_action_formula(i, l, "right", params)
                assert bimod_class(d * w, params) == bimod_action_formula(i, l, "left", params)


def test_omega_conjugation_absorbs_inner_letters():
    rng = random.Random(59)
    for r in range(6):
        for s in range(6):
            params = random_beta_zero_params(rng)
            word = (OMEGA,) + ("d",) * r + ("u",) * s + (OMEGA,)
            coords = omega_coords(NcPoly.monomial(DWU, word), params)
            assert all(i == 0 and l == 0 and j >= 2 for (i, j, l) in coords.terms)


def test_geometric_sum_matches_closed_form():
    assert geometric_sum(2, 0) == 0
    assert geometric_sum(2, 5) == 31
    assert geometric_sum(1, 7) == 7
    alpha = Fraction(3, 2)
    assert geometric_sum(alpha, 4) == (alpha**4 - 1) / (alpha - 1)


def test_rendering_of_container_elements():
    assert str(PBWElem({(1, 1, 1): 2, (0, 0, 0): -1})) == "2*u*d*u*d - 1"
    assert str(OmegaElem({(1, 2, 0): 1})) == "u*ω^2"
    assert str(BimodClass({(0, 1): 3, (2, 0): -1})) == "-[u^2*ω] + 3*[ω*d]"
    assert str(BimodClass({})) == "0"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: pbw_normal_form(parse("x", YX), Params(2, 0, 1)),
                     "expected a polynomial over the letters d, u", id="pbw-normal-form"),
        pytest.param(lambda: omega_coords(parse("x", YX), Params(2, 0, 1)),
                     "expected a polynomial over d, u or d, omega, u", id="omega-coords"),
    ],
)
def test_wrong_alphabets_are_refused(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message
