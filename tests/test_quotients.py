"""Tests for quantum quotients and abelianizations."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from downup.algebra import Params, ideal_power_membership, omega_poly
from downup.errors import DomainError
from downup.expr import DU, YX, NcPoly, parse
from downup.linalg import rank
from downup.quiver import MonomialAlgebra, Quiver, monomial_abelianization
from downup.quotients import (
    AbelianPresentation,
    QElem,
    QuantumAlgebra,
    Summand,
    abelian_invariants,
    abelianization,
    c_str,
    commutative_overlap_residuals,
    monomials_up_to,
    orient_relations,
    presentation_kills,
    project,
    q_normal_form,
    quantum_plane,
    quantum_weyl,
    reduce_commutative,
    span_filtered_dim,
    summand_filtered_dim,
    summand_graded_dim,
)


def q_mul(a, b, qa):
    return q_normal_form(a.to_ncpoly() * b.to_ncpoly(), qa)


def commutative_image(p, variables):
    """Abelianize: send each word to the product of its letters as commuting variables."""
    index = {name: pos for pos, name in enumerate(variables)}
    if set(p.alphabet.letters) - set(variables):
        raise DomainError("polynomial uses letters outside the variable list")
    out = {}
    for word, coeff in p.terms.items():
        mon = [0] * len(variables)
        for letter in word:
            mon[index[letter]] += 1
        key = tuple(mon)
        total = out.get(key, Fraction(0)) + coeff
        if total:
            out[key] = total
        else:
            del out[key]
    return out


def random_du_poly(rng, max_degree, n_terms):
    terms = {}
    for _ in range(n_terms):
        length = rng.randint(0, max_degree)
        word = tuple(rng.choice("du") for _ in range(length))
        terms[word] = Fraction(rng.randint(-5, 5), rng.choice([1, 2]))
    return NcPoly(DU, terms)


def random_qelem(rng, max_degree, n_terms):
    terms = {}
    for _ in range(n_terms):
        i = rng.randint(0, max_degree // 2)
        l = rng.randint(0, max_degree // 2)
        terms[(i, l)] = Fraction(rng.randint(-5, 5), rng.choice([1, 2]))
    return QElem(terms)


def test_quantum_normal_form_examples():
    assert q_normal_form(parse("y*x", YX), quantum_plane(5)) == QElem({(1, 1): 5})
    assert q_normal_form(parse("y^2*x", YX), quantum_weyl(3)) == QElem(
        {(1, 2): 9, (0, 1): 4}
    )
    fixed = parse("x^2*y^3", YX)
    assert q_normal_form(fixed, quantum_weyl(7)) == QElem({(2, 3): 1})
    assert str(q_normal_form(parse("y^2*x", YX), quantum_weyl(3))) == "9*x*y^2 + 4*y"


def test_quantum_algebra_rejects_alpha_zero():
    with pytest.raises(DomainError):
        quantum_plane(0)
    with pytest.raises(DomainError):
        QuantumAlgebra(Fraction(0), Fraction(1))


def test_quantum_products_of_nonzero_elements_are_nonzero():
    rng = random.Random(67)
    for _ in range(12):
        alpha = Fraction(0)
        while alpha == 0:
            alpha = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        qa = QuantumAlgebra(alpha, Fraction(rng.choice([0, 1])))
        a = random_qelem(rng, 6, 3)
        b = random_qelem(rng, 6, 3)
        if a and b:
            assert q_mul(a, b, qa)


def test_projection_examples():
    for gamma in (0, 1):
        params = Params(3, 0, gamma)
        assert project(omega_poly(params), params) == QElem({})
    assert project(parse("d^2*u", DU), Params(3, 0, 0)) == QElem({(1, 2): 9})
    assert project(parse("d*u", DU), Params(4, 0, 1)) == QElem({(1, 1): 4, (0, 0): 1})


def test_projection_parameter_gates():
    p = parse("d*u", DU)
    with pytest.raises(DomainError):
        project(p, Params(2, 1, 0))
    with pytest.raises(DomainError):
        project(p, Params(0, 0, 1))
    with pytest.raises(DomainError):
        project(p, Params(2, 0, 5))


def test_projection_is_an_algebra_map():
    rng = random.Random(71)
    for _ in range(50):
        alpha = Fraction(0)
        while alpha == 0:
            alpha = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        params = Params(alpha, 0, rng.choice([0, 1]))
        qa = QuantumAlgebra(params.alpha, params.gamma)
        p = random_du_poly(rng, 4, 3)
        q = random_du_poly(rng, 4, 3)
        assert project(p * q, params) == q_mul(project(p, params), project(q, params), qa)


def test_projection_kernel_is_the_omega_ideal():
    rng = random.Random(73)
    for _ in range(30):
        alpha = Fraction(0)
        while alpha == 0:
            alpha = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        params = Params(alpha, 0, rng.choice([0, 1]))
        p = random_du_poly(rng, 6, 3)
        if rng.random() < 0.5:
            p = random_du_poly(rng, 2, 2) * omega_poly(params) * random_du_poly(rng, 2, 2)
        in_kernel = not project(p, params)
        assert in_kernel == ideal_power_membership(p, 1, params)


def test_abelianization_case_analysis():
    assert str(abelianization(Params(3, 0, 0))) == "K[d,u]/(-2*d^2*u, -2*d*u^2)"
    assert str(abelianization(Params(1, 0, 0))) == "K[d,u]"
    assert str(abelianization(Params(2, 0, 1))) == "K (+) K[d,u]/(-d*u - 1)"
    assert str(abelianization(Params(1, 0, 5))) == "K"
    assert (
        str(abelianization(Params(2, 3, 4)))
        == "K[d,u]/(-4*d^2*u - 4*d, -4*d*u^2 - 4*u)"
    )
    assert str(abelianization(Params(-1, 2, 0))) == "K[d,u]"
    assert str(abelianization(Params(-1, 2, 3))) == "K"


def test_abelian_invariants_flags():
    assert abelian_invariants(abelianization(Params(3, 0, 0))) == {
        "connected": True,
        "units_finite_dimensional": True,
        "summand_count": 1,
    }
    assert abelian_invariants(abelianization(Params(2, 0, 1))) == {
        "connected": False,
        "units_finite_dimensional": False,
        "summand_count": 2,
    }
    assert abelian_invariants(abelianization(Params(1, 0, 5))) == {
        "connected": True,
        "units_finite_dimensional": True,
        "summand_count": 1,
    }
    assert abelian_invariants(abelianization(Params(2, 3, 4))) == {
        "connected": True,
        "units_finite_dimensional": False,
        "summand_count": 1,
    }


def test_every_abelianization_builds_as_a_groebner_presentation():
    values = (0, 1, 2, -1, Fraction(1, 2), 3, Fraction(-1, 3))
    for a, b, g in itertools.product(values, repeat=3):
        abelianization(Params(a, b, g))  # a refused summand raises DomainError


def test_commuted_relations_vanish_in_the_presentation():
    rng = random.Random(79)
    for _ in range(20):
        a = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        b = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        g = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        params = Params(a, b, g)
        pres = abelianization(params)
        r1 = parse("d^2*u", DU) - parse("d*u*d", DU).scaled(a) - parse(
            "u*d^2", DU
        ).scaled(b) - parse("d", DU).scaled(g)
        r2 = parse("d*u^2", DU) - parse("u*d*u", DU).scaled(a) - parse(
            "u^2*d", DU
        ).scaled(b) - parse("u", DU).scaled(g)
        for relation in (r1, r2):
            assert presentation_kills(pres, commutative_image(relation, ("d", "u")))


def test_commutative_rules_are_confluent_to_degree_eight():
    for params in (
        Params(3, 0, 0),
        Params(2, 0, 1),
        Params(2, 3, 4),
        Params(-1, Fraction(1, 2), -2),
    ):
        for summand in abelianization(params).summands:
            if summand.is_field or not summand.relations:
                continue
            rules = orient_relations(summand.relation_polys())
            assert commutative_overlap_residuals(rules, 2, 8) == []


def test_overlap_residual_of_a_non_confluent_rule_set():
    rules = orient_relations([{(2, 0): 1, (0, 1): -1}, {(1, 1): 1, (0, 0): -1}])  # d^2 = u, du = 1
    assert commutative_overlap_residuals(rules, 2, 3) == [((2, 1), {(1, 0): 1, (0, 2): -1})]


def test_reduce_commutative_on_a_principal_ideal():
    rules = orient_relations([{(1, 1): 1, (0, 0): -3}])  # du = 3
    assert reduce_commutative({(2, 2): Fraction(1)}, rules) == {(0, 0): Fraction(9)}
    assert reduce_commutative({(3, 1): Fraction(2)}, rules) == {(2, 0): Fraction(6)}


def test_monomial_counts_and_rendering():
    assert len(monomials_up_to(2, 6)) == 28
    assert len([m for m in monomials_up_to(3, 4) if sum(m) == 4]) == 15
    assert c_str({(2, 1): Fraction(-2), (1, 0): Fraction(-4)}, ("d", "u")) == (
        "-2*d^2*u - 4*d"
    )
    assert c_str({}, ("d", "u")) == "0"


def test_graded_dimensions_of_the_monomial_case():
    summand = abelianization(Params(3, 0, 0)).summands[0]
    assert [summand_graded_dim(summand, n) for n in range(7)] == [1, 2, 3, 2, 2, 2, 2]
    assert [summand_filtered_dim(summand, n) for n in range(7)] == [
        1,
        3,
        6,
        8,
        10,
        12,
        14,
    ]
    free = abelianization(Params(1, 0, 0)).summands[0]
    assert [summand_graded_dim(free, n) for n in range(5)] == [1, 2, 3, 4, 5]
    mixed = abelianization(Params(2, 0, 1)).summands[1]
    with pytest.raises(DomainError):
        summand_graded_dim(mixed, 2)
    field = Summand.field()
    assert [summand_graded_dim(field, n) for n in range(5)] == [1, 0, 0, 0, 0]
    assert [summand_filtered_dim(field, n) for n in range(5)] == [1, 1, 1, 1, 1]


def test_filtered_dimensions_match_the_span_oracle():
    # general-beta presentation against the brute-force span computation
    params = Params(2, 3, 4)
    summand = abelianization(params).summands[0]
    relations = summand.relation_polys()
    for n in range(7):
        expected = summand_filtered_dim(summand, n)
        assert span_filtered_dim(relations, 2, n, 3) == expected
        assert span_filtered_dim(relations, 2, n, 5) == expected


def inclusion_exclusion_filtered_dim(relations, nvars, n, slack):
    """The span oracle by dim(V & W) = dim V + dim W - dim(V + W), with W the
    polynomials of degree <= n given by one identity row per monomial."""
    ambient = monomials_up_to(nvars, n + slack)
    products = []
    for rel in relations:
        for mon in ambient:
            shifted = {tuple(a + b for a, b in zip(mon, m)): c for m, c in rel.items()}
            if all(sum(m) <= n + slack for m in shifted):
                products.append([shifted.get(m, 0) for m in ambient])
    low = [[int(m == mon) for m in ambient] for mon in ambient if sum(mon) <= n]
    intersection = rank(products) + len(low) - rank(products + low)
    return len(low) - intersection


@st.composite
def relation_sets(draw):
    nvars = draw(st.integers(1, 3))
    monomial = st.tuples(*[st.integers(0, 2)] * nvars)
    coeff = st.fractions(-3, 3, max_denominator=3).filter(bool)
    relation = st.dictionaries(monomial, coeff, min_size=1, max_size=3)
    return draw(st.lists(relation, min_size=1, max_size=3)), nvars


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(relation_sets(), st.integers(0, 4), st.integers(0, 3))
def test_span_oracle_agrees_with_inclusion_exclusion(case, n, slack):
    # random sets are mostly not Groebner bases, so standard monomials would not do
    relations, nvars = case
    expected = inclusion_exclusion_filtered_dim(relations, nvars, n, slack)
    assert span_filtered_dim(relations, nvars, n, slack) == expected


def test_span_oracle_refuses_a_relation_of_the_wrong_arity():
    with pytest.raises(DomainError, match="relation arity does not match the variables"):
        span_filtered_dim([{(1, 1, 1): 1}], 2, 2, 1)
    with pytest.raises(DomainError, match="relation arity does not match the variables"):
        span_filtered_dim([{(1,): 1}], 2, 2, 1)


def test_counts_read_the_rules_that_poly_oriented(monkeypatch):
    presentations = {
        triple: abelianization(Params(*triple))
        for triple in ((2, 3, 4), (2, 0, 0), (2, 0, 1), (Fraction(1, 3), 2, 0))
    }
    quiver = Quiver(("e",), (("d", "e", "e"), ("u", "e", "e")))
    algebra = MonomialAlgebra(quiver, (("d", "d", "u"), ("d", "u", "u")))
    presentations["two loops"] = monomial_abelianization(algebra)

    def no_orientation(relations):
        raise AssertionError("relations oriented again after Summand.poly")

    monkeypatch.setattr("downup.quotients.orient_relations", no_orientation)
    filtered = [1, 3, 6, 8, 10, 12, 14]
    graded = [1, 2, 3, 2, 2, 2, 2]
    cubic_monomials = ([filtered], [graded])
    expected = {
        (2, 3, 4): ([filtered], [None]),
        (2, 0, 0): cubic_monomials,
        (2, 0, 1): ([[1] * 7, [1, 3, 5, 7, 9, 11, 13]], [[1] + [0] * 6, None]),
        (Fraction(1, 3), 2, 0): cubic_monomials,
        "two loops": cubic_monomials,
    }
    polys = [
        {(2, 1): 1},
        {(1, 1): 1, (0, 0): 1},
        {(1, 1): -1, (0, 0): -1},
        {(0, 0): 1},
        {(3, 0): 1},
        {(2, 1): -1, (1, 0): -1},
        {(1, 2): 1},
        {(4, 4): 1},
    ]
    monomial_kills = [True, False, False, False, False, False, True, True]
    kills = {
        (2, 3, 4): [False] * 5 + [True, False, False],
        (2, 0, 1): [False] * 5 + [True, False, False],
    }
    for key, pres in presentations.items():
        filtered_dims, graded_dims = expected[key]
        for summand, filtered, graded in zip(pres.summands, filtered_dims, graded_dims):
            hash(summand)
            assert "rules" not in repr(summand)
            assert [summand_filtered_dim(summand, n) for n in range(7)] == filtered, key
            if graded is None:
                with pytest.raises(DomainError, match="homogeneous"):
                    summand_graded_dim(summand, 2)
            else:
                assert [summand_graded_dim(summand, n) for n in range(7)] == graded, key
        killed = [presentation_kills(pres, p) for p in polys]
        assert killed == kills.get(key, monomial_kills), key


def test_split_presentation_matches_the_unsplit_ideal():
    # K (+) K[d,u]/(-du - 1) at (2,0,1) against the raw two-relation ideal.
    # The splitting idempotent has degree 2, so the summand-sum only matches
    # the ideal-side filtration from n = 2 onward.
    params = Params(2, 0, 1)
    pres = abelianization(params)
    raw = [
        {(2, 1): Fraction(-1), (1, 0): Fraction(-1)},
        {(1, 2): Fraction(-1), (0, 1): Fraction(-1)},
    ]
    true_dims = [span_filtered_dim(raw, 2, n, 4) for n in range(7)]
    assert true_dims == [1, 3, 6, 8, 10, 12, 14]
    assert [span_filtered_dim(raw, 2, n, 6) for n in range(7)] == true_dims
    for n in range(2, 7):
        summed = sum(summand_filtered_dim(s, n) for s in pres.summands)
        assert summed == true_dims[n] == 2 * n + 2


def test_summand_validation():
    with pytest.raises(DomainError):
        Summand.poly(("d", "u"), [{}])
    with pytest.raises(DomainError):
        Summand.poly(("d", "u"), [{(1, 1, 1): Fraction(1)}])
    # d^2 - u, du - 1: the S-polynomial d - u^2 is irreducible, and standard
    # monomials would give filtered dimensions 1, 3, 4, 5, 6 instead of 1, 3, 3, 3, 3
    with pytest.raises(DomainError, match="not a Groebner basis"):
        Summand.poly(("d", "u"), [{(2, 0): 1, (0, 1): -1}, {(1, 1): 1, (0, 0): -1}])
    with pytest.raises(DomainError, match="share a leading monomial"):
        Summand.poly(("d", "u"), [{(1, 1): 1, (0, 0): -1}, {(1, 1): 2, (1, 0): 1}])
    assert Summand.field().is_field
    assert str(AbelianPresentation((Summand.field(), Summand.field()))) == "K (+) K"


MONOMIAL = Summand.poly(("d", "u"), [{(1, 1): 1}])


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: span_filtered_dim([{(1, 0): 0}], 2, 1, 1),
                     "relation polynomial must be nonzero", id="span-zero-relation"),
        pytest.param(lambda: span_filtered_dim([{(1, 0): 1}], 2, -1, 1),
                     "degree and slack must be nonnegative", id="span-negative-degree"),
        pytest.param(lambda: span_filtered_dim([{(1, 0): 1}], 2, 1, -1),
                     "degree and slack must be nonnegative", id="span-negative-slack"),
        pytest.param(lambda: Summand.poly(("d", "u"), [{(1, 1): 0}]),
                     "relation polynomial must be nonzero", id="summand-zero-relation"),
        pytest.param(lambda: orient_relations([{(2, 0): 1}, {(1, 0): 0}]),
                     "zero relation cannot be oriented", id="orient-zero-relation"),
        pytest.param(lambda: summand_filtered_dim(MONOMIAL, -1),
                     "degree bound must be nonnegative", id="filtered-negative-degree"),
        pytest.param(lambda: summand_graded_dim(MONOMIAL, -1),
                     "degree must be nonnegative", id="graded-negative-degree"),
        pytest.param(lambda: project(parse("x", YX), Params(2, 0, 1)),
                     "expected a polynomial over the letters d, u", id="project-alphabet"),
        pytest.param(lambda: q_normal_form(parse("d", DU), quantum_plane(2)),
                     "expected a polynomial over the letters x, y", id="qnf-alphabet"),
    ],
)
def test_rejections_name_their_cause(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_monomials_come_by_degree_then_lexicographically():
    for nvars, degree in itertools.product(range(1, 5), range(9)):
        monomials = monomials_up_to(nvars, degree)
        assert len(set(monomials)) == len(monomials) == math.comb(degree + nvars, nvars)
        assert monomials == sorted(monomials, key=lambda mon: (sum(mon), mon))
        assert all(len(mon) == nvars and sum(mon) <= degree for mon in monomials)


def test_monomial_lists_of_small_cases():
    assert monomials_up_to(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert monomials_up_to(3, 1) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
