"""Tests for the string-rewriting engine."""

import heapq
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from downup.algebra import Params, downup_rules, omega_rules, pbw_normal_form
from downup.errors import DomainError
from downup.expr import DU, DWU, YX, Alphabet, NcPoly, parse
from downup.quotients import QuantumAlgebra, q_rules
from downup.rewrite import RewriteRule, RuleSet, _rewrite_at, critical_pairs, reduce


def all_redexes(rs, word):
    out = []
    for pos in range(len(word)):
        for rule in rs._rules_desc:
            k = len(rule.lhs)
            if word[pos : pos + k] == rule.lhs:
                out.append((pos, rule))
    return out


def reduce_random(p, rs, rng):
    """Normal form via uniformly random redex choices: a confluence diagnostic."""
    if p.alphabet != rs.alphabet:
        raise DomainError("polynomial alphabet differs from rule-set alphabet")
    current = p
    while True:
        choices = []
        for word in current.terms:
            for pos, rule in all_redexes(rs, word):
                choices.append((word, pos, rule))
        if not choices:
            return current
        word, pos, rule = rng.choice(choices)
        coeff = current.terms[word]
        step = NcPoly(rs.alphabet, {word: coeff})
        current = current - step + _rewrite_at(word, pos, rule).scaled(coeff)


def quantum_rules(alpha):
    return RuleSet(YX, (RewriteRule(("y", "x"), NcPoly(YX, {("x", "y"): alpha})),))


def random_poly(rng, alphabet, max_degree, n_terms):
    terms = {}
    for _ in range(n_terms):
        length = rng.randint(0, max_degree)
        word = tuple(rng.choice(alphabet.letters) for _ in range(length))
        terms[word] = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
    return NcPoly(alphabet, terms)


def random_params(rng, beta_zero=False):
    def pick():
        return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))

    return Params(pick(), Fraction(0) if beta_zero else pick(), pick())


def test_reduce_rewrites_leading_relation_word():
    p = parse("d^2*u", DU)
    assert reduce(p, downup_rules(Params(2, -1, 0))) == parse("2*d*u*d - u*d^2", DU)
    assert reduce(p, downup_rules(Params(1, 1, 1))) == parse("d*u*d + u*d^2 + d", DU)


def test_reduce_keeps_normal_words():
    p = parse("d*u", DU)
    assert reduce(p, downup_rules(Params(5, 7, -3))) == p
    q = parse("u^2*d*u*d^3", DU)
    assert reduce(q, downup_rules(Params(-2, 3, 9))) == q


def test_reduce_drops_degree_through_gamma_term():
    p = parse("d*u^2*d", DU)
    assert reduce(p, downup_rules(Params(0, 0, 1))) == parse("u*d", DU)


def test_reduce_rejects_alphabet_mismatch():
    with pytest.raises(DomainError):
        reduce(parse("y*x", YX), downup_rules(Params(1, 0, 0)))


def test_ruleset_rejects_bad_rules():
    with pytest.raises(DomainError):
        RuleSet(DU, (RewriteRule((), NcPoly.one(DU)),))
    with pytest.raises(DomainError):
        RuleSet(
            DU,
            (
                RewriteRule(("d", "u"), NcPoly.zero(DU)),
                RewriteRule(("d", "u"), NcPoly.one(DU)),
            ),
        )
    # ud -> du increases the deglex order, so the rule set must be refused
    with pytest.raises(DomainError):
        RuleSet(DU, (RewriteRule(("u", "d"), parse("d*u", DU)),))
    with pytest.raises(DomainError):
        RuleSet(DU, (RewriteRule(("d", "u"), NcPoly.one(YX)),))


def test_reduce_is_idempotent_on_random_input():
    rng = random.Random(23)
    for _ in range(12):
        rs = downup_rules(random_params(rng))
        p = random_poly(rng, DU, 8, 4)
        once = reduce(p, rs)
        assert reduce(once, rs) == once


def test_reduce_is_a_ring_congruence():
    rng = random.Random(29)
    for _ in range(8):
        rs = downup_rules(random_params(rng))
        p = random_poly(rng, DU, 4, 3)
        q = random_poly(rng, DU, 4, 3)
        assert reduce(p * q, rs) == reduce(reduce(p, rs) * reduce(q, rs), rs)
        assert reduce(p + q, rs) == reduce(reduce(p, rs) + reduce(q, rs), rs)


def test_random_strategy_reaches_the_same_normal_form():
    rng = random.Random(31)
    for _ in range(6):
        rule_sets = [
            (downup_rules(random_params(rng)), DU),
            (omega_rules(random_params(rng, beta_zero=True)), DWU),
            (quantum_rules(Fraction(rng.randint(-3, 3), 2)), YX),
        ]
        for rs, alphabet in rule_sets:
            p = random_poly(rng, alphabet, 8, 3)
            expected = reduce(p, rs)
            for _ in range(3):
                assert reduce_random(p, rs, rng) == expected


def test_downup_rules_have_one_overlap_and_it_resolves():
    for params in (Params(2, -1, 0), Params(1, 1, 1), Params(0, 0, 1), Params(3, -2, 5)):
        pairs = critical_pairs(downup_rules(params), 4)
        assert [word for word, _ in pairs] == [("d", "d", "u", "u")]
        assert all(not residual for _, residual in pairs)


def test_single_quantum_rule_has_no_overlaps():
    assert critical_pairs(quantum_rules(Fraction(3)), 4) == []


def test_omega_rules_resolve_all_overlaps_to_degree_six():
    for params in (Params(2, 0, 1), Params(-1, 0, 0), Params(Fraction(1, 2), 0, 3)):
        pairs = critical_pairs(omega_rules(params), 6)
        assert pairs, "expected at least one overlap ambiguity"
        assert all(not residual for _, residual in pairs)


def three_loop_critical_pairs(rs, max_degree):
    """Overlaps of each rule pair both ways, then inclusions, as three loops:
    the reference enumeration for the one-loop `critical_pairs`."""
    out = []

    def record(word, left, right):
        if len(word) <= max_degree:
            out.append((word, reduce(left - right, rs)))

    rules = list(rs.rules)
    for i, r1 in enumerate(rules):
        for j in range(i, len(rules)):
            r2 = rules[j]
            l1, l2 = tuple(r1.lhs), tuple(r2.lhs)
            for k in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - k :] == l2[:k]:
                    word = l1 + l2[k:]
                    record(word, _rewrite_at(word, 0, r1), _rewrite_at(word, len(l1) - k, r2))
                if i != j and l2[len(l2) - k :] == l1[:k]:
                    word = l2 + l1[k:]
                    record(word, _rewrite_at(word, 0, r2), _rewrite_at(word, len(l2) - k, r1))
            if i != j:
                if len(l2) < len(l1):
                    inner, outer, rin, rout = l2, l1, r2, r1
                else:
                    inner, outer, rin, rout = l1, l2, r1, r2
                for pos in range(len(outer) - len(inner) + 1):
                    if outer[pos : pos + len(inner)] == inner:
                        record(outer, _rewrite_at(outer, 0, rout), _rewrite_at(outer, pos, rin))
    return out


AB = Alphabet(("a", "b"))


@st.composite
def two_letter_rule_sets(draw):
    # lhs of length 1-4 over two letters, so one lhs often sits inside another
    lhs_words = draw(
        st.lists(st.text("ab", min_size=1, max_size=4), min_size=1, max_size=4, unique=True)
    )
    rules = []
    for lhs in lhs_words:
        shorter = st.text("ab", max_size=len(lhs) - 1).map(tuple)
        rhs = draw(st.dictionaries(shorter, st.integers(-3, 3).filter(bool), max_size=2))
        rules.append(RewriteRule(tuple(lhs), NcPoly(AB, rhs)))
    return RuleSet(AB, rules)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(two_letter_rule_sets(), st.integers(4, 8))
def test_critical_pairs_match_the_three_loop_enumeration(rs, max_degree):
    def listing(pairs):
        return sorted((word, str(residual)) for word, residual in pairs)

    expected = listing(three_loop_critical_pairs(rs, max_degree))
    assert listing(critical_pairs(rs, max_degree)) == expected


def test_critical_pairs_requires_degree_at_least_longest_lhs():
    with pytest.raises(DomainError):
        critical_pairs(downup_rules(Params(1, 0, 0)), 2)


def test_normal_words_are_exactly_the_pbw_shapes():
    rs = downup_rules(Params(2, -1, 7))
    pbw_shapes = set()
    for i in range(9):
        for j in range(5):
            for k in range(9):
                if i + 2 * j + k <= 8:
                    pbw_shapes.add(("u",) * i + ("d", "u") * j + ("d",) * k)
    normal = set()
    for length in range(9):
        for word in itertools.product("du", repeat=length):
            if rs.find_redex(word) is None:
                normal.add(word)
    assert normal == pbw_shapes


# -- reduce builds its result through the trusted constructor ------------------

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def du_polys(max_len=5, max_terms=4):
    words = st.lists(st.sampled_from(DU.letters), max_size=max_len).map(tuple)
    return st.dictionaries(words, SMALL, max_size=max_terms).map(lambda t: NcPoly(DU, t))


@PROPERTY
@given(du_polys(), du_polys(), SMALL, SMALL, SMALL)
def test_reduce_stores_only_nonzero_fractions_and_respects_products(a, b, alpha, beta, gamma):
    params = Params(alpha, beta, gamma)
    rules = downup_rules(params)
    na, nb = reduce(a, rules), reduce(b, rules)
    for normal in (na, nb, reduce(a * b, rules), reduce(a - a, rules)):
        assert normal.alphabet == DU
        for word, coeff in normal.terms.items():
            assert type(word) is tuple and set(word) <= {"d", "u"}
            assert type(coeff) is Fraction and coeff != 0
            assert rules.find_redex(word) is None
    assert not reduce(a - a, rules)
    assert pbw_normal_form(a * b, params) == pbw_normal_form(na * nb, params)
    # elements of the ideal reduce to zero, through cancellations along the way
    for rule in rules.rules:
        relation = NcPoly.monomial(DU, rule.lhs) - rule.rhs
        assert reduce(a * relation * b, rules).terms == {}


# -- integer reduce against the Fraction reference ------------------------------


def fraction_reduce(p, rs):
    """`reduce` with one Fraction operation per term touched: the reference for
    the integer version, which must follow the same heap order and rewrites."""
    def neg_key(word):
        length, ranks = rs.alphabet.word_key(word)
        return (-length, tuple(-r for r in ranks))

    result = {}
    work = dict(p.terms)
    heap = [(neg_key(w), w) for w in work]
    heapq.heapify(heap)
    while heap:
        _, word = heapq.heappop(heap)
        coeff = work.pop(word, None)
        if coeff is None:
            continue
        redex = rs.find_redex(word)
        if redex is None:
            result[word] = coeff
            continue
        pos, rule = redex
        for w2, c2 in _rewrite_at(word, pos, rule).terms.items():
            prev = work.get(w2)
            if prev is None:
                work[w2] = coeff * c2
                heapq.heappush(heap, (neg_key(w2), w2))
            else:
                total = prev + coeff * c2
                if total:
                    work[w2] = total
                else:
                    del work[w2]
    return NcPoly._trusted(rs.alphabet, result)


class CountingRules(RuleSet):
    """The same rules, counting `find_redex` calls."""

    def __init__(self, rs):
        super().__init__(rs.alphabet, rs.rules)
        self.calls = 0

    def find_redex(self, word):
        self.calls += 1
        return super().find_redex(word)


def assert_same_reduction(p, rs):
    fast, slow = CountingRules(rs), CountingRules(rs)
    out = reduce(p, fast)
    assert out.terms == fraction_reduce(p, slow).terms
    assert fast.calls == slow.calls
    for coeff in out.terms.values():
        assert type(coeff) is Fraction and coeff != 0
    return out


# denominators 1-7, negative and zero values included
RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
NONZERO = RATIONALS.filter(bool)

RULE_SETS = st.one_of(
    st.builds(lambda a, b, g: downup_rules(Params(a, b, g)), RATIONALS, RATIONALS, RATIONALS),
    st.builds(lambda a, g: omega_rules(Params(a, 0, g)), RATIONALS, RATIONALS),
    st.builds(lambda q: q_rules(QuantumAlgebra(q, 0)), NONZERO),
    st.builds(lambda q: q_rules(QuantumAlgebra(q, 1)), NONZERO),
)


@st.composite
def rules_and_input(draw):
    rs = draw(RULE_SETS)
    word = st.lists(st.sampled_from(rs.alphabet.letters), max_size=10).map(tuple)
    terms = draw(st.dictionaries(word, NONZERO, min_size=1, max_size=8))
    return rs, NcPoly(rs.alphabet, terms)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(rules_and_input())
def test_integer_reduce_matches_the_fraction_reference(case):
    rs, p = case
    assert_same_reduction(p, rs)


def test_a_word_reached_at_two_levels_cancels():
    # (ddu - rhs) * 2/3 at D = 6 and E = 9: ddu rewrites to rhs one level up, where it
    # meets the -rhs terms of level 0 and every term cancels
    rs = downup_rules(Params(Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)))
    assert rs._denominator == 6
    rule = rs._rules_desc[0]
    relation = (NcPoly.monomial(DU, rule.lhs) - rule.rhs).scaled(Fraction(2, 3))
    assert not assert_same_reduction(relation, rs)
    # the same after a left factor u, beside a normal word that survives
    shifted = NcPoly.monomial(DU, ("u",)) * relation + NcPoly(DU, {("u", "d"): Fraction(1, 9)})
    assert assert_same_reduction(shifted, rs) == NcPoly(DU, {("u", "d"): Fraction(1, 9)})
