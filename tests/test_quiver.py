"""Tests for quivers, monomial path algebras, and their abelianizations."""

import pytest

from downup.errors import DomainError
from downup.quiver import (
    MonomialAlgebra,
    Quiver,
    load_monomial_algebra,
    monomial_abelianization,
    monomial_algebra_from_json,
    parse_quiver_text,
)
from downup.quotients import span_filtered_dim, summand_graded_dim


def one_vertex_two_loops():
    quiver = Quiver(("e",), (("d", "e", "e"), ("u", "e", "e")))
    return MonomialAlgebra(quiver, (("d", "d", "u"), ("d", "u", "u")))


def arrow_tor_table(algebra):
    """Entry (e, e2) counts the arrows with target e and source e2."""
    table = {
        (e, e2): 0
        for e in sorted(algebra.quiver.vertices)
        for e2 in sorted(algebra.quiver.vertices)
    }
    for _, source, target in algebra.quiver.arrows:
        table[(target, source)] += 1
    return table


def test_monomial_downup_abelianization():
    pres = monomial_abelianization(one_vertex_two_loops())
    assert str(pres) == "K[X_d,X_u]/(X_d^2*X_u, X_d*X_u^2)"
    assert len(pres.summands) == 1


def test_monomial_downup_graded_dims_match_a_span_oracle():
    pres = monomial_abelianization(one_vertex_two_loops())
    summand = pres.summands[0]
    relations = summand.relation_polys()
    direct = [summand_graded_dim(summand, n) for n in range(7)]
    filtered = [span_filtered_dim(relations, 2, n, 4) for n in range(7)]
    oracle = [filtered[0]] + [filtered[n] - filtered[n - 1] for n in range(1, 7)]
    assert direct == oracle
    assert direct == [1, 2, 3, 2, 2, 2, 2]


def test_vertices_without_loops_become_fields():
    quiver = Quiver(("a", "b"), (("f", "a", "b"),))
    pres = monomial_abelianization(MonomialAlgebra(quiver, ()))
    assert str(pres) == "K (+) K"
    assert len(pres.summands) == 2


def test_single_free_loop_gives_a_polynomial_ring():
    quiver = Quiver(("e",), (("a", "e", "e"),))
    pres = monomial_abelianization(MonomialAlgebra(quiver, ()))
    assert str(pres) == "K[X_a]"


def test_mixed_relation_paths_do_not_reach_the_loop_summand():
    quiver = Quiver(
        ("a", "b"),
        (("p", "a", "a"), ("f", "a", "b"), ("g", "b", "a")),
    )
    algebra = MonomialAlgebra(quiver, (("f", "p"), ("p", "p", "p")))
    pres = monomial_abelianization(algebra)
    assert str(pres) == "K[X_p]/(X_p^3) (+) K"


def test_arrow_table_counts_by_target_and_source():
    quiver = Quiver(
        ("a", "b"),
        (("p", "a", "a"), ("f", "a", "b"), ("g", "a", "b"), ("h", "b", "a")),
    )
    table = arrow_tor_table(MonomialAlgebra(quiver, ()))
    assert table == {
        ("a", "a"): 1,
        ("a", "b"): 1,
        ("b", "a"): 2,
        ("b", "b"): 0,
    }


def test_arrow_table_of_the_downup_quiver():
    table = arrow_tor_table(one_vertex_two_loops())
    assert table == {("e", "e"): 2}


def test_quiver_validation():
    with pytest.raises(DomainError):
        Quiver((), ())
    with pytest.raises(DomainError):
        Quiver(("e", "e"), ())
    with pytest.raises(DomainError):
        Quiver(("e",), (("a", "e", "x"),))
    with pytest.raises(DomainError):
        Quiver(("e",), (("a", "e", "e"), ("a", "e", "e")))


def test_relation_validation():
    quiver = Quiver(("a", "b"), (("f", "a", "b"), ("g", "b", "a")))
    MonomialAlgebra(quiver, (("g", "f"),))
    with pytest.raises(DomainError):
        MonomialAlgebra(quiver, (("f",),))
    with pytest.raises(DomainError):
        MonomialAlgebra(quiver, (("f", "f"),))
    with pytest.raises(DomainError):
        MonomialAlgebra(quiver, (("f", "x"),))


def test_flat_text_parsing_round_trip():
    text = """
    # two loops on one vertex
    vertex e
    arrow d e e
    arrow u e e
    relation d d u
    relation d u u
    """
    algebra = parse_quiver_text(text)
    assert algebra == one_vertex_two_loops()
    with pytest.raises(DomainError):
        parse_quiver_text("vertex e\nloop d e e")


def test_json_parsing_accepts_both_arrow_forms():
    flat = load_monomial_algebra(
        '{"vertices": ["e"], "arrows": [["d", "e", "e"], ["u", "e", "e"]],'
        ' "relations": [["d", "d", "u"], ["d", "u", "u"]]}'
    )
    objs = monomial_algebra_from_json(
        {
            "vertices": ["e"],
            "arrows": [
                {"id": "d", "source": "e", "target": "e"},
                {"id": "u", "source": "e", "target": "e"},
            ],
            "relations": [["d", "d", "u"], ["d", "u", "u"]],
        }
    )
    assert flat == objs == one_vertex_two_loops()
    with pytest.raises(DomainError):
        load_monomial_algebra("{not json")
    with pytest.raises(DomainError):
        monomial_algebra_from_json({"arrows": []})


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices": 5}',
        '{"vertices": ["e"], "arrows": [5]}',
        '{"vertices": ["e"], "relations": 5}',
        '{"vertices": ["e"], "relations": [5]}',
    ],
)
def test_malformed_json_quivers_are_domain_errors(text):
    with pytest.raises(DomainError):
        load_monomial_algebra(text)


def test_summand_count_matches_vertex_count():
    quiver = Quiver(
        ("a", "b", "c"),
        (("p", "a", "a"), ("q", "b", "b"), ("f", "a", "c")),
    )
    pres = monomial_abelianization(MonomialAlgebra(quiver, (("p", "p"),)))
    assert len(pres.summands) == len(quiver.vertices)
    assert str(pres) == "K[X_p]/(X_p^2) (+) K[X_q] (+) K"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: monomial_algebra_from_json([]),
                     "quiver description must be a JSON object", id="not-an-object"),
        pytest.param(lambda: one_vertex_two_loops().quiver.loops_at("nope"),
                     "unknown vertex 'nope'", id="unknown-vertex"),
    ],
)
def test_rejections_name_their_cause(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message
