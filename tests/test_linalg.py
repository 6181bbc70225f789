"""Tests for exact rank computation."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from downup.errors import DomainError
from downup.linalg import rank


def gauss_rank(rows):
    """Independent plain-Fraction elimination used as an oracle."""
    matrix = [[Fraction(e) for e in row] for row in rows]
    if not matrix:
        return 0
    r = 0
    for col in range(len(matrix[0])):
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][col]), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        for i in range(r + 1, len(matrix)):
            if matrix[i][col]:
                f = matrix[i][col] / matrix[r][col]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        r += 1
        if r == len(matrix):
            break
    return r


def test_rank_of_simple_matrices():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1


def test_rank_rejects_ragged_input():
    with pytest.raises(DomainError):
        rank([[1, 2], [1]])
    with pytest.raises(DomainError):
        rank([["1/2", Fraction(3)], ["1/3"]])


def test_rank_of_vandermonde_blocks():
    points = [Fraction(k, 3) for k in range(5)]
    rows = [[x**j for j in range(5)] for x in points]
    assert rank(rows) == 5
    rows_deficient = [[x**j for j in range(5)] for x in points[:3]] * 2
    assert rank(rows_deficient) == 3


def test_rank_matches_plain_elimination_on_random_matrices():
    rng = random.Random(61)
    for _ in range(40):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(n)]
            for _ in range(m)
        ]
        if rng.random() < 0.5 and m > 1:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[m // 2])]
        assert rank(rows) == gauss_rank(rows)
        assert rank(list(map(list, zip(*rows)))) == gauss_rank(rows)


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

ENTRIES = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
    st.just(0),
)


@st.composite
def matrices(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = [[draw(ENTRIES) for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        # a dependent row, so deficient ranks are common
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        rows[-1] = [c * Fraction(a) + Fraction(b) for a, b in zip(rows[0], rows[m // 2])]
    return rows


@PROPERTY
@given(matrices())
def test_rank_agrees_with_sympy(rows):
    expected = sympy.Matrix([[sympy.Rational(str(entry)) for entry in row] for row in rows]).rank()
    assert rank(rows) == expected
    assert rank(list(map(list, zip(*rows)))) == expected
