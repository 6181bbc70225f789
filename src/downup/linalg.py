"""Exact linear algebra over the rationals."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import DomainError


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix of exact scalars, by fraction-free elimination.

    Rows are scaled to integers first (scaling never changes the rank), then
    reduced with the division-free pivot update whose intermediate entries
    stay integral.
    """
    matrix: list[list[int]] = []
    ncols = None
    for row in rows:
        exact = [entry if isinstance(entry, Fraction) else Fraction(entry) for entry in row]
        if ncols is None:
            ncols = len(exact)
        elif len(exact) != ncols:
            raise DomainError("ragged matrix")
        scale = lcm(*(value.denominator for value in exact))
        matrix.append([value.numerator * (scale // value.denominator) for value in exact])
    if not matrix or ncols == 0:
        return 0
    r = 0
    prev = 1
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(matrix)) if matrix[i][col]), None)
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        pivot = matrix[r][col]
        base = matrix[r]
        for i in range(r + 1, len(matrix)):
            row_i = matrix[i]
            factor = row_i[col]
            new_row = []
            for j in range(ncols):
                numerator = pivot * row_i[j] - factor * base[j]
                quotient, remainder = divmod(numerator, prev)
                if remainder:
                    raise AssertionError("fraction-free update lost exactness")
                new_row.append(quotient)
            matrix[i] = new_row
        prev = pivot
        r += 1
        if r == len(matrix):
            break
    return r
