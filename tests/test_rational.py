"""Exact integer matrix arithmetic against a plain row-reduction oracle."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rauzylab import RationalMatrix

small_matrices = st.integers(1, 6).flatmap(
    lambda c: st.lists(
        st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=1, max_size=6
    )
)


def rref_rank(rows):
    """Independent oracle: textbook Gaussian elimination over Fractions."""
    grid = [[Fraction(x) for x in row] for row in rows]
    if not grid:
        return 0
    n, m = len(grid), len(grid[0])
    rank = 0
    for col in range(m):
        pivot = next((i for i in range(rank, n) if grid[i][col] != 0), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        inv = 1 / grid[rank][col]
        grid[rank] = [x * inv for x in grid[rank]]
        for i in range(n):
            if i != rank and grid[i][col] != 0:
                f = grid[i][col]
                grid[i] = [x - f * y for x, y in zip(grid[i], grid[rank])]
        rank += 1
    return rank


def test_identity_and_zero_ranks():
    identity = RationalMatrix.from_int_rows([[int(i == j) for j in range(5)] for i in range(5)])
    assert identity.rank() == 5
    assert RationalMatrix.zeros(4, 3).rank() == 0


def test_rank_with_rational_entries():
    # entries are ints: a rational matrix is ranked with each row scaled by
    # the lcm of its denominators, which keeps the rank over Q
    def cleared(rows):
        return [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in rows]

    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]
    assert RationalMatrix(cleared(rows)).rank() == rref_rank(rows) == 2
    singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert RationalMatrix(cleared(singular)).rank() == rref_rank(singular) == 1


def test_rank_of_huge_entries_uses_bigint_path():
    big = 10**40
    m = RationalMatrix([[big, 2 * big], [1, 2]])
    assert m.rank() == 1
    m2 = RationalMatrix([[big, 0], [0, big]])
    assert m2.rank() == 2


def test_matmul_matches_fraction_arithmetic():
    a = [[1, 2, 0], [3, 4, -1]]
    b = [[2, 0], [0, 0], [1, -3]]
    expected = [[sum(Fraction(a[i][k]) * b[k][j] for k in range(3)) for j in range(2)] for i in range(2)]
    product = RationalMatrix(a) @ RationalMatrix(b)
    assert product.entries == tuple(map(tuple, expected))  # Fraction(k) == k


def test_non_integer_entries_raise():
    with pytest.raises(TypeError):
        RationalMatrix([[Fraction(1, 3), 1]])
    with pytest.raises(TypeError):
        RationalMatrix([[0.5]])


def test_matmul_int_fast_path_is_exact():
    a = RationalMatrix([[10**6, -(10**6)], [1, 1]])
    b = RationalMatrix([[10**6], [10**6]])
    assert (a @ b) == RationalMatrix([[0], [2 * 10**6]])


def test_hstack_and_equality():
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[5], [6]])
    assert a.hstack(b) == RationalMatrix([[1, 2, 5], [3, 4, 6]])
    with pytest.raises(ValueError):
        a.hstack(RationalMatrix([[1]]))


@given(small_matrices)
@settings(max_examples=120, deadline=None)
def test_rank_matches_row_reduction_oracle(rows):
    m = RationalMatrix(rows)
    expected = rref_rank(rows)
    assert m.rank() == expected


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_rank_invariant_under_transpose(rows):
    assert RationalMatrix(rows).rank() == RationalMatrix(zip(*rows)).rank()
