"""The int64 rank kernel: agreement with the bigint reference, overflow escalation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rauzylab import kernels

matrices = st.integers(1, 5).flatmap(
    lambda c: st.lists(
        st.lists(st.integers(-50, 50), min_size=c, max_size=c), min_size=1, max_size=5
    )
)


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_backends_agree(rows):
    # the int64 kernel against the bigint reference elimination
    r_int64 = kernels.rank_int64(np.array(rows, dtype=np.int64))
    r_big = kernels._bareiss_rank_bigint([list(r) for r in rows])
    assert r_int64 == r_big


def test_overflow_sentinel_and_escalation():
    near_guard = kernels._GUARD - 1
    rows = [[near_guard, near_guard - 1], [near_guard - 2, near_guard - 5]]
    a = np.array(rows, dtype=np.int64)
    assert kernels.rank_int64(a.copy()) == kernels.OVERFLOW
    # the dispatcher must escalate and still give the exact answer
    assert kernels.exact_integer_rank(rows) == 2


def test_unguarded_input_is_rejected_up_front():
    over = np.array([[kernels._GUARD + 1]], dtype=np.int64)
    assert kernels.rank_int64(over.copy()) == kernels.OVERFLOW
    assert kernels.exact_integer_rank([[kernels._GUARD + 1]]) == 1


def test_exact_rank_beyond_int64():
    big = 2**80
    assert kernels.exact_integer_rank([[big, big], [big, big]]) == 1
    assert kernels.exact_integer_rank([[big, 0], [1, big]]) == 2


def test_empty_and_zero_matrices():
    assert kernels.exact_integer_rank([]) == 0
    assert kernels.exact_integer_rank([[0, 0], [0, 0]]) == 0


def test_column_skipping_zero_columns():
    rows = [[0, 1, 2], [0, 2, 4], [0, 0, 1]]
    assert kernels.exact_integer_rank(rows) == 2


def test_wide_and_tall_shapes():
    wide = np.array([[1, 2, 3, 4, 5]], dtype=np.int64)
    tall = wide.T.copy()
    assert kernels.rank_int64(wide.copy()) == 1
    assert kernels.rank_int64(tall.copy()) == 1
