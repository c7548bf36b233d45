"""The sparse exact rank against a dense bigint Bareiss reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from rauzylab import kernels


def _bareiss_rank_bigint(rows: list[list[int]]) -> int:
    """Dense fraction-free (Bareiss) elimination over Python ints; destroys ``rows``."""
    if not rows:
        return 0
    n, m = len(rows), len(rows[0])
    rank = 0
    prev = 1
    for col in range(m):
        if rank >= n:
            break
        piv_row = next((i for i in range(rank, n) if rows[i][col] != 0), -1)
        if piv_row < 0:
            continue
        if piv_row != rank:
            rows[rank], rows[piv_row] = rows[piv_row], rows[rank]
        piv = rows[rank][col]
        top = rows[rank]
        for i in range(rank + 1, n):
            row = rows[i]
            f = row[col]
            for j in range(col, m):
                row[j] = (piv * row[j] - f * top[j]) // prev
        prev = piv
        rank += 1
    return rank


entries = st.one_of(
    st.integers(-50, 50),
    st.sampled_from((0, 0, 0, 1, -1)),  # sparse 0/±1 cochain-like entries
    st.integers(-(2**70), 2**70),  # beyond int64
)
matrices = st.integers(1, 6).flatmap(
    lambda c: st.lists(st.lists(entries, min_size=c, max_size=c), min_size=1, max_size=6)
)


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_backends_agree(rows):
    # the sparse rank against the dense bigint reference elimination
    assert kernels.exact_integer_rank(rows) == _bareiss_rank_bigint([list(r) for r in rows])


def test_overflow_sentinel_and_escalation():
    # entries near 2**30, whose Bareiss products once left the int64 range and
    # made the int64 kernel return an OVERFLOW sentinel and escalate to bigints;
    # the one exact rank has no sentinel and returns the true rank directly
    assert not hasattr(kernels, "OVERFLOW")
    near = 2**30 - 1
    assert kernels.exact_integer_rank([[near, near - 1], [near - 2, near - 5]]) == 2


def test_unguarded_input_is_rejected_up_front():
    # an entry past the former int64 magnitude guard (2**30) is no longer
    # turned away before elimination: it is ranked exactly like any other
    assert not hasattr(kernels, "_GUARD")
    assert kernels.exact_integer_rank([[2**30 + 1]]) == 1
    assert kernels.exact_integer_rank([[2**30 + 1, 2**31], [2**31, 2**32]]) == 2


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
    wide = [[1, 2, 3, 4, 5]]
    tall = [[x] for x in wide[0]]
    assert kernels.exact_integer_rank(wide) == 1
    assert kernels.exact_integer_rank(tall) == 1
