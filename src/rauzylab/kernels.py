"""Exact integer rank.

Fraction-free (Bareiss) elimination over int64, vectorised with numpy:
every cohomology rank reduces to it.  Exactness is preserved by a
magnitude guard: whenever an intermediate entry could overflow int64, the
kernel returns the sentinel -1 and ``exact_integer_rank`` escalates to an
arbitrary-precision Python elimination.
"""

from __future__ import annotations

import numpy as np

# Bareiss updates compute piv*a - f*b with |piv|,|a|,|f|,|b| <= M, so the
# worst intermediate is 2*M**2; M <= 2**30 keeps that under 2**61.
_GUARD = 1 << 30

OVERFLOW = -1


def _bareiss_rank_numpy(a: np.ndarray) -> int:
    """Vectorised Bareiss elimination; returns the rank or OVERFLOW.  Destroys ``a``."""
    n, m = a.shape
    rank = 0
    prev = 1
    for col in range(m):
        if rank >= n:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv_row = rank + int(nz[0])
        if piv_row != rank:
            a[[rank, piv_row]] = a[[piv_row, rank]]
        block = a[rank:, col:]
        if int(np.abs(block).max()) > _GUARD:
            return OVERFLOW
        piv = int(a[rank, col])
        if rank + 1 < n:
            factors = a[rank + 1 :, col].copy()
            sub = a[rank + 1 :, col:]
            sub *= piv
            sub -= factors[:, None] * a[rank, col:][None, :]
            sub //= prev
            if int(np.abs(sub).max(initial=0)) > _GUARD:
                return OVERFLOW
        prev = piv
        rank += 1
    return rank


def _bareiss_rank_bigint(rows: list[list[int]]) -> int:
    """Arbitrary-precision reference path; always exact, never overflows."""
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


def rank_int64(a: np.ndarray) -> int:
    """Rank of an int64 array; destroys ``a``.

    Returns OVERFLOW when the elimination would leave int64 range; the
    caller is responsible for escalating to ``exact_integer_rank``.
    """
    if a.size == 0:
        return 0
    a = np.ascontiguousarray(a, dtype=np.int64)
    if int(np.abs(a).max()) > _GUARD:
        # entries the kernel did not produce itself are unguarded
        return OVERFLOW
    return _bareiss_rank_numpy(a)


def exact_integer_rank(matrix) -> int:
    """Exact rank of an integer matrix (any magnitude).

    ``matrix`` is a sequence of equal-length integer rows or an ndarray.
    Entries beyond the int64 guard route straight to the bigint path, as
    do kernel runs that trip the overflow sentinel.
    """
    rows = [list(map(int, r)) for r in matrix]
    if not rows or not rows[0]:
        return 0
    if max((abs(x) for row in rows for x in row), default=0) <= _GUARD:
        result = rank_int64(np.array(rows, dtype=np.int64))
        if result != OVERFLOW:
            return result
    return _bareiss_rank_bigint(rows)
