"""The dense reference: exact integer matrices, with rank over Q.

The cochain matrices of the dense reference in ``tests/dense.py`` hold only
0 and ±1, so entries are Python ints, and a non-integer entry raises.  Rank
runs the sparse elimination of ``kernels``; products skip zero entries.
There is no tolerance parameter anywhere.

No command takes a rank: ``stage_report`` derives every rank from checked
structure.  The module stays in the package for two readers: the tests
compare ``stage_report`` with the dense eliminations, and the benchmark's
tracer (``perfbench/spans.py``) reads its ``rational.*`` and ``kernels.*``
metrics from this class and from ``kernels``.
"""

from __future__ import annotations

from operator import index
from typing import Iterable

from . import kernels


class RationalMatrix:
    """An integer matrix whose rank is taken over Q."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]], cols: int = 0):
        """``cols`` is read only when there are no rows to show the width."""
        grid = tuple(tuple(map(index, row)) for row in entries)  # index() rejects Fractions and floats
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("ragged rows")
        self.entries = grid
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else cols

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[0] * cols] * rows, cols)

    @classmethod
    def from_int_rows(cls, rows: Iterable[Iterable[int]]) -> "RationalMatrix":
        return cls(rows)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.cols == other.cols and self.entries == other.entries

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        return RationalMatrix((a + b for a, b in zip(self.entries, other.entries)), self.cols + other.cols)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        # other's nonzero entries, row by row; zero entries of self are skipped too
        sparse = [[(j, y) for j, y in enumerate(row) if y] for row in other.entries]
        product = []
        for row in self.entries:
            acc = [0] * other.cols
            for x, terms in zip(row, sparse):
                if x:
                    for j, y in terms:
                        acc[j] += x * y
            product.append(acc)
        return RationalMatrix(product, other.cols)

    def rank(self) -> int:
        return kernels.exact_integer_rank(self.entries)
