"""Exact rational matrices.

Entries are Python ints or Fractions (ints wherever the denominator is
1, which keeps the common 0/±1 cochain matrices cheap).  Rank clears the
denominators row by row and runs the sparse elimination of ``kernels``;
products skip zero entries, and kernel bases stay in exact arithmetic
throughout.  There is no tolerance parameter anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from . import kernels

Rational = int | Fraction


def _normalize(value) -> Rational:
    if type(value) is int:
        return value
    f = Fraction(value)
    return int(f) if f.denominator == 1 else f


class RationalMatrix:
    """An immutable exact-arithmetic matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[Rational]]):
        grid = tuple(tuple(_normalize(x) for x in row) for row in entries)
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]) if grid else 0)

    @classmethod
    def _build(cls, grid: tuple[tuple[Rational, ...], ...]) -> "RationalMatrix":
        """Internal constructor for rows already in normalized form."""
        self = object.__new__(cls)
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]) if grid else 0)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._build(tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._build(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def from_int_rows(cls, rows: Iterable[Iterable[int]]) -> "RationalMatrix":
        return cls._build(tuple(tuple(int(x) for x in row) for row in rows))

    def __getitem__(self, key: tuple[int, int]) -> Rational:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        return RationalMatrix._build(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def transpose(self) -> "RationalMatrix":
        if not self.rows:
            return self
        return RationalMatrix._build(tuple(zip(*self.entries)))

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
        return RationalMatrix(product)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise ValueError("shapes differ")
        return RationalMatrix(
            [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def _integer_rows(self):
        """Each row scaled by the lcm of its denominators (rank-preserving)."""
        for row in self.entries:
            denom = lcm(*(x.denominator for x in row))
            yield row if denom == 1 else [int(x * denom) for x in row]

    def rank(self) -> int:
        return kernels.exact_integer_rank(self._integer_rows())

    def column_rank_full(self) -> bool:
        return self.rank() == self.cols

    def kernel_basis(self) -> tuple[tuple[Rational, ...], ...]:
        """A basis of the right null space, via exact Gauss-Jordan."""
        rows = [[Fraction(x) for x in row] for row in self.entries]
        n, m = self.rows, self.cols
        pivots: list[int] = []
        r = 0
        for c in range(m):
            if r >= n:
                break
            pivot = next((i for i in range(r, n) if rows[i][c] != 0), -1)
            if pivot < 0:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = 1 / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
            for i in range(n):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        free = [c for c in range(m) if c not in pivots]
        basis = []
        for c in free:
            vec: list[Rational] = [0] * m
            vec[c] = 1
            for r_idx, pc in enumerate(pivots):
                vec[pc] = _normalize(-rows[r_idx][c])
            basis.append(tuple(vec))
        return tuple(basis)
