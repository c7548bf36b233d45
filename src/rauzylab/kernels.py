"""Exact integer rank.

One sparse elimination over Python ints serves every rank.  Each row is a
``{column: value}`` dict of its nonzero entries, reduced against the pivot
rows found so far, which are keyed by their leading column.  After each
step the row is divided by the gcd of its entries, so the elimination is
exact over Q for entries of any magnitude, and the 0/±1 cochain matrices
stay sparse.
"""

from __future__ import annotations

from math import gcd


def exact_integer_rank(matrix) -> int:
    """Exact rank of an integer matrix given as a sequence of rows."""
    pivots: dict[int, dict[int, int]] = {}
    for entries in matrix:
        row = {j: x for j, x in enumerate(entries) if x}
        while row:
            lead = min(row)
            top = pivots.get(lead)
            if top is None:
                pivots[lead] = row
                break
            # row <- a*row - b*top with a*row[lead] = b*top[lead]: lead cancels
            g = gcd(top[lead], row[lead])
            a, b = top[lead] // g, row[lead] // g
            if a != 1:
                row = {j: a * x for j, x in row.items()}
            for j, y in top.items():
                x = row.get(j, 0) - b * y
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
            g = gcd(*row.values())
            if g > 1:
                row = {j: x // g for j, x in row.items()}
    return len(pivots)
