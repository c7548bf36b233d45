"""Complexity, special factors and bispecial classification.

The complexity p(n) counts legal length-n factors; its first difference
s(n) = p(n+1) - p(n) equals the number of right (or left) special
factors on a binary alphabet.  Bispecial factors are classified by the
size of their legal corner set {(x, y) : xvy legal}: strong when all
four corners occur, weak when only two, neutral when three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError, InvariantViolationError
from .oracle import legal_subwords
from .rules import RandomSubstitution
from .words import WordSet


def complexity(rule: RandomSubstitution, n: int) -> int:
    """p(n): the number of legal factors of length n."""
    return len(legal_subwords(rule, n))


def first_difference(rule: RandomSubstitution, n: int) -> int:
    """s(n) = p(n+1) - p(n)."""
    return complexity(rule, n + 1) - complexity(rule, n)


@dataclass(frozen=True)
class ExtensionTable:
    """Legal one-letter extensions of a factor on both sides."""

    word: str
    left: tuple[str, ...]
    right: tuple[str, ...]
    corners: tuple[tuple[str, str], ...]

    @property
    def is_right_special(self) -> bool:
        return len(self.right) >= 2

    @property
    def is_left_special(self) -> bool:
        return len(self.left) >= 2

    @property
    def is_bispecial(self) -> bool:
        return self.is_left_special and self.is_right_special

    @property
    def corner_count(self) -> int:
        return len(self.corners)


def _extension_tables(rule: RandomSubstitution, n: int) -> Iterator[ExtensionTable]:
    """Yield the extension table of every legal length-n factor, in canonical order.

    F_n, F_{n+1} and F_{n+2} are fetched once for the whole length.
    """
    letters = rule.alphabet
    ext = legal_subwords(rule, n + 1).as_set()
    corner_set = legal_subwords(rule, n + 2).as_set()
    for v in legal_subwords(rule, n):
        left = tuple(x for x in letters if x + v in ext)
        right = tuple(y for y in letters if v + y in ext)
        corners = tuple((x, y) for x in letters for y in letters if x + v + y in corner_set)
        if not corners:
            raise InvariantViolationError(f"legal factor {v!r} has no legal corner extension")
        for x, y in corners:
            if x not in left or y not in right:
                raise InvariantViolationError(f"corner ({x}, {y}) of {v!r} outside extension sets")
        yield ExtensionTable(word=v, left=left, right=right, corners=corners)


def extension_table(rule: RandomSubstitution, v: str) -> ExtensionTable:
    """Exact left/right/corner extension sets of a legal factor."""
    for table in _extension_tables(rule, len(v)):
        if table.word == v:
            return table
    raise DomainError(f"{v!r} is not a legal factor")


@dataclass(frozen=True)
class SpecialsReport:
    """Specials census for one factor length, with the two identities that
    the same extension-table pass decides."""

    n: int
    p: int
    s: int
    right_specials: WordSet
    left_specials: WordSet
    bispecials: WordSet
    strong_count: int
    weak_count: int
    neutral_count: int
    bispecial_identity: bool
    no_weak_bispecials: bool


def specials_report(rule: RandomSubstitution, n: int) -> SpecialsReport:
    """Classify every legal length-n factor by its extension table, in one pass.

    The same pass decides two identities.  ``bispecial_identity`` is
    s(n+1) - s(n) == strong(n) - weak(n).  ``no_weak_bispecials`` holds iff
    every bispecial has at least three legal corners and every right (left)
    special admits a common left (right) extension letter.  Raises if the
    census contradicts the binary counting identities (s(n) equals the
    number of right specials and of left specials); such a failure would
    signal a bug in the language oracle.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    p = complexity(rule, n)
    s = first_difference(rule, n)
    rights, lefts, bis = [], [], []
    strong = weak = neutral = 0
    no_weak = True
    for table in _extension_tables(rule, n):
        v, corners = table.word, table.corners
        if table.is_right_special:
            rights.append(v)
            no_weak &= any(all((x, y) in corners for y in table.right) for x in table.left)
        if table.is_left_special:
            lefts.append(v)
            no_weak &= any(all((x, y) in corners for x in table.left) for y in table.right)
        if table.is_bispecial:
            bis.append(v)
            no_weak &= table.corner_count >= 3
            if table.corner_count == 4:
                strong += 1
            elif table.corner_count == 2:
                weak += 1
            else:
                neutral += 1
    report = SpecialsReport(
        n=n,
        p=p,
        s=s,
        right_specials=WordSet.from_iterable(rights),
        left_specials=WordSet.from_iterable(lefts),
        bispecials=WordSet.from_iterable(bis),
        strong_count=strong,
        weak_count=weak,
        neutral_count=neutral,
        bispecial_identity=first_difference(rule, n + 1) - s == strong - weak,
        no_weak_bispecials=no_weak,
    )
    if strong + weak + neutral != len(report.bispecials):
        raise InvariantViolationError("bispecial classification does not partition")
    if len(rule.alphabet) == 2:
        if len(report.right_specials) != s or len(report.left_specials) != s:
            raise InvariantViolationError(
                f"specials count mismatch at n={n}: "
                f"rs={len(report.right_specials)} ls={len(report.left_specials)} s={s}"
            )
    return report


def branching_excess(rule: RandomSubstitution, n: int) -> int:
    """Sum of (right extension count - 1) over legal length-n factors.

    Equals s(n) on any alphabet; reported rather than asserted for
    alphabets larger than two.
    """
    return sum(len(table.right) - 1 for table in _extension_tables(rule, n))

