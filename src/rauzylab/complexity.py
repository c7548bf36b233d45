"""Complexity, special factors and bispecial classification.

The complexity p(n) counts legal length-n factors; its first difference
s(n) = p(n+1) - p(n) equals the number of right (or left) special
factors on a binary alphabet.  Bispecial factors are classified by the
size of their legal corner set {(x, y) : xvy legal}: strong when all
four corners occur, weak when only two, neutral when three.

The census of length n is tallied by the oracle's corner step in its pass
over F_n, the only pass over the words of each length: L(v) and R(v) are
read by membership in F_{n+1}, and the corners of each bispecial are the
words of F_{n+2} with middle v, which the step decided.  It also carries
the split that the cochain report reads.  ``specials_report`` reads the
census by ``census(rule, n)``, and only the sizes of F_n, F_{n+1}, F_{n+2}.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, InvariantViolationError
from .oracle import census, legal_subwords
from .rules import RandomSubstitution
from .words import WordSet


def complexity(rule: RandomSubstitution, n: int) -> int:
    """p(n): the number of legal factors of length n."""
    return len(legal_subwords(rule, n))


def first_difference(rule: RandomSubstitution, n: int) -> int:
    """s(n) = p(n+1) - p(n)."""
    return complexity(rule, n + 1) - complexity(rule, n)


class ExtensionTable(NamedTuple):
    """Legal one-letter extensions of a factor on both sides."""

    word: str
    left: tuple[str, ...]
    right: tuple[str, ...]
    corners: tuple[tuple[str, str], ...]


def extension_table(rule: RandomSubstitution, v: str) -> ExtensionTable:
    """Exact left/right/corner extension sets of a legal factor, read from F_{|v|+1} and F_{|v|+2}."""
    if v not in legal_subwords(rule, len(v)):
        raise DomainError(f"{v!r} is not a legal factor")
    longer, corner_set = legal_subwords(rule, len(v) + 1), legal_subwords(rule, len(v) + 2)
    left = tuple(x for x in rule.alphabet if x + v in longer)
    right = tuple(y for y in rule.alphabet if v + y in longer)
    corners = tuple((x, y) for x in left for y in right if x + v + y in corner_set)
    return ExtensionTable(word=v, left=left, right=right, corners=corners)


class SpecialsReport(NamedTuple):
    """Specials census for one factor length, with the two identities that
    the same census pass decides."""

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
    """Every legal length-n factor classified by its extensions in F_{n+1}, and each bispecial by its corners.

    The census is the one the corner step tallied while it built F_{n+2},
    read by ``census(rule, n)``; this reads it and the sizes of F_n,
    F_{n+1} and F_{n+2}, and walks no word set.  It decides two identities.
    ``bispecial_identity`` is s(n+1) - s(n) == strong(n) - weak(n).
    ``no_weak_bispecials`` holds iff every bispecial has at least three
    legal corners and every right (left) special admits a common left
    (right) extension letter.  The step raises if a bispecial has no legal
    corner; this raises if the census contradicts the binary counting
    identities (s(n) equals the number of right specials and of left
    specials).  Either failure would signal a bug in the language oracle.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    p, longer, deeper = (len(legal_subwords(rule, m)) for m in (n, n + 1, n + 2))
    s = longer - p
    c = census(rule, n)
    rs, ls = len(c.right_specials), len(c.left_specials)
    if len(rule.alphabet) == 2 and not rs == ls == s:
        raise InvariantViolationError(f"specials count mismatch at n={n}: rs={rs} ls={ls} s={s}")
    return SpecialsReport(
        n=n,
        p=p,
        s=s,
        right_specials=WordSet.from_iterable(c.right_specials),
        left_specials=WordSet.from_iterable(c.left_specials),
        bispecials=WordSet.from_iterable(c.bispecials),
        strong_count=c.strong_count,
        weak_count=c.weak_count,
        neutral_count=c.neutral_count,
        bispecial_identity=deeper - longer - s == c.strong_count - c.weak_count,
        no_weak_bispecials=c.no_weak_bispecials,
    )
