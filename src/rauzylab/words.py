"""Words and canonically ordered word sets.

Words are plain strings over a small alphabet.  The canonical order used
everywhere downstream (graph vertex indexing, matrix layouts, CSV output)
is length first, then lexicographic.  A word set is sorted only when its
order is first read.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator


class WordSet:
    """A deduplicated finite collection of words, listed in canonical order."""

    def __init__(self, members: frozenset[str]) -> None:
        self.members = members

    def __eq__(self, other: object) -> bool:
        return self.members == other.members if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.members,))

    def __repr__(self) -> str:
        return f"WordSet(members={self.members!r})"

    @classmethod
    def from_iterable(cls, items: Iterable[str]) -> "WordSet":
        return cls(frozenset(items))  # the same object when items is a frozenset

    @cached_property
    def words(self) -> tuple[str, ...]:
        # sorted by length, and stably, so words of one length stay lexicographic
        return tuple(sorted(sorted(self.members), key=len))

    def __contains__(self, word: object) -> bool:
        return word in self.members

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.members)

    def __bool__(self) -> bool:
        return bool(self.members)

    def as_set(self) -> frozenset[str]:
        return self.members
