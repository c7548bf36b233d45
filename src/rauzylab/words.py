"""Words and canonically ordered word sets.

Words are plain strings over a small alphabet.  The canonical order used
everywhere downstream (graph vertex indexing, matrix layouts, CSV output)
is length first, then lexicographic.  A word set is sorted only when its
order is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


@dataclass(frozen=True)
class WordSet:
    """A deduplicated finite collection of words, listed in canonical order."""

    members: frozenset[str]

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
