"""Words and canonically ordered word sets.

Words are plain strings over a small alphabet.  The canonical order used
everywhere downstream (graph vertex indexing, matrix layouts, CSV output)
is length first, then lexicographic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


@dataclass(frozen=True)
class WordSet:
    """A deduplicated, canonically ordered finite collection of words."""

    words: tuple[str, ...]

    @classmethod
    def from_iterable(cls, items: Iterable[str]) -> "WordSet":
        members = frozenset(items)  # the same object when items is a frozenset
        # sorted by length, and stably, so words of one length stay lexicographic
        word_set = cls(tuple(sorted(sorted(members), key=len)))
        object.__setattr__(word_set, "_members", members)  # seeds the cached property
        return word_set

    @cached_property
    def _members(self) -> frozenset[str]:
        return frozenset(self.words)

    def __contains__(self, word: object) -> bool:
        return word in self._members

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __bool__(self) -> bool:
        return bool(self.words)

    def as_set(self) -> frozenset[str]:
        return self._members
