"""Words and canonically ordered word sets.

Words are plain strings over a small alphabet.  The canonical order used
everywhere downstream (graph vertex indexing, matrix layouts, CSV output)
is length first, then lexicographic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


def canonical_key(word: str) -> tuple[int, str]:
    return (len(word), word)


def factors(word: str, m: int) -> Iterator[str]:
    """Yield the length-m factors of ``word`` in order of position."""
    for i in range(len(word) - m + 1):
        yield word[i : i + m]


@dataclass(frozen=True)
class WordSet:
    """A deduplicated, canonically ordered finite collection of words."""

    words: tuple[str, ...]

    @classmethod
    def from_iterable(cls, items: Iterable[str]) -> "WordSet":
        members = frozenset(items)  # the same object when items is a frozenset
        word_set = cls(tuple(sorted(members, key=canonical_key)))
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


def subwords(source: WordSet | Iterable[str], m: int) -> WordSet:
    """All length-m factors of the given words, deduplicated.

    Empty if every word is shorter than m.
    """
    if m < 1:
        raise ValueError("factor length must be >= 1")
    found: set[str] = set()
    for word in source:
        found.update(factors(word, m))
    return WordSet.from_iterable(found)
