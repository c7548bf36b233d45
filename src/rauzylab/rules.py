"""Random substitution rules and local inflation.

A random substitution maps each letter to a nonempty list of realization
words; applying it to a word means choosing one realization per letter
occurrence, independently.  Rules are immutable and hashable so that
language-level results can be memoised per rule.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from bisect import bisect_right
from fractions import Fraction
from math import lcm
from pathlib import Path

from .errors import ConfigurationError, InvalidRuleError, InvalidWordError


class RandomSubstitution:
    """A letter-to-realizations rule with optional probability vectors.

    ``rules`` keeps the realization lists in their declared (display)
    order; language-level computations use only these support sets, while
    sampling additionally needs ``probabilities``.  Rules are immutable;
    two are equal when their four fields are.
    """

    def __init__(
        self, name: str, alphabet: tuple[str, ...], rules: tuple[tuple[str, tuple[str, ...]], ...],
        probabilities: tuple[tuple[str, tuple[Fraction, ...]], ...] | None = None,
    ) -> None:
        self.__dict__.update(name=name, alphabet=alphabet, rules=rules, probabilities=probabilities)
        letters = set(self.alphabet)
        if len(self.alphabet) < 2:
            raise InvalidRuleError("alphabet must have at least two letters")
        if len(letters) != len(self.alphabet):
            raise InvalidRuleError("alphabet letters must be distinct")
        if any(len(ch) != 1 for ch in self.alphabet):
            raise InvalidRuleError("letters must be single characters")
        if {ch for ch, _ in self.rules} != letters:
            raise InvalidRuleError("every alphabet letter needs a realization list")
        for ch, words in self.rules:
            if not words:
                raise InvalidRuleError(f"letter {ch!r} has no realizations")
            if len(set(words)) != len(words):
                raise InvalidRuleError(f"duplicate realizations for letter {ch!r}")
            for w in words:
                if not w or any(c not in letters for c in w):
                    raise InvalidRuleError(f"realization {w!r} of {ch!r} is not a word over the alphabet")
        if self.probabilities is not None:
            probs = dict(self.probabilities)
            for ch, words in self.rules:
                vec = probs.get(ch)
                if vec is None or len(vec) != len(words):
                    raise InvalidRuleError(f"probability vector for {ch!r} must have {len(words)} entries")
                if any(p < 0 for p in vec):
                    raise InvalidRuleError(f"negative probability for {ch!r}")
                if sum(vec, Fraction(0)) != 1:
                    raise InvalidRuleError(f"probabilities for {ch!r} must sum to 1 exactly")
        # every oracle-cache lookup hashes the rule, so the hash is taken once
        self.__dict__.update(_rule_map=dict(self.rules), _hash=hash(self._fields()))

    def _fields(self) -> tuple:
        return self.name, self.alphabet, self.rules, self.probabilities

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "RandomSubstitution(name={!r}, alphabet={!r}, rules={!r}, probabilities={!r})".format(*self._fields())

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set or delete {name!r} of an immutable rule")

    __delattr__ = __setattr__

    def realizations(self, letter: str) -> tuple[str, ...]:
        try:
            return self._rule_map[letter]
        except KeyError:
            raise InvalidWordError(f"letter {letter!r} is not in the alphabet") from None

    def probability_vector(self, letter: str) -> tuple[Fraction, ...]:
        if self.probabilities is None:
            raise ConfigurationError(f"rule {self.name!r} carries no probability vectors")
        return dict(self.probabilities)[letter]

    @property
    def has_probabilities(self) -> bool:
        return self.probabilities is not None

    def support(self) -> tuple[tuple[str, frozenset[str]], ...]:
        """Realization support sets, order-insensitive."""
        return tuple(sorted((ch, frozenset(ws)) for ch, ws in self.rules))


def fibonacci_rule(p: Fraction | str | int = Fraction(1, 2)) -> RandomSubstitution:
    """The binary rule a -> {ba, ab} (probabilities p, 1-p), b -> a."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InvalidRuleError("probability parameter must lie in [0, 1]")
    return RandomSubstitution(
        name="fib",
        alphabet=("a", "b"),
        rules=(("a", ("ba", "ab")), ("b", ("a",))),
        probabilities=(("a", (p, 1 - p)), ("b", (Fraction(1),))),
    )


def noble_means_rule(m: int, probabilities: tuple[Fraction, ...] | None = None) -> RandomSubstitution:
    """The rule a -> {b inserted at each position of a^m}, b -> a.

    m=1 recovers the Fibonacci rule's support sets.  When no probability
    vector is given, the uniform one is used.
    """
    if not isinstance(m, int) or m < 1:
        raise InvalidRuleError("noble means parameter m must be a positive integer")
    if m + 1 > sys.maxsize:  # the realization count must fit an index; past it "a" * m raises OverflowError
        raise InvalidRuleError(f"noble means parameter m must be at most {sys.maxsize - 1}")
    words = tuple("a" * i + "b" + "a" * (m - i) for i in range(m + 1))
    if probabilities is None:
        vec = tuple(Fraction(1, m + 1) for _ in range(m + 1))
    else:
        vec = tuple(Fraction(p) for p in probabilities)
        if len(vec) != m + 1:
            raise InvalidRuleError(f"probability vector must have {m + 1} entries")
    return RandomSubstitution(
        name=f"noble:{m}",
        alphabet=("a", "b"),
        rules=(("a", words), ("b", ("a",))),
        probabilities=(("a", vec), ("b", (Fraction(1),))),
    )


_FIB_SUPPORT = fibonacci_rule().support()


def has_fibonacci_support(rule: RandomSubstitution) -> bool:
    return rule.support() == _FIB_SUPPORT


def _listed(table: object, ch: str, field: str) -> list:
    """``table[ch]``, which must be a list; InvalidRuleError names the letter otherwise."""
    if not isinstance(table, dict) or ch not in table:
        raise InvalidRuleError(f"{field} has no entry for letter {ch!r}")
    if not isinstance(table[ch], list):
        raise InvalidRuleError(f"{field} of letter {ch!r} must be a list, not {table[ch]!r}")
    return table[ch]


def _probability(p: object, ch: str) -> Fraction:
    """One JSON probability entry, a rational string or a finite number; InvalidRuleError names the letter otherwise."""
    if isinstance(p, bool) or not isinstance(p, (str, int, float)):
        raise InvalidRuleError(f"probability {p!r} of letter {ch!r} is not a number or a rational string")
    try:
        return Fraction(p)
    except (ValueError, OverflowError, ZeroDivisionError):  # NaN, infinity or a malformed string
        raise InvalidRuleError(f"probability {p!r} of letter {ch!r} is not a finite rational number") from None


def rule_from_json(obj: dict, name: str = "custom") -> RandomSubstitution:
    """Build a rule from the JSON-shaped specification format.

    Expected keys: ``alphabet`` (list of letters), ``rules`` (letter ->
    list of letter-lists), optional ``probabilities`` (letter -> list of
    rational strings).
    """
    try:
        alphabet = tuple(obj["alphabet"])
        raw_rules = obj["rules"]
    except (KeyError, TypeError) as exc:
        raise InvalidRuleError(f"rule specification missing field: {exc}") from exc
    rules = []
    for ch in alphabet:
        realizations = _listed(raw_rules, ch, "rules")
        for w in realizations:
            if not isinstance(w, list) or not all(isinstance(c, str) for c in w):
                raise InvalidRuleError(f"realization {w!r} of letter {ch!r} is not a list of letters")
        rules.append((ch, tuple("".join(w) for w in realizations)))
    probabilities = None
    if obj.get("probabilities") is not None:
        probabilities = tuple(
            (ch, tuple(_probability(p, ch) for p in _listed(obj["probabilities"], ch, "probabilities")))
            for ch in alphabet
        )
    return RandomSubstitution(name=name, alphabet=alphabet, rules=tuple(rules), probabilities=probabilities)


def rule_from_file(path: str | Path) -> RandomSubstitution:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return rule_from_json(obj, name=path.stem)


def resolve_rule(name: str) -> RandomSubstitution:
    """Resolve a built-in rule name: ``fib`` or ``noble:m``."""
    if name == "fib":
        return fibonacci_rule()
    if name.startswith("noble:"):
        try:
            m = int(name.split(":", 1)[1])
        except ValueError:
            raise InvalidRuleError(f"bad noble means parameter in {name!r}") from None
        return noble_means_rule(m)
    raise InvalidRuleError(f"unknown rule name {name!r} (expected 'fib' or 'noble:m')")


def _check_word(rule: RandomSubstitution, w: str) -> None:
    if not w:
        raise InvalidWordError("word must be nonempty")
    letters = set(rule.alphabet)
    for ch in w:
        if ch not in letters:
            raise InvalidWordError(f"letter {ch!r} is not in the alphabet")


def sample_inflation(rule: RandomSubstitution, w: str, k: int, seed: int) -> str:
    """Apply k rounds of local random inflation to ``w``, deterministically.

    Each letter occurrence draws its realization independently from the
    rule's probability vector, by an exact integer draw: with q the lcm of
    the vector's denominators, r = randrange(q) picks the realization whose
    slice of the cumulative sums p*q holds r, so a realization of
    probability p is drawn for exactly p*q of the q values.  Draws come
    from a single ``random.Random`` stream seeded with ``seed``; letters
    with a unique realization consume no draws, so runs with the same seed
    agree on every shared choice regardless of k.
    """
    _check_word(rule, w)
    if k < 0:
        raise InvalidWordError("inflation round count must be >= 0")
    if not rule.has_probabilities:
        raise ConfigurationError("sampling needs probability vectors")
    if seed < 0:
        raise ConfigurationError("seed must be >= 0")
    draws: dict[str, tuple[int, list[int]]] = {}
    for ch in rule.alphabet:
        vec = rule.probability_vector(ch)
        q = lcm(*(p.denominator for p in vec))
        draws[ch] = (q, list(itertools.accumulate(int(p * q) for p in vec)))
    rng = random.Random(seed)
    word = w
    for _ in range(k):
        parts = []
        for ch in word:
            options = rule.realizations(ch)
            if len(options) == 1:
                parts.append(options[0])
            else:
                q, acc = draws[ch]
                parts.append(options[bisect_right(acc, rng.randrange(q))])
        word = "".join(parts)
    return word
