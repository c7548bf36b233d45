"""The factor language of a random substitution.

``legal_subwords`` computes F_m, the set of legal length-m factors, by one
routine for every rule: one desubstitution step from a shorter length K.

A legal m-word w lies in one inflation of a legal word; take a shortest
such word v.  The inflated interior of v (all letters but the first and
the last) lies inside w, so it has at most m-2 letters.  Once every legal
K-word's interior inflates to at least m-1 letters, even with each
letter's shortest realization, |v| < K, and v extends to a legal K-word.
So F_m is the set of length-m windows of one inflation of F_K.  The step
assumes that every legal word shorter than K extends to a legal K-word;
that is checked on F_1..F_K, and a rule that breaks it raises.

Where no such K < m exists (short lengths), window closure inflates
windows from a seed letter until they stop changing, within a cap on the
number of rounds.  Reference: Rust & Spindeler, *Dynamical systems arising
from random substitutions* (Indag. Math. 2018).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import InvalidRuleError, InvalidWordError, InvariantViolationError, NonConvergenceError
from .rules import RandomSubstitution, has_fibonacci_support
from .words import WordSet, subwords

__all__ = [
    "fibonacci_number",
    "generation_set",
    "subwords",
    "legal_subwords",
    "is_legal",
    "verify_fibonacci_identity",
    "IdentityCheck",
    "DEFAULT_GENERATION_CAP",
]

#: upper bound on window-closure rounds before giving up
DEFAULT_GENERATION_CAP = 64


def fibonacci_number(n: int) -> int:
    """f_1 = f_2 = 1, f_n = f_{n-1} + f_{n-2}."""
    if n < 1:
        raise ValueError("index must be >= 1")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def generation_set(rule: RandomSubstitution, n: int) -> WordSet:
    """The exact set of generation-n inflated words (Fibonacci rule only).

    A_1 = {b}, A_2 = {a}; higher generations follow the two-sided
    concatenation recursion A_k = A_{k-1} A_{k-2} | A_{k-2} A_{k-1}.
    Sizes grow super-exponentially, so keep n small.
    """
    if not has_fibonacci_support(rule):
        raise InvalidRuleError(
            "the generation recursion is specific to the Fibonacci rule; "
            "use all_inflations iteration for other rules"
        )
    if n < 0:
        raise ValueError("generation index must be >= 0")
    if n == 0:
        return WordSet(())
    if n == 1:
        return WordSet.from_iterable(["b"])
    older, newer = {"b"}, {"a"}
    for _ in range(n - 2):
        older, newer = newer, {u + v for u in newer for v in older} | {v + u for u in newer for v in older}
    return WordSet.from_iterable(newer)


def _inflation_windows(rule: RandomSubstitution, v: str, m: int) -> set[str]:
    """Length-m factors of every realization of one inflation of ``v``.

    Realizations shorter than m contribute themselves whole.  States are
    deduplicated by (suffix, length), which is lossless for factor
    collection because emitted windows depend only on the suffix.
    """
    collected: set[str] = set()
    keep = max(m - 1, 1)
    states: set[tuple[str, int]] = {("", 0)}
    for ch in v:
        nxt: set[tuple[str, int]] = set()
        for s, total in states:
            for r in rule.realizations(ch):
                t = s + r
                for i in range(max(0, len(s) - m + 1), len(t) - m + 1):
                    collected.add(t[i : i + m])
                nxt.add((t[-keep:] if len(t) > keep else t, total + len(r)))
        states = nxt
    for s, total in states:
        if total < m:
            collected.add(s)
    return collected


def _legal_subwords_generic(rule: RandomSubstitution, m: int, cap: int) -> frozenset[str]:
    """Window closure: inflate windows from a seed letter to a fixed point."""
    windows: set[str] = {"b"} if "b" in rule.alphabet else {rule.alphabet[0]}
    for _ in range(cap):
        nxt: set[str] = set()
        for v in windows:
            nxt |= _inflation_windows(rule, v, m)
        if nxt == windows:
            return frozenset(w for w in windows if len(w) == m)
        windows = nxt
    raise NonConvergenceError(f"window sets did not stabilise within {cap} generations")


def _check_extendable(rule: RandomSubstitution, k: int) -> None:
    """Raise unless every legal word shorter than k extends to a legal k-word."""
    for j in range(1, k):
        prefixes = {w[:-1] for w in _legal_subword_set(rule, j + 1)}
        if not _legal_subword_set(rule, j) <= prefixes:
            raise InvariantViolationError(
                f"rule {rule.name!r} has a legal {j}-word with no legal right extension"
            )


@lru_cache(maxsize=None)
def _legal_subword_set(rule: RandomSubstitution, m: int) -> frozenset[str]:
    """F_m by one desubstitution step from F_K, or by window closure.

    K is the least length in [3, m) at which every legal K-word's interior
    inflates to at least m-1 letters; without one, window closure is used.
    """
    shortest = {ch: min(map(len, rule.realizations(ch))) for ch in rule.alphabet}
    for k in range(3, m):
        base = _legal_subword_set(rule, k)
        if all(sum(shortest[ch] for ch in w[1:-1]) >= m - 1 for w in base):
            _check_extendable(rule, k)
            out: set[str] = set()
            for v in base:
                out |= _inflation_windows(rule, v, m)
            return frozenset(out)
    return _legal_subwords_generic(rule, m, DEFAULT_GENERATION_CAP)


def legal_subwords(rule: RandomSubstitution, m: int) -> WordSet:
    """F_m: the set of legal length-m factors of the rule's language."""
    if m < 1:
        raise ValueError("factor length must be >= 1")
    return WordSet.from_iterable(_legal_subword_set(rule, m))


def is_legal(rule: RandomSubstitution, w: str) -> bool:
    """Whether ``w`` occurs as a factor of the language."""
    if not w:
        raise InvalidWordError("word must be nonempty")
    return w in _legal_subword_set(rule, len(w))


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one generation-window identity check."""

    n: int
    window: int
    generation_size: int
    oracle_size: int
    equal: bool

    def __bool__(self) -> bool:
        return self.equal


def verify_fibonacci_identity(
    rule: RandomSubstitution,
    n: int,
    index_convention: Callable[[int], int] = fibonacci_number,
) -> IdentityCheck:
    """Check F(A_{n+1}, f_n) == F_{f_n} with exact generation sets.

    The index convention is a parameter so the one genuinely ambiguous
    choice stays auditable; the default is f_1 = f_2 = 1.
    """
    if n < 4:
        raise ValueError("the identity is asserted for n >= 4")
    window = index_convention(n)
    lhs = subwords(generation_set(rule, n + 1), window)
    rhs = legal_subwords(rule, window)
    return IdentityCheck(
        n=n,
        window=window,
        generation_size=len(lhs),
        oracle_size=len(rhs),
        equal=lhs.as_set() == rhs.as_set(),
    )
