"""Shared fixtures: reference oracles independent of the package internals.

The brute oracle materialises generation sets by literal two-sided
concatenation and reads factor sets straight off the words, so any
agreement with the package's aggregated recursion is meaningful.  Window
closure computes F_m of any primitive rule by inflating windows forward,
where the package parses corners backward to shorter legal words.  The
table census classifies each word by its own extension table, with every
letter and letter pair looked up, where the package tallies the census in
its corner step.  The union-find counts the components of the graph that
a projection's edge fibers leave in [M1 | D_s], where the package reads
them off the census's split.  The stage sweeps test every stage graph on
its own, where the package sweeps the deepest one and reads the rest off it.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import strategies as st

from rauzylab import RandomSubstitution, fibonacci_rule, legal_subwords
from rauzylab.rauzy import words_connected

BRUTE_MAX_GENERATION = 8

THUE_MORSE = RandomSubstitution(
    name="thue-morse", alphabet=("a", "b"), rules=(("a", ("ab",)), ("b", ("ba",)))
)
PERIOD_DOUBLING = RandomSubstitution(
    name="period-doubling", alphabet=("a", "b"), rules=(("a", ("ab",)), ("b", ("aa",)))
)
DET_FIB = RandomSubstitution(
    name="det-fib", alphabet=("a", "b"), rules=(("a", ("ab",)), ("b", ("a",)))
)
THREE_LETTER = RandomSubstitution(
    name="three-letter",
    alphabet=("a", "b", "c"),
    rules=(("a", ("abc", "cba")), ("b", ("ac",)), ("c", ("b",))),
)
# every letter's realizations are closed under reversal, so the language is too
MIRROR_THREE = RandomSubstitution(
    name="mirror-three",
    alphabet=("a", "b", "c"),
    rules=(("a", ("abc", "cba")), ("b", ("ac", "ca")), ("c", ("b",))),
)
# b -> c -> a is a chain of 1-letter realizations, so the least power at
# which every realization has 2 letters (the depth k) is 3
DEPTH_THREE = RandomSubstitution(
    name="depth-three",
    alphabet=("a", "b", "c"),
    rules=(("a", ("ab", "ca")), ("b", ("c",)), ("c", ("a", "bc"))),
)
# a -> b -> a is a 1-letter chain at every power, so there is no depth k
NO_DEPTH = RandomSubstitution(
    name="no-depth", alphabet=("a", "b"), rules=(("a", ("ab", "b")), ("b", ("a",)))
)


#: (n, p, s, sb, wb, rs, ls) of ``complexity --rule fib --max-n 18``, recorded
#: before the corner step tallied the census, when it came from its own pass
FIB_ROWS_18 = [
    (1, 2, 2, 1, 0, 2, 2),
    (2, 4, 3, 3, 0, 3, 3),
    (3, 7, 6, 3, 0, 6, 6),
    (4, 13, 9, 8, 0, 9, 9),
    (5, 22, 17, 11, 0, 17, 17),
    (6, 39, 28, 13, 0, 28, 28),
    (7, 67, 41, 34, 0, 41, 41),
    (8, 108, 75, 47, 0, 75, 75),
    (9, 183, 122, 83, 0, 122, 122),
    (10, 305, 205, 136, 0, 205, 205),
    (11, 510, 341, 164, 0, 341, 341),
    (12, 851, 505, 377, 0, 505, 505),
    (13, 1356, 882, 532, 0, 882, 882),
    (14, 2238, 1414, 922, 0, 1414, 1414),
    (15, 3652, 2336, 1472, 0, 2336, 2336),
    (16, 5988, 3808, 2170, 0, 3808, 3808),
    (17, 9796, 5978, 3964, 0, 5978, 5978),
    (18, 15774, 9942, 6224, 0, 9942, 9942),
]


@lru_cache(maxsize=None)
def brute_generation(n: int) -> frozenset[str]:
    if n == 0:
        return frozenset()
    if n == 1:
        return frozenset(["b"])
    if n == 2:
        return frozenset(["a"])
    left, right = brute_generation(n - 1), brute_generation(n - 2)
    return frozenset(
        {u + v for u in left for v in right} | {v + u for u in left for v in right}
    )


def brute_factors(words, m: int) -> frozenset[str]:
    out = set()
    for w in words:
        for i in range(len(w) - m + 1):
            out.add(w[i : i + m])
    return frozenset(out)


@lru_cache(maxsize=None)
def brute_legal(m: int) -> frozenset[str]:
    """Stabilised legal factor set from literal generation sets (m <= 13).

    Equality of consecutive generations is observed directly for m <= 8;
    for 9 <= m <= 13 the generation-8 words (length 21 >= 13 + 8) already
    carry the full factor set, which the equality loop confirms up to the
    brute cap.
    """
    assert m <= 13, "brute oracle capped by generation 8"
    prev: frozenset[str] | None = None
    for k in range(3, BRUTE_MAX_GENERATION + 1):
        cur = brute_factors(brute_generation(k), m)
        if prev is not None and cur == prev and len(next(iter(brute_generation(k - 1)))) >= m:
            return cur
    return brute_factors(brute_generation(BRUTE_MAX_GENERATION), m)


def inflation_windows(rule, v: str, m: int) -> set[str]:
    """Length-m factors of every realization of one inflation of ``v``.

    Realizations shorter than m contribute themselves whole.  States are
    deduplicated by (suffix, length), which is lossless for factor
    collection because emitted windows depend only on the suffix.  The
    length is capped at m, since only whether it is below m is read.
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
                nxt.add((t[-keep:] if len(t) > keep else t, min(total + len(r), m)))
        states = nxt
    for s, total in states:
        if total < m:
            collected.add(s)
    return collected


def window_closure(rule, m: int) -> frozenset[str]:
    """F_m by a worklist: inflate each newly found window once, from a seed letter.

    The found set holds length-m windows and whole realizations shorter
    than m; it is a subset of the finitely many words of length <= m and
    only grows, so the pass ends when no new word appears.

    Sound: each word found is a window of a realization of theta(v) for a
    found, hence legal, v.  Complete: with W_0 the seed and W_{j+1} the
    windows of one inflation of W_j, the length-m windows of the
    realizations of theta^j(seed) lie in W_j, and W_j lies in the found
    set by induction over j.  Equal to the set at which W_j stabilises,
    wherever it does: for a primitive rule the seed occurs in a realization
    of theta^N(seed), N the primitivity exponent, so a word of W_j recurs
    in every W_{j'} with j' >= j + N, hence in the stable set.
    """
    found = {"b"} if "b" in rule.alphabet else {rule.alphabet[0]}
    todo = list(found)
    while todo:
        for w in inflation_windows(rule, todo.pop(), m):
            if w not in found:
                found.add(w)
                todo.append(w)
    return frozenset(w for w in found if len(w) == m)


def window_closures(rule, top: int) -> dict[int, frozenset[str]]:
    """F_1..F_top from one window closure, at length ``top``: F_m is the set of length-m factors of F_top.

    Exact for a primitive expanding rule, whose language is factorial (a
    factor of a legal word is legal) and extendable (a legal word is a
    factor of a legal word of any greater length).
    """
    words = window_closure(rule, top)
    return {m: brute_factors(words, m) for m in range(1, top + 1)}


def table_census(rule, n: int) -> dict:
    """The specials census of length n, one extension table per word.

    Each word's left and right extensions and its corners are found by
    looking up every letter and every letter pair in F_{n+1} and F_{n+2};
    a corner outside the extension sets, or a word with no corner, fails.
    """
    letters = rule.alphabet
    words, ext, corner_set = (legal_subwords(rule, m).as_set() for m in (n, n + 1, n + 2))
    rights, lefts, bis = set(), set(), set()
    strong = weak = neutral = 0
    no_weak = True
    for v in words:
        left = [x for x in letters if x + v in ext]
        right = [y for y in letters if v + y in ext]
        corners = {(x, y) for x in letters for y in letters if x + v + y in corner_set}
        assert corners and all(x in left and y in right for x, y in corners), v
        if len(right) >= 2:
            rights.add(v)
            no_weak &= any(all((x, y) in corners for y in right) for x in left)
        if len(left) >= 2:
            lefts.add(v)
            no_weak &= any(all((x, y) in corners for x in left) for y in right)
        if len(left) >= 2 and len(right) >= 2:
            bis.add(v)
            no_weak &= len(corners) >= 3
            if len(corners) == 4:
                strong += 1
            elif len(corners) == 2:
                weak += 1
            else:
                neutral += 1
    s = len(ext) - len(words)
    return {
        "p": len(words),
        "s": s,
        "right_specials": rights,
        "left_specials": lefts,
        "bispecials": bis,
        "strong_count": strong,
        "weak_count": weak,
        "neutral_count": neutral,
        "bispecial_identity": len(corner_set) - len(ext) - s == strong - weak,
        "no_weak_bispecials": no_weak,
    }


def combined_rank(cells) -> int:
    """C = rank [M1 | D_s] by union-find over the edge fibers, from (tail, head) per source edge.

    Each edge of a letter-drop projection maps onto its tail word, so the
    fibers are keyed by tail; each fiber's first edge is its pivot, and
    every other edge joins its head to the pivot's head.  C = pivots + joins.
    """
    parent: dict = {}  # a vertex not in it is a root

    def find(u):
        while u in parent:
            parent[u] = parent.get(parent[u], parent[u])
            u = parent[u]
        return u

    pivots: dict = {}  # tail -> the pivot's head
    joins = 0
    for tail, head in cells:
        u, w = find(head), find(pivots.setdefault(tail, head))
        if u != w:
            parent[u] = w
            joins += 1
    return len(pivots) + joins


def stage_sweeps(rule, top: int, words=legal_subwords) -> list[bool]:
    """Whether each stage graph 1..top is strongly connected, each swept on its own over F_m and F_{m+1}.

    The word sets are read through ``words``, so that a test can hand in a
    cut one.
    """
    sets = [None] + [words(rule, m).as_set() for m in range(1, top + 2)]
    return [words_connected(rule.alphabet, sets[m], sets[m + 1]) for m in range(1, top + 1)]


@st.composite
def small_rules(draw) -> RandomSubstitution:
    """A rule on 2 or 3 letters, each with 1 to 3 realizations of 1 to 3 letters."""
    letters = draw(st.sampled_from(("ab", "abc")))
    words = st.lists(st.text(letters, min_size=1, max_size=3), min_size=1, max_size=3, unique=True)
    return RandomSubstitution(
        name="drawn", alphabet=tuple(letters), rules=tuple((a, tuple(draw(words))) for a in letters)
    )


def census_fields(rep) -> dict:
    """A ``SpecialsReport`` as ``table_census`` returns it: its word lists as sets."""
    fields = rep._asdict()
    del fields["n"]
    for key in ("right_specials", "left_specials", "bispecials"):
        fields[key] = fields[key].as_set()
    return fields


@pytest.fixture(scope="session")
def fib():
    return fibonacci_rule()
