"""The factor language of a random substitution.

``legal_subwords`` computes F_m, the set of legal length-m factors, by one
routine for every rule.  It rests on L(theta^N) = L(theta) for a primitive
theta (Rust & Spindeler, *Dynamical systems arising from random
substitutions*, Indag. Math. 2018): a word is legal exactly when it is a
factor of one realization of theta(w) for a legal word w.

F_1 is the alphabet.  Every F_m with m >= 2 comes from ``_corner_step``,
which builds F_m from F_{m-1}, starting at F_0 = {""}, and parses only
the corners of bispecial words back to shorter legal words, by one search
per bispecial for all its corners; its docstring proves that this search
accepts only legal corners, finds every one, and ends.  When every
letter's realizations are closed under string reversal, as for random
Fibonacci and every noble:m, so is the language, and the step searches
only one bispecial of each pair {v, rev(v)}.  The step also tallies the
specials census of F_{m-2}, which the cache keeps beside F_m and
``census(rule, n)`` reads.

Both preconditions are checked, never assumed: the rule must be primitive
(some power of its letter-incidence matrix is positive) and expanding
(some realization has at least two letters), else ``InvalidRuleError``;
and the language must be extendable, which these give and which is
checked on every pair F_{m-1}, F_m the step reads, else
``InvariantViolationError``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import InvalidRuleError, InvalidWordError, InvariantViolationError
from .rules import RandomSubstitution, has_fibonacci_support
from .words import WordSet


def fibonacci_number(n: int) -> int:
    """f_1 = f_2 = 1, f_n = f_{n-1} + f_{n-2}."""
    if n < 1:
        raise ValueError("index must be >= 1")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def _generation_windows(rule: RandomSubstitution, k: int, m: int) -> frozenset[str]:
    """F(A_k, m), the length-m factors of the generation-k words, without building A_k.

    A_j is the union of the full products A_{j-1} A_{j-2} and A_{j-2} A_{j-1},
    and its words have length f_j.  So its m-windows are those of A_{j-1} and
    A_{j-2}, and, at each seam, every length-i suffix of the first factor
    followed by every length-(m-i) prefix of the second.  Prefix and suffix
    sets follow the same recursion; a length-l one is a subset of F_l, and
    the seams need only l < m, so no set is as large as A_k.
    """
    if not has_fibonacci_support(rule):
        raise InvalidRuleError("the generation recursion is specific to the Fibonacci rule")
    f = [0] + [fibonacci_number(j) for j in range(1, k + 1)]
    memo: dict[tuple[int, int, bool], set[str]] = {}

    def ends(j: int, length: int, prefix: bool) -> set[str]:
        """The length-``length`` prefixes (or suffixes) of the words of A_j."""
        if j <= 2:
            return {"ba"[j - 1]}  # A_1 = {b}, A_2 = {a}
        key = (j, length, prefix)
        if key not in memo:
            out: set[str] = set()
            for near, far in ((j - 1, j - 2), (j - 2, j - 1)):
                # near: the factor at this end of the word; far: the other one
                if length <= f[near]:
                    out |= ends(near, length, prefix)
                else:
                    rest = ends(far, length - f[near], prefix)
                    out.update(u + r if prefix else r + u for u in ends(near, f[near], prefix) for r in rest)
            memo[key] = out
        return memo[key]

    windows = [set()] + [{letter} if m == 1 else set() for letter in "ba"]
    for j in range(3, k + 1):
        out = windows[j - 1] | windows[j - 2]
        for x, y in ((j - 1, j - 2), (j - 2, j - 1)):
            for i in range(max(1, m - f[y]), min(f[x], m - 1) + 1):
                out.update(s + p for s in ends(x, i, False) for p in ends(y, m - i, True))
        windows.append(out)
    return frozenset(windows[k])


def _check_primitive(rule: RandomSubstitution) -> None:
    """Raise unless the rule is primitive and expanding.

    Primitive: some power of the letter-incidence matrix is positive.  By
    Wielandt's bound a primitive d x d matrix has a positive power
    (d-1)^2 + 1, and every later power is positive too, so that one power
    decides.  Expanding: some realization has at least two letters.  If
    none has, every realization of every power is one letter, so no legal
    word has two letters and F_1 does not extend.
    """
    letters = frozenset(rule.alphabet)
    step = {a: frozenset("".join(rule.realizations(a))) for a in rule.alphabet}
    reach = step
    for _ in range((len(letters) - 1) ** 2):
        reach = {a: frozenset().union(*(step[c] for c in r)) for a, r in reach.items()}
    if any(r != letters for r in reach.values()):
        raise InvalidRuleError(
            f"rule {rule.name!r} is not primitive: no power of its letter-incidence matrix is positive"
        )
    if all(len(r) == 1 for a in rule.alphabet for r in rule.realizations(a)):
        raise InvalidRuleError(
            f"rule {rule.name!r} is not expanding: every realization is one letter, so no legal word has two"
        )


def _reversal_closed(rule: RandomSubstitution) -> bool:
    """Whether every letter's set of realizations is closed under string reversal."""
    return all({r[::-1] for r in rule.realizations(a)} == set(rule.realizations(a)) for a in rule.alphabet)


class Census(NamedTuple):
    """The specials census of one length, as the corner step tallies it; ``split`` is sum_v (c(E(v)) - 1)."""

    right_specials: tuple[str, ...]
    left_specials: tuple[str, ...]
    bispecials: tuple[str, ...]
    strong_count: int
    weak_count: int
    neutral_count: int
    no_weak_bispecials: bool
    split: int


def _components(xs: list[str], ys: list[str], pairs: set[tuple[str, str]]) -> int:
    """c(E(v)): the components of the graph on the left letters xs and the right letters ys, one edge per pair."""
    parts = [{(0, x)} for x in xs] + [{(1, y)} for y in ys]
    for x, y in pairs:
        a, b = (next(part for part in parts if u in part) for u in ((0, x), (1, y)))
        if a is not b:
            a |= b
            parts.remove(b)
    return len(parts)


def _corner_step(rule: RandomSubstitution, built: list[frozenset[str]]) -> tuple[frozenset[str], Census]:
    """F_m from built[j] = F_j for j < m (F_0 = {""}), deciding only the corners of bispecials.

    Every legal m-word is xvy with x in L(v) and y in R(v), which are read
    by membership in F_{m-1}.  The step raises unless F_{m-2} and F_{m-1}
    extend into each other: each L(v) and R(v) nonempty, and sum |R(v)| =
    sum |L(v)| = |F_{m-1}|, as a word of F_{m-1} is counted in the right
    (left) sum once, and only if its prefix (suffix) is in F_{m-2}.  If v
    has one right extension y, every legal xv extends, and only by y, so
    xvy is legal for every x; the same holds with one left extension.  The
    other xvy, the corners of bispecial v, are decided by ``corners``, one
    search over v for all of them, which ends once none is undecided.  A
    corner u that lies in one realization (possible only while m <= the
    longest one) is legal at once.  Any other u is parsed into blocks of
    theta: a nonempty suffix of a realization, whole realizations, and a
    nonempty prefix of a realization, with preimage w, one letter per
    block.  A w shorter than m is looked up in F_j; one of length m, which
    only 1-letter realizations give, is decided by the same search over
    w[1:-1] with the one corner w, unless w is on the path: u, and the
    corners whose searches led to this one.  A parse reads x only in its
    first block and y only in its last, which starts at y (i == len(v)) or
    is a realization r with r.startswith(v[i:]) and y = r[len(v) - i].  So
    a state (i, pre), a parse of x + v[:i], serves every x whose first
    block gives it, and its last block names the y it decides.

    Sound: u is accepted only in a realization of a letter, or in one of
    theta(w) with w in F_j or accepted by a nested search, so legal by
    induction on the nesting.  Complete: a legal u lies in a realization
    of theta^N(c) for some letter c.  Take at each level the shortest
    factor whose image covers the word below it.  Each block of that parse
    gives at least one letter, so this is a chain u = w_0, w_1, ..., w_N =
    c of legal preimages of non-increasing length that ends in one letter.
    Cut its cycles (w_i = w_j with i < j: drop w_{i+1}..w_j).  What is
    left reaches a word shorter than m through distinct full-length words
    w_0..w_i, and w_0..w_h is the path where w_h is parsed, so the path
    check cuts no link.  Every proper prefix of a preimage is legal and
    shorter than m, so the search finds each parse: it accepts w_i, by one
    realization or by its preimage in F_j, and then each link before it.
    Ends: each state moves past at least one letter of v, and a nested
    search runs only for a word off the path, which it adds, so the
    nesting is no deeper than the number of m-words.

    Where the rule has a depth k (the least power at which every
    realization of theta^k has at least 2 letters), a parse at depth k has
    at most m/2 + 1 blocks, fewer than m for m >= 3.  So a chain of
    full-length preimages has fewer than k links and closes no cycle: the
    path check never fires, and from m = 3 on the search visits exactly
    the parses of a search bounded by k levels.  At m = 2, and for rules
    with no k, the path check is what ends the search.

    If every letter's realizations are closed under reversal, so is the
    language: by induction on k, a realization r_1...r_n of theta^k(c), r_i
    one of d_i and d one of theta^(k-1)(c), reverses to a realization of
    theta(rev d), and rev d is one of theta^(k-1)(c).  So xvy is legal
    exactly when y rev(v) x is.  Of a bispecial pair v != rev(v), checked
    to have L(rev v) = R(v) and R(rev v) = L(v), the one that sorts first
    is searched, and its corners, reversed, are those of the other.

    The same loop over F_{m-2} tallies its specials census.  Every word the
    step adds with middle v is xvy for that same v, so the words of F_m
    with middle v are exactly the corners (x, y) it decided for v, or, for
    a mirror twin, their reversals y rev(v) x.  So each bispecial is strong
    at 4 corners, weak at 2 and neutral otherwise, and is no weak one when
    it has 3 or more corners, some x with every xvy legal and some y with
    every xvy legal; a complete corner set has both.  A twin takes the
    class and the verdict of the one searched: reversal swaps the two
    conditions, so their AND is kept.  A bispecial with no legal corner
    raises.

    It also tallies the split, the sum of c(E(v)) - 1, where the extension
    graph E(v) joins x in L(v) to y in R(v) for each legal xvy (Cassaigne
    1997) and c counts its components.  A star or a complete E(v) has c =
    1, so only a bispecial with an illegal corner is counted; a twin has
    its partner's c, as reversal transposes E(v).
    """
    m = len(built)
    shorter, has, letters = built[m - 2], built[m - 1].__contains__, rule.alphabet
    stuck = f"rule {rule.name!r} has a legal word with no legal extension on one side"
    realizations = [(a, r) for a in rule.alphabet for r in rule.realizations(a)]
    covering = [r for _, r in realizations if len(r) >= m]  # those an m-word can lie in
    blocks: dict[str, list[tuple[str, str, int]]] = {}
    firsts: dict[str, dict[tuple[str, str], None]] = {}  # x -> (a, rest) for each suffix x + rest of a's
    for a, r in realizations:
        blocks.setdefault(r[0], []).append((a, r, len(r)))
        for i in range(len(r)):
            firsts.setdefault(r[i], {})[a, r[i + 1 :]] = None
    every = [block for bs in blocks.values() for block in bs]

    def corners(v: str, xs: list[str], ys: list[str], path: tuple[str, ...] = ()) -> set[tuple[str, str]]:
        """The (x, y), x in xs and y in ys, with xvy legal, by one search over v that ends once all are decided.

        ``path`` holds the corners whose searches led to this one.
        """
        todo = {x: {y for y in ys if not any(x + v + y in r for r in covering)} if covering else set(ys) for x in xs}
        undecided = sum(map(len, todo.values()))
        seeds: dict[tuple[int, str], list[str]] = {}
        for x in xs:
            for a, rest in firsts.get(x, ()):
                if v.startswith(rest):
                    seeds.setdefault((len(rest), a), []).append(x)
        stack = [(i, a, tuple(xx)) for (i, a), xx in seeds.items()]
        if len(stack) > 1:  # seeds shared by more x's are walked first, for all of them at once
            stack.sort(key=lambda st: len(st[2]))
        while stack and undecided:
            i, pre, served = stack.pop()
            if not any(map(todo.get, served)):
                continue
            left = len(v) + 1 - i
            # at i == len(v) the next block starts at y, so it may be any block
            for a, r, n in blocks.get(v[i], ()) if i < len(v) else every:
                if n < left:
                    if v.startswith(r, i) and (w := pre + a) in built[len(w)]:
                        stack.append((i + n, w, served))
                elif r.startswith(v[i:]):
                    w, y = pre + a, r[left - 1]
                    for x in served:
                        if y in todo[x] and (
                            w in built[len(w)]
                            if len(w) < m
                            else w not in (on := path + (x + v + y,)) and corners(w[1:-1], [w[0]], [w[-1]], on)
                        ):
                            todo[x].discard(y)
                            undecided -= 1
        return {(x, y) for x in xs for y in ys if y not in todo[x]}

    mirror = _reversal_closed(rule)
    out: set[str] = set()
    rs, ls = [], []
    bis: dict[str, tuple[list[str], list[str]]] = {}  # bispecial v -> (L(v), R(v))
    seen_left = seen_right = 0
    for v in shorter:
        xs = [x for x in letters if has(x + v)]
        ys = [y for y in letters if has(v + y)]
        if not xs or not ys:
            raise InvariantViolationError(stuck)
        seen_left += len(xs)
        seen_right += len(ys)
        if len(ys) > 1:
            rs.append(v)
        if len(xs) > 1:
            ls.append(v)
        if len(xs) == 1 or len(ys) == 1:
            out.update(x + v + y for x in xs for y in ys)
        else:
            bis[v] = xs, ys
    if not seen_left == seen_right == len(built[m - 1]):
        raise InvariantViolationError(stuck)
    strong = weak = neutral = split = 0
    no_weak = True
    for v, (xs, ys) in bis.items():
        twins = 1
        if mirror and (rv := v[::-1]) != v:
            if bis.get(rv) != (ys, xs):
                raise InvariantViolationError(f"rule {rule.name!r}: the extensions of {v!r} and {rv!r} do not mirror")
            if rv < v:
                continue  # its corners, class and verdict come from the search over rv
            twins = 2
        pairs = corners(v, xs, ys)
        if not pairs:
            raise InvariantViolationError(f"legal factor {v!r} has no legal corner extension")
        out.update(x + v + y for x, y in pairs)
        if mirror:  # rv = rev(v), bound above
            out.update(y + rv + x for x, y in pairs)
        no_weak &= len(pairs) >= 3
        if len(pairs) < len(xs) * len(ys):  # a complete E(v) is connected and passes both no-weak scans
            no_weak &= any(all((x, y) in pairs for y in ys) for x in xs)
            no_weak &= any(all((x, y) in pairs for x in xs) for y in ys)
            split += twins * (_components(xs, ys, pairs) - 1)
        if len(pairs) == 4:
            strong += twins
        elif len(pairs) == 2:
            weak += twins
        else:
            neutral += twins
    return frozenset(out), Census(tuple(rs), tuple(ls), tuple(bis), strong, weak, neutral, no_weak, split)


@lru_cache(maxsize=None)
def _legal_subword_set(rule: RandomSubstitution, m: int) -> tuple[WordSet, Census | None]:
    """F_m and the census of F_{m-2}: the alphabet at m = 1, the corner step from F_0 = {""} on.

    The rule is checked primitive and expanding before any F_m.  Each
    step reads F_0..F_{m-1} as locals and checks that F_{m-2} and F_{m-1}
    extend into each other, so every pair from (F_0, F_1) on is checked.
    Each F_m is served from this cache, and sorted only where its order
    is read.
    """
    _check_primitive(rule)
    if m == 1:
        return WordSet.from_iterable(rule.alphabet), None
    built = [frozenset([""])] + [_legal_subword_set(rule, j)[0].as_set() for j in range(1, m)]
    words, tally = _corner_step(rule, built)
    return WordSet.from_iterable(words), tally


def census(rule: RandomSubstitution, n: int) -> Census:
    """The specials census of F_n, which the corner step tallied while it built F_{n+2}."""
    if n < 1:
        raise ValueError("length must be >= 1")
    return _legal_subword_set(rule, n + 2)[1]


def legal_subwords(rule: RandomSubstitution, m: int) -> WordSet:
    """F_m: the set of legal length-m factors of the rule's language."""
    if m < 1:
        raise ValueError("factor length must be >= 1")
    return _legal_subword_set(rule, m)[0]


def is_legal(rule: RandomSubstitution, w: str) -> bool:
    """Whether ``w`` occurs as a factor of the language."""
    if not w:
        raise InvalidWordError("word must be nonempty")
    return w in _legal_subword_set(rule, len(w))[0]


class IdentityCheck(NamedTuple):
    """Outcome of one generation-window identity check."""

    n: int
    window: int
    generation_size: int
    oracle_size: int
    equal: bool


def verify_fibonacci_identity(rule: RandomSubstitution, n: int) -> IdentityCheck:
    """Check F(A_{n+1}, f_n) == F_{f_n} with exact generation windows.

    The windows come from ``_generation_windows``, which never builds
    A_{n+1}; the index convention is f_1 = f_2 = 1, as in
    ``fibonacci_number``.
    """
    if n < 4:
        raise ValueError("the identity is asserted for n >= 4")
    window = fibonacci_number(n)
    lhs = _generation_windows(rule, n + 1, window)
    rhs = legal_subwords(rule, window)
    return IdentityCheck(
        n=n,
        window=window,
        generation_size=len(lhs),
        oracle_size=len(rhs),
        equal=lhs == rhs.as_set(),
    )
