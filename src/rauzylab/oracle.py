"""The factor language of a random substitution.

``legal_subwords`` computes F_m, the set of legal length-m factors, by one
routine for every rule.  It rests on L(theta^k) = L(theta) for a primitive
theta (Rust & Spindeler, *Dynamical systems arising from random
substitutions*, Indag. Math. 2018): a word is legal exactly when it is a
factor of one realization of theta(w) for a legal word w.

F_1..F_3 are seeds from window closure, which inflates windows from a seed
letter until they stop changing, within a cap on the number of rounds.
From m = 4 on, the corner step builds F_m from F_{m-1}.  Every legal
m-word is xvy with xv and vy in F_{m-1}.  If v has exactly one right
extension, or exactly one left extension, then xvy is legal for every such
x and y, by bi-extendability; so only the corners of bispecial v need a
decision.  A corner is parsed into blocks of theta: a nonempty suffix of a
realization, whole realizations, and a nonempty prefix of a realization.
The preimage is looked up in a shorter F_j.  A preimage as long as the
corner arises only through 1-letter realizations and is parsed in turn,
at most k levels deep, where k is the least power at which every
realization of theta^k has at least 2 letters.  A parse at that depth has
at most m/2 + 1 blocks, so a length-m preimage there is a bug and raises.

Both preconditions are checked, never assumed: the rule must be primitive
(some power of its letter-incidence matrix is positive), else
``InvalidRuleError``; and the language must be extendable, which
primitivity gives and which is checked on the seeds and on every F_{m-1}
the step reads, else ``InvariantViolationError``.  A rule with no such k
(a chain of 1-letter realizations at every power, as in a -> ab|b,
b -> a) keeps window closure at every length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidRuleError, InvalidWordError, InvariantViolationError, NonConvergenceError
from .rules import RandomSubstitution, has_fibonacci_support
from .words import WordSet

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


def _require_fibonacci_support(rule: RandomSubstitution) -> None:
    if not has_fibonacci_support(rule):
        raise InvalidRuleError(
            "the generation recursion is specific to the Fibonacci rule; "
            "use all_inflations iteration for other rules"
        )


def generation_set(rule: RandomSubstitution, n: int) -> WordSet:
    """The exact set of generation-n inflated words (Fibonacci rule only).

    A_1 = {b}, A_2 = {a}; higher generations follow the two-sided
    concatenation recursion A_k = A_{k-1} A_{k-2} | A_{k-2} A_{k-1}.
    Sizes grow super-exponentially, so keep n small.  The pipeline never
    builds A_n: the identity check takes its windows from
    ``_generation_windows``, and this literal set is the tests' reference.
    """
    _require_fibonacci_support(rule)
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


def _generation_windows(rule: RandomSubstitution, k: int, m: int) -> frozenset[str]:
    """F(A_k, m), the length-m factors of the generation-k words, without building A_k.

    A_j is the union of the full products A_{j-1} A_{j-2} and A_{j-2} A_{j-1},
    and its words have length f_j.  So its m-windows are those of A_{j-1} and
    A_{j-2}, and, at each seam, every length-i suffix of the first factor
    followed by every length-(m-i) prefix of the second.  Prefix and suffix
    sets follow the same recursion; a length-l one is a subset of F_l, and
    the seams need only l < m, so no set is as large as A_k.
    """
    _require_fibonacci_support(rule)
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


def _extensions(
    rule: RandomSubstitution, shorter: frozenset[str], longer: frozenset[str]
) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Right and left extensions in ``longer`` (F_{j+1}) of each word of ``shorter`` (F_j).

    Raises unless every word of F_j extends on both sides and every word of
    F_{j+1} has its prefix and suffix in F_j.
    """
    rights: dict[str, list[str]] = {}
    lefts: dict[str, list[str]] = {}
    for w in longer:
        rights.setdefault(w[:-1], []).append(w[-1])
        lefts.setdefault(w[1:], []).append(w[0])
    if not rights.keys() == lefts.keys() == shorter:
        raise InvariantViolationError(
            f"rule {rule.name!r} has a legal word with no legal extension on one side"
        )
    return rights, lefts


def _check_primitive(rule: RandomSubstitution) -> None:
    """Raise unless some power of the letter-incidence matrix is positive.

    By Wielandt's bound a primitive d x d matrix has a positive power
    (d-1)^2 + 1, and every later power is positive too, so that one power
    decides.
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


def _desubstitution_depth(rule: RandomSubstitution) -> int | None:
    """The least k at which every realization of theta^k has at least 2 letters.

    Only shortest lengths are tracked: shortest[a] is the length of a's
    shortest theta^k realization.  The letters where it is 1 form a
    shrinking set, which is empty after len(alphabet) rounds or never, so
    None means the rule has no such k.
    """
    shortest = dict.fromkeys(rule.alphabet, 1)
    for k in range(1, len(rule.alphabet) + 1):
        shortest = {a: min(sum(shortest[c] for c in r) for r in rule.realizations(a)) for a in rule.alphabet}
        if min(shortest.values()) >= 2:
            return k
    return None


def _corner_step(rule: RandomSubstitution, built: list[frozenset[str]], k: int) -> frozenset[str]:
    """F_m from built[j] = F_j for j < m, deciding only the corners of bispecials.

    Every legal m-word is xvy with xv and vy in F_{m-1}.  If v has one
    right extension y, every legal xv extends, and only by y, so xvy is
    legal for every x; the same holds with one left extension.  The other
    xvy, the corners of bispecial v, are decided by ``decide``.
    """
    m = len(built)
    rights, lefts = _extensions(rule, built[m - 2], built[m - 1])
    realizations = [(a, r) for a in rule.alphabet for r in rule.realizations(a)]
    longest = max(len(r) for _, r in realizations)
    blocks: dict[str, list[tuple[str, str, int]]] = {}
    heads: dict[str, dict[tuple[str, str], None]] = {}
    for a, r in realizations:
        blocks.setdefault(r[0], []).append((a, r, len(r)))
        for i in range(len(r)):
            heads.setdefault(r[i], {})[a, r[i:]] = None

    def decide(u: str, level: int) -> bool:
        """Whether u is a factor of a realization of theta(w) for a legal w.

        A shortest such w parses u into blocks: a nonempty suffix of a
        realization of w's first letter, whole realizations, and a nonempty
        prefix of a realization of its last letter.  Each preimage prefix
        is looked up in the shorter F_j.  A preimage of length m, which
        only 1-letter realizations give, is decided by parsing it in turn.
        """
        if m <= longest and any(u in r for _, r in realizations):
            return True
        stack = [(len(s), a) for a, s in heads.get(u[0], ()) if len(s) < m and u.startswith(s)]
        while stack:
            pos, pre = stack.pop()
            left = m - pos
            for a, r, n in blocks.get(u[pos], ()):
                if n < left:
                    if u.startswith(r, pos) and (w := pre + a) in built[len(w)]:
                        stack.append((pos + n, w))
                elif r.startswith(u[pos:]):
                    w = pre + a
                    if len(w) < m:
                        if w in built[len(w)]:
                            return True
                    elif level == k:
                        raise InvariantViolationError(
                            f"rule {rule.name!r}: a length-{m} preimage after {k} desubstitution levels"
                        )
                    elif decide(w, level + 1):
                        return True
        return False

    out: set[str] = set()
    for v, ys in rights.items():
        xs = lefts[v]
        if len(xs) == 1 or len(ys) == 1:
            out.update(x + v + y for x in xs for y in ys)
        else:
            out.update(u for x in xs for y in ys if decide(u := x + v + y, 1))
    return frozenset(out)


@lru_cache(maxsize=None)
def _legal_subword_set(rule: RandomSubstitution, m: int) -> WordSet:
    """F_m: the seeds F_1..F_3 by window closure, then the corner step.

    Primitivity is checked before any F_m, and the seeds' extendability
    before the first step (m = 4).  The step reads F_1..F_{m-1} as locals
    and parses corners at most k levels deep, k from
    ``_desubstitution_depth``; a rule with no such k stays on window
    closure.  Each F_m is sorted once, here, and served from this cache.
    """
    _check_primitive(rule)
    k = _desubstitution_depth(rule)
    if m <= 3 or k is None:
        # the seeds F_1..F_3, and every F_m of a rule with no such k
        # (a chain of 1-letter realizations at every power), come from
        # window closure
        return WordSet.from_iterable(_legal_subwords_generic(rule, m, DEFAULT_GENERATION_CAP))
    built = [frozenset([""])] + [_legal_subword_set(rule, j).as_set() for j in range(1, m)]
    if m == 4:
        # the step checks F_2 -> F_3 and every later pair; this is the first
        _extensions(rule, built[1], built[2])
    return WordSet.from_iterable(_corner_step(rule, built, k))


def legal_subwords(rule: RandomSubstitution, m: int) -> WordSet:
    """F_m: the set of legal length-m factors of the rule's language."""
    if m < 1:
        raise ValueError("factor length must be >= 1")
    return _legal_subword_set(rule, m)


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
