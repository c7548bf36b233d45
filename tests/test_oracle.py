"""Generation windows and the legal-factor oracle against brute enumeration."""

import hashlib
import json
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rauzylab import (
    InvalidRuleError,
    InvariantViolationError,
    RandomSubstitution,
    Stage,
    build_rauzy,
    fibonacci_number,
    is_legal,
    legal_subwords,
    noble_means_rule,
    resolve_rule,
    specials_report,
    stage_report,
    verify_fibonacci_identity,
)
from rauzylab import oracle
from rauzylab.oracle import _corner_step, _generation_windows
from rauzylab.words import WordSet

from conftest import (
    DEPTH_THREE,
    DET_FIB,
    MIRROR_THREE,
    NO_DEPTH,
    PERIOD_DOUBLING,
    THREE_LETTER,
    THUE_MORSE,
    brute_factors,
    brute_generation,
    brute_legal,
    census_fields,
    small_rules,
    table_census,
    window_closures,
)
from dense import h1_rank, induced_h1_map, projection, quotient_h0, quotient_h1, strongly_connected

# complexity values confirmed by two independent algorithms (the corner
# step and the tests' window closure) and by brute enumeration up to length 13
EXPECTED_P = [2, 4, 7, 13, 22, 39, 67, 108, 183, 305, 510, 851, 1356, 2238]


def test_fibonacci_number_convention():
    assert [fibonacci_number(n) for n in range(1, 9)] == [1, 1, 2, 3, 5, 8, 13, 21]


def test_generation_five_contains_double_b(fib):
    assert "aabba" in brute_generation(5)


def test_generation_words_have_fibonacci_length(fib):
    for n in range(1, 9):
        lengths = {len(w) for w in brute_generation(n)}
        assert lengths == {fibonacci_number(n)}


def test_legal_subwords_small_lengths(fib):
    assert legal_subwords(fib, 1).as_set() == {"a", "b"}
    assert legal_subwords(fib, 2).as_set() == {"aa", "ab", "ba", "bb"}
    assert len(legal_subwords(fib, 3)) == 7


def test_legal_subwords_equal_brute_stabilisation(fib):
    for m in range(1, 14):
        assert legal_subwords(fib, m).as_set() == brute_legal(m), m


def test_legal_subwords_equal_window_closure(fib):
    # a structurally different second algorithm over the same rule, with
    # depths k = 1, 2 and 3 and a rule with no k
    rules = (
        fib,
        noble_means_rule(2),
        noble_means_rule(3),
        noble_means_rule(4),
        noble_means_rule(5),
        THUE_MORSE,
        PERIOD_DOUBLING,
        DET_FIB,
        THREE_LETTER,
    )
    for rule in rules:
        closures = window_closures(rule, 12)
        for m in range(1, 13):
            assert legal_subwords(rule, m).as_set() == closures[m], (rule.name, m)
    for rule in (DEPTH_THREE, NO_DEPTH, MIRROR_THREE):
        closures = window_closures(rule, 8)
        for m in range(1, 9):
            assert legal_subwords(rule, m).as_set() == closures[m], (rule.name, m)


@settings(max_examples=200, deadline=None)
@given(small_rules())
def test_legal_subwords_equal_window_closure_on_small_rules(rule):
    try:
        oracle._check_primitive(rule)
    except InvalidRuleError:
        assume(False)
    top = 6 if len(rule.alphabet) == 2 else 4
    closures = window_closures(rule, top)
    for m in range(1, top + 1):
        assert legal_subwords(rule, m).as_set() == closures[m], (rule.rules, m)
    # the stage facts read off the corner step's census, against the
    # table census and the dense eliminations on built graphs
    for n in range(1, 4):
        assert census_fields(specials_report(rule, n)) == table_census(rule, n), (rule.rules, n)
        assert Stage(rule, n, {}).connected == strongly_connected(build_rauzy(rule, n)), (rule.rules, n)
        rep, proj = stage_report(rule, n), projection(rule, n)
        assert rep.h1_rank == h1_rank(proj.target), (rule.rules, n)
        assert (rep.induced_map_rank, rep.induced_injective) == induced_h1_map(proj), (rule.rules, n)
        assert rep.h0_quotient_dim == quotient_h0(proj), (rule.rules, n)
        assert rep.h1_quotient_dim == quotient_h1(proj), (rule.rules, n)


@st.composite
def mirror_rules(draw) -> RandomSubstitution:
    """A ``small_rules`` draw with each letter's realizations closed under reversal."""
    rule = draw(small_rules())
    closed = tuple((a, tuple(dict.fromkeys(w for r in rs for w in (r, r[::-1])))) for a, rs in rule.rules)
    return RandomSubstitution(name="drawn-mirror", alphabet=rule.alphabet, rules=closed)


@settings(max_examples=50, deadline=None)
@given(mirror_rules())
def test_mirror_rules_equal_window_closure_and_table_census(rule):
    # the corner step searches one bispecial of each mirror pair and reverses
    # its corners for the other
    try:
        oracle._check_primitive(rule)
    except InvalidRuleError:
        assume(False)
    assert oracle._reversal_closed(rule)
    closures = window_closures(rule, 6)
    for m in range(1, 7):
        assert legal_subwords(rule, m).as_set() == closures[m], (rule.rules, m)
    for n in range(1, 5):
        assert census_fields(specials_report(rule, n)) == table_census(rule, n), (rule.rules, n)


def test_reversal_closed_rules():
    closed = [resolve_rule("fib"), MIRROR_THREE] + [noble_means_rule(k) for k in range(1, 6)]
    for rule in closed:
        assert oracle._reversal_closed(rule), rule.name
        for m in range(1, 11):
            words = legal_subwords(rule, m).as_set()
            assert words == {w[::-1] for w in words}, (rule.name, m)
    for rule in (THREE_LETTER, DEPTH_THREE, NO_DEPTH, DET_FIB, THUE_MORSE, PERIOD_DOUBLING):
        assert not oracle._reversal_closed(rule), rule.name
    # a -> abc|cba is closed but b -> ac is not, and from m = 3 on neither is the language
    for m in range(3, 9):
        words = legal_subwords(THREE_LETTER, m).as_set()
        assert words != {w[::-1] for w in words}, m
    assert [len(legal_subwords(MIRROR_THREE, m)) for m in range(1, 9)] == [3, 9, 24, 58, 132, 284, 568, 1118]


def test_corner_step_checks_that_mirror_pairs_mirror(fib):
    # without bbaa, aab stays bispecial in F_3 -> F_4 but its reversal baa does not
    built = [frozenset([""])] + [legal_subwords(fib, j).as_set() for j in range(1, 5)]
    built[4] = built[4] - {"bbaa"}
    with pytest.raises(InvariantViolationError, match="mirror"):
        _corner_step(fib, built)


def test_corner_step_raises_on_a_bispecial_with_no_corner(fib):
    # drop from F_4 every word one of whose images holds a corner of babab:
    # F_5 and F_6 still extend into each other, but no corner of babab parses
    built = [frozenset([""])] + [legal_subwords(fib, j).as_set() for j in range(1, 7)]
    corners = {x + "babab" + y for x in "ab" for y in "ab"} & legal_subwords(fib, 7).as_set()
    rules = dict(fib.rules)
    images = {w: {"".join(p) for p in product(*(rules[c] for c in w))} for w in built[4]}
    built[4] = frozenset(w for w in built[4] if not any(u in image for image in images[w] for u in corners))
    assert len(built[4]) == len(legal_subwords(fib, 4)) - 5
    with pytest.raises(InvariantViolationError, match="'babab' has no legal corner extension"):
        _corner_step(fib, built)


def _count_steps(monkeypatch) -> list[int]:
    """Clear the oracle cache and record the length m of every corner step from now on."""
    calls: list[int] = []
    step = oracle._corner_step

    def counted(rule, built):
        calls.append(len(built))
        return step(rule, built)

    monkeypatch.setattr(oracle, "_corner_step", counted)
    oracle._legal_subword_set.cache_clear()
    return calls


def test_desubstitution_step_reaches_length_fourteen(fib, monkeypatch):
    # p(14) comes from the step applied to shorter lengths, one step per m >= 2
    calls = _count_steps(monkeypatch)
    try:
        assert len(legal_subwords(fib, 14)) == EXPECTED_P[13]
        assert calls == list(range(2, 15))
    finally:
        oracle._legal_subword_set.cache_clear()


def test_corner_step_reaches_length_sixteen(fib, monkeypatch):
    # every F_m with m >= 2, and only those, comes from one corner step
    calls = _count_steps(monkeypatch)
    try:
        assert len(legal_subwords(fib, 15)) == 3652
        assert len(legal_subwords(fib, 16)) == 5988
        assert calls == list(range(2, 17))
    finally:
        oracle._legal_subword_set.cache_clear()


def test_same_length_preimage_cycles_end():
    # DET_FIB (aa <- ba <- aa) and THREE_LETTER have cycles of same-length
    # preimages at m = 2, and NO_DEPTH at every m; the path check must end
    # the search without losing a legal word
    for rule in (DET_FIB, THREE_LETTER):
        closures = window_closures(rule, 3)
        for m in (2, 3):
            assert legal_subwords(rule, m).as_set() == closures[m], (rule.name, m)
    closures = window_closures(NO_DEPTH, 8)
    for m in range(1, 9):
        assert legal_subwords(NO_DEPTH, m).as_set() == closures[m], m


def test_rule_without_depth_keeps_window_closure():
    # with no depth k, the path check alone bounds the search; here F_m is
    # every binary word
    for m in range(1, 9):
        assert legal_subwords(NO_DEPTH, m).as_set() == {"".join(w) for w in product("ab", repeat=m)}, m
    # independent: every realization of theta^j(b), over all j, of length
    # <= 10, by literal concatenation products; inflation never shortens a
    # word, so the longer ones need not be inflated
    rules = dict(NO_DEPTH.rules)
    reached, todo = {"b"}, ["b"]
    while todo:
        for parts in product(*(rules[ch] for ch in todo.pop())):
            w = "".join(parts)
            if len(w) <= 10 and w not in reached:
                reached.add(w)
                todo.append(w)
    for m in range(1, 7):
        assert legal_subwords(NO_DEPTH, m).as_set() == brute_factors(reached, m), m


def test_seed_extendability_is_checked(fib):
    # without bba, the legal 2-word bb has no right extension in F_3; with
    # F_2 = {aa}, the letter b has no extension in F_2.  A stray word in F_5
    # whose prefix is not in F_4 (bbbab: bbba) or whose suffix is not
    # (babbb: abbb) extends a word of F_4 on one side only, so only the sum
    # of the right (left) extension counts can catch it.  The step that
    # reads each broken pair must refuse it.
    legal = [frozenset([""])] + [legal_subwords(fib, j).as_set() for j in range(1, 6)]
    for built in (
        legal[:3] + [legal[3] - {"bba"}],
        legal[:2] + [frozenset({"aa"})],
        legal[:5] + [legal[5] | {"bbbab"}],
        legal[:5] + [legal[5] | {"babbb"}],
    ):
        with pytest.raises(InvariantViolationError, match="no legal extension on one side"):
            _corner_step(fib, built)


def test_non_extendable_language_raises():
    # from the seed b the language would be {b}, with no legal extension of
    # b; the rule is not primitive, so the oracle rejects it before F_1
    frozen = RandomSubstitution(
        name="frozen", alphabet=("a", "b"), rules=(("a", ("a",)), ("b", ("b",)))
    )
    for m in (1, 4):
        with pytest.raises(InvalidRuleError, match="not primitive"):
            legal_subwords(frozen, m)


def test_complexity_table_frozen(fib):
    assert [len(legal_subwords(fib, m)) for m in range(1, 15)] == EXPECTED_P


def test_factor_sets_grow_with_generation(fib):
    # from generation 2 on, every word is a prefix of a next-generation
    # word; generation 1 ({b}) is not embedded in generation 2 ({a})
    for k in range(2, 8):
        for m in range(1, 6):
            earlier = brute_factors(brute_generation(k), m)
            later = brute_factors(brute_generation(k + 1), m)
            assert earlier <= later


def test_factor_closure_under_shortening(fib):
    for m in range(2, 13):
        shorter = legal_subwords(fib, m - 1)
        for w in legal_subwords(fib, m):
            assert w[:-1] in shorter and w[1:] in shorter


def test_every_factor_extends_both_sides(fib):
    for m in range(1, 11):
        two_longer = legal_subwords(fib, m + 2)
        for v in legal_subwords(fib, m):
            assert any(x + v + y in two_longer for x in "ab" for y in "ab"), v


def test_every_factor_extends_right(fib):
    for m in range(1, 13):
        longer = legal_subwords(fib, m + 1)
        for v in legal_subwords(fib, m):
            assert v + "a" in longer or v + "b" in longer


def test_legality_examples(fib):
    assert is_legal(fib, "a")
    assert is_legal(fib, "bb")
    assert not is_legal(fib, "bbb")


def test_double_b_witnessed_by_generation_five(fib):
    assert any("bb" in w for w in brute_generation(5))


def test_fibonacci_identity_holds(fib):
    for n in (4, 5, 6):
        check = verify_fibonacci_identity(fib, n)
        assert check.equal and check.generation_size == check.oracle_size


def test_fibonacci_identity_needs_full_generation(fib):
    # one generation earlier the factor set is strictly smaller
    window = fibonacci_number(4)
    partial = brute_factors(brute_generation(4), window)
    full = legal_subwords(fib, window)
    assert partial < full.as_set()


def test_generation_windows_match_literal_enumeration(fib):
    # the prefix/suffix recursion never builds A_{n+1}; the literal sets do
    for n in range(4, 8):
        window = fibonacci_number(n)
        literal = brute_factors(brute_generation(n + 1), window)
        assert _generation_windows(fib, n + 1, window) == literal, n
    with pytest.raises(InvalidRuleError):
        _generation_windows(noble_means_rule(2), 5, 3)


def test_generation_windows_every_length_at_generation_eight(fib):
    # generation-8 words have length 21, so windows up to 13 cross every seam
    for m in range(1, 14):
        assert _generation_windows(fib, 8, m) == brute_factors(brute_generation(8), m), m


def test_identity_rejects_small_stage(fib):
    with pytest.raises(ValueError):
        verify_fibonacci_identity(fib, 3)


def test_window_closure_matches_known_deterministic_languages():
    # Thue-Morse complexity starts 2,4,6,10,12,16,20,22 (classical values)
    assert [len(legal_subwords(THUE_MORSE, m)) for m in range(1, 9)] == [2, 4, 6, 10, 12, 16, 20, 22]
    # deterministic Fibonacci word is Sturmian: p(m) = m + 1
    assert [len(legal_subwords(DET_FIB, m)) for m in range(1, 11)] == list(range(2, 12))


def test_noble_two_language_is_smaller_than_fibonacci(fib):
    noble = noble_means_rule(2)
    # both start with the full binary square but diverge later
    assert legal_subwords(noble, 2).as_set() == {"aa", "ab", "ba", "bb"}
    assert len(legal_subwords(noble, 6)) < len(legal_subwords(fib, 6))


def test_word_sets_are_ordered_by_length_then_lexicographically():
    words = ["ba", "b", "aab", "ab", "a", "bb", "aa", "ba", "abb"]
    expected = ("a", "b", "aa", "ab", "ba", "bb", "aab", "abb")
    for items in (words, reversed(words), frozenset(words)):
        word_set = WordSet.from_iterable(items)
        assert word_set.words == expected
        assert word_set.as_set() == frozenset(expected)


def test_languages_match_pinned_digests():
    # sha256 of each F_m as its words in canonical order joined by newlines,
    # m = 1, 2, ...; recorded when every corner had a parse search of its own
    digests = json.loads((Path(__file__).parent / "language_digests.json").read_text())
    rules = {r.name: r for r in (THREE_LETTER, DEPTH_THREE, NO_DEPTH, DET_FIB)}
    assert len(digests) == 9
    for name, expected in digests.items():
        rule = rules[name] if name in rules else resolve_rule(name)
        for m, digest in enumerate(expected, 1):
            words = "\n".join(legal_subwords(rule, m))
            assert hashlib.sha256(words.encode()).hexdigest() == digest, (name, m)
