"""Complexity, specials census and bispecial classification."""

import pytest

from rauzylab import (
    DomainError,
    RandomSubstitution,
    branching_excess,
    complexity,
    extension_table,
    first_difference,
    specials_report,
)

from conftest import brute_legal

THUE_MORSE = RandomSubstitution(
    name="thue-morse", alphabet=("a", "b"), rules=(("a", ("ab",)), ("b", ("ba",)))
)
DET_FIB = RandomSubstitution(
    name="det-fib", alphabet=("a", "b"), rules=(("a", ("ab",)), ("b", ("a",)))
)


def brute_census(n):
    """Reclassify every legal factor straight from brute factor sets."""
    legal_n, legal_n1, legal_n2 = brute_legal(n), brute_legal(n + 1), brute_legal(n + 2)
    rights = {v for v in legal_n if v + "a" in legal_n1 and v + "b" in legal_n1}
    lefts = {v for v in legal_n if "a" + v in legal_n1 and "b" + v in legal_n1}
    corner_counts = {
        v: sum(x + v + y in legal_n2 for x in "ab" for y in "ab") for v in rights & lefts
    }
    return rights, lefts, corner_counts


def test_complexity_figure_values(fib):
    assert complexity(fib, 1) == 2
    assert complexity(fib, 2) == 4
    assert complexity(fib, 3) == 7


def test_complexity_level_four_two_ways(fib):
    assert complexity(fib, 4) == 13
    assert complexity(fib, 4) == complexity(fib, 3) + first_difference(fib, 3)


def test_first_difference_figure_values(fib):
    assert first_difference(fib, 1) == 2
    assert first_difference(fib, 2) == 3
    assert first_difference(fib, 3) == 6


def test_extension_table_of_single_letters(fib):
    table_a = extension_table(fib, "a")
    assert ("b", "b") in table_a.corners
    assert table_a.corner_count == 4
    table_b = extension_table(fib, "b")
    assert set(table_b.right) == {"a", "b"}
    assert set(table_b.left) == {"a", "b"}
    assert table_b.corner_count == 3


def test_extension_table_unique_extension_not_special(fib):
    # bb extends right only by a (bbb is illegal)
    table = extension_table(fib, "bb")
    assert table.right == ("a",)
    assert not table.is_right_special


def test_extension_table_rejects_illegal_word(fib):
    with pytest.raises(DomainError):
        extension_table(fib, "bbb")


def test_specials_level_one(fib):
    rep = specials_report(fib, 1)
    assert rep.right_specials.as_set() == {"a", "b"}
    assert rep.s == 2 == len(rep.right_specials)
    assert rep.strong_count == 1 and rep.weak_count == 0 and rep.neutral_count == 1


def test_specials_level_two(fib):
    rep = specials_report(fib, 2)
    assert len(rep.right_specials) == 3 == rep.s
    assert rep.weak_count == 0
    assert rep.strong_count == first_difference(fib, 3) - first_difference(fib, 2) == 3


def test_census_against_brute_reclassification(fib):
    for n in range(1, 8):
        rights, lefts, corner_counts = brute_census(n)
        rep = specials_report(fib, n)
        assert rep.right_specials.as_set() == rights
        assert rep.left_specials.as_set() == lefts
        assert rep.bispecials.as_set() == set(corner_counts)
        assert rep.strong_count == sum(c == 4 for c in corner_counts.values())
        assert rep.weak_count == sum(c == 2 for c in corner_counts.values())


def test_counting_identity_right_specials(fib):
    for n in range(1, 12):
        rep = specials_report(fib, n)
        assert complexity(fib, n + 1) == rep.p + len(rep.right_specials)
        assert len(rep.left_specials) == len(rep.right_specials) == rep.s


def test_bispecial_identity(fib):
    assert specials_report(fib, 1).bispecial_identity
    assert first_difference(fib, 2) - first_difference(fib, 1) == 1
    assert specials_report(fib, 2).bispecial_identity
    assert first_difference(fib, 3) - first_difference(fib, 2) == 3
    for n in range(3, 12):
        assert specials_report(fib, n).bispecial_identity, n


def test_no_weak_bispecials_up_to_twelve(fib):
    for n in range(1, 13):
        assert specials_report(fib, n).no_weak_bispecials, n
        assert specials_report(fib, n).weak_count == 0


def test_first_difference_nondecreasing(fib):
    values = [first_difference(fib, n) for n in range(1, 13)]
    assert values == sorted(values)


def test_complexity_nondecreasing_and_superlinear(fib):
    values = [complexity(fib, n) for n in range(1, 13)]
    assert values == sorted(values)
    for n in range(4, 13):
        assert complexity(fib, n) > 2 * n


def test_branching_excess_equals_first_difference(fib):
    for n in range(1, 9):
        assert branching_excess(fib, n) == first_difference(fib, n)


def test_thue_morse_has_weak_bispecials():
    # the deterministic negative control: the checker must detect them
    assert not specials_report(THUE_MORSE, 3).no_weak_bispecials
    assert specials_report(THUE_MORSE, 3).weak_count == 2
    assert any(
        specials_report(THUE_MORSE, n).weak_count > 0 for n in range(1, 9)
    )
    # and the census identity still balances there
    for n in range(1, 8):
        assert specials_report(THUE_MORSE, n).bispecial_identity


def test_deterministic_fibonacci_cannot_serve_as_weak_control():
    # Sturmian: s is constantly 1 and every bispecial is neutral, so no
    # weak bispecial ever appears in this language
    for n in range(1, 10):
        assert first_difference(DET_FIB, n) == 1
        rep = specials_report(DET_FIB, n)
        assert rep.weak_count == 0 and rep.strong_count == 0
        assert specials_report(DET_FIB, n).no_weak_bispecials
