"""Substitution rules, rule files and seeded sampling."""

import re
import sys
from fractions import Fraction
from itertools import product

import pytest

from rauzylab import (
    ConfigurationError,
    InvalidRuleError,
    InvalidWordError,
    RandomSubstitution,
    fibonacci_rule,
    noble_means_rule,
    resolve_rule,
    rule_from_json,
    sample_inflation,
)
from rauzylab import oracle


def exhaustive_inflations(rule, w):
    """Independent oracle: literal concatenation product, deduplicated."""
    pools = [rule.realizations(ch) for ch in w]
    return {"".join(parts) for parts in product(*pools)}


def test_fibonacci_rule_realizations(fib):
    assert set(fib.realizations("a")) == {"ba", "ab"}
    assert fib.realizations("b") == ("a",)
    assert len(fib.realizations("a")) == 2
    assert len(fib.realizations("b")) == 1


def test_fibonacci_probabilities_default_half(fib):
    assert fib.probability_vector("a") == (Fraction(1, 2), Fraction(1, 2))
    assert sum(fib.probability_vector("a")) == 1


def test_equal_rules_share_one_hash_and_the_oracle_cache():
    # the hash is taken once, when the rule is built; two rules built apart
    # must still be one key of the oracle's cache
    a, b = fibonacci_rule(), fibonacci_rule()
    assert a is not b and a == b and hash(a) == hash(b) == hash(a._fields())
    oracle._legal_subword_set(a, 5)
    hits = oracle._legal_subword_set.cache_info().hits
    assert oracle._legal_subword_set(b, 5) is oracle._legal_subword_set(a, 5)
    assert oracle._legal_subword_set.cache_info().hits == hits + 2
    other = fibonacci_rule(Fraction(1, 3))
    assert other.rules == a.rules and other != a


def test_noble_means_one_matches_fibonacci_support(fib):
    assert noble_means_rule(1).support() == fib.support()


@pytest.mark.parametrize(
    "m,expected",
    [
        (1, {"ba", "ab"}),
        (2, {"baa", "aba", "aab"}),
        (3, {"baaa", "abaa", "aaba", "aaab"}),
    ],
)
def test_noble_means_realizations(m, expected):
    rule = noble_means_rule(m)
    assert set(rule.realizations("a")) == expected
    assert rule.realizations("b") == ("a",)


def test_noble_means_uniform_vector_is_valid():
    rule = noble_means_rule(2, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    assert sum(rule.probability_vector("a")) == 1


def test_noble_means_rejects_bad_parameters():
    with pytest.raises(InvalidRuleError):
        noble_means_rule(0)
    with pytest.raises(InvalidRuleError):
        noble_means_rule(2, (Fraction(1, 2), Fraction(1, 2)))
    # past the index range "a" * m raised OverflowError; a smaller m builds (m+1)^2 letters, so none is tried
    for m in (sys.maxsize, 99999999999999999999):
        with pytest.raises(InvalidRuleError, match=f"must be at most {sys.maxsize - 1}$"):
            resolve_rule(f"noble:{m}")


def test_rule_validation_rejects_bad_probabilities():
    with pytest.raises(InvalidRuleError):
        RandomSubstitution(
            name="bad",
            alphabet=("a", "b"),
            rules=(("a", ("ab",)), ("b", ("a",))),
            probabilities=(("a", (Fraction(1, 2),)), ("b", (Fraction(1),))),
        )
    with pytest.raises(InvalidRuleError):
        RandomSubstitution(
            name="bad",
            alphabet=("a", "b"),
            rules=(("a", ("ab",)), ("b", ("a",))),
            probabilities=(("a", (Fraction(2, 3),)), ("b", (Fraction(1),))),
        )


def test_rule_from_json_round_trip(fib, tmp_path):
    payload = {
        "alphabet": ["a", "b"],
        "rules": {"a": [["b", "a"], ["a", "b"]], "b": [["a"]]},
        "probabilities": {"a": ["1/2", "1/2"], "b": ["1"]},
    }
    rule = rule_from_json(payload)
    assert rule.support() == fib.support()
    assert rule.probability_vector("a") == (Fraction(1, 2), Fraction(1, 2))


def test_rule_from_json_names_a_missing_letter():
    payload = {"alphabet": ["a", "b"], "rules": {"a": [["b", "a"], ["a", "b"]]}}
    with pytest.raises(InvalidRuleError, match="rules has no entry for letter 'b'"):
        rule_from_json(payload)
    payload["rules"]["b"] = [["a"]]
    payload["probabilities"] = {"a": ["1/2", "1/2"]}
    with pytest.raises(InvalidRuleError, match="probabilities has no entry for letter 'b'"):
        rule_from_json(payload)


def test_rule_from_json_rejects_a_string_realization_list():
    # "ba" would otherwise be split into the two realizations b and a
    payload = {"alphabet": ["a", "b"], "rules": {"a": "ba", "b": [["a"]]}}
    with pytest.raises(InvalidRuleError, match="rules of letter 'a' must be a list"):
        rule_from_json(payload)


def test_rule_from_json_rejects_a_non_list_realization():
    payload = {"alphabet": ["a", "b"], "rules": {"a": [["b", "a"]], "b": [5]}}
    with pytest.raises(InvalidRuleError, match="realization 5 of letter 'b' is not a list of letters"):
        rule_from_json(payload)


@pytest.mark.parametrize(
    "entry",
    [None, True, ["1"], {"p": 1}, float("inf"), -float("inf"), float("1e400"), float("nan"), "1/0", "half"],
)
def test_rule_from_json_rejects_a_non_numeric_probability(entry):
    # Fraction(None) would escape as a TypeError, an infinity (JSON Infinity
    # or 1e400) as an OverflowError, and "1/0" as a ZeroDivisionError
    payload = {
        "alphabet": ["a", "b"],
        "rules": {"a": [["b", "a"], ["a", "b"]], "b": [["a"]]},
        "probabilities": {"a": [entry, "1"], "b": ["1"]},
    }
    with pytest.raises(InvalidRuleError, match=re.escape(f"probability {entry!r} of letter 'a'")):
        rule_from_json(payload)


def test_sample_of_b_one_round_is_a(fib):
    for seed in range(5):
        assert sample_inflation(fib, "b", 1, seed) == "a"


def test_sample_of_b_two_rounds_hits_both_realizations(fib):
    seen = {sample_inflation(fib, "b", 2, seed) for seed in range(50)}
    assert seen == {"ab", "ba"}


def test_sample_zero_rounds_returns_input(fib):
    assert sample_inflation(fib, "ab", 0, 7) == "ab"


def test_sample_is_pure(fib):
    a = sample_inflation(fib, "b", 9, 12345)
    b = sample_inflation(fib, "b", 9, 12345)
    assert a == b


def test_sample_requires_probabilities():
    bare = RandomSubstitution(
        name="bare", alphabet=("a", "b"), rules=(("a", ("ba", "ab")), ("b", ("a",)))
    )
    with pytest.raises(ConfigurationError):
        sample_inflation(bare, "b", 1, 0)


def test_sample_stays_inside_iterated_inflation_sets(fib):
    levels = [{"b"}]
    for _ in range(4):
        levels.append({v for w in levels[-1] for v in exhaustive_inflations(fib, w)})
    for k in range(5):
        for seed in range(10):
            assert sample_inflation(fib, "b", k, seed) in levels[k]


def test_sample_choice_frequency_matches_probability(fib):
    hits = sum(sample_inflation(fib, "b", 2, seed) == "ba" for seed in range(10_000))
    # binomial: 4 sigma around p = 1/2 at 10^4 draws
    assert abs(hits / 10_000 - 0.5) <= 0.02


def test_sample_draws_are_exact_integer_slices():
    # probabilities (0, 1/3, 2/3): the draw is randrange(3) against the
    # cumulative sums (0, 1, 3), so the zero-probability realization is never
    # drawn and "ba" takes exactly one of the three values
    rule = rule_from_json(
        {
            "alphabet": ["a", "b"],
            "rules": {"a": [["a", "b"], ["b", "a"], ["b", "b"]], "b": [["a"]]},
            "probabilities": {"a": ["0", "1/3", "2/3"], "b": ["1"]},
        }
    )
    seeds = 3000
    draws = [sample_inflation(rule, "a", 1, seed) for seed in range(seeds)]
    assert "ab" not in draws
    sigma = (seeds * (1 / 3) * (2 / 3)) ** 0.5
    assert abs(draws.count("ba") - seeds / 3) <= 4 * sigma


def test_sample_rejects_negative_seed(fib):
    with pytest.raises(ConfigurationError, match="seed"):
        sample_inflation(fib, "b", 1, -1)


def test_sample_rejects_foreign_and_empty_words(fib):
    with pytest.raises(InvalidWordError):
        sample_inflation(fib, "ax", 1, 0)
    with pytest.raises(InvalidWordError):
        sample_inflation(fib, "", 1, 0)
