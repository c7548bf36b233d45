"""Acceptance suite: one test per criterion, one printed line each.

Run visibly with:  pytest -s tests/test_acceptance.py
"""

import time
from math import sqrt

from rauzylab import (
    build_rauzy,
    complexity,
    direct_limit_report,
    fibonacci_rule,
    first_difference,
    h1_rank,
    induced_h1_map,
    is_legal,
    legal_subwords,
    projection,
    pullback_matrices,
    quotient_h0,
    quotient_h1,
    sample_inflation,
    specials_report,
    strongly_connected,
    verify_commutation,
    verify_fibonacci_identity,
)
from rauzylab.cli import main

RULE = fibonacci_rule()


def report(num, ok, detail):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_figure_complexity_values():
    start = time.perf_counter()
    p = [complexity(RULE, n) for n in (1, 2, 3)]
    s = [first_difference(RULE, n) for n in (1, 2, 3)]
    elapsed = time.perf_counter() - start
    ok = p == [2, 4, 7] and s == [2, 3, 6] and elapsed < 1.0
    report(1, ok, f"p(1..3)={p} s(1..3)={s} in {elapsed:.3f}s")


def test_criterion_02_complexity_level_four():
    start = time.perf_counter()
    direct = complexity(RULE, 4)
    composed = complexity(RULE, 3) + first_difference(RULE, 3)
    elapsed = time.perf_counter() - start
    ok = direct == 13 == composed and elapsed < 1.0
    report(2, ok, f"p(4)={direct} (=p(3)+s(3)={composed}) in {elapsed:.3f}s")


def test_criterion_03_graph_cell_counts():
    ok = True
    for n in range(1, 11):
        g = build_rauzy(RULE, n)
        ok &= g.vertex_count == complexity(RULE, n)
        ok &= g.edge_count == complexity(RULE, n) + first_difference(RULE, n)
    report(3, ok, "vertex/edge counts match p(n) and p(n)+s(n) for n <= 10")


def test_criterion_04_h1_rank_formula():
    ranks = [h1_rank(build_rauzy(RULE, n)) for n in range(1, 11)]
    expected = [first_difference(RULE, n) + 1 for n in range(1, 11)]
    report(4, ranks == expected, f"h1 ranks {ranks} equal s(n)+1 for n <= 10")


def test_criterion_05_strong_connectivity():
    ok = all(strongly_connected(build_rauzy(RULE, n)) for n in range(1, 11))
    report(5, ok, "all stage graphs strongly connected for n <= 10")


def test_criterion_06_generation_window_identity():
    checks = [verify_fibonacci_identity(RULE, n) for n in (4, 5, 6)]
    detail = "; ".join(
        f"n={c.n}: |F(A_{c.n + 1},f_{c.n})|={c.generation_size} |F_{c.window}|={c.oracle_size}"
        for c in checks
    )
    report(6, all(c.equal for c in checks), detail)


def test_criterion_07_no_weak_bispecials_and_extension_lemma():
    ok = all(specials_report(RULE, n).no_weak_bispecials for n in range(1, 13))
    s = [first_difference(RULE, n) for n in range(1, 13)]
    ok &= s == sorted(s)
    report(7, ok, "no weak bispecials to length 12; common extensions exist; s nondecreasing")


def test_criterion_08_bispecial_identity():
    ok = True
    for n in range(1, 12):
        rep = specials_report(RULE, n)
        ok &= rep.bispecial_identity
        ok &= rep.weak_count == 0
    report(8, ok, "s(n+1)-s(n) = sb(n)-wb(n) with wb(n)=0 for n <= 11")


def test_criterion_09_cochain_algebra():
    ok = True
    for n in range(1, 10):
        proj = projection(RULE, n)
        m0, m1 = pullback_matrices(proj)
        ok &= m0.rank() == m0.cols and m1.rank() == m1.cols
        ok &= verify_commutation(proj)
        ok &= induced_h1_map(proj).injective
        ok &= quotient_h0(proj) == 0
        ok &= quotient_h1(proj) == first_difference(RULE, n + 1) - first_difference(RULE, n)
    report(9, ok, "pullbacks, commutation, injectivity, quotient dims verified for n <= 9")


def test_criterion_10_growth_witness():
    tower = direct_limit_report(RULE, 10)
    ranks = [r.h1_rank for r in tower.stages]
    strict = tower.strict_rank_increases
    ok = ranks == sorted(ranks) and strict >= 3 and tower.all_injective
    report(10, ok, f"ranks {ranks}: {strict} strict increases, all bonding maps injective")


def test_criterion_11_sampling_soundness():
    seeds = range(1000)
    legal_subwords(RULE, 6)  # warm the oracle before the membership loop
    sound = True
    first_choice_hits = 0
    for seed in seeds:
        word = sample_inflation(RULE, "b", 10, seed)
        for m in range(1, 7):
            if not all(is_legal(RULE, word[i : i + m]) for i in range(len(word) - m + 1)):
                sound = False
        first_choice_hits += sample_inflation(RULE, "b", 2, seed) == "ba"
    freq = first_choice_hits / 1000
    tolerance = 4 * sqrt(0.25 / 1000)
    ok = sound and abs(freq - 0.5) <= tolerance
    report(11, ok, f"10^3 samples all legal to length 6; ba-frequency {freq:.3f} within {tolerance:.3f} of 1/2")


def test_criterion_12_report_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["report", "--max-n", "3", "--out", str(out_a)]) == 0
    assert main(["report", "--max-n", "3", "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    identical = names == sorted(p.name for p in out_b.iterdir()) and all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in names
    )
    report(12, identical, f"two report runs byte-identical across {len(names)} files")
