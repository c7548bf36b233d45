"""Exact cochain algebra on the stage tower and on synthetic controls."""

import random

import pytest

from rauzylab import (
    Edge,
    InvariantViolationError,
    ProjectionMap,
    RandomSubstitution,
    RationalMatrix,
    RauzyGraph,
    SimpleDigraph,
    build_rauzy,
    coboundary_matrix,
    complexity,
    direct_limit_report,
    first_difference,
    h1_rank,
    induced_h1_map,
    noble_means_rule,
    projection,
    pullback_matrices,
    quotient_h0,
    quotient_h1,
    specials_report,
    stage_report,
    verify_commutation,
)
from rauzylab import cohomology, kernels

THUE_MORSE = RandomSubstitution(
    name="thue-morse", alphabet=("a", "b"), rules=(("a", ("ab",)), ("b", ("ba",)))
)
PERIOD_DOUBLING = RandomSubstitution(
    name="period-doubling", alphabet=("a", "b"), rules=(("a", ("ab",)), ("b", ("aa",)))
)
THREE_LETTER = RandomSubstitution(
    name="abc-cba",
    alphabet=("a", "b", "c"),
    rules=(("a", ("abc", "cba")), ("b", ("ac",)), ("c", ("b",))),
)


def test_coboundary_self_loop_rows_vanish(fib):
    g = build_rauzy(fib, 1)
    d = coboundary_matrix(g)
    for i, e in enumerate(g.edges):
        if e.tail == e.head:
            assert all(d[i, j] == 0 for j in range(d.cols))


def test_coboundary_kills_constants(fib):
    for n in range(1, 5):
        g = build_rauzy(fib, n)
        d = coboundary_matrix(g)
        ones = RationalMatrix([[1]] * d.cols)
        assert d @ ones == RationalMatrix.zeros(d.rows, 1)


def test_coboundary_rank_is_vertices_minus_one(fib):
    for n in range(1, 9):
        g = build_rauzy(fib, n)
        assert coboundary_matrix(g).rank() == g.vertex_count - 1


def test_coboundary_kernel_is_exactly_constants(fib):
    # the constants lie in the kernel, and rank D = V - 1 leaves room for nothing else
    for n in range(1, 5):
        g = build_rauzy(fib, n)
        d = coboundary_matrix(g)
        assert d @ RationalMatrix([[1]] * d.cols) == RationalMatrix.zeros(d.rows, 1)
        assert g.vertex_count - d.rank() == 1


def test_h1_rank_figure_values(fib):
    assert h1_rank(build_rauzy(fib, 1)) == 3
    assert h1_rank(build_rauzy(fib, 2)) == 4
    assert h1_rank(build_rauzy(fib, 3)) == 7


def test_h1_rank_formula_up_to_ten(fib):
    for n in range(1, 11):
        g = build_rauzy(fib, n)
        rank = h1_rank(g)
        assert rank == first_difference(fib, n) + 1
        assert rank == g.edge_count - g.vertex_count + 1


def test_h1_rank_expected_mismatch_raises(fib):
    with pytest.raises(InvariantViolationError):
        h1_rank(build_rauzy(fib, 1), expected=99)


def test_pullback_columns_are_nonzero_fibers(fib):
    for n in range(1, 8):
        m0, m1 = pullback_matrices(projection(fib, n))
        for mat in (m0, m1):
            col_sums = [sum(mat[i, j] for i in range(mat.rows)) for j in range(mat.cols)]
            assert all(s >= 1 for s in col_sums)


def test_pullbacks_have_full_column_rank(fib):
    for n in range(1, 9):
        m0, m1 = pullback_matrices(projection(fib, n))
        assert m0.rank() == m0.cols
        assert m1.rank() == m1.cols


def test_pullbacks_commute_with_coboundaries(fib):
    for n in range(1, 9):
        assert verify_commutation(projection(fib, n)), n


def test_induced_map_small_stages(fib):
    assert induced_h1_map(projection(fib, 1)) == (3, True)
    assert induced_h1_map(projection(fib, 2)) == (4, True)


def test_induced_maps_injective_up_to_nine(fib):
    for n in range(1, 10):
        rank, injective = induced_h1_map(projection(fib, n))
        assert injective and rank == h1_rank(build_rauzy(fib, n))


def test_quotient_h0_vanishes_up_to_nine(fib):
    for n in range(1, 10):
        assert quotient_h0(projection(fib, n)) == 0, n


def test_quotient_h1_equals_rank_jump(fib):
    for n in range(1, 10):
        jump = first_difference(fib, n + 1) - first_difference(fib, n)
        assert quotient_h1(projection(fib, n)) == jump
        assert jump == specials_report(fib, n).strong_count


def collapse_pair():
    """Unrolling a loop: X is a two-vertex path, Y a one-vertex loop.

    The quotient map collapses both X vertices onto the loop vertex; the
    loop class of Y pulls back to a coboundary, so the induced map on
    first cohomology kills it.
    """
    x = SimpleDigraph(vertex_count=2, edges=(Edge(None, 0, 1),))
    y = SimpleDigraph(vertex_count=1, edges=(Edge(None, 0, 0),))
    return ProjectionMap(
        n=0, parity="even", source=x, target=y, vertex_map=(0, 0), edge_map=(0,)
    )


def test_synthetic_collapse_is_not_injective():
    proj = collapse_pair()
    assert verify_commutation(proj)
    m0, m1 = pullback_matrices(proj)
    assert m0.rank() == m0.cols and m1.rank() == m1.cols
    source_h1 = h1_rank(proj.target)
    rank, injective = induced_h1_map(proj)
    assert source_h1 == 1
    assert rank == 0 < source_h1
    assert not injective
    assert quotient_h0(proj) == 1
    assert quotient_h1(proj) == 0


def test_parallel_edge_collapse_stays_injective():
    # collapsing parallel edges while keeping vertices fixed can never
    # kill cohomology: with a bijective vertex map the pullback of any
    # coboundary preimage is itself a coboundary
    x = SimpleDigraph(
        vertex_count=2,
        edges=(Edge(None, 0, 1), Edge(None, 0, 1), Edge(None, 1, 0)),
    )
    y = SimpleDigraph(vertex_count=2, edges=(Edge(None, 0, 1), Edge(None, 1, 0)))
    proj = ProjectionMap(
        n=0, parity="even", source=x, target=y, vertex_map=(0, 1), edge_map=(0, 0, 1)
    )
    assert verify_commutation(proj)
    rank, injective = induced_h1_map(proj)
    assert injective and rank == h1_rank(proj.target) == 1


def test_direct_limit_small_tower(fib):
    report = direct_limit_report(fib, 3)
    assert [r.h1_rank for r in report.stages] == [3, 4, 7]
    assert report.all_injective


def test_direct_limit_growth_witness(fib):
    report = direct_limit_report(fib, 8)
    ranks = [r.h1_rank for r in report.stages]
    assert ranks == sorted(ranks)
    assert report.all_injective
    assert report.strict_rank_increases >= 3
    assert report.witnesses_unbounded_growth
    assert ranks == [first_difference(fib, n) + 1 for n in range(1, 9)]


def test_stage_report_consistency(fib):
    rep = stage_report(fib, 4)
    assert rep.h1_rank == rep.s_plus_1
    assert rep.pullback_injective_on_cochains
    assert rep.induced_injective
    assert rep.h0_quotient_dim == 0
    assert rep.vertices == complexity(fib, 4)


def test_stage_report_equals_dense_reference(fib):
    # stage_report computes one rank per stage and takes the rest from
    # structure; every field must equal the dense eliminations, including
    # the stages where the bonding map is not injective
    non_injective = {}
    cases = (
        (fib, 9),
        (noble_means_rule(2), 8),
        (THUE_MORSE, 8),
        (PERIOD_DOUBLING, 8),
        (THREE_LETTER, 6),
    )
    for rule, max_n in cases:
        for n in range(1, max_n + 1):
            rep = stage_report(rule, n)
            proj = projection(rule, n)
            m0, m1 = pullback_matrices(proj)
            assert rep.h1_rank == h1_rank(proj.target), (rule.name, n)
            assert (rep.induced_map_rank, rep.induced_injective) == induced_h1_map(proj), (rule.name, n)
            assert rep.h0_quotient_dim == quotient_h0(proj), (rule.name, n)
            assert rep.h1_quotient_dim == quotient_h1(proj), (rule.name, n)
            assert rep.pullback_injective_on_cochains == (m0.rank() == m0.cols and m1.rank() == m1.cols)
            assert verify_commutation(proj), (rule.name, n)
            if not rep.induced_injective:
                non_injective.setdefault(rule.name, []).append(n)
    assert non_injective == {"thue-morse": [3, 6], "period-doubling": [2, 5], "abc-cba": [6]}


def test_stage_report_rejects_disconnected_source(fib, monkeypatch):
    # three loops on one vertex, covered by two one-vertex components: the
    # cell maps are surjective and commute, and h1 = 3 = s(1) + 1, but
    # rank D_s = 0, not V_s - 1, so the structural induced rank would be wrong
    source = SimpleDigraph(vertex_count=2, edges=(Edge(None, 0, 0), Edge(None, 0, 0), Edge(None, 1, 1)))
    target = SimpleDigraph(vertex_count=1, edges=(Edge(None, 0, 0),) * 3)
    proj = ProjectionMap(n=1, parity="odd", source=source, target=target, vertex_map=(0, 0), edge_map=(0, 1, 2))
    assert verify_commutation(proj)
    assert coboundary_matrix(source).rank() == 0
    assert induced_h1_map(proj) == (3, True)
    monkeypatch.setattr(cohomology, "projection", lambda rule, n: proj)
    with pytest.raises(InvariantViolationError, match="stage-2 graph is not strongly connected"):
        stage_report(fib, 1)


def test_stage_report_rejects_non_star_fiber(fib, monkeypatch):
    # both edges of the two-cycle 0 -> 1 -> 0 map onto one loop, so they
    # share neither head nor tail; both graphs are strongly connected, the
    # cell maps are surjective and commute, and h1 = 3 = s(1) + 1, but the
    # fiber's row in [M1 | D_s] is not a vertex difference: the dense
    # induced rank is 3, while a union-find that skipped the fiber would
    # report 2
    loop = Edge(None, 0, 0)
    source = SimpleDigraph(vertex_count=2, edges=(Edge(None, 0, 1), Edge(None, 1, 0), loop, loop))
    target = SimpleDigraph(vertex_count=1, edges=(loop,) * 3)
    proj = ProjectionMap(n=1, parity="odd", source=source, target=target, vertex_map=(0, 0), edge_map=(0, 0, 1, 2))
    assert verify_commutation(proj)
    assert induced_h1_map(proj) == (3, True)
    monkeypatch.setattr(cohomology, "projection", lambda rule, n: proj)
    with pytest.raises(InvariantViolationError, match="is not a star"):
        stage_report(fib, 1)
    # over Z the fiber leaves the row 2(v1 - v0): the quotient has Z/2 torsion
    assert invariant_factors(_combined_matrix(proj)) == [1, 1, 1, 2]


def invariant_factors(rows) -> list[int]:
    """Nonzero invariant factors of an integer matrix: its Smith normal form over bigints."""
    a = [list(r) for r in rows]
    factors = []
    while True:
        nonzero = [(abs(x), i, j) for i, r in enumerate(a) for j, x in enumerate(r) if x]
        if not nonzero:
            return sorted(factors)
        _, i, j = min(nonzero)  # a least entry as pivot: each remainder undercuts it
        p = a[i][j]
        for k, r in enumerate(a):
            if k != i and r[j]:
                f = r[j] // p
                a[k] = [x - f * y for x, y in zip(r, a[i])]
        for c, x in enumerate(a[i]):
            if c != j and x:
                f = x // p
                for r in a:
                    r[c] -= f * r[j]
        if sum(r[j] != 0 for r in a) + sum(x != 0 for x in a[i]) > 2:
            continue  # a remainder is left, smaller than p
        bad = next((k for k, r in enumerate(a) if any(x % p for x in r)), None)
        if bad is not None:
            a[i] = [x + y for x, y in zip(a[i], a[bad])]
            continue  # p must divide every entry left: fold an offending row in
        factors.append(abs(p))
        a = [r[:j] + r[j + 1 :] for k, r in enumerate(a) if k != i]


def _combined_matrix(proj: ProjectionMap):
    _, m1 = pullback_matrices(proj)
    return m1.hstack(coboundary_matrix(proj.source)).entries


def test_combined_matrix_is_free_over_z(fib):
    # the rows left after the unimodular pivots form a graph incidence
    # matrix, which is totally unimodular: every nonzero invariant factor of
    # [M1 | D_s] is 1, so each quotient H^1(stage n+1) / H^1(stage n) is free
    assert invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    for rule in (fib, noble_means_rule(2)):
        for n in range(1, 8):
            proj = projection(rule, n)
            factors = invariant_factors(_combined_matrix(proj))
            assert set(factors) == {1}, (rule.name, n)
            assert proj.source.edge_count - len(factors) == stage_report(rule, n).h1_quotient_dim


def test_stage_report_runs_no_elimination(fib, monkeypatch):
    def no_elimination(*args, **kwargs):
        raise AssertionError("stage_report ran an elimination")

    monkeypatch.setattr(RationalMatrix, "rank", no_elimination)
    monkeypatch.setattr(kernels, "exact_integer_rank", no_elimination)
    for rule, max_n in ((fib, 10), (noble_means_rule(2), 8)):
        for n in range(1, max_n + 1):
            assert stage_report(rule, n).induced_injective, (rule.name, n)


def shuffled_copy(g: RauzyGraph, seed: int):
    """Relabel vertices and edges by a seeded permutation."""
    rng = random.Random(seed)
    vperm = list(range(g.vertex_count))
    eperm = list(range(g.edge_count))
    rng.shuffle(vperm)
    rng.shuffle(eperm)
    vertices = tuple(g.vertices[vperm[i]] for i in range(g.vertex_count))
    vinv = {old: new for new, old in enumerate(vperm)}
    edges = tuple(
        Edge(g.edges[eperm[i]].word, vinv[g.edges[eperm[i]].tail], vinv[g.edges[eperm[i]].head])
        for i in range(g.edge_count)
    )
    return SimpleDigraph(vertex_count=g.vertex_count, edges=edges)


def test_results_do_not_depend_on_enumeration_order(fib):
    for n in (2, 4, 6):
        g = build_rauzy(fib, n)
        baseline = h1_rank(g)
        for seed in (1, 2):
            shuffled = shuffled_copy(g, seed)
            d = coboundary_matrix(shuffled)
            assert len(shuffled.edges) - d.rank() == baseline


def test_shuffled_projection_keeps_quotient_dimensions(fib):
    n = 4
    proj = projection(fib, n)
    rng = random.Random(13)
    vperm = list(range(proj.source.vertex_count))
    eperm = list(range(proj.source.edge_count))
    rng.shuffle(vperm)
    rng.shuffle(eperm)
    vinv = {old: new for new, old in enumerate(vperm)}
    source = SimpleDigraph(
        vertex_count=proj.source.vertex_count,
        edges=tuple(
            Edge(None, vinv[proj.source.edges[old].tail], vinv[proj.source.edges[old].head])
            for old in eperm
        ),
    )
    shuffled = ProjectionMap(
        n=n,
        parity=proj.parity,
        source=source,
        target=proj.target,
        vertex_map=tuple(proj.vertex_map[vperm[i]] for i in range(len(vperm))),
        edge_map=tuple(proj.edge_map[old] for old in eperm),
    )
    assert verify_commutation(shuffled)
    assert induced_h1_map(shuffled) == induced_h1_map(proj)
    assert quotient_h0(shuffled) == quotient_h0(proj)
    assert quotient_h1(shuffled) == quotient_h1(proj)
