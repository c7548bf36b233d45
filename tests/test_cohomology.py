"""Exact cochain algebra on the stage tower and on synthetic controls."""

import random

import pytest
from hypothesis import assume, given, settings

from rauzylab import (
    Edge,
    InvalidRuleError,
    InvariantViolationError,
    RationalMatrix,
    RauzyGraph,
    WordSet,
    build_rauzy,
    complexity,
    first_difference,
    legal_subwords,
    noble_means_rule,
    specials_report,
    stage_report,
    stage_tower,
)
from rauzylab import cohomology, kernels, oracle
from rauzylab.oracle import census

from conftest import (
    DEPTH_THREE,
    DET_FIB,
    MIRROR_THREE,
    NO_DEPTH,
    PERIOD_DOUBLING,
    THREE_LETTER,
    THUE_MORSE,
    combined_rank,
    small_rules,
    stage_sweeps,
)
from dense import (
    ProjectionMap,
    SimpleDigraph,
    coboundary_matrix,
    h1_rank,
    induced_h1_map,
    projection,
    pullback_matrices,
    quotient_h0,
    quotient_h1,
    strongly_connected,
    verify_commutation,
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


def test_coboundary_of_edgeless_graph_keeps_its_columns():
    # no edges, so no rows: the matrix is 0 x V, and constants still lie in
    # its kernel, as a 0 x 1 product
    g = SimpleDigraph(3, ())
    d = coboundary_matrix(g)
    assert (d.rows, d.cols) == (0, 3) and d != RationalMatrix.zeros(0, 0)
    assert d @ RationalMatrix([[1]] * 3) == RationalMatrix.zeros(0, 1)
    assert d.hstack(RationalMatrix.zeros(0, 2)).cols == 5
    assert d.rank() == 0 and h1_rank(g) == 0


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
        n=0, source=x, target=y, vertex_map=(0, 0), edge_map=(0,)
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
        n=0, source=x, target=y, vertex_map=(0, 1), edge_map=(0, 0, 1)
    )
    assert verify_commutation(proj)
    rank, injective = induced_h1_map(proj)
    assert injective and rank == h1_rank(proj.target) == 1


def _tower_ranks(rule, max_n: int) -> list[int]:
    """The h1 ranks of stages 1..max_n, each stage's bonding map injective
    and its h1 quotient equal to its strong minus its weak bispecials."""
    ranks = []
    for stage in stage_tower(rule, max_n):
        report, census = stage.report(), stage.census()
        assert report.induced_injective
        assert report.h1_quotient_dim == census.strong_count - census.weak_count
        ranks.append(report.h1_rank)
    return ranks


def test_direct_limit_small_tower(fib):
    assert _tower_ranks(fib, 3) == [3, 4, 7]


def test_direct_limit_growth_witness(fib):
    ranks = _tower_ranks(fib, 8)
    assert ranks == sorted(ranks)
    assert sum(b > a for a, b in zip(ranks, ranks[1:])) >= 3
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
        (noble_means_rule(3), 6),
        (noble_means_rule(4), 6),
        (noble_means_rule(5), 6),
        (DET_FIB, 6),
        (DEPTH_THREE, 6),
        (NO_DEPTH, 6),
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
    assert non_injective == {"thue-morse": [3, 6], "period-doubling": [2, 5], "three-letter": [6]}


def edge_cells(proj: ProjectionMap):
    """(tail, head) of each source edge, as the union-find reads them."""
    return [(e.tail, e.head) for e in proj.source.edges]


def union_find_split(proj: ProjectionMap) -> int:
    """Components less V_t, with the components of the fiber graph counted by the union-find reference:
    C = E_t + V_s - components."""
    components = proj.target.edge_count + proj.source.vertex_count - combined_rank(edge_cells(proj))
    return components - proj.target.vertex_count


def census_split(rule, n: int) -> int:
    """The split of F_n's census, which the corner step tallied while it built F_{n+2}."""
    return census(rule, n).split


def assert_split(rule, n: int) -> int:
    """The census split of stage n equals both references, and the cochain report reads it."""
    proj = projection(rule, n)
    split = census_split(rule, n)
    assert split == union_find_split(proj) == quotient_h0(proj), (rule.rules, n)
    assert stage_report(rule, n).h0_quotient_dim == split, (rule.rules, n)
    if len(rule.alphabet) == 2:
        # every vertex of E(u) has an edge, so only a weak bispecial, a perfect matching, splits
        assert split == specials_report(rule, n).weak_count, (rule.rules, n)
    return split


def test_census_split_equals_union_find_and_dense_references(fib):
    assert [assert_split(fib, n) for n in range(1, 13)] == [0] * 12
    for k in range(1, 6):
        for n in range(1, 9 if k <= 2 else 7):
            assert assert_split(noble_means_rule(k), n) == 0, (k, n)
    splits = {
        rule.name: [assert_split(rule, n) for n in range(1, 7)]
        for rule in (THUE_MORSE, PERIOD_DOUBLING, DET_FIB, THREE_LETTER, MIRROR_THREE, DEPTH_THREE, NO_DEPTH)
    }
    # the splits fall exactly at the non-injective stages of the dense reference
    assert {name: split for name, split in splits.items() if any(split)} == {
        "thue-morse": [0, 0, 2, 0, 0, 2],
        "period-doubling": [0, 1, 0, 0, 1, 0],
        "three-letter": [0, 0, 0, 0, 0, 1],
    }


@settings(max_examples=100, deadline=None)
@given(small_rules())
def test_census_split_on_small_rules(rule):
    try:
        oracle._check_primitive(rule)
    except InvalidRuleError:
        assume(False)
    for n in range(1, 4):
        assert_split(rule, n)


def test_stage_report_rejects_disconnected_source(fib):
    # three loops on one vertex, covered by two one-vertex components: the
    # cell maps are surjective and commute, and h1 = 3 = s(1) + 1, but
    # rank D_s = 0, not V_s - 1, so the structural induced rank would be wrong
    source = SimpleDigraph(vertex_count=2, edges=(Edge(None, 0, 0), Edge(None, 0, 0), Edge(None, 1, 1)))
    target = SimpleDigraph(vertex_count=1, edges=(Edge(None, 0, 0),) * 3)
    proj = ProjectionMap(n=1, source=source, target=target, vertex_map=(0, 0), edge_map=(0, 1, 2))
    assert verify_commutation(proj)
    assert coboundary_matrix(source).rank() == 0
    assert induced_h1_map(proj) == (3, True)
    connected = (strongly_connected(source), strongly_connected(target))
    sizes = (target.vertex_count, target.edge_count, source.vertex_count, source.edge_count)
    with pytest.raises(InvariantViolationError, match="stage-2 graph is not strongly connected"):
        cohomology._report(fib, 1, connected, sizes, union_find_split(proj))


def test_stage_report_rejects_non_star_fiber(fib):
    # both edges of the two-cycle 0 -> 1 -> 0 map onto one loop, so they
    # share neither head nor tail; both graphs are strongly connected, the
    # cell maps are surjective and commute, and h1 = 3 = s(1) + 1, but the
    # fiber's row in [M1 | D_s] is not a vertex difference: the dense
    # induced rank is 3, while a union-find that skipped the fiber would
    # report 2; the letter-drop map cannot make such a fiber, as it sends
    # each edge onto its own tail word
    loop = Edge(None, 0, 0)
    source = SimpleDigraph(vertex_count=2, edges=(Edge(None, 0, 1), Edge(None, 1, 0), loop, loop))
    target = SimpleDigraph(vertex_count=1, edges=(loop,) * 3)
    proj = ProjectionMap(n=1, source=source, target=target, vertex_map=(0, 0), edge_map=(0, 0, 1, 2))
    assert verify_commutation(proj)
    assert induced_h1_map(proj) == (3, True)
    assert strongly_connected(source) and strongly_connected(target)
    # over Z the fiber leaves the row 2(v1 - v0): the quotient has Z/2 torsion
    assert invariant_factors(_combined_matrix(proj)) == [1, 1, 1, 2]


def test_stage_report_reads_the_projection_fibers(fib):
    # the two letter-drop maps are homotopic (vertex w slides along edge w,
    # from w[:-1] to w[1:]), so no rank tells them apart; the dense
    # reference's projection must send each source edge onto its tail word,
    # which keys the union-find's fibers, and the split the report reads
    # from the census must equal the union-find's count over the source edges
    for rule in (fib, THUE_MORSE):
        for n in range(1, 7):
            proj = projection(rule, n)
            source, image = proj.source.vertices, [proj.target.edges[j].word for j in proj.edge_map]
            assert image == [source[e.tail] for e in proj.source.edges], (rule.name, n)
            assert census_split(rule, n) == union_find_split(proj), (rule.name, n)
            assert stage_report(rule, n).h0_quotient_dim == union_find_split(proj), (rule.name, n)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("side", ["right", "left"])
def test_stage_report_checks_that_the_source_words_extend(fib, monkeypatch, n, side):
    # the sweep of stage n+1 is what checks that F_{n+1} extends into
    # F_{n+2}: drop every extension of one word of F_{n+1} on one side
    u = min(legal_subwords(fib, n + 1).as_set())
    cut = WordSet.from_iterable(
        w for w in legal_subwords(fib, n + 2).as_set() if (w[:-1] if side == "right" else w[1:]) != u
    )
    real = cohomology.legal_subwords
    monkeypatch.setattr(cohomology, "legal_subwords", lambda rule, m: cut if m == n + 2 else real(rule, m))
    with pytest.raises(InvariantViolationError, match=f"stage-{n + 1} graph is not strongly connected"):
        stage_report(fib, n)


def tower_verdicts(rule, max_n: int) -> list[bool]:
    """The tower's verdicts on stage graphs 1..max_n+1: each stage's own, then the top's, read from stage max_n."""
    stages = list(stage_tower(rule, max_n))
    return [stage.connected for stage in stages] + [stages[-1]._connected(max_n + 1)]


def test_tower_verdicts_equal_per_stage_sweeps(fib):
    # strong connectivity passes down the letter-drop map, so the one sweep of
    # the top graph gives every stage the verdict of its own sweep
    cases = [(fib, max_n) for max_n in range(1, 15)] + [(noble_means_rule(m), 8) for m in range(1, 6)]
    rules = (THUE_MORSE, PERIOD_DOUBLING, DET_FIB, THREE_LETTER, MIRROR_THREE, DEPTH_THREE, NO_DEPTH)
    cases += [(rule, 6) for rule in rules]
    for rule, max_n in cases:
        assert tower_verdicts(rule, max_n) == stage_sweeps(rule, max_n + 1), (rule.name, max_n)


@settings(max_examples=100, deadline=None)
@given(small_rules())
def test_tower_verdicts_on_small_rules(rule):
    try:
        oracle._check_primitive(rule)
    except InvalidRuleError:
        assume(False)
    assert tower_verdicts(rule, 3) == stage_sweeps(rule, 4), rule.rules


@pytest.mark.parametrize("highest", [9, 5, 0])
def test_the_scan_stops_at_the_first_passing_sweep(fib, monkeypatch, highest):
    # sweeps that pass exactly up to stage ``highest`` of a tower topped at 9:
    # the top and each next lower graph are swept until one passes, and no more
    sweeps = []

    def sweep(alphabet, words, longer):
        sweeps.append(len(next(iter(words))))
        return sweeps[-1] <= highest

    monkeypatch.setattr(cohomology, "words_connected", sweep)
    assert tower_verdicts(fib, 8) == [m <= highest for m in range(1, 10)]
    assert sweeps == list(range(9, max(highest, 1) - 1, -1))


@pytest.mark.parametrize("side", ["right", "left"])
def test_a_disconnected_top_scans_down(fib, monkeypatch, side):
    # cut F_{top+1} as the extend test does: one word of F_top loses every
    # extension on one side, so the top graph fails its sweep, and the scan
    # goes on to the next lower graph, which passes, as every stage below does
    max_n, top = 5, 6
    u = min(legal_subwords(fib, top).as_set())
    cut = WordSet.from_iterable(
        w for w in legal_subwords(fib, top + 1).as_set() if (w[:-1] if side == "right" else w[1:]) != u
    )
    real, sweep, sweeps = cohomology.legal_subwords, cohomology.words_connected, []

    def words(rule, m):
        return cut if m == top + 1 else real(rule, m)

    def counted_sweep(alphabet, words, longer):
        sweeps.append(len(next(iter(words))))
        return sweep(alphabet, words, longer)

    monkeypatch.setattr(cohomology, "legal_subwords", words)
    monkeypatch.setattr(cohomology, "words_connected", counted_sweep)
    assert tower_verdicts(fib, max_n) == stage_sweeps(fib, top, words) == [True] * max_n + [False]
    assert sweeps == [top, max_n]
    with pytest.raises(InvariantViolationError, match=f"stage-{top} graph is not strongly connected"):
        list(stage_tower(fib, max_n))[-1].report()


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
        source=source,
        target=proj.target,
        vertex_map=tuple(proj.vertex_map[vperm[i]] for i in range(len(vperm))),
        edge_map=tuple(proj.edge_map[old] for old in eperm),
    )
    assert verify_commutation(shuffled)
    assert induced_h1_map(shuffled) == induced_h1_map(proj)
    assert quotient_h0(shuffled) == quotient_h0(proj)
    assert quotient_h1(shuffled) == quotient_h1(proj)
