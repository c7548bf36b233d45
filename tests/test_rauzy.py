"""Stage graphs, projections, strong connectivity and DOT output."""

from hypothesis import given, settings
from hypothesis import strategies as st

from rauzylab import (
    Edge,
    SimpleDigraph,
    build_rauzy,
    complexity,
    export_dot,
    first_difference,
    legal_subwords,
    projection,
    specials_report,
    strongly_connected,
)
from rauzylab.rauzy import right_special_vertices


def test_stage_counts_match_figure(fib):
    for n, (v, e) in {1: (2, 4), 2: (4, 7), 3: (7, 13)}.items():
        g = build_rauzy(fib, n)
        assert (g.vertex_count, g.edge_count) == (v, e)


def test_stage_counts_up_to_ten(fib):
    for n in range(1, 11):
        g = build_rauzy(fib, n)
        assert g.vertex_count == complexity(fib, n)
        assert g.edge_count == complexity(fib, n) + first_difference(fib, n)


def test_edges_realise_overlaps(fib):
    for n in (1, 2, 3, 6):
        g = build_rauzy(fib, n)
        words = {e.word for e in g.edges}
        assert words == legal_subwords(fib, n + 1).as_set()
        assert len(words) == len(g.edges)
        for e in g.edges:
            assert g.vertices[e.tail] == e.word[:-1]
            assert g.vertices[e.head] == e.word[1:]


def test_stage_one_has_self_loops(fib):
    g = build_rauzy(fib, 1)
    loops = {e.word for e in g.edges if e.tail == e.head}
    assert loops == {"aa", "bb"}


def test_strong_connectivity_up_to_ten(fib):
    for n in range(1, 11):
        assert strongly_connected(build_rauzy(fib, n)), n


def test_strong_connectivity_synthetic_cases():
    loop = SimpleDigraph(vertex_count=1, edges=(Edge(None, 0, 0),))
    assert strongly_connected(loop)
    path = SimpleDigraph(vertex_count=2, edges=(Edge(None, 0, 1),))
    assert not strongly_connected(path)


def reaches_all_pairs(g: SimpleDigraph) -> bool:
    """Brute reference: the transitive closure of the edge relation is complete."""
    reach = [{v} for v in range(g.vertex_count)]
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if not reach[e.head] <= reach[e.tail]:
                reach[e.tail] |= reach[e.head]
                changed = True
    return g.vertex_count > 0 and all(len(r) == g.vertex_count for r in reach)


small_digraphs = st.integers(0, 7).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, max(n - 1, 0))] * 2), max_size=3 * n).map(
        lambda pairs: SimpleDigraph(vertex_count=n, edges=tuple(Edge(None, t, h) for t, h in pairs))
    )
)


@given(small_digraphs)
@settings(max_examples=300, deadline=None)
def test_strong_connectivity_matches_all_pairs_reachability(g):
    assert strongly_connected(g) == reaches_all_pairs(g)


def test_strong_connectivity_edge_cases():
    def digraph(n, *pairs):
        return SimpleDigraph(vertex_count=n, edges=tuple(Edge(None, t, h) for t, h in pairs))

    cases = [
        digraph(0),
        digraph(1),  # one vertex, no edge: trivially strongly connected
        digraph(2, (0, 0), (1, 1)),  # self-loops only
        digraph(3, (0, 1), (1, 0)),  # an isolated vertex
        digraph(3, (0, 1), (1, 2)),  # a one-way path
        digraph(3, (1, 2), (2, 1), (0, 1)),  # vertex 0 reaches all, nothing reaches it
        digraph(3, (0, 1), (1, 2), (2, 0)),
    ]
    assert [strongly_connected(g) for g in cases] == [False, True, False, False, False, False, True]
    assert [strongly_connected(g) for g in cases] == [reaches_all_pairs(g) for g in cases]


def test_degree_two_vertices_are_the_specials(fib):
    for n in range(1, 9):
        g = build_rauzy(fib, n)
        rep = specials_report(fib, n)
        outs = {g.vertices[i] for i, d in enumerate(g.out_degrees()) if d == 2}
        ins = {g.vertices[i] for i, d in enumerate(g.in_degrees()) if d == 2}
        assert outs == rep.right_specials.as_set()
        assert ins == rep.left_specials.as_set()


def test_projection_parity_examples(fib):
    even = projection(fib, 2)
    u = even.source.vertices.index("aba")
    assert even.target.vertices[even.vertex_map[u]] == "ab"
    odd = projection(fib, 1)
    v = odd.source.vertices.index("ab")
    assert odd.target.vertices[odd.vertex_map[v]] == "b"


def test_projection_maps_surjective(fib):
    for n in range(1, 9):
        proj = projection(fib, n)
        assert set(proj.vertex_map) == set(range(proj.target.vertex_count))
        assert set(proj.edge_map) == set(range(proj.target.edge_count))


def test_projection_edge_compatibility(fib):
    for n in range(1, 9):
        proj = projection(fib, n)
        for e_idx, e in enumerate(proj.source.edges):
            image = proj.target.edges[proj.edge_map[e_idx]]
            assert image.tail == proj.vertex_map[e.tail]
            assert image.head == proj.vertex_map[e.head]


def test_dot_is_deterministic(fib):
    a = export_dot(build_rauzy(fib, 3), highlight_specials=True)
    b = export_dot(build_rauzy(fib, 3), highlight_specials=True)
    assert a == b


def test_dot_counts_match_figure(fib):
    dot = export_dot(build_rauzy(fib, 1))
    node_lines = [ln for ln in dot.splitlines() if ln.strip().endswith('";')]
    arc_lines = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(node_lines) == 2
    assert len(arc_lines) == 4


def test_dot_parse_back_node_count(fib):
    for n in (2, 3, 4):
        dot = export_dot(build_rauzy(fib, n), highlight_specials=True)
        nodes = [ln for ln in dot.splitlines() if ln.startswith('  "') and "->" not in ln]
        assert len(nodes) == complexity(fib, n)


def test_dot_highlights_exactly_right_specials(fib):
    g = build_rauzy(fib, 2)
    dot = export_dot(g, highlight_specials=True)
    filled = {
        ln.strip().split('"')[1]
        for ln in dot.splitlines()
        if "fillcolor" in ln
    }
    assert filled == {g.vertices[i] for i in right_special_vertices(g)}
    assert filled == specials_report(fib, 2).right_specials.as_set()
