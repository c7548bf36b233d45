"""Rauzy graphs, projections between consecutive stages, and DOT export.

The stage-n graph has the legal length-n factors as vertices and the
legal length-(n+1) factors as edges; the edge for w runs from the vertex
for w[:-1] to the vertex for w[1:].  The projection from stage n+1 to
stage n drops the last letter, on vertex words and edge words alike, so
each edge maps onto the edge of its tail word.  Dropping the first letter
instead gives a homotopic map (vertex w slides along edge w), so no rank
depends on the choice.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantViolationError
from .oracle import legal_subwords
from .rules import RandomSubstitution


class Edge(NamedTuple):
    word: str | None
    tail: int
    head: int


class RauzyGraph(NamedTuple):
    """Oriented multigraph over the legal factors of one length."""

    rule: RandomSubstitution
    n: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def out_degrees(self) -> list[int]:
        degs = [0] * self.vertex_count
        for e in self.edges:
            degs[e.tail] += 1
        return degs

    def in_degrees(self) -> list[int]:
        degs = [0] * self.vertex_count
        for e in self.edges:
            degs[e.head] += 1
        return degs


class SimpleDigraph(NamedTuple):
    """A bare multigraph for synthetic cochain examples."""

    vertex_count: int
    edges: tuple[Edge, ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_rauzy(rule: RandomSubstitution, n: int) -> RauzyGraph:
    """Construct the stage-n graph with canonically ordered cells."""
    if n < 1:
        raise ValueError("stage must be >= 1")
    vertices = legal_subwords(rule, n).words
    index = {w: i for i, w in enumerate(vertices)}
    edges = []
    for w in legal_subwords(rule, n + 1).words:
        tail, head = index.get(w[:-1]), index.get(w[1:])
        if tail is None or head is None:
            raise InvariantViolationError(
                f"edge word {w!r} has an endpoint outside the vertex set"
            )
        edges.append(Edge(word=w, tail=tail, head=head))
    return RauzyGraph(rule=rule, n=n, vertices=vertices, edges=tuple(edges))


def _sweeps_reach_all(start, count: int, successors, predecessors) -> bool:
    """Whether sweeps from ``start`` along ``successors`` and along ``predecessors`` each reach all ``count`` nodes."""
    for step in (successors, predecessors):
        seen = {start}
        stack = [start]
        while stack:
            for w in step(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != count:
            return False
    return True


def strongly_connected(g: RauzyGraph | SimpleDigraph) -> bool:
    """Whether every vertex reaches every other along oriented paths.

    One sweep from vertex 0 along the edges and one against them: the
    graph is strongly connected exactly when both sweeps reach every vertex.
    """
    n = g.vertex_count
    if n == 0:
        return False
    forward: list[list[int]] = [[] for _ in range(n)]
    backward: list[list[int]] = [[] for _ in range(n)]
    for e in g.edges:
        forward[e.tail].append(e.head)
        backward[e.head].append(e.tail)
    return _sweeps_reach_all(0, n, forward.__getitem__, backward.__getitem__)


def words_connected(alphabet: tuple[str, ...], words: frozenset[str], longer: frozenset[str]) -> bool:
    """Strong connectivity of the stage-m graph by sweeps over ``words`` (F_m), read by membership in
    ``longer`` (F_{m+1}): the successors of v are v[1:] + y for each y with vy in F_{m+1}, and its
    predecessors x + v[:-1] for each x with xv in F_{m+1}."""
    return _sweeps_reach_all(
        next(iter(words)),
        len(words),
        lambda v: [v[1:] + y for y in alphabet if v + y in longer],
        lambda v: [x + v[:-1] for x in alphabet if x + v in longer],
    )


class ProjectionMap(NamedTuple):
    """Cellular map from the stage-(n+1) graph onto the stage-n graph."""

    n: int
    source: RauzyGraph
    target: RauzyGraph
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]


def projection(rule: RandomSubstitution, n: int) -> ProjectionMap:
    """Build the letter-drop map between stages n+1 and n, which drops the last letter of every word.

    The image of an edge word must itself be an edge word whose endpoints
    are the images of the original endpoints; violations abort, since for
    a factor language they cannot occur.  The dense reference reads this
    map; the stage tower works on the words themselves.
    """
    source, target = build_rauzy(rule, n + 1), build_rauzy(rule, n)
    v_index = {w: i for i, w in enumerate(target.vertices)}
    e_index = {e.word: i for i, e in enumerate(target.edges)}
    vertex_map = tuple(v_index[w[:-1]] for w in source.vertices)
    edge_map = []
    for e in source.edges:
        image_word = e.word[:-1]
        j = e_index.get(image_word)
        if j is None:
            raise InvariantViolationError(f"projected edge word {image_word!r} is not an edge")
        image = target.edges[j]
        if image.tail != vertex_map[e.tail] or image.head != vertex_map[e.head]:
            raise InvariantViolationError(
                f"projected edge {image_word!r} does not connect the projected endpoints"
            )
        edge_map.append(j)
    pmap = ProjectionMap(
        n=n,
        source=source,
        target=target,
        vertex_map=vertex_map,
        edge_map=tuple(edge_map),
    )
    if set(pmap.vertex_map) != set(range(target.vertex_count)):
        raise InvariantViolationError(f"vertex map of stage {n} is not surjective")
    if set(pmap.edge_map) != set(range(target.edge_count)):
        raise InvariantViolationError(f"edge map of stage {n} is not surjective")
    return pmap


def right_special_vertices(g: RauzyGraph) -> set[int]:
    """Vertices with more than one outgoing edge."""
    return {i for i, d in enumerate(g.out_degrees()) if d >= 2}


def export_dot(g: RauzyGraph, highlight_specials: bool = False) -> str:
    """Deterministic DOT rendering; optionally fills right-special nodes."""
    specials = right_special_vertices(g) if highlight_specials else set()
    lines = [f'digraph "stage_{g.n}" {{', "  rankdir=LR;", "  node [shape=ellipse];"]
    for i, word in enumerate(g.vertices):
        attrs = ' [style=filled, fillcolor=lightgrey]' if i in specials else ""
        lines.append(f'  "{word}"{attrs};')
    for e in g.edges:
        lines.append(f'  "{g.vertices[e.tail]}" -> "{g.vertices[e.head]}" [label="{e.word}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
