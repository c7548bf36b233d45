"""Rauzy graphs, projections between consecutive stages, and DOT export.

The stage-n graph has the legal length-n factors as vertices and the
legal length-(n+1) factors as edges; the edge for w runs from the vertex
for w[:-1] to the vertex for w[1:].  The projection from stage n+1 to
stage n drops the last letter when n is even and the first letter when
n is odd, on vertex words and edge words alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvariantViolationError
from .oracle import legal_subwords
from .rules import RandomSubstitution


class Edge(NamedTuple):
    word: str | None
    tail: int
    head: int


@dataclass(frozen=True)
class RauzyGraph:
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


@dataclass(frozen=True)
class SimpleDigraph:
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
    for adj in (forward, backward):
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if not all(seen):
            return False
    return True


@dataclass(frozen=True)
class ProjectionMap:
    """Cellular map from the stage-(n+1) graph onto the stage-n graph."""

    n: int
    parity: str
    source: RauzyGraph
    target: RauzyGraph
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]


def _drop(word: str, n: int) -> str:
    return word[:-1] if n % 2 == 0 else word[1:]


def projection(rule: RandomSubstitution, n: int) -> ProjectionMap:
    """Build the parity-determined letter-drop map between stages n+1 and n.

    The image of an edge word must itself be an edge word whose endpoints
    are the images of the original endpoints; violations abort, since for
    a factor language they cannot occur.
    """
    return _project(build_rauzy(rule, n + 1), build_rauzy(rule, n))


def _project(source: RauzyGraph, target: RauzyGraph) -> ProjectionMap:
    """``projection`` between two stage graphs already built."""
    n = target.n
    v_index = {w: i for i, w in enumerate(target.vertices)}
    e_index = {e.word: i for i, e in enumerate(target.edges)}
    vertex_map = tuple(v_index[_drop(w, n)] for w in source.vertices)
    edge_map = []
    for e in source.edges:
        image_word = _drop(e.word, n)
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
        parity="even" if n % 2 == 0 else "odd",
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
