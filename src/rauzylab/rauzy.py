"""Rauzy graphs, the strong-connectivity sweep over words, and DOT export.

The stage-n graph has the legal length-n factors as vertices and the
legal length-(n+1) factors as edges; the edge for w runs from the vertex
for w[:-1] to the vertex for w[1:].  ``words_connected`` sweeps that graph
over the words themselves, by membership in the next length, without
building it; the letter-drop map between stages is described in
``cohomology``.
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
