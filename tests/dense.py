"""The dense reference: built stage graphs, cochain matrices and exact eliminations.

The package reads every cochain fact off the corner step's census and one
sweep over words.  This module takes the same facts the long way: it builds
the stage graphs and the letter-drop projection between them, forms the
coboundaries D and the 0/1 fiber-indicator pullbacks M0, M1, and takes every
rank by exact elimination (``RationalMatrix.rank``).  Strong connectivity is
decided by sweeps over the built graph.  The tests compare ``stage_report``
and the tower's verdicts with these functions; ``SimpleDigraph`` and a
hand-built ``ProjectionMap`` carry the synthetic controls.
"""

from __future__ import annotations

from typing import NamedTuple

from rauzylab import (
    Edge,
    InvariantViolationError,
    RandomSubstitution,
    RationalMatrix,
    RauzyGraph,
    build_rauzy,
    first_difference,
)
from rauzylab.rauzy import _sweeps_reach_all


class SimpleDigraph(NamedTuple):
    """A bare multigraph for synthetic cochain examples."""

    vertex_count: int
    edges: tuple[Edge, ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


Graph = RauzyGraph | SimpleDigraph


def strongly_connected(g: Graph) -> bool:
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


class ProjectionMap(NamedTuple):
    """Cellular map from the stage-(n+1) graph onto the stage-n graph."""

    n: int
    source: Graph
    target: Graph
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]


def projection(rule: RandomSubstitution, n: int) -> ProjectionMap:
    """Build the letter-drop map between stages n+1 and n, which drops the last letter of every word.

    The image of an edge word must itself be an edge word whose endpoints
    are the images of the original endpoints; violations abort, since for
    a factor language they cannot occur.
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


def coboundary_matrix(g: Graph) -> RationalMatrix:
    """The vertex-to-edge coboundary: row e has +1 at head(e), -1 at tail(e).

    Self-loops contribute a zero row, as the two signs cancel.
    """
    rows = []
    for e in g.edges:
        row = [0] * g.vertex_count
        row[e.head] += 1
        row[e.tail] -= 1
        rows.append(row)
    return RationalMatrix.from_int_rows(rows) if rows else RationalMatrix.zeros(0, g.vertex_count)


def h1_rank(g: Graph, expected: int | None = None) -> int:
    """Rank of the first cohomology: edge count minus coboundary rank.

    For stage graphs the result is cross-checked against the complexity
    first difference plus one; a mismatch raises.
    """
    rank_d = coboundary_matrix(g).rank()
    h1 = len(g.edges) - rank_d
    if isinstance(g, RauzyGraph):
        if not strongly_connected(g):
            raise InvariantViolationError(f"stage-{g.n} graph is not strongly connected")
        s_plus_1 = first_difference(g.rule, g.n) + 1
        if h1 != s_plus_1:
            raise InvariantViolationError(
                f"h1 rank {h1} of stage {g.n} differs from first difference + 1 = {s_plus_1}"
            )
    if expected is not None and h1 != expected:
        raise InvariantViolationError(f"h1 rank {h1} differs from expected {expected}")
    return h1


def pullback_matrices(proj: ProjectionMap) -> tuple[RationalMatrix, RationalMatrix]:
    """Indicator matrices of the vertex and edge fibers.

    Both act by precomposition: column y of the vertex matrix marks the
    source vertices mapping onto y, and likewise for edges.
    """
    m0 = [[0] * proj.target.vertex_count for _ in range(proj.source.vertex_count)]
    for u, y in enumerate(proj.vertex_map):
        m0[u][y] = 1
    m1 = [[0] * proj.target.edge_count for _ in range(proj.source.edge_count)]
    for e, c in enumerate(proj.edge_map):
        m1[e][c] = 1
    return RationalMatrix.from_int_rows(m0), RationalMatrix.from_int_rows(m1)


def verify_commutation(proj: ProjectionMap) -> bool:
    """Exactly check coboundary-after-pullback equals pullback-after-coboundary."""
    m0, m1 = pullback_matrices(proj)
    lhs = coboundary_matrix(proj.source) @ m0
    rhs = m1 @ coboundary_matrix(proj.target)
    return lhs == rhs


class InducedMap(NamedTuple):
    rank: int
    injective: bool


def induced_h1_map(proj: ProjectionMap) -> InducedMap:
    """Rank of the induced map on first cohomology, and its injectivity.

    With D the source coboundary and M1 the edge pullback, the induced
    rank is rank([M1 | D]) - rank(D); the map is injective exactly when
    that equals the target-stage h1 rank.
    """
    _, m1 = pullback_matrices(proj)
    d_source = coboundary_matrix(proj.source)
    combined_rank = m1.hstack(d_source).rank()
    d_rank = d_source.rank()
    induced_rank = combined_rank - d_rank
    source_h1 = len(proj.target.edges) - coboundary_matrix(proj.target).rank()
    return InducedMap(rank=induced_rank, injective=induced_rank == source_h1)


def quotient_h0(proj: ProjectionMap) -> int:
    """Dimension of the degree-0 quotient cohomology of the stage pair.

    Computed as dim(preimage of im M1 under the source coboundary) minus
    rank M0, using dim(U cap W) = rank U + rank W - rank [U | W].
    """
    m0, m1 = pullback_matrices(proj)
    d = coboundary_matrix(proj.source)
    d_rank = d.rank()
    ker_d = proj.source.vertex_count - d_rank
    intersection = d_rank + m1.rank() - m1.hstack(d).rank()
    return ker_d + intersection - m0.rank()


def quotient_h1(proj: ProjectionMap) -> int:
    """Dimension of the degree-1 quotient cohomology of the stage pair.

    The quotient complex has no degree-2 part, so this is the source
    edge-cochain dimension minus rank [M1 | D].
    """
    _, m1 = pullback_matrices(proj)
    d = coboundary_matrix(proj.source)
    return proj.source.edge_count - m1.hstack(d).rank()
