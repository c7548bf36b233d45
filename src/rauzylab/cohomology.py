"""Exact cochain computations on the stage tower.

Stage n is the Rauzy graph of F_n and F_{n+1}: its coboundary D takes
vertex cochains to edge cochains, and the bonding map from stage n+1 pulls
cochains back by the 0/1 fiber indicators M0 and M1.  ``Stage.report``
builds no graph, runs no elimination and walks no word set: it reads the
sizes of F_n, F_{n+1}, F_{n+2} and the split that the corner step tallied
while it built F_{n+2}, by ``census(rule, n)``.  The dense reference, which
builds the graphs and takes every rank by exact elimination, is kept with
the tests (``tests/dense.py``).
The bonding map drops the last letter of every vertex and edge word.
Dropping the first letter instead gives a homotopic map: with H phi(w) =
phi(edge w), M1_first - M1_last = D_s H and M0_first - M0_last = H D_t, so
no rank depends on the choice.  Four ranks come from structure, each
checked where it arises: rank D = V - 1 on both stage graphs, as both are
strongly connected; rank M0 = V_t and rank M1 = E_t, as the map covers its
targets; and D_s M0 = M1 D_t, since dropping a letter commutes with taking
the tail and the head of a word.  It covers them because each word of F_j
extends into F_{j+1}: the step that builds F_{j+2} checks it, and the sweep
of the top graph does for the top j.  So it maps paths onto paths, and if
stage m+1 is strongly connected, so is stage m: the deepest graph of a
tower is swept once, and a failing top scans down.

The fifth, C = rank [M1 | D_s], is a graph-component count.  Row e of
[M1 | D_s] is a unit at the image edge beside the coboundary row
head(e) - tail(e).  Group the source edges by image; the first edge e0 of
each group is its pivot, and pivoting on its M1 unit is unimodular, so the
pivots give rank E_t and clear the M1 block from the rest of the group.
Each source edge xuy maps onto its tail word xu, so the row left is
uy - uy0, the difference of two heads: the rows left form the incidence
matrix R of a graph on the V_s source vertices, and C = E_t + V_s -
components.  Let E(u), for u in F_n, join x in L(u) to y in R(u) for each
legal xuy.  R joins uy and uy' exactly when y and y' lie in one component
of E(u), and words with different u never meet.  Each component of E(u)
has a right vertex, as every xu extends to the right (F_{n+1} extends
into F_{n+2}, as above), so there are sum_u c(E(u)) = V_t + split
components, with c the component count and split = sum_u (c(E(u)) - 1):

    C = 2 p(n+1) - p(n) - split,  h0_quotient = split,
    h1_quotient = s(n+1) - s(n) + split,  induced rank = h1 - split,

and the bonding map is injective exactly when every E(u) is connected.
Only bispecials add to the split, as every other E(u) is a star.  On two
letters a weak bispecial's E(u) is a perfect matching, c = 2, and every
other u has c = 1, so split = wb(n): ``h0_quotient_zero``,
``induced_h1_injective`` and ``h1_quotient_matches_bispecials`` (by the
bispecial identity h1_quotient = sb, which it compares with sb - wb) each
hold exactly when wb(n) = 0.  These rows read the same census as sb and wb,
so they cannot catch a wrong census; the tests check it, against a
union-find over the projection's edge fibers and the dense eliminations.

Over Z: the pivots are unimodular row and column operations, and R, with
one +1 and one -1 in each nonzero row, is totally unimodular, so every
nonzero invariant factor of [M1 | D_s] is 1.  Its cokernel, the quotient
H^1(stage n+1; Z) / M1 H^1(stage n; Z), is free of rank E_s - C.  Where the
induced maps are also injective, each H^1(stage n; Z) is a direct summand
of the next, so the direct limit Ȟ^1 is free abelian of countable rank,
infinite since h1 = s(n)+1 grows without bound.  This rests on the fibers
being stars, which they are by construction, as each edge maps onto its
tail word; a map with a fiber that is not a star can leave torsion.
References: Sadun, *Topology of Tiling Spaces* (AMS 2008), ch. 2-3;
Anderson & Putnam, ETDS 18 (1998); Cassaigne, *Complexité et facteurs
spéciaux*, Bull. Belg. Math. Soc. 4 (1997).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .complexity import SpecialsReport, first_difference, specials_report
from .errors import InvariantViolationError
from .oracle import census, legal_subwords
from .rauzy import words_connected
from .rules import RandomSubstitution


class CohomologyReport(NamedTuple):
    """Per-stage summary of the cochain-level checks."""

    n: int
    vertices: int
    edges: int
    h1_rank: int
    s_plus_1: int
    pullback_injective_on_cochains: bool
    induced_map_rank: int
    induced_injective: bool
    h0_quotient_dim: int
    h1_quotient_dim: int


def _report(
    rule: RandomSubstitution, n: int, connected: tuple[bool, bool], sizes: tuple[int, int, int, int], split: int
) -> CohomologyReport:
    """The stage-n report from the strong connectivity of stages n+1 and n, V_t, E_t, V_s, E_s and the split.

    h1 = E_t - V_t + 1 and s(n) + 1 are both p(n+1) - p(n) + 1, read from the
    same cached sizes, so the ``h1_rank_equals_s_plus_1`` row holds by
    construction, and so does ``induced_injective == (induced_map_rank ==
    h1_rank)``.  The independent check of h1 is the dense elimination in
    ``test_stage_report_equals_dense_reference``.
    """
    for stage, ok in zip((n + 1, n), connected):
        if not ok:
            raise InvariantViolationError(f"stage-{stage} graph is not strongly connected")
    v_t, e_t, v_s, e_s = sizes
    h1 = e_t - v_t + 1
    return CohomologyReport(
        n=n,
        vertices=v_t,
        edges=e_t,
        h1_rank=h1,
        s_plus_1=first_difference(rule, n) + 1,
        pullback_injective_on_cochains=True,
        induced_map_rank=h1 - split,
        induced_injective=split == 0,
        h0_quotient_dim=split,
        h1_quotient_dim=e_s - (e_t + v_s - v_t - split),  # E_s - C
    )


class Stage:
    """Stage n of the tower; each fact is computed when it is first asked for.

    The stages of one tower share ``tower``: its top graph (n+1 if empty)
    and, once swept, the highest connected one.  Connectivity passes down the
    tower, so stage m is connected exactly when m is at most that highest one.
    """

    def __init__(self, rule: RandomSubstitution, n: int, tower: dict[str, int]) -> None:
        self.rule, self.n, self.tower = rule, n, tower

    def _connected(self, m: int) -> bool:
        if "highest" not in self.tower:  # the deepest graph is swept once, and a failing top scans down
            rule, j = self.rule, self.tower.get("top", self.n + 1)
            while j and not words_connected(rule.alphabet, *(legal_subwords(rule, i).as_set() for i in (j, j + 1))):
                j -= 1
            self.tower["highest"] = j
        return m <= self.tower["highest"]

    @property
    def connected(self) -> bool:
        return self._connected(self.n)

    def census(self) -> SpecialsReport:
        return specials_report(self.rule, self.n)

    def report(self) -> CohomologyReport:
        """The cochain report of stage n, from the sizes of F_n, F_{n+1}, F_{n+2} and the census split of F_n."""
        rule, n = self.rule, self.n
        sizes = tuple(len(legal_subwords(rule, m)) for m in (n, n + 1, n + 1, n + 2))
        return _report(rule, n, (self._connected(n + 1), self.connected), sizes, census(rule, n).split)


def stage_report(rule: RandomSubstitution, n: int) -> CohomologyReport:
    """All cochain-level facts for stage n and its projection from stage n+1; see the module docstring."""
    return Stage(rule, n, {}).report()


def stage_tower(rule: RandomSubstitution, max_n: int) -> Iterator[Stage]:
    """Stages 1..max_n in order, streamed; they share one connectivity verdict, from the top graph down."""
    tower = {"top": max_n + 1}
    return (Stage(rule, n, tower) for n in range(1, max_n + 1))
