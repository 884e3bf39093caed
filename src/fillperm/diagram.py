"""Crossing diagrams: the combinatorial map of a pair of curves.

A pair of closed curves (a, b) meeting transversely in m points, with the
points labelled 1..m along a, is captured by:

  * beta_seq  -- the labels in the order b visits them (entry j is the
                 terminal point of b's arc j),
  * signs     -- the local crossing chirality at each point.

Each point carries four darts (the germs of the in/out strands of the two
curves); the sign chooses between the two possible rotations.  Faces of
the resulting map are the complementary polygons of the pair; a single
face with m odd is exactly an oriented minimally intersecting filling
pair, which converts losslessly to and from a filling permutation.

The module is internal machinery shared by surface reconstruction, the
splice construction and the small-pattern search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .filling import FillingPermutation, GenusContext, corner_orbits
from .perms import Permutation, table_orbits

# Dart slots at each point: the germ of the incoming/outgoing strand of
# either curve.
AI, AO, BI, BO = 0, 1, 2, 3


@dataclass(frozen=True)
class PairDiagram:
    """Two curves crossing in m labelled points."""

    m: int
    beta_seq: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("diagram needs at least one crossing")
        if sorted(self.beta_seq) != list(range(1, self.m + 1)):
            raise ValueError("beta_seq must visit each point exactly once")
        if len(self.signs) != self.m or any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1/-1 per point")

    # -- dart bookkeeping ----------------------------------------------

    def _rotation(self) -> list[int]:
        """rho[dart] = next dart around the same point (fixed direction)."""
        rho = [0] * (4 * self.m)
        for p in range(1, self.m + 1):
            base = 4 * (p - 1)
            if self.signs[p - 1] > 0:
                order = (AI, BI, AO, BO)
            else:
                order = (AI, BO, AO, BI)
            for a, b in zip(order, order[1:] + order[:1]):
                rho[base + a] = base + b
        return rho

    def _arcs(self):
        """Head and tail dart of each directed arc, padded at index 0.

        Arcs are indexed by their filling symbols: 2k-1 is alpha arc k,
        2k is beta arc k and s+2m is the inverse of s.
        """
        m = self.m
        bseq = self.beta_seq
        head = [0] * (4 * m + 1)
        tail = [0] * (4 * m + 1)
        for k in range(1, m + 1):
            # alpha arc k ends at point k; beta arc k ends at bseq[k-1]
            prev = k - 1 if k > 1 else m
            for s, h, t in (
                (2 * k - 1, 4 * (k - 1) + AI, 4 * (prev - 1) + AO),
                (2 * k, 4 * (bseq[k - 1] - 1) + BI, 4 * (bseq[k - 2] - 1) + BO),
            ):
                head[s] = tail[s + 2 * m] = h
                tail[s] = head[s + 2 * m] = t
        return head, tail

    def _next_arc(self) -> list[int]:
        """The face-walk successor on directed arc symbols, padded at 0."""
        head, tail = self._arcs()
        rho = self._rotation()
        n = 4 * self.m
        leaving = [0] * n
        for s in range(1, n + 1):
            leaving[tail[s]] = s
        return [0] + [leaving[rho[head[s]]] for s in range(1, n + 1)]

    # -- faces -----------------------------------------------------------

    def faces(self) -> list[list[int]]:
        """Complementary polygons as cyclic lists of directed arc symbols."""
        nxt = self._next_arc()
        return table_orbits(nxt, range(1, len(nxt)))[1]

    def face_count(self) -> int:
        return len(self.faces())

    def genus(self) -> int | None:
        """Genus of the glued surface, or None if the Euler count is odd."""
        chi = self.m - 2 * self.m + self.face_count()
        if (2 - chi) % 2:
            return None
        return (2 - chi) // 2

    def is_filling_pair(self) -> bool:
        """Single complementary disk (and hence minimal intersection)."""
        return self.m % 2 == 1 and self.face_count() == 1

    # -- conversion to the polygon encoding ------------------------------

    def to_filling_permutation(self) -> FillingPermutation:
        """Cut along the pair and read off the filling permutation.

        The face-walk successor on the arc symbols is the permutation.
        Requires a single complementary face; raises ValueError otherwise.
        """
        if self.m % 2 == 0:
            raise ValueError("a filling pair has an odd crossing count")
        p = Permutation(self._next_arc()[1:])
        if not p.is_n_cycle():  # the face at symbol 1 is not every arc
            raise ValueError("complement is not a single disk")
        return FillingPermutation(GenusContext((self.m + 1) // 2), p)


def diagram_of(fp: FillingPermutation) -> PairDiagram:
    """Extract the crossing diagram of a filling permutation.

    Points are labelled along the first curve; the rotation at each point
    is read off the quarter-turn corner map of the glued polygon.
    """
    ctx = fp.ctx
    m = ctx.i_min
    cls, orbit_lists = corner_orbits(fp, fp.boundary_word())
    if len(orbit_lists) != m or any(len(o) != 4 for o in orbit_lists):
        raise ValueError("corner structure is not 4-valent")

    # label classes along alpha: terminal of alpha arc k gets label k
    label_of_class = [0] * m
    for k in range(1, m + 1):
        if label_of_class[cls[2 * k - 1]]:
            raise ValueError("first curve revisits a crossing")
        label_of_class[cls[2 * k - 1]] = k

    beta_seq = tuple(label_of_class[cls[2 * j]] for j in range(1, m + 1))

    # classify each corner's incoming arc into a dart slot: odd symbols
    # lie on the first curve, symbols above 4g-2 are inverse arcs
    half = 4 * ctx.g - 2

    def slot_of(sym: int) -> int:
        return (BI if sym % 2 == 0 else AI) + (sym > half)

    signs = [0] * m
    for label, orbit in zip(label_of_class, orbit_lists):
        slots = [slot_of(s) for s in orbit]
        if slots.count(AI) != 1:
            raise ValueError("crossing is not transverse")
        at = slots.index(AI)
        ring = slots[at:] + slots[:at]
        if ring == [AI, BI, AO, BO]:
            signs[label - 1] = 1
        elif ring == [AI, BO, AO, BI]:
            signs[label - 1] = -1
        else:
            raise ValueError("crossing is not transverse")
    return PairDiagram(m, beta_seq, tuple(signs))
