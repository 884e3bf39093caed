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

from .filling import FillingPermutation, GenusContext, _corner_orbits
from .perms import Permutation

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
        """Directed arcs as (head_dart, tail_dart) tables.

        Directed arc ids: 0..2m-1 forward (alpha arcs 1..m then beta arcs
        1..m), 2m..4m-1 the corresponding inverses.
        """
        m = self.m
        bseq = self.beta_seq
        head = [0] * (4 * m)
        tail = [0] * (4 * m)
        for k in range(1, m + 1):
            prev = k - 1 if k > 1 else m
            fwd = k - 1
            head[fwd] = 4 * (k - 1) + AI
            tail[fwd] = 4 * (prev - 1) + AO
            head[2 * m + fwd] = tail[fwd]
            tail[2 * m + fwd] = head[fwd]
        for j in range(1, m + 1):
            t = bseq[j - 1]
            prev = bseq[j - 2]
            fwd = m + j - 1
            head[fwd] = 4 * (t - 1) + BI
            tail[fwd] = 4 * (prev - 1) + BO
            head[2 * m + fwd] = tail[fwd]
            tail[2 * m + fwd] = head[fwd]
        return head, tail

    def _next_arc(self) -> list[int]:
        """The face-walk successor on directed arcs."""
        head, tail = self._arcs()
        rho = self._rotation()
        leaving = [0] * (4 * self.m)
        for arc, d in enumerate(tail):
            leaving[d] = arc
        return [leaving[rho[head[arc]]] for arc in range(4 * self.m)]

    # -- faces -----------------------------------------------------------

    def faces(self) -> list[list[int]]:
        """Complementary polygons as cyclic lists of directed arc ids."""
        nxt = self._next_arc()
        seen = [False] * (4 * self.m)
        out: list[list[int]] = []
        for start in range(4 * self.m):
            if seen[start]:
                continue
            face = []
            a = start
            while not seen[a]:
                seen[a] = True
                face.append(a)
                a = nxt[a]
            out.append(face)
        return out

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

    def arc_symbol(self, arc: int) -> int:
        """Symbol of a directed arc id in the 8g-4 labelling."""
        m = self.m
        g = (m + 1) // 2
        half = 4 * g - 2
        inverse = arc >= 2 * m
        base = arc % (2 * m)
        if base < m:
            sym = 2 * (base + 1) - 1
        else:
            sym = 2 * (base - m + 1)
        return sym + half if inverse else sym

    def to_filling_permutation(self) -> FillingPermutation:
        """Cut along the pair and read off the filling permutation.

        Requires a single complementary face; raises ValueError otherwise.
        """
        if self.m % 2 == 0:
            raise ValueError("a filling pair has an odd crossing count")
        nxt = self._next_arc()
        word = [0]  # start the walk at forward alpha arc 1
        a = nxt[0]
        while a != 0:
            word.append(a)
            a = nxt[a]
        if len(word) != 4 * self.m:
            raise ValueError("complement is not a single disk")
        ctx = GenusContext((self.m + 1) // 2)
        images = [0] * ctx.n
        for t, arc in enumerate(word):
            s = self.arc_symbol(arc)
            images[s - 1] = self.arc_symbol(word[(t + 1) % len(word)])
        return FillingPermutation(ctx, Permutation(images))


def diagram_of(fp: FillingPermutation) -> PairDiagram:
    """Extract the crossing diagram of a filling permutation.

    Points are labelled along the first curve; the rotation at each point
    is read off the quarter-turn corner map of the glued polygon.
    """
    ctx = fp.ctx
    m = ctx.i_min
    word = fp.boundary_word()
    pos_of, class_of_pos, orbit_lists = _corner_orbits(ctx, word)
    if len(orbit_lists) != m or any(len(o) != 4 for o in orbit_lists):
        raise ValueError("corner structure is not 4-valent")

    # label classes along alpha: terminal of alpha arc k gets label k
    label_of_class = [0] * m
    for k in range(1, m + 1):
        cls = class_of_pos[pos_of[2 * k - 1]]
        if label_of_class[cls]:
            raise ValueError("first curve revisits a crossing")
        label_of_class[cls] = k

    beta_seq = tuple(
        label_of_class[class_of_pos[pos_of[2 * j]]] for j in range(1, m + 1)
    )

    # classify each corner's incoming arc into a dart slot: odd symbols
    # lie on the first curve, symbols above 4g-2 are inverse arcs
    half = 4 * ctx.g - 2

    def slot_of(sym: int) -> int:
        return (BI if sym % 2 == 0 else AI) + (sym > half)

    signs = [0] * m
    for orbit in orbit_lists:
        label = label_of_class[class_of_pos[orbit[0]]]
        slots = [slot_of(word[p]) for p in orbit]
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
