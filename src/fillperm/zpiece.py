"""Genus g -> g+2 extension by splicing a decorated two-handle piece.

The splice excises one crossing of a filling pair and routes both curves
through a genus-2 piece carrying a pair of arcs that cross five times.
Combinatorially the piece is described by

  * order  -- the second arc visits the first arc's crossings in this
              order (a permutation of 1..5),
  * signs  -- crossing chirality at each of the five points, stored
              relative to the chirality of the excised vertex (the piece
              is mirrored when glued into a vertex of opposite sign; a
              fixed absolute chirality splices consistently at no vertex
              mix: read as absolute, no decoration passes the defining
              sweep below).

The template is a constant, pinned by its defining property: it is the
least of the 5! * 2^5 candidate decorations whose splice into the torus
pair gives a valid genus-3 pair and whose splice into every genus-3 pair
at every vertex gives a valid genus-5 pair.  tests/test_zpiece.py runs
that search as the oracle for the constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .diagram import PairDiagram, diagram_of
# unused here, but the benchmark's tracer wraps this name in this module
from .enumeration import enumerate_filling  # noqa: F401
from .filling import FillingPermutation


@dataclass(frozen=True)
class ZTemplate:
    """Crossing decoration of the splice piece.

    order[m-1] = i means the second arc's m-th crossing is the first
    arc's i-th; signs[i-1] is the chirality at the first arc's i-th
    crossing, relative to the excised vertex.
    """

    order: tuple[int, int, int, int, int]
    signs: tuple[int, int, int, int, int]

    def __post_init__(self):
        # as `PairDiagram` checks its fields: a list would leave the
        # template unhashable, and a True sign would equal +1
        if not (isinstance(self.order, tuple) and isinstance(self.signs, tuple)):
            raise ValueError("order and signs must be tuples")
        if not {*map(type, self.order), *map(type, self.signs)} <= {int}:
            raise ValueError("order and signs must be ints")
        if sorted(self.order) != [1, 2, 3, 4, 5]:
            raise ValueError("order must be a permutation of 1..5")
        if len(self.signs) != 5 or not set(self.signs) <= {-1, 1}:
            raise ValueError("signs must be +1/-1 at each of the five crossings")

    def to_json(self) -> dict:
        return {"order": list(self.order), "signs": list(self.signs)}

    @classmethod
    def from_json(cls, data: dict) -> "ZTemplate":
        return cls(tuple(data["order"]), tuple(data["signs"]))


# the least decoration passing the defining sweep (module docstring)
_TEMPLATE = ZTemplate((1, 3, 2, 5, 4), (1, -1, -1, -1, -1))


def derive_template() -> ZTemplate:
    """The decoration of the splice piece: order (1,3,2,5,4), signs
    (1,-1,-1,-1,-1)."""
    return _TEMPLATE


@dataclass(frozen=True)
class LSequence:
    """Strictly increasing attachment indices a_i <= 4i-3 for odd genus."""

    g: int
    entries: tuple[int, ...]

    def __post_init__(self):
        # as `PairDiagram` checks its fields: a float entry would fail
        # only inside a build, and a True entry would equal 1
        if not isinstance(self.entries, tuple):
            raise ValueError("entries must be a tuple")
        if type(self.g) is not int or not set(map(type, self.entries)) <= {int}:
            raise ValueError("genus and entries must be ints")
        if self.g % 2 == 0 or self.g < 3:
            raise ValueError("attachment sequences need odd genus >= 3")
        if len(self.entries) != (self.g - 1) // 2:
            raise ValueError("sequence length must be (g-1)/2")
        prev = 0
        for i, a in enumerate(self.entries, start=1):
            if a <= prev or a > 4 * i - 3:
                raise ValueError(f"entry {a} violates a_{i} <= {4 * i - 3} or monotonicity")
            prev = a


@dataclass(frozen=True)
class ZMatch:
    """One detected occurrence of the splice piece inside a filling pair."""

    position: int                # starting arc of the 6-arc run on alpha
    orientation: str             # "direct" (alpha carries a) or "swapped"
    chirality: int               # +1 as derived, -1 for the mirrored copy
    beta_start: int              # starting arc of the companion 6-arc run
    alpha_interior: tuple[int, ...]
    beta_interior: tuple[int, ...]
    interior_points: frozenset[int]
    endpoints: tuple[int, int, int, int]


# ----------------------------------------------------------------------
# Splice
# ----------------------------------------------------------------------


# The crossing diagram of the torus pair [2, 3, 4, 1], where every
# attachment-sequence build starts.
TORUS_DIAGRAM = PairDiagram(1, (1,), (-1,))


@lru_cache(maxsize=None)
def _piece_tables(t: ZTemplate) -> tuple[tuple[int, ...], dict, tuple[int, ...]]:
    """The per-template constants of splicing and detection: the 0-based
    run offsets of the visit order, the chirality of the piece's sign
    pattern and of its mirror image, and the mirrored signs."""
    mirrored = tuple([-s for s in t.signs])
    return tuple([o - 1 for o in t.order]), {t.signs: 1, mirrored: -1}, mirrored


def _splice_diagram(d: PairDiagram, k: int, t: ZTemplate) -> PairDiagram:
    """d with crossing k excised and the piece glued in: labels above k
    shift up by four, and the second curve visits the five new labels
    k..k+4 in the template's order where it visited k."""
    beta_seq = [x + 4 if x > k else x for x in d.beta_seq]
    at = d.beta_seq.index(k)
    beta_seq[at:at + 1] = [k - 1 + o for o in t.order]
    piece = t.signs if d.signs[k - 1] > 0 else _piece_tables(t)[2]
    return PairDiagram(d.m + 4, tuple(beta_seq), d.signs[:k - 1] + piece + d.signs[k:])


def splice(fp: FillingPermutation, k: int, t: ZTemplate) -> FillingPermutation:
    """Excise crossing k and glue in the decorated piece.

    Crossing labels above k shift up by four and the five new crossings
    take labels k..k+4 along the first curve, so iterated splices are
    reproducible from the label data alone.  The result is validated as a
    genus-(g+2) filling permutation.
    """
    if not 1 <= k <= fp.ctx.i_min:
        raise ValueError("vertex out of range")
    d2 = _splice_diagram(diagram_of(fp), k, t)
    out = d2.to_filling_permutation()
    assert out.ctx.g == fp.ctx.g + 2
    return out


def build_from_sequence(seq: LSequence, t: ZTemplate) -> FillingPermutation:
    """Iterate the splice along an attachment sequence, torus upward.

    Stage i excises the crossing labelled seq.entries[i-1]; the caps
    4i - 3 guarantee the label exists at each stage.  Distinct sequences
    give distinct oriented pairs.

    The stages splice crossing diagrams, starting from `TORUS_DIAGRAM`.
    Each stage must leave a filling pair, as `splice` would require: a
    later stage can merge the faces of an earlier one back into a single
    disk, so checking only the result would accept builds that pass
    through a non-filling stage.  ValueError names the failing stage and
    vertex.  Only the final diagram is converted to a (validated)
    filling permutation, and the `is_filling` walk of that conversion is
    the last stage's one-face check, so its face is walked once.
    """
    d = TORUS_DIAGRAM
    last = len(seq.entries)
    for stage, a in enumerate(seq.entries, start=1):
        if not 1 <= a <= d.m:
            raise ValueError(f"vertex out of range at stage {stage} (vertex {a})")
        d = _splice_diagram(d, a, t)
        if stage < last and not d.is_filling_pair():
            raise ValueError(
                f"complement is not a single disk at stage {stage} (vertex {a})")
    try:
        fp = d.to_filling_permutation()
    except ValueError as exc:
        raise ValueError(f"{exc} at stage {stage} (vertex {a})") from None
    assert fp.ctx.g == seq.g
    return fp


# ----------------------------------------------------------------------
# Detection
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _wrap(m: int) -> tuple[int, ...]:
    """wrap[x]: label x reduced into 1..m, for 0 <= x <= 2m."""
    return (m, *range(1, m + 1), *range(1, m + 1))


def detect_zpieces(fp: FillingPermutation, t: ZTemplate) -> list[ZMatch]:
    """All occurrences of the piece's crossing pattern, either framing.

    A direct match puts the a-role on the first curve; a swapped match
    (the piece's arc-exchange symmetry) puts it on the second.  A match
    may be mirrored, which flips all five signs at once.  Matches are
    deduplicated by their arc footprint, so the two framings of one
    occurrence collapse to a single record.

    Matching is purely by the crossing pattern (consecutive runs on both
    curves, visit order, signs).  The four run endpoints are reported on
    each match but not required to be distinct: at genus 3 the runs wrap
    around the whole curve, and even embedded occurrences may have the
    a-run's exit point equal to the b-run's entry point when the excised
    vertex's neighbours coincided that way in the parent pair.

    The visit order anchors the check: a run of five crossings on one
    curve can only be matched by the run on the other curve that starts
    at its order[0]-th crossing, so each of the 2m runs costs one index
    lookup and at most four comparisons, O(m) in all.  Both framings are
    read in the pair's own curve orientations, so reversing a curve can
    make a piece appear or disappear.
    """
    d = diagram_of(fp)
    m = d.m
    if m < 5:
        return []
    # doubled arrays instead of modulo: `_wrap`, and bseq[j] the label
    # at 0-based position j of the second curve for -1 <= j < 2m
    wrap = _wrap(m)
    bseq = d.beta_seq * 2
    bpos = [0] * (m + 1)
    for j, label in enumerate(d.beta_seq):
        bpos[label] = j
    (o0, o1, o2, o3, o4), chirality, _ = _piece_tables(t)
    found: dict[tuple[frozenset[int], frozenset[int]], ZMatch] = {}

    def record(alpha_start: int, beta_start: int, orientation: str, chir: int,
               interior: Sequence[int], ends: tuple[int, int, int, int]) -> None:
        a_int = wrap[alpha_start + 1:alpha_start + 5]
        b_int = wrap[beta_start + 1:beta_start + 5]
        key = (frozenset(a_int), frozenset(b_int))
        if key not in found:
            found[key] = ZMatch(
                position=alpha_start, orientation=orientation, chirality=chir,
                beta_start=beta_start, alpha_interior=a_int, beta_interior=b_int,
                interior_points=frozenset(interior), endpoints=ends,
            )

    # direct: the first curve carries the a role on labels k..k+4, so the
    # second curve's run starts at position j, where it visits k + o0
    for k in range(1, m + 1):
        j = bpos[wrap[k + o0]]
        if (bseq[j + 1] == wrap[k + o1] and bseq[j + 2] == wrap[k + o2]
                and bseq[j + 3] == wrap[k + o3] and bseq[j + 4] == wrap[k + o4]):
            u = wrap[k:k + 5]
            chir = chirality.get(tuple(d.signs[x - 1] for x in u))
            if chir is not None:
                ends = (wrap[k - 1], bseq[j - 1], bseq[j + 5], wrap[k + 5])
                record(k, j + 1, "direct", chir, u, ends)

    # swapped: the second curve carries the a role from 0-based position
    # j on, so the first curve's run starts at label c, visited at j + o0
    for j in range(m):
        c = bseq[j + o0]
        if (bseq[j + o1] == wrap[c + 1] and bseq[j + o2] == wrap[c + 2]
                and bseq[j + o3] == wrap[c + 3] and bseq[j + o4] == wrap[c + 4]):
            u = bseq[j:j + 5]
            chir = chirality.get(tuple(-d.signs[x - 1] for x in u))
            if chir is not None:
                ends = (bseq[j - 1], wrap[c - 1], wrap[c + 5], bseq[j + 5])
                record(c, j + 1, "swapped", chir, u, ends)

    return sorted(found.values(), key=lambda z: (z.position, z.orientation))


