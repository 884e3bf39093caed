"""General polygon gluing patterns for filling pairs.

A filling pair crossing i times cuts its surface into i - 2g + 2 even
polygons whose directed edges project to the 2i arcs.  A pattern lists
each polygon as a cyclic sequence of signed arc ids: +k is arc k forward
(1 <= k <= i on the first curve, i < k <= 2i for arc k-i of the second),
-k its reverse.  Validity is certified by the quarter-turn corner map:
rotating one step around any crossing must return after exactly four
steps, the strands through each crossing must alternate between the two
curves, and consecutive arcs of each curve must chain head to tail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from typing import Sequence

from .diagram import PairDiagram
from .filling import FillingPermutation, relabeling_generators, signed_ids
from .perms import closure


@dataclass(frozen=True)
class GluingPattern:
    """Edge-identification scheme with i arcs per curve over 4i slots."""

    i: int
    polygons: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, i: int, polygons: Sequence[Sequence[int]]) -> "GluingPattern":
        return cls(i, tuple(tuple(p) for p in polygons))

    def to_json(self) -> str:
        return json.dumps({"i": self.i, "polygons": [list(p) for p in self.polygons]})

    @classmethod
    def from_json(cls, text: str) -> "GluingPattern":
        """Parse a pattern file; ValueError names the first schema breach."""
        data = json.loads(text)
        is_int = lambda v: type(v) is int  # bool is an int subclass
        if not isinstance(data, dict):
            raise ValueError("a pattern is a JSON object")
        if not is_int(data.get("i")):
            raise ValueError('"i" must be an integer')
        polygons = data.get("polygons")
        if not isinstance(polygons, list) or not all(
            isinstance(p, list) and all(map(is_int, p)) for p in polygons
        ):
            raise ValueError('"polygons" must be a list of lists of integers')
        return cls.make(data["i"], polygons)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]


def _slot_index(pat: GluingPattern) -> dict[int, tuple[int, int]] | None:
    """Map signed id -> (polygon, position); None if ids are not each used once."""
    where: dict[int, tuple[int, int]] = {}
    for pi, poly in enumerate(pat.polygons):
        for qi, v in enumerate(poly):
            if v == 0 or abs(v) > 2 * pat.i or v in where:
                return None
            where[v] = (pi, qi)
    if len(where) != 4 * pat.i:
        return None
    return where


def _corner_map(pat: GluingPattern, where) -> dict[tuple[int, int], tuple[int, int]]:
    """Quarter turn: step to the next slot clockwise, then to its inverse."""
    M = {}
    for pi, poly in enumerate(pat.polygons):
        size = len(poly)
        for qi in range(size):
            succ = poly[(qi + 1) % size]
            M[(pi, qi)] = where[-succ]
    return M


def validate(pat: GluingPattern) -> ValidationReport:
    """Check the full set of pattern conditions, reporting each failure."""
    failures: list[str] = []
    if pat.i < 1:
        return ValidationReport(False, ("arc count must be positive",))
    if not pat.polygons:
        return ValidationReport(False, ("no polygons",))
    for poly in pat.polygons:
        if len(poly) < 2 or len(poly) % 2:
            failures.append(f"polygon {list(poly)} must have even length >= 2")
    where = _slot_index(pat)
    if where is None:
        failures.append("each signed arc id must occur exactly once")
        return ValidationReport(False, tuple(failures))

    on_first = lambda v: abs(v) <= pat.i

    for pi, poly in enumerate(pat.polygons):
        for qi in range(len(poly)):
            if on_first(poly[qi]) == on_first(poly[(qi + 1) % len(poly)]):
                failures.append(f"polygon {pi}: consecutive edges on one curve")
                break

    M = _corner_map(pat, where)
    seen: set[tuple[int, int]] = set()
    orbits = 0
    for slot in M:
        if slot in seen:
            continue
        orbit = []
        s = slot
        while s not in seen:
            seen.add(s)
            orbit.append(s)
            s = M[s]
        orbits += 1
        if len(orbit) != 4:
            failures.append(f"corner orbit of size {len(orbit)} at {orbit[0]}")
        else:
            curves = [on_first(pat.polygons[p][q]) for p, q in orbit]
            if curves[0] == curves[1] or curves[1] == curves[2]:
                failures.append(f"crossing at {orbit[0]} is not transverse")
    if orbits != pat.i and not failures:
        failures.append(f"{orbits} crossings found, expected {pat.i}")

    if not failures:
        # consecutive arcs of each curve must chain head to tail: two
        # quarter turns from an arc's head slot land on the next arc's
        # inverse slot
        for a in range(1, 2 * pat.i + 1):
            if a <= pat.i:
                nxt = a % pat.i + 1
            else:
                nxt = (a - pat.i) % pat.i + pat.i + 1
            if M[M[where[a]]] != where[-nxt]:
                failures.append(f"arc {a} does not continue into arc {nxt}")

    # connectivity of polygons through arc pairings
    if not failures and len(pat.polygons) > 1:
        adj: dict[int, set[int]] = {p: set() for p in range(len(pat.polygons))}
        for a in range(1, 2 * pat.i + 1):
            p1, p2 = where[a][0], where[-a][0]
            adj[p1].add(p2)
            adj[p2].add(p1)
        todo = [0]
        reached = {0}
        while todo:
            for q in adj[todo.pop()]:
                if q not in reached:
                    reached.add(q)
                    todo.append(q)
        if len(reached) != len(pat.polygons):
            failures.append("glued complex is disconnected")

    return ValidationReport(not failures, tuple(failures))


def euler_genus(pat: GluingPattern) -> int:
    """Genus from V - E + F with V = crossings, E = 2i, F = polygon count."""
    report = validate(pat)
    if not report.ok:
        raise ValueError("invalid pattern: " + "; ".join(report.failures))
    chi = pat.i - 2 * pat.i + len(pat.polygons)
    if (2 - chi) % 2:
        raise ValueError("non-orientable or malformed")
    return (2 - chi) // 2


def t1(pat: GluingPattern) -> int:
    """Arcs whose two sides lie on the same polygon.

    Each such arc supports exactly one simple closed curve crossing the
    pair once (the chord of that polygon joining the two sides).
    """
    report = validate(pat)
    if not report.ok:
        raise ValueError("invalid pattern: " + "; ".join(report.failures))
    where = _slot_index(pat)
    assert where is not None
    return sum(
        1 for a in range(1, 2 * pat.i + 1) if where[a][0] == where[-a][0]
    )


def from_filling(fp: FillingPermutation) -> GluingPattern:
    """The one-polygon pattern of a minimally intersecting pair."""
    i = fp.ctx.i_min
    ids = signed_ids(i)
    return GluingPattern.make(i, [[ids[s] for s in fp.boundary_word()]])


def pattern_of_diagram(d: PairDiagram) -> GluingPattern:
    """Cut a crossing diagram along its curves into a gluing pattern."""
    ids = signed_ids(d.m)
    return GluingPattern.make(d.m, [[ids[s] for s in face] for face in d.faces()])


# ----------------------------------------------------------------------
# Canonical form and search
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _relabeling_tables(i: int) -> tuple[tuple[int, ...], ...]:
    """The relabelling group on signed arc ids, one table per element.

    Each element of the closure of `relabeling_generators(i)` is carried
    from symbols to signed ids.  A table has 4i + 1 entries and is
    indexed by the signed id itself: the negative ids wrap around to the
    top half of the tuple.
    """
    ids = signed_ids(i)
    tables = []
    for t in closure(relabeling_generators(i)):
        table = [0] * (4 * i + 1)
        for s in range(1, 4 * i + 1):
            table[ids[s]] = ids[t(s)]
        tables.append(tuple(table))
    return tuple(tables)


def _normalize(polygons: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Rotate each polygon to its least phase and sort the polygons."""
    normed = []
    for poly in polygons:
        best = None
        for r in range(len(poly)):
            cand = tuple(poly[r:]) + tuple(poly[:r])
            if best is None or cand < best:
                best = cand
        normed.append(best)
    return tuple(sorted(normed))


def canonical_key(pat: GluingPattern) -> tuple[tuple[int, ...], ...]:
    """Least normalized form over the arc relabelings.

    Polygon rotations are absorbed by the normalization; the polygon
    order is sorted away.  Full surface homeomorphism is deliberately
    not quotiented, so the count may split some topological classes.
    """
    best = None
    for table in _relabeling_tables(pat.i):
        cand = _normalize([[table[v] for v in poly] for poly in pat.polygons])
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


@lru_cache(maxsize=None)
def _search_all(genus: int, intersections: int) -> tuple[GluingPattern, ...]:
    m = intersections
    want_faces = intersections - 2 * genus + 2
    if want_faces < 1:
        return ()
    seen: set[tuple[tuple[int, ...], ...]] = set()
    out: list[tuple[tuple, GluingPattern]] = []
    for rest in permutations(range(2, m + 1)):
        bseq = (1,) + rest
        for signs in product((-1, 1), repeat=m):
            d = PairDiagram(m, bseq, signs)
            faces = d.faces()
            if len(faces) != want_faces or any(len(f) == 2 for f in faces):
                continue
            pat = pattern_of_diagram(d)
            key = canonical_key(pat)
            if key in seen:
                continue
            seen.add(key)
            out.append((key, GluingPattern.make(m, key)))
    out.sort(key=lambda kp: kp[0])
    return tuple(pat for _, pat in out)


def search_patterns(genus: int, intersections: int, limit: int) -> list[GluingPattern]:
    """Valid patterns at the requested genus and crossing count.

    Enumerates crossing diagrams (second-curve visit orders anchored at
    the first crossing, times all sign choices), keeps those whose face
    count matches the genus, and deduplicates up to polygon rotation and
    arc relabeling.  Deterministic output order, cached per size.

    Patterns with a bigon face are rejected: a two-sided complementary
    region certifies the curves are not in minimal position, so the
    declared crossing count would not be the geometric intersection
    number.
    """
    if genus < 1 or intersections < 1 or limit < 0:
        raise ValueError("genus, intersections and limit must be positive")
    if intersections < 2 * genus - 1:
        return []
    if 4 * intersections > 24:
        raise ValueError("search space too large")
    return list(_search_all(genus, intersections)[:limit])
