"""General polygon gluing patterns for filling pairs.

A filling pair crossing i times cuts its surface into i - 2g + 2 even
polygons whose directed edges project to the 2i arcs.  A pattern lists
each polygon as a cyclic sequence of signed arc ids: +k is arc k forward
(1 <= k <= i on the first curve, i < k <= 2i for arc k-i of the second),
-k its reverse.  Validation reads the edges as the directed-arc symbols
of `signed_ids` and walks the quarter-turn corner map s -> iota(succ(s)),
with succ the next edge of the same polygon.  Each orbit is a crossing:
it must have exactly four corners whose strands alternate between the
two curves.  Consecutive arcs of each curve must chain head to tail,
which is the filling equation succ(iota(succ(s))) = tau(s) on the
forward arcs s.

`_check` reads every pattern built by `GluingPattern.make` or
`from_json`, once per `validate`, `t1` or `euler_genus`.  The patterns
the library cuts from an object already valid are not re-checked:
`from_filling` and `_cut` attach the polygon-of-symbol table `_check`
would return, and `t1` and `euler_genus` read it.  `_cut` cuts both
`pattern_of_diagram` and every `search_patterns` result.  These cuts
use each signed arc id once, in polygons of even length whose edges
alternate between the curves, and pass the corner and chaining
conditions too, so `_check` would find no failure:

  * The one polygon of a `FillingPermutation` s is its n-cycle, read
    with succ = s, so its corner map is c = iota o s.  Then
    c^2 = iota o s o iota o s = iota o tau.  That is a fixed-point-free
    involution: tau keeps the forward and the inverse symbols apart,
    which iota swaps, and it runs the inverse symbols backwards, so
    tau o iota = iota o tau^-1.  So every corner orbit has exactly four
    corners.  s flips parity and iota keeps it (it shifts by 4g - 2),
    so the strands alternate.  The equation s o iota o s = tau on the
    forward arcs is exactly the chaining condition, as `_check` reads
    the same `arc_tables` at 4i = 8g - 4.
  * The faces of a `PairDiagram`, and of a leaf of the pattern search,
    are the cycles of a successor table written crossing by crossing
    by the quarter turn of `diagram._quarter_turns`: four corners that
    alternate between the curves and chain head to tail, each step from
    one curve to the other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from operator import eq, itemgetter
from typing import Sequence

from .diagram import PairDiagram, crossing_steps
from .enumeration import _admitting, _choice_table, _orderly
from .filling import FillingPermutation, arc_tables, corner_orbits, signed_ids
from .perms import table_orbits


@dataclass(frozen=True)
class GluingPattern:
    """Edge-identification scheme with i arcs per curve over 4i slots."""

    i: int
    polygons: tuple[tuple[int, ...], ...]

    # The polygon of each directed-arc symbol, when `from_filling` or
    # `_cut` cut this pattern from a valid object.  Not a field: it takes
    # no part in ==, hash or repr.
    _polygon = None

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


@lru_cache(maxsize=None)
def _check_tables(i: int) -> tuple[tuple[int, ...], frozenset[int]]:
    """The tables `_check` reads at i arcs per curve besides `arc_tables`:
    the symbol of each signed arc id (indexed by the id, negative ids
    wrapping to the top) and the set of the 4i ids."""
    n = 4 * i
    ids = signed_ids(i)
    sym = [0] * (n + 1)
    for s in range(1, n + 1):
        sym[ids[s]] = s
    return tuple(sym), frozenset(ids[1:])


def _check(pat: GluingPattern) -> tuple[list[str], list[int]]:
    """Every failed pattern condition, in a fixed order, and the polygon
    of each directed-arc symbol once each signed arc id is used once.

    The edges are read as the symbols of `signed_ids`, through the
    per-i tables of `_check_tables` and `arc_tables`: odd symbols are
    the first curve's arcs and s + 2i is the inverse of s.  One pass
    over each polygon writes its successor and polygon entries and
    checks that the curves alternate; the position of a corner in its
    polygon is looked up only to name a failure.  Then the corner
    orbits (`corner_orbits`) must be transverse crossings of four
    corners, and consecutive arcs must chain.  These conditions already
    give i crossings and a connected complex, so neither is checked
    again (see the comments below)."""
    if pat.i < 1:
        return ["arc count must be positive"], []
    if not pat.polygons:
        return ["no polygons"], []
    failures = [
        f"polygon {list(poly)} must have even length >= 2"
        for poly in pat.polygons
        if len(poly) < 2 or len(poly) % 2
    ]
    i = pat.i
    n = 4 * i
    values = [v for poly in pat.polygons for v in poly]
    # nothing is sized by i before the ids are known to number 4i
    if len(values) != n or set(values) != _check_tables(i)[1]:
        failures.append("each signed arc id must occur exactly once")
        return failures, []
    sym = _check_tables(i)[0]

    succ = [0] * (n + 1)
    polygon = [0] * (n + 1)
    for pi, poly in enumerate(pat.polygons):
        if not poly:
            continue
        prev = sym[poly[-1]]
        alternates = True
        for v in poly:
            s = sym[v]
            succ[prev] = s
            polygon[s] = pi
            if not (prev ^ s) & 1:
                alternates = False
            prev = s
        if not alternates:
            failures.append(f"polygon {pi}: consecutive edges on one curve")

    _, orbits = corner_orbits(succ, [sym[v] for v in values])
    for orbit in orbits:
        if len(orbit) != 4:
            at = _corner_at(pat, polygon, orbit[0])
            failures.append(f"corner orbit of size {len(orbit)} at {at}")
        elif orbit[0] % 2 == orbit[1] % 2 or orbit[1] % 2 == orbit[2] % 2:
            at = _corner_at(pat, polygon, orbit[0])
            failures.append(f"crossing at {at} is not transverse")
    # with no failure so far the 4i symbols fall into orbits of four
    # corners, so there are exactly i crossings

    if not failures:
        # consecutive arcs of each curve chain head to tail: the filling
        # equation succ(iota(succ(s))) = tau(s) on the forward arcs
        iota, tau = arc_tables(i)
        for a in range(1, 2 * i + 1):
            s = sym[a]
            if succ[iota[succ[s]]] != tau[s]:
                failures.append(
                    f"arc {a} does not continue into arc {signed_ids(i)[tau[s]]}")

    # the glued complex is connected: a union of polygons closed under
    # arc pairing holds an edge of each curve, as every polygon
    # alternates, and so a forward arc of each; chaining then brings in
    # every forward arc of both curves, and pairing every symbol
    return failures, polygon


def _corner_at(pat: GluingPattern, polygon: list[int], s: int) -> tuple[int, int]:
    """(polygon, position) of the edge whose symbol is s."""
    return polygon[s], pat.polygons[polygon[s]].index(signed_ids(pat.i)[s])


def validate(pat: GluingPattern) -> ValidationReport:
    """Check the full set of pattern conditions, reporting each failure."""
    failures, _ = _check(pat)
    return ValidationReport(not failures, tuple(failures))


def _valid_polygon(pat: GluingPattern) -> list[int]:
    """The polygon of each directed-arc symbol of a valid pattern, read
    from the table a cut pattern carries or else from `_check`;
    ValueError naming every failure on an invalid one."""
    if pat._polygon is not None:
        return pat._polygon
    failures, polygon = _check(pat)
    if failures:
        raise ValueError("invalid pattern: " + "; ".join(failures))
    return polygon


def euler_genus(pat: GluingPattern) -> int:
    """Genus from V - E + F with V = crossings, E = 2i, F = polygon count."""
    _valid_polygon(pat)
    return _valid_genus(pat)


def _valid_genus(pat: GluingPattern) -> int:
    """`euler_genus` of a pattern already validated."""
    chi = pat.i - 2 * pat.i + len(pat.polygons)
    if (2 - chi) % 2:
        raise ValueError("non-orientable or malformed")
    return (2 - chi) // 2


def t1(pat: GluingPattern) -> int:
    """Arcs whose two sides lie on the same polygon.

    Each such arc supports exactly one simple closed curve crossing the
    pair once (the chord of that polygon joining the two sides).
    """
    polygon = _valid_polygon(pat)
    # the forward symbols 1..2i against their inverses 2i+1..4i
    h = 2 * pat.i
    return sum(map(eq, polygon[1:h + 1], polygon[h + 1:]))


def from_filling(fp: FillingPermutation) -> GluingPattern:
    """The one-polygon pattern of a minimally intersecting pair.

    It carries its polygon table, every symbol on polygon 0, and is not
    re-checked: the corner orbits of a filling permutation are
    crossings of four alternating corners whose arcs chain (see the
    module docstring).
    """
    i = fp.ctx.i_min
    # the word has 8g - 4 >= 4 symbols, so the getter returns a tuple
    polygon = itemgetter(*fp.boundary_word())(signed_ids(i))
    pat = GluingPattern(i, (polygon,))
    object.__setattr__(pat, "_polygon", [0] * (4 * i + 1))
    return pat


def pattern_of_diagram(d: PairDiagram) -> GluingPattern:
    """Cut a crossing diagram along its curves into a gluing pattern,
    which carries its polygon table (see `_cut`)."""
    return _cut(d.m, d._succ)


def _cut(m: int, succ: Sequence[int]) -> GluingPattern:
    """The pattern of the faces of a `crossing_steps` successor table on
    the 4m symbols of an m-crossing diagram, padded at index 0.

    One walk of the table gives both the faces, each listed from its
    least symbol in the order of their least symbols, and the polygon
    of each symbol.  The pattern carries that table and is not
    re-checked: `crossing_steps` writes every crossing as four
    alternating corners whose arcs chain (see the module docstring).
    """
    polygon, faces = table_orbits(succ, range(1, 4 * m + 1))
    polygon[0] = 0  # as `_check` pads it
    ids = signed_ids(m)
    # each face alternates between the curves, so it has two symbols or
    # more and its getter returns a tuple
    pat = GluingPattern(m, tuple([itemgetter(*face)(ids) for face in faces]))
    object.__setattr__(pat, "_polygon", polygon)
    return pat


# ----------------------------------------------------------------------
# Search
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _crossing_rows(m: int) -> tuple[tuple[tuple[int, tuple], ...], ...]:
    """The crossings of an m-crossing diagram, one row per beta arc.

    Choice (p - 1, steps) of row j - 1 ends beta arc j at point p with
    one sign and holds the four `crossing_steps` of that crossing, the
    sign -1 first.  They write the steps from alpha arc p (2p - 1), from
    beta arc j (2j) and from the inverses of alpha arc p + 1 and beta
    arc j + 1, so the rows pair the beta arcs with the alpha arcs as
    `enumeration._moves` pairs the odd transpositions with the even.
    """
    return tuple(tuple((p - 1, crossing_steps(m, j, p, sign))
                       for p in range(1, m + 1) for sign in (-1, 1))
                 for j in range(1, m + 1))


@lru_cache(maxsize=None)
def _crossing_choices(m: int) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """The choice table (`_choice_table`) of the m-crossing diagrams:
    `_crossing_rows` pairs beta arc j, symbol 2j, with alpha arc p,
    symbol 2p - 1.  An element joins when the choice writes the step
    from t^-1(2) to t^-1(3) or t^-1(2m + 1), so that beta arc 1 of the
    relabelled diagram ends at point 1, and the tie starts at position
    1."""
    return _choice_table(4 * m, _crossing_rows(m), range(2, 2 * m + 1, 2),
                         range(1, 2 * m, 2), _admitting(m, 2, (3, 2 * m + 1)), 1)


@lru_cache(maxsize=None)
def _search_all(genus: int, intersections: int) -> tuple[GluingPattern, ...]:
    """One pattern per pattern class at one size.

    The diagrams are face-successor tables with want_faces faces and no
    bigon, found by the orderly search (`enumeration._orderly`) over
    `_crossing_choices`, the search that counts the filling pairs.  Its
    first level writes the step from alpha arc 1 and is fixed to the two
    signs of beta arc 1 ending at point 1, so entry 2 of every leaf is 3
    or 2m + 1.  Relabelling a pattern conjugates its table, and the
    search admits exactly the conjugates that are leaves, so it yields
    each class's least leaf and no other.  Each is cut by `_cut`, so the
    pattern carries its polygon table, and the patterns come in the
    order of their tables."""
    m = intersections
    want_faces = intersections - 2 * genus + 2
    if want_faces < 1:
        return ()
    choices, first = _crossing_choices(m)
    leaves = sorted(bytes(table[1:-1]) for k in (0, 1)
                    for _, table, _ in _orderly(choices, first, want_faces, (k,), m))
    return tuple(_cut(m, b"\0" + table) for table in leaves)


def search_patterns(genus: int, intersections: int, limit: int) -> list[GluingPattern]:
    """Valid patterns at the requested genus and crossing count.

    Searches crossing diagrams (second-curve visit orders anchored at
    the first crossing, with a sign at each crossing) depth first, one
    crossing at a time, for those whose face count matches the genus;
    a prefix that closes a bigon or too many faces is dropped at once,
    and so is one that a relabelling of its crossings already
    undercuts.  The search is the orderly search of the
    filling-permutation count (`_search_all`).  One pattern is kept per
    class under arc relabelling: the one cut from the class's least
    successor table among the diagrams found, and the patterns come in
    the order of those tables.  Cached per size.

    Patterns with a bigon face are rejected: a two-sided complementary
    region certifies the curves are not in minimal position, so the
    declared crossing count would not be the geometric intersection
    number.

    Sizes with 4 * intersections > 28 are refused.  The search itself
    runs past that bound: `_search_all` takes about 0.23 s at (4, 8) and
    0.8 s at (5, 9), where it finds N(5) = 25,908.
    """
    if genus < 1 or intersections < 1 or limit < 0:
        raise ValueError("limit must be non-negative, genus and intersections positive")
    if intersections < 2 * genus - 1:
        return []
    if 4 * intersections > 28:
        raise ValueError("search space too large")
    return list(_search_all(genus, intersections)[:limit])
