"""Filling permutations: the directed-arc layout, named permutations,
validation, surface reconstruction and the twisting group.

An oriented pair of curves (a, b) that fill a genus-g surface with the
minimal number 2g-1 of crossings cuts the surface into a single (8g-4)-gon.
Reading the directed-edge labels around that polygon defines a permutation
s of the 8g-4 labels, and s is characterised by three properties: it is an
(8g-4)-cycle, it respects the parity of the labels, and it solves

    s o iota o s = tau

where iota inverts every label and tau advances every label one sub-arc
along its own curve.  Regluing the polygon turns its corners into the
crossings: the corner at the head of edge s turns a quarter into the
inverse of the next edge, so the crossings are the orbits of the corner
map s -> iota(succ(s)) with succ = s.  Gluing patterns of several
polygons walk the same map with succ the next edge of the same polygon.
This module owns the characterisation, the corner walk and the
relabellings ("twistings") that map solutions to solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .perms import Permutation, closure, from_cycles, table_orbits


@dataclass(frozen=True)
class GenusContext:
    """Genus g together with the derived symbol counts, stored on
    construction: n = 8g - 4, the number of directed arc labels, and
    i_min = 2g - 1, the minimal crossing count of a filling pair.

    n and i_min are not fields: they take no part in ==, hash or repr.
    Per-pair code takes its context from `genus_context`.
    """

    g: int

    def __post_init__(self):
        # type(), not isinstance(): bool is an int subclass
        if type(self.g) is not int:
            raise ValueError(f"genus must be an int, not {type(self.g).__name__}")
        if self.g < 1:
            raise ValueError("genus must be at least 1")
        object.__setattr__(self, "n", 8 * self.g - 4)
        object.__setattr__(self, "i_min", 2 * self.g - 1)


@lru_cache(maxsize=None, typed=True)
def genus_context(g: int) -> GenusContext:
    """The GenusContext of genus g, built and validated once per process;
    typed, so that a bool is not taken for the int it equals."""
    return GenusContext(g)


class CanonicalPerms(NamedTuple):
    Q: Permutation
    iota: Permutation
    tau: Permutation
    kappa: Permutation
    delta: Permutation
    eta: Permutation
    mu: Permutation


@lru_cache(maxsize=None)
def relabeling_generators(i: int) -> tuple[Permutation, ...]:
    """(kappa, delta, rho, mu): generators of the relabelling group of a
    pair with i arcs per curve, on the 4i directed-arc symbols.

    Symbols 1..2i are the forward arcs a1,b1,a2,b2,... and symbol j+2i
    is the inverse of symbol j.  kappa and delta rotate the arc numbering
    of the first and second curve, rho reverses the first curve and mu
    swaps the two curves.  Reversing a curve renumbers its arcs along the
    new direction, so rho pairs forward arc k with the inverse of arc
    i+2-k (mod i), not with its own inverse.
    """
    n = 4 * i
    kappa = from_cycles([range(1, 2 * i, 2), range(2 * i + 1, n, 2)], n)
    delta = from_cycles([range(2, 2 * i + 1, 2), range(2 * i + 2, n + 1, 2)], n)
    rho = from_cycles(
        [(2 * k - 1, 2 * i + 2 * ((i + 1 - k) % i) + 1) for k in range(1, i + 1)], n
    )
    mu = from_cycles([(j, j + 1) for j in range(1, n, 2)], n)
    return kappa, delta, rho, mu


@lru_cache(maxsize=None)
def relabeling_group(i: int) -> tuple[Permutation, ...]:
    """The closure of `relabeling_generators(i)`, sorted: the one group
    that classifies both filling permutations and gluing patterns.

    `closure` refuses a degree 4i above 255, which no caller in the
    library reaches: the filling pairs build it at i = 2g - 1 only past
    `check_guard` or the bound of `canonical_class_rep`, both of
    which refuse a genus above `MAX_ENUMERATED_GENUS` (4i = 8g - 4 <=
    252), and the pattern search at i = m only within the 4m <= 28 cap
    of `search_patterns`."""
    return tuple(closure(relabeling_generators(i)))


@lru_cache(maxsize=None)
def signed_ids(i: int) -> tuple[int, ...]:
    """Signed arc id of each of the 4i directed-arc symbols, padded at 0.

    This is the arc layout of `relabeling_generators` in the signed form
    of gluing patterns: symbol 2k-1 is arc k of the first curve (id k),
    symbol 2k is arc k of the second curve (id i+k), and the inverse
    symbol s+2i has id -ids[s].
    """
    forward = [k for a in range(1, i + 1) for k in (a, i + a)]
    return (0, *forward, *(-k for k in forward))


@lru_cache(maxsize=None)
def canonical_perms(ctx: GenusContext) -> CanonicalPerms:
    """The named permutations of the symbol set, genus-indexed.

    Q is the full rotation, iota = Q^(4g-2) the label inversion and tau
    the one-sub-arc advance (both from `arc_tables`), kappa/delta the
    basepoint rotations of the two curves, eta the direction flip of the
    first curve (index-preserving form) and mu the curve swap.  Cycles
    that degenerate to fewer than two entries are identity factors.
    """
    g = ctx.g
    n = ctx.n
    Q = from_cycles([list(range(1, n + 1))], n)
    iota, tau = (Permutation(t[1:]) for t in arc_tables(ctx.i_min))
    kappa, delta, _, mu = relabeling_generators(ctx.i_min)
    eta = from_cycles(
        [(2 * k - 1, 4 * g - 2 + 2 * k - 1) for k in range(1, 2 * g)], n
    )
    return CanonicalPerms(Q, iota, tau, kappa, delta, eta, mu)


@lru_cache(maxsize=None)
def arc_tables(i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Image tables of iota and tau on the 4i directed-arc symbols of a
    pair with i arcs per curve, padded at index 0.

    iota swaps each symbol s <= 2i with its inverse s + 2i.  tau steps
    each forward arc to the next arc of its curve, s -> s + 2 wrapping
    2i-1 -> 1 and 2i -> 2, and each inverse arc back along it, so that
    tau o iota = iota o tau^-1.
    """
    h, n = 2 * i, 4 * i
    iota = (0, *range(h + 1, n + 1), *range(1, h + 1))
    tau = (0, *range(3, h + 1), 1, 2, n - 1, n, *range(h + 1, n - 1))
    return iota, tau


def is_filling(ctx: GenusContext, p: Permutation) -> tuple[bool, str | None]:
    """Test the three filling conditions; on failure name the first broken one.

    One walk of the cycle through symbol 1 decides all three.  A
    permutation of the n = 8g-4 symbols respects parity when it maps the
    odd symbols all to odd ones or all to even ones.  An n-cycle cannot
    do the first: the cycle through 1 would stay among the n/2 odd
    symbols.  So an n-cycle respects parity exactly when every step of
    the walk, the closing step back to 1 included, changes parity: the
    walk goes odd, even, odd, ... and the n-cycle condition is that it
    takes n steps.  On an n-cycle the walk visits every j, so it also
    checks the equation s(iota(s(j))) = tau(j) on the padded image
    tables, without building the products as permutations.

    The walk stops after n steps, so it also decides the tables of
    non-negative entries that `FillingPermutation` is given unchecked.
    A walk that first comes back to 1 after exactly n steps has visited
    n distinct symbols: had it met one twice, it would have repeated
    itself from there and come back to 1 sooner.  None of them is 0,
    which the padding maps to itself, or above n, where the lookup
    raises IndexError.  So the walk has read every entry of the table
    once, the entries are the n symbols 1..n it visited, and the table
    is a bijection of 1..n.
    """
    n = ctx.n
    if p.n != n:
        raise ValueError("degree mismatch")
    iota, tau = arc_tables(ctx.i_min)
    s = p.padded
    steps = 0
    flips = solves = True
    j = 1
    while steps < n:
        # two steps a turn, from odd j to even k and on to odd s[k]
        k = s[j]
        steps += 1
        if k & 1:
            flips = False
        if s[iota[k]] != tau[j]:
            solves = False
        if k == 1:
            break
        j = s[k]
        steps += 1
        if not j & 1:
            flips = False
        if s[iota[j]] != tau[k]:
            solves = False
        if j == 1:
            break
    if steps != n or j != 1:  # back at 1 after exactly n steps?
        return False, "not an n-cycle"
    if not flips:
        return False, "not parity respecting"
    if not solves:
        return False, "does not solve the filling equation"
    return True, None


@dataclass(frozen=True)
class FillingPermutation:
    """A validated solution of the filling equation.

    Encodes one oriented minimally intersecting filling pair; construction
    rejects anything that is not an n-cycle, not parity respecting, or not
    a solution.

    Image tables the library built itself (search bytes, a diagram's
    successor table) come padded at index 0 as FillingPermutation(ctx,
    Permutation._unchecked(padded)): the bounded walk of `is_filling`
    proves such a table a bijection (see there), so this accepts and
    rejects what the checked Permutation(padded[1:]) does, with an equal
    result, in one walk.  The one object built without that walk is a
    conjugate of a walked solution by a twisting element whose
    generators `twisting_closure` has checked, in `enumerate_filling`
    (`_trusted_conjugate`).
    """

    ctx: GenusContext
    perm: Permutation

    # The crossing diagram of this permutation, once it has one: the
    # diagram `PairDiagram.to_filling_permutation` made it from, or the
    # one `diagram_of` read off it.  Not a field: it takes no part in
    # ==, hash or repr.
    _diagram = None

    def __post_init__(self):
        try:
            ok, why = is_filling(self.ctx, self.perm)
        except IndexError:  # an unchecked table with an entry above n
            ok, why = False, "not an n-cycle"
        if not ok:
            raise ValueError(f"not a filling permutation: {why}")

    def boundary_word(self) -> tuple[int, ...]:
        """The polygon's directed-edge labels in boundary order.

        This is the cycle of the permutation starting at symbol 1; every
        symbol appears exactly once.
        """
        img = self.perm.padded
        word = [1]
        j = img[1]
        while j != 1:
            word.append(j)
            j = img[j]
        return tuple(word)


@dataclass(frozen=True)
class SurfaceReport:
    """Result of gluing the labelled polygon back into a closed surface."""

    genus: int
    vertex_classes: tuple[tuple[int, ...], ...]
    alpha_is_single_curve: bool
    beta_is_single_curve: bool
    boundary_word: tuple[int, ...]


class ReconstructionError(RuntimeError):
    """Internal inconsistency: a validated solution that does not reglue,
    or a twisting relabelling that would leave the solution set."""


def _corner_map(succ: Sequence[int]) -> tuple[int, ...]:
    """The quarter-turn corner map s -> iota(succ(s)) as an image table
    padded at index 0, for a successor table `succ` on the 4i
    directed-arc symbols, itself padded at index 0.

    Symbol s stands for the polygon corner at the head of its edge, and
    succ[s] is the next edge along the same polygon; turning a quarter
    around that corner leaves along the inverse of the next edge.
    """
    iota = arc_tables(len(succ) // 4)[0]
    # succ holds 4i + 1 >= 5 entries, so the getter returns a tuple
    return itemgetter(*succ)(iota)


def corner_orbits(
    succ: Sequence[int], starts: Iterable[int]
) -> tuple[list[int], list[list[int]]]:
    """Orbits of the quarter-turn corner map (`_corner_map`) on the
    directed-arc symbols, walked from `starts`.

    The orbits are the vertex classes of the glued surface.  Returns the
    orbit index of each symbol and the orbits (see `table_orbits`).
    """
    return table_orbits(_corner_map(succ), starts)


def reconstruct(fp: FillingPermutation) -> SurfaceReport:
    """Glue each polygon edge to its inverse and report the surface.

    Checks carried out: every corner orbit has size exactly 4, there are
    2g-1 of them, and the arcs of each curve chain head-to-tail into one
    closed curve.  A validated filling permutation that failed any of
    these would indicate an implementation bug, hence the hard error.
    Vertex classes list 1-based boundary-word positions, in the order of
    their first position.

    One pass over the boundary word walks the orbits: at each corner s
    not yet in an orbit it reads c(s), c^2(s) and c^3(s) off the corner
    map c, a bijection.  The orbit of s has four corners exactly when
    c^4(s) = s and c^2(s) != s, and then none of the four is in an
    earlier orbit.  Four corners per orbit make at most n/4 = i orbits,
    and exactly i when the word holds every symbol.
    """
    ctx = fp.ctx
    n, i = ctx.n, ctx.i_min
    iota = arc_tables(i)[0]
    word = fp.boundary_word()
    corner = _corner_map(fp.perm.padded)
    pos_of = [0] * (n + 1)
    for p, s in enumerate(word, 1):
        pos_of[s] = p
    cls = [-1] * (n + 1)  # the orbit index of each corner
    orbits = []  # the word positions of each orbit's corners
    for s in word:
        if cls[s] < 0:
            a = corner[s]
            b = corner[a]
            c = corner[b]
            if corner[c] != s or b == s:
                raise ReconstructionError("corner orbits are not 4-valent")
            cls[s] = cls[a] = cls[b] = cls[c] = len(orbits)
            orbits.append((pos_of[s], pos_of[a], pos_of[b], pos_of[c]))
    if len(orbits) != i:
        raise ReconstructionError("corner orbits are not 4-valent")

    # the head of edge s is corner s; its tail is the corner before it,
    # which turns a quarter into the inverse of s.  A curve is single
    # when its i heads are distinct and each is the tail of the next arc.
    def single_curve(first_symbol: int) -> bool:
        heads = cls[first_symbol:first_symbol + 2 * i:2]
        # the tails of arcs 2..i, then of arc 1
        tails = [cls[iota[s]]
                 for s in range(first_symbol + 2, first_symbol + 2 * i, 2)]
        tails.append(cls[iota[first_symbol]])
        return len(set(heads)) == i and heads == tails

    alpha_ok = single_curve(1)
    beta_ok = single_curve(2)

    # V - E + F with E = n/2, F = 1
    chi = len(orbits) - n // 2 + 1
    genus = (2 - chi) // 2
    return SurfaceReport(
        genus=genus,
        vertex_classes=tuple(orbits),
        alpha_is_single_curve=alpha_ok,
        beta_is_single_curve=beta_ok,
        boundary_word=word,
    )


def _check_twisting_generators(
    ctx: GenusContext, gens: Iterable[Permutation]
) -> None:
    """Raise unless every generator commutes with iota and tau and maps
    parity classes to parity classes.

    Conjugation by such a t keeps a solution s an n-cycle and parity
    respecting, and (t s t^-1) iota (t s t^-1) = t (s iota s) t^-1 =
    t tau t^-1 = tau, so the group they generate maps the solution set
    onto itself.
    """
    cp = canonical_perms(ctx)
    for t in gens:
        for name, fixed in (("iota", cp.iota), ("tau", cp.tau)):
            if t.compose(fixed) != fixed.compose(t):
                raise ReconstructionError(
                    f"twisting generator {t} does not commute with {name}"
                )
        if not t.is_parity_respecting():
            raise ReconstructionError(
                f"twisting generator {t} mixes the parity classes"
            )


@lru_cache(maxsize=None)
def twisting_closure(ctx: GenusContext) -> tuple[Permutation, ...]:
    """`relabeling_group(ctx.i_min)`, once its generators are checked to
    map solutions to solutions; a conjugate is trusted only after this.

    It is generated by the relabellings that re-orient an ordered pair:
    kappa and delta rotate the starting arc of either curve, the
    alpha reversal reverses the first curve and mu swaps the two curves.
    """
    _check_twisting_generators(ctx, relabeling_generators(ctx.i_min))
    return relabeling_group(ctx.i_min)


def _trusted_conjugate(ctx: GenusContext, images: bytes) -> FillingPermutation:
    """The FillingPermutation with image table `images`, built without
    the `is_filling` walk, for one use only: `images` is a conjugate
    t s t^-1 of a solution s that a FillingPermutation walk accepted, by
    an element t of `twisting_closure(ctx)`, called before this.

    That call checks that the generators of the closure commute with
    iota and tau and respect parity (`_check_twisting_generators`), so
    conjugation by any element maps solutions onto solutions: t s t^-1
    is again an n-cycle that respects parity and solves s o iota o s =
    tau.  The object equals, hashes and prints like the checked
    FillingPermutation(ctx, Permutation(images)).
    """
    perm = object.__new__(Permutation)
    perm.n = len(images)
    perm._img = (0, *images)
    fp = object.__new__(FillingPermutation)
    object.__setattr__(fp, "ctx", ctx)
    object.__setattr__(fp, "perm", perm)
    return fp
