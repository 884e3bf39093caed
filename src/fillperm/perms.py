"""Exact permutation arithmetic on the symbol set {1..n}.

Permutations are immutable, validated on construction, and totally ordered
by their image arrays so that lexicographic minimisation over a finite set
of conjugates is well defined.  All indexing is 1-based to match the usual
cycle-notation conventions; internally the image array carries a dummy
entry at index 0.
"""

from __future__ import annotations

import re
from math import lcm
from typing import Iterable, Sequence


class PermutationError(ValueError):
    """Raised for text that does not describe a permutation."""


class ParseError(PermutationError):
    """Malformed permutation text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeError(PermutationError):
    """Permutation text of another degree than the caller requires."""

    def __init__(self, degree: int, required: int):
        super().__init__(f"degree {degree}, expected {required}")
        self.degree = degree


class Permutation:
    """A bijection of {1..n}, stored as the tuple of images of 1..n."""

    __slots__ = ("_img", "n")

    def __init__(self, images: Sequence[int]):
        n = len(images)
        if n < 1:
            raise PermutationError("not a permutation: empty image list")
        seen = [False] * (n + 1)
        for v in images:
            # type(), not isinstance(): bool is an int subclass
            if type(v) is not int or not 1 <= v <= n or seen[v]:
                raise PermutationError("not a permutation")
            seen[v] = True
        self.n = n
        self._img = (0,) + tuple(images)

    @classmethod
    def _unchecked(cls, padded: tuple[int, ...]) -> "Permutation":
        """An image table, a tuple padded at index 0 as `padded` returns
        it, kept as it is and without the per-symbol checks.  A caller
        holding the images alone passes (0, *images).  It has two uses,
        each of which proves the table a bijection of {1..n}:

        * the perm of FillingPermutation(ctx, ...), whose construction
          walk proves the table a bijection or raises;
        * an element of `closure`, a product bk o ... o b1 of checked
          generators of one degree, composed as padded byte strings
          and read back with tuple().  Each factor is a bijection of
          {1..n} that fixes index 0, so each product is too, and
          nothing else reaches the table: the check could only pass."""
        p = object.__new__(cls)
        p.n = len(padded) - 1
        p._img = padded
        return p

    # -- basic access -------------------------------------------------

    def __call__(self, j: int) -> int:
        if not 1 <= j <= self.n:
            raise ValueError(f"symbol {j} out of range 1..{self.n}")
        return self._img[j]

    @property
    def images(self) -> tuple[int, ...]:
        """Images of 1..n as a plain tuple (no padding)."""
        return self._img[1:]

    @property
    def padded(self) -> tuple[int, ...]:
        """The image table padded at index 0: padded[j] is the image of j."""
        return self._img

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._img == other._img

    def __hash__(self) -> int:
        return hash(self._img)

    # NotImplemented lets Python try the reflected comparison and then
    # raise TypeError, as for any two unorderable types
    def __lt__(self, other: "Permutation") -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._img < other._img

    def __le__(self, other: "Permutation") -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._img <= other._img

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __str__(self) -> str:
        return format_perm(self)

    # -- group operations ---------------------------------------------

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self*other)(x) = self(other(x))."""
        if self.n != other.n:
            raise ValueError("degree mismatch")
        a, b = self._img, other._img
        return Permutation([a[b[x]] for x in range(1, self.n + 1)])

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for j in range(1, self.n + 1):
            inv[self._img[j] - 1] = j
        return Permutation(inv)

    def power(self, k: int) -> "Permutation":
        """k-fold composition; k may be zero or negative."""
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = identity(self.n)
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base)
            k >>= 1
        return result

    def conjugate_by(self, h: "Permutation") -> "Permutation":
        """h o self o h^-1 (relabelling of self along h)."""
        if self.n != h.n:
            raise ValueError("degree mismatch")
        out = [0] * self.n
        img, him = self._img, h._img
        for x in range(1, self.n + 1):
            out[him[x] - 1] = him[img[x]]
        return Permutation(out)

    # -- cycle structure ----------------------------------------------

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, minimal element first, sorted by minimum.

        Fixed points are included as 1-cycles, so concatenating the
        cycles always recovers the full symbol set.
        """
        orbits = table_orbits(self._img, range(1, self.n + 1))[1]
        return [tuple(c) for c in orbits]

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))

    def is_parity_respecting(self) -> bool:
        """True iff the image parity depends only on the symbol parity.

        Defined only for even degree.
        """
        if self.n % 2:
            raise ValueError("parity undefined")
        odd_to = self._img[1] % 2
        even_to = self._img[2] % 2
        for j in range(1, self.n + 1):
            want = odd_to if j % 2 else even_to
            if self._img[j] % 2 != want:
                return False
        return True


def identity(n: int) -> Permutation:
    return Permutation(list(range(1, n + 1)))


def from_cycles(cycles: Iterable[Sequence[int]], n: int) -> Permutation:
    """Build a permutation of degree n from disjoint cycles.

    Cycles with fewer than two entries are identity factors and may be
    listed or omitted freely.
    """
    images = list(range(1, n + 1))
    touched = [False] * (n + 1)
    for cyc in cycles:
        if len(cyc) < 2:
            continue
        for v in cyc:
            if not 1 <= v <= n:
                raise PermutationError(f"cycle value {v} out of range 1..{n}")
            if touched[v]:
                raise PermutationError(f"symbol {v} repeated across cycles")
            touched[v] = True
        for a, b in zip(cyc, cyc[1:]):
            images[a - 1] = b
        images[cyc[-1] - 1] = cyc[0]
    return Permutation(images)


_N_SPEC = re.compile(r"n\s*=\s*(\d+)")


def parse(text: str, n: int | None = None) -> Permutation:
    """Parse either image-list form "[2,3,4,1]" or cycle form "(1 3)(2 4)".

    Cycle form accepts space- or comma-separated symbols and an optional
    explicit degree token "n=K" (required whenever fixed points would be
    dropped from the cycles).  With n given, text of another degree raises
    DegreeError, in cycle form before a huge degree is allocated.
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty permutation text", 0)
    if stripped.startswith("["):
        if not stripped.endswith("]"):
            raise ParseError("unterminated image list", len(text) - 1)
        body = stripped[1:-1].strip()
        if not body:
            raise ParseError("empty image list", 1)
        images = []
        for part in body.split(","):
            part = part.strip()
            if not re.fullmatch(r"-?\d+", part):
                raise ParseError(f"bad image entry {part!r}", text.find(part) if part else 1)
            images.append(int(part))
        p = Permutation(images)
        if n is not None and p.n != n:
            raise DegreeError(p.n, n)
        return p

    n_match = _N_SPEC.search(stripped)
    degree = int(n_match.group(1)) if n_match else None
    cycle_text = _N_SPEC.sub("", stripped).strip()
    cycles: list[list[int]] = []
    pos = 0
    max_sym = 0
    while pos < len(cycle_text):
        ch = cycle_text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise ParseError(f"expected '(' but found {ch!r}", pos)
        end = cycle_text.find(")", pos)
        if end < 0:
            raise ParseError("unterminated cycle", pos)
        body = cycle_text[pos + 1:end].replace(",", " ")
        entries = body.split()
        cyc = []
        for entry in entries:
            if not entry.isdecimal() or int(entry) < 1:
                raise ParseError(f"bad cycle entry {entry!r}", pos + 1)
            cyc.append(int(entry))
        if cyc:
            max_sym = max(max_sym, max(cyc))
            cycles.append(cyc)
        pos = end + 1
    if degree is None:
        if max_sym == 0:
            raise ParseError("cycle form needs symbols or an explicit n=K", 0)
        degree = max_sym
    if max_sym > degree:
        raise PermutationError("not a permutation: cycle symbol exceeds degree")
    if n is not None and degree != n:
        raise DegreeError(degree, n)
    return from_cycles(cycles, degree)


def format_perm(p: Permutation) -> str:
    """Canonical text: nontrivial cycles followed by an explicit degree."""
    parts = ["(" + " ".join(map(str, c)) + ")" for c in p.cycles() if len(c) > 1]
    body = "".join(parts) if parts else "()"
    return f"{body} n={p.n}"


def closure(generators: Iterable[Permutation]) -> list[Permutation]:
    """The group generated by the given permutations, as a sorted list.

    Only intended for small groups (the twisting groups used here have a
    few hundred elements at most).  The breadth-first search runs on the
    padded image tables as byte strings, so the degree is at most 255:
    g o a is a.translate(table of g), the table of g padded with zeros
    to 256 bytes, and membership is a set of bytes, whose hash is
    cached.  Byte strings of one length sort as their tables do; each
    distinct element becomes a Permutation once, at the end, without the
    per-symbol checks: a product of the checked generators is a
    permutation (`Permutation._unchecked`).
    """
    gens = [g.padded for g in generators]
    if not gens:
        raise ValueError("closure of empty set")
    if len({len(g) for g in gens}) > 1:
        raise ValueError("degree mismatch")
    if len(gens[0]) > 256:
        raise ValueError(f"closure of degree {len(gens[0]) - 1}: the byte-string "
                         "search takes degrees up to 255")
    frontier = [bytes(g) for g in gens]
    lefts = [g.ljust(256, b"\0") for g in frontier]
    group = set(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for left in lefts:
                c = a.translate(left)  # g o a, padded: c[0] = 0
                if c not in group:
                    group.add(c)
                    nxt.append(c)
        frontier = nxt
    return [Permutation._unchecked(tuple(c)) for c in sorted(group)]


def table_orbits(
    table: Sequence[int], starts: Iterable[int]
) -> tuple[list[int], list[list[int]]]:
    """Orbits of j -> table[j] through the given start symbols.

    `table` is an image table padded at index 0.  Returns the orbit index
    of each symbol (-1 where no start leads) and the orbits, in the order
    of their first start, each listed from that start along the map.
    """
    orbit_of = [-1] * len(table)
    orbits: list[list[int]] = []
    for start in starts:
        if orbit_of[start] >= 0:
            continue
        orbit = []
        j = start
        while orbit_of[j] < 0:
            orbit_of[j] = len(orbits)
            orbit.append(j)
            j = table[j]
        orbits.append(orbit)
    return orbit_of, orbits

