"""Closed-form hyperbolic quantities of the minimal configurations.

A minimally intersecting filling pair of minimal total length cuts its
surface into a regular right-angled (8g-4)-gon, so the extremal lengths
reduce to elementary hyperbolic trigonometry of that polygon.  Double
precision is ample: every arccosh argument stays safely above 1 for
g >= 2 and the identities verified in the tests close to ~1e-14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def m_g(g: int) -> float:
    """Perimeter of the regular right-angled (8g-4)-gon.

    Twice the minimal total length of a minimally intersecting filling
    pair; defined for g >= 2 (the genus-1 square is not right-angled
    hyperbolic).
    """
    if g < 2:
        raise ValueError("perimeter defined for g >= 2")
    n = 8 * g - 4
    return n * math.acosh(2.0 * (math.cos(2.0 * math.pi / n) + 0.5))


def edge_length(g: int) -> float:
    """Side length of the regular right-angled (8g-4)-gon."""
    return m_g(g) / (8 * g - 4)


def min_pair_length(g: int) -> float:
    """Least total length of a minimally intersecting filling pair."""
    return m_g(g) / 2.0


def lambda_g(g: int) -> float:
    """Length of the separator segment cutting off one polygon side.

    The orthogonal distance between a side and the geodesic joining the
    far endpoints of its two neighbouring sides; any simple closed
    geodesic whose polygon arcs all avoid adjacent sides must cross it.
    Decreasing in g with limit arccosh(9/sqrt(73)).
    """
    if g < 3:
        raise ValueError("separator length defined for g >= 3")
    # cos(pi/(2-4g)) = cos(pi/(4g-2))
    c = math.cos(math.pi / (4 * g - 2))
    top = 1.0 + 2.0 * c
    denom = math.sqrt(4.0 * c * (1.0 + c) + 1.0 / top ** 2)
    return math.acosh(top / denom)


def lambda_limit() -> float:
    """lim of lambda_g: arccosh(9/sqrt(73))."""
    return math.acosh(9.0 / math.sqrt(73.0))


def inj_radius_lower() -> float:
    """Lower bound on the injectivity radius at the length minima.

    Half of arccosh(9/sqrt(73)): the shortest closed geodesic has length
    at least the full arccosh value, and the injectivity radius is half
    the systole.
    """
    return 0.5 * lambda_limit()


def max_coincident(g: int) -> int:
    """At most 42(2g-2) minimal-length pairs share one hyperbolic metric."""
    if g < 2:
        raise ValueError("defined for g >= 2")
    return 42 * (2 * g - 2)


@dataclass(frozen=True)
class HyperbolicReport:
    genus: int
    m_g: float
    edge_length: float
    min_pair_length: float
    lambda_g: float | None
    inj_radius_lower: float
    systole_lower: float
    max_coincident: int
    quoted_value_note: str


def report(g: int) -> HyperbolicReport:
    """All quantities for one genus, plus the quoted-constant caveat.

    The commonly quoted decimal 0.3253 matches arccosh(9/sqrt(73))
    itself, i.e. the systole bound; the injectivity-radius bound is half
    of that (about 0.1626).  Both are reported so the discrepancy is
    visible rather than silently resolved.
    """
    if g < 2:
        raise ValueError("hyperbolic report defined for g >= 2")
    return HyperbolicReport(
        genus=g,
        m_g=m_g(g),
        edge_length=edge_length(g),
        min_pair_length=min_pair_length(g),
        lambda_g=lambda_g(g) if g >= 3 else None,
        inj_radius_lower=inj_radius_lower(),
        systole_lower=lambda_limit(),
        max_coincident=max_coincident(g),
        quoted_value_note=(
            "0.3253 equals the systole bound arccosh(9/sqrt(73)); the "
            "injectivity-radius bound is half of it, about 0.1626"
        ),
    )
