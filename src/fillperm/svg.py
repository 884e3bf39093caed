"""SVG rendering of the labelled polygon with its edge identifications."""

from __future__ import annotations

import math

from .filling import FillingPermutation, signed_ids

# width and height of the drawing, in pixels
SIZE = 640


def _edge_label(fp: FillingPermutation, sym: int) -> str:
    i = fp.ctx.i_min
    v = signed_ids(i)[sym]
    name, arc = ("a", abs(v)) if abs(v) <= i else ("b", abs(v) - i)
    tick = "'" if v < 0 else ""
    return f"{name}{arc}{tick}"


def diagram_svg(fp: FillingPermutation) -> str:
    """Regular polygon with directed, labelled edges and one chord per
    identified edge pair."""
    n = fp.ctx.n
    half = 4 * fp.ctx.g - 2
    word = fp.boundary_word()
    cx = cy = SIZE / 2.0
    radius = SIZE * 0.40

    # polygon vertices, clockwise starting at the top
    verts = []
    for p in range(n):
        ang = -math.pi / 2.0 + 2.0 * math.pi * p / n
        verts.append((cx + radius * math.cos(ang), cy + radius * math.sin(ang)))

    mid = []
    for p in range(n):
        x1, y1 = verts[p]
        x2, y2 = verts[(p + 1) % n]
        mid.append(((x1 + x2) / 2.0, (y1 + y2) / 2.0))

    pos_of = {s: p for p, s in enumerate(word)}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SIZE}" height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
    ]

    # chords between identified edges (each pair once)
    for s in range(1, half + 1):
        x1, y1 = mid[pos_of[s]]
        x2, y2 = mid[pos_of[s + half]]
        parts.append(
            f'<line class="chord" x1="{x1:.1f}" y1="{y1:.1f}" '
            f'x2="{x2:.1f}" y2="{y2:.1f}" stroke="#7799cc" stroke-width="1"/>'
        )

    # directed edges with labels and arrowheads
    for p in range(n):
        x1, y1 = verts[p]
        x2, y2 = verts[(p + 1) % n]
        parts.append(
            f'<line class="edge" x1="{x1:.1f}" y1="{y1:.1f}" '
            f'x2="{x2:.1f}" y2="{y2:.1f}" stroke="black" stroke-width="2"/>'
        )
        # arrowhead at 70% along the edge
        ax = x1 + 0.7 * (x2 - x1)
        ay = y1 + 0.7 * (y2 - y1)
        dx, dy = x2 - x1, y2 - y1
        norm = math.hypot(dx, dy) or 1.0
        ux, uy = dx / norm, dy / norm
        left = (ax - 8 * ux - 4 * uy, ay - 8 * uy + 4 * ux)
        right = (ax - 8 * ux + 4 * uy, ay - 8 * uy - 4 * ux)
        parts.append(
            f'<path class="arrow" d="M {ax:.1f} {ay:.1f} '
            f'L {left[0]:.1f} {left[1]:.1f} L {right[0]:.1f} {right[1]:.1f} Z" '
            f'fill="black"/>'
        )
        mx, my = mid[p]
        lx = cx + (mx - cx) * 1.12
        ly = cy + (my - cy) * 1.12
        parts.append(
            f'<text class="label" x="{lx:.1f}" y="{ly:.1f}" '
            f'font-size="{max(10, SIZE // 48)}" text-anchor="middle" '
            f'dominant-baseline="middle">{_edge_label(fp, word[p])}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
