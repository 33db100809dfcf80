"""SVG rendering of signed lists as generalized Dyck paths.

Entry x_q becomes one diagonal segment of horizontal extent |x_q| and
vertical change x_q (45 degrees on integer lattice coordinates); the
renderer multiplies by a pixel scale and flips the y axis for SVG.
"""
from __future__ import annotations

import math

from .catalan import SignedList

HIGHLIGHT_COLOR = "#1f77b4"
COMPLEMENT_COLOR = "#999999"
PLAIN_COLOR = "#333333"
MARGIN = 10.0


def path_points(xs: SignedList, scale: float = 1):
    """Vertices of the path, starting at (0, 0), one per entry.  ValueError
    is raised unless the last x, which bounds every coordinate and the
    path's height, is a finite float."""
    pts = [(0, 0)]
    x = y = 0
    try:
        for e in xs:
            x += abs(e) * scale
            y += e * scale
            pts.append((x, y))
        finite = math.isfinite(x)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"the path is too large to draw at scale {scale:g}")
    return pts


def _fmt(v: float) -> str:
    return f"{v:g}"


def render_svg(
    xs: SignedList,
    highlight=frozenset(),
    scale: float = 10,
    axis: bool = False,
) -> str:
    """SVG document with one line segment per entry.

    Highlighted positions, 1-based, get a distinct stroke color from the
    rest; with an empty highlight every segment uses a single neutral color.
    ``axis`` adds a baseline and a vertical line up to the peak.  ValueError
    is raised for a highlight position outside 1..len(xs), for a scale that
    is not positive (NaN included), or for one at which :func:`path_points`
    finds the path too large to draw.
    """
    highlight = frozenset(highlight)
    bad = [p for p in highlight if not 1 <= p <= len(xs)]
    if bad:
        raise ValueError(f"highlight position {bad[0]} out of range")
    if not scale > 0:
        raise ValueError("scale must be positive")
    pts = path_points(xs, scale)
    ys = [p[1] for p in pts]
    top = max(ys + [0])
    bottom = min(ys + [0])
    width_px = pts[-1][0] + 2 * MARGIN
    height_px = (top - bottom) + 2 * MARGIN

    def line(kind, a, b, color, stroke_width):
        """One ``<line>`` from path point a to path point b."""
        x1, x2 = _fmt(a[0] + MARGIN), _fmt(b[0] + MARGIN)
        y1, y2 = _fmt(top - a[1] + MARGIN), _fmt(top - b[1] + MARGIN)
        return (
            f'  <line class="{kind}" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{color}" stroke-width="{stroke_width}"/>'
        )

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width_px)}" '
        f'height="{_fmt(height_px)}" viewBox="0 0 {_fmt(width_px)} {_fmt(height_px)}">'
    ]
    if axis:
        lines.append(line("axis", (0, top), (0, 0), "#000000", 1))
        lines.append(line("axis", (0, 0), (pts[-1][0], 0), "#000000", 1))
    for q, (a, b) in enumerate(zip(pts, pts[1:]), 1):
        if highlight:
            color = HIGHLIGHT_COLOR if q in highlight else COMPLEMENT_COLOR
        else:
            color = PLAIN_COLOR
        lines.append(line("seg", a, b, color, 2))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
