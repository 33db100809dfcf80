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
    """Vertices of the path, starting at (0, 0), one per entry."""
    pts = [(0, 0)]
    x = y = 0
    for e in xs:
        x += abs(e) * scale
        y += e * scale
        pts.append((x, y))
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

    Highlighted positions get a distinct stroke color from the rest; with an
    empty highlight every segment uses a single neutral color.  ``axis``
    adds a baseline and a vertical line up to the peak.  ValueError is
    raised unless the drawing's width and height, which bound every
    coordinate, are finite floats.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    highlight = frozenset(highlight)
    try:
        pts = path_points(xs, scale)
        ys = [p[1] for p in pts]
        top = max(ys + [0])
        bottom = min(ys + [0])
        width_px = pts[-1][0] + 2 * MARGIN
        height_px = (top - bottom) + 2 * MARGIN
    except OverflowError:
        width_px = height_px = math.inf
    if not (math.isfinite(width_px) and math.isfinite(height_px)):
        raise ValueError(f"the path is too large to draw at scale {scale:g}")

    def x_px(v):
        return v + MARGIN

    def y_px(v):
        return (top - v) + MARGIN

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width_px)}" '
        f'height="{_fmt(height_px)}" viewBox="0 0 {_fmt(width_px)} {_fmt(height_px)}">'
    ]
    if axis:
        for (xa, ya), (xb, yb) in (((0, top), (0, 0)), ((0, 0), (pts[-1][0], 0))):
            lines.append(
                f'  <line class="axis" x1="{_fmt(x_px(xa))}" y1="{_fmt(y_px(ya))}" '
                f'x2="{_fmt(x_px(xb))}" y2="{_fmt(y_px(yb))}" '
                f'stroke="#000000" stroke-width="1"/>'
            )
    for q, ((xa, ya), (xb, yb)) in enumerate(zip(pts, pts[1:]), 1):
        if highlight:
            color = HIGHLIGHT_COLOR if q in highlight else COMPLEMENT_COLOR
        else:
            color = PLAIN_COLOR
        lines.append(
            f'  <line class="seg" x1="{_fmt(x_px(xa))}" y1="{_fmt(y_px(ya))}" '
            f'x2="{_fmt(x_px(xb))}" y2="{_fmt(y_px(yb))}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
