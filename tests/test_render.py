import random
import re

import pytest

from gdp.catalan import SignedList
from gdp.render import MARGIN, path_points, render_svg

from conftest import EX12
from sweeps import random_catalan

SEG = re.compile(
    r'<line class="seg" x1="([-\d.]+)" y1="([-\d.]+)" x2="([-\d.]+)" y2="([-\d.]+)" '
    r'stroke="(#[0-9a-f]{6})"'
)


def segment_endpoints(svg):
    return [
        ((float(m[0]), float(m[1])), (float(m[2]), float(m[3])), m[4])
        for m in SEG.findall(svg)
    ]


class TestPathPoints:
    def test_unit_pair(self):
        assert path_points(SignedList((1, -1))) == [(0, 0), (1, 1), (2, 0)]

    def test_two_one_one(self):
        assert path_points(SignedList((2, -1, -1))) == [
            (0, 0),
            (2, 2),
            (3, 1),
            (4, 0),
        ]

    def test_figure_geometry(self):
        pts = path_points(SignedList(EX12), scale=1)
        assert pts[-1] == (72, 0)
        assert max(y for _, y in pts) == 20
        assert (52, 20) in pts  # the peak vertex

    def test_scale(self):
        pts = path_points(SignedList((1, -1)), scale=4)
        assert pts == [(0, 0), (4, 4), (8, 0)]

    def test_endpoint_properties_on_random_lists(self):
        rng = random.Random(777)
        for _ in range(100):
            entries = random_catalan(rng.randint(2, 10), rng)
            pts = path_points(SignedList(entries), scale=2)
            assert pts[-1][0] == 2 * sum(abs(e) for e in entries)
            assert pts[-1][1] == 0  # Catalan input returns to the axis

    def test_rejects_paths_too_large_to_draw(self):
        # 10**400 * 10.0 does not convert to a float; 5 * 1e308 is inf.
        for entries, scale in (((10**400, -10**400), 10.0), ((5, -5), 1e308)):
            with pytest.raises(ValueError, match="too large to draw"):
                path_points(SignedList(entries), scale)


class TestRenderSvg:
    def test_segment_count_and_colors(self):
        svg = render_svg(SignedList(EX12), highlight={1, 5, 10, 14, 15}, scale=1)
        segs = segment_endpoints(svg)
        assert len(segs) == 19
        blue = [i for i, (_, _, color) in enumerate(segs, 1) if color == "#1f77b4"]
        assert blue == [1, 5, 10, 14, 15]

    def test_final_point_matches_figure(self):
        svg = render_svg(SignedList(EX12), scale=1)
        segs = segment_endpoints(svg)
        (x2, y2) = segs[-1][1]
        # untransform: x = x_px - margin, y = top - (y_px - margin)
        assert x2 - MARGIN == 72
        assert (20 - (y2 - MARGIN)) == 0
        tops = [min(a[1], b[1]) for a, b, _ in segs]
        assert min(tops) == MARGIN  # peak touches the top margin line

    def test_single_color_without_highlight(self):
        svg = render_svg(SignedList((1, -1)))
        assert "#333333" in svg and "#1f77b4" not in svg

    def test_axis_lines(self):
        svg = render_svg(SignedList((1, -1)), axis=True)
        assert svg.count('class="axis"') == 2
        assert 'class="seg"' in svg

    def test_rejects_highlight_out_of_range(self):
        # A highlight names positions 1..t; one outside would leave the
        # highlighted part empty while the rest is drawn as its complement.
        for pos in (9, 0):
            with pytest.raises(ValueError, match=f"highlight position {pos} out of range"):
                render_svg(SignedList((1, -1)), highlight={pos})

    def test_rejects_bad_scale(self):
        # A scale must be positive and leave every coordinate a finite float.
        huge = 10**400
        for entries, scale in (((1, -1), 0), ((5, -5), 1e308), ((huge, -huge), 10)):
            with pytest.raises(ValueError):
                render_svg(SignedList(entries), scale=scale)
        # NaN compares false both ways; it is refused as not positive.
        with pytest.raises(ValueError, match="scale must be positive"):
            render_svg(SignedList((1, -1)), scale=float("nan"))
