import pytest

from trapmeasure import render
from trapmeasure.gasket import GASKET_DEPTH_CAP, GasketSpec
from trapmeasure.permutations import Permutation
from trapmeasure.render import gasket_svg, trapezoid_svg
from trapmeasure.trapezoid import TrapezoidSpec

from reference import gasket_anchors


class TestTrapezoidSvg:
    def test_three_polygons_with_flipped_y_group(self):
        svg = trapezoid_svg(TrapezoidSpec(3, Permutation((1, 3, 2))))
        assert svg.count("<polygon") == 3
        assert 'viewBox="0 0 1000 1000"' in svg
        assert 'transform="translate(0,1000) scale(1,-1)"' in svg

    def test_middle_polygon_coordinates(self):
        svg = trapezoid_svg(TrapezoidSpec(3, Permutation((1, 3, 2))))
        polygons = [line for line in svg.splitlines() if "<polygon" in line]
        # bottom side [1/3, 2/3], top side [2/3, 1], raw y values pre-flip
        assert 'points="333.333333 0, 666.666667 0, 1000 1000, 666.666667 1000"' in polygons[1]

    def test_polygons_in_ascending_bottom_order(self):
        svg = trapezoid_svg(TrapezoidSpec(2, Permutation((2, 1))))
        polygons = [line for line in svg.splitlines() if "<polygon" in line]
        assert polygons[0].strip().startswith('<polygon points="0 0, 500 0,')
        assert polygons[1].strip().startswith('<polygon points="500 0, 1000 0,')

    def test_fill_opacity(self):
        svg = trapezoid_svg(TrapezoidSpec(1, Permutation((1,))))
        assert 'fill-opacity="0.5"' in svg

    def test_deterministic(self):
        spec = TrapezoidSpec(4, Permutation((1, 3, 2, 4)))
        assert trapezoid_svg(spec) == trapezoid_svg(spec)


class TestGasketSvg:
    def test_depth_zero_single_triangle(self):
        svg = gasket_svg(GasketSpec(0))
        assert svg.count("<polygon") == 1
        assert 'points="0 0, 1000 0, 0 1000"' in svg

    def test_depth_two_triangle_count(self):
        assert gasket_svg(GasketSpec(2)).count("<polygon") == 9

    def test_deterministic(self):
        assert gasket_svg(GasketSpec(3)) == gasket_svg(GasketSpec(3))

    @pytest.mark.parametrize("depth", range(GASKET_DEPTH_CAP + 1))
    def test_float_anchors_render_as_the_exact_ones(self, depth):
        # each coordinate from its exact anchor, rounded once to a double
        side = 1000.0 / 3**depth
        pieces = [render._HEADER]
        for ax, ay in gasket_anchors(GasketSpec(depth)):
            x, y = float(ax) * 1000.0, float(ay) * 1000.0
            pieces.append(render._polygon([(x, y), (x + side, y), (x, y + side)]))
        pieces.append(render._FOOTER)
        assert gasket_svg(GasketSpec(depth)) == "".join(pieces)
