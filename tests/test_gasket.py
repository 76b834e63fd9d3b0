import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trapmeasure import gasket
from trapmeasure.cantor import slice_set
from trapmeasure.exact import Interval, normalize
from trapmeasure.gasket import (
    GASKET_DEPTH_CAP,
    Direction,
    GasketSpec,
    _anchor_columns,
    _exact_sum,
    _numeric_measure,
    _project_exact,
    _project_numeric,
    decay_fit,
    favard,
    gasket_anchors,
    lemma1_check,
    lemma2_check,
    project,
)
from trapmeasure.permutations import digit_swap_permutation
from trapmeasure.trapezoid import TrapezoidSpec, area

F = Fraction


class TestSpecAndDirection:
    def test_depth_cap(self):
        assert GasketSpec(GASKET_DEPTH_CAP).depth == 8
        with pytest.raises(ValueError):
            GasketSpec(9)

    def test_direction_needs_exactly_one_mode(self):
        with pytest.raises(ValueError):
            Direction()
        with pytest.raises(ValueError):
            Direction(slope=F(1), angle=0.5)

    def test_slope_must_be_positive(self):
        with pytest.raises(ValueError):
            Direction.from_slope(F(-1, 2))

    def test_angle_range_and_finiteness(self):
        with pytest.raises(ValueError):
            Direction.from_angle(math.pi)
        with pytest.raises(ValueError):
            Direction.from_angle(float("nan"))
        assert Direction.from_angle(0.0).angle == 0.0


class TestAnchors:
    def test_depth_zero(self):
        assert gasket_anchors(GasketSpec(0)) == ((0, 0),)

    def test_depth_one(self):
        assert gasket_anchors(GasketSpec(1)) == (
            (0, 0),
            (F(2, 3), 0),
            (0, F(2, 3)),
        )

    def test_depth_two_count_and_member(self):
        pts = gasket_anchors(GasketSpec(2))
        assert len(pts) == 9
        assert len(set(pts)) == 9
        assert (F(8, 9), F(0)) in pts


class TestProjection:
    def test_exact_diagonal_projection_of_unit_triangle(self):
        proj = project(GasketSpec(0), Direction.from_slope(F(1)))
        assert [(p.lo, p.hi) for p in proj.scaled_set.parts] == [(0, 1)]
        assert proj.measure == pytest.approx(math.cos(math.pi / 4), abs=1e-12)

    def test_numeric_horizontal_projection(self):
        proj = project(GasketSpec(0), Direction.from_angle(0.0))
        assert proj.measure == pytest.approx(1.0, abs=1e-12)
        assert proj.parts == ((0.0, 1.0),)

    def test_exact_half_slope_depth_one_tiles(self):
        proj = project(GasketSpec(1), Direction.from_slope(F(1, 2)))
        # scaled anchors {0, 2/3, 1/3} with width max(1, 1/2)/3 merge to [0,1]
        assert [(p.lo, p.hi) for p in proj.scaled_set.parts] == [(0, 1)]
        assert proj.measure == pytest.approx(2 / math.sqrt(5), abs=1e-12)

    @pytest.mark.parametrize("depth", range(GASKET_DEPTH_CAP + 1))
    @pytest.mark.parametrize(
        "slope",
        [F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(5), F(3, 7), F(7, 3), F(1, 1000), F(999, 1000), F(5, 4), F(13)],
    )
    def test_exact_and_numeric_agree(self, depth, slope):
        # the exact projection is a scaled digit set; the reference here
        # sweeps every anchor's triangle and merges them
        spec = GasketSpec(depth)
        exact = project(spec, Direction.from_slope(slope))
        width = max(F(1), slope) / 3**depth
        shadows = (Interval(x + slope * y, x + slope * y + width) for x, y in gasket_anchors(spec))
        assert exact.scaled_set == normalize(shadows)
        numeric = project(spec, Direction.from_angle(math.atan(float(slope))))
        assert abs(exact.measure - numeric.measure) <= 1e-9

    @pytest.mark.parametrize("depth", [0, 1, 3, 5])
    def test_coordinate_swap_symmetry(self, depth):
        spec = GasketSpec(depth)
        for k in range(1, 8):
            theta = k * math.pi / 16
            a = project(spec, Direction.from_angle(theta)).measure
            b = project(spec, Direction.from_angle(math.pi / 2 - theta)).measure
            assert abs(a - b) <= 1e-9

    def test_numeric_projection_deterministic(self):
        spec = GasketSpec(4)
        theta = 0.7
        first = project(spec, Direction.from_angle(theta))
        second = project(spec, Direction.from_angle(theta))
        assert first == second


def _anchor_pairs(depth):
    """Float anchors as (x, y) rows, each level added to both coordinates at once."""
    pts = np.zeros((1, 2))
    vecs = np.array([(0, 0), (2, 0), (0, 2)], dtype=np.float64)
    for k in range(1, depth + 1):
        pts = (pts[:, None, :] + vecs[None, :, :] / 3.0**k).reshape(-1, 2)
    return pts


@pytest.mark.parametrize("depth", range(9))
def test_anchor_columns_equal_anchor_pairs(depth):
    xs, ys = _anchor_columns(depth)
    pts = _anchor_pairs(depth)
    assert xs.flags.c_contiguous and ys.flags.c_contiguous
    assert np.array_equal(xs, pts[:, 0]) and np.array_equal(ys, pts[:, 1])
    scale = 3**depth
    assert [(round(x * scale), round(y * scale)) for x, y in pts.tolist()] == [
        (x * scale, y * scale) for x, y in gasket_anchors(GasketSpec(depth))
    ]



@pytest.mark.parametrize("depth", [0, 3, 8])
def test_anchor_columns_cached_read_only(depth):
    xs, ys = _anchor_columns(depth)
    assert _anchor_columns(depth)[0] is xs and _anchor_columns(depth)[1] is ys
    assert not xs.flags.writeable and not ys.flags.writeable
    with pytest.raises(ValueError):
        xs[0] = 1.0
    # the shared columns give bit for bit the projection of freshly built ones
    fresh = _anchor_columns.__wrapped__(depth)
    spec = GasketSpec(depth)
    for theta in (0.0, 0.3, math.pi / 4, 2.0, 3.0):
        proj = project(spec, Direction.from_angle(theta))
        starts, ends = _project_numeric(fresh, depth, theta)
        assert proj.parts == tuple(zip(starts.tolist(), ends.tolist()))
        assert proj.measure == math.fsum((ends - starts).tolist())

def _reference_projection(depth, theta):
    """Corner min/max per triangle, stable argsort, running-max merge."""
    c, s = math.cos(theta), math.sin(theta)
    w = 3.0**-depth
    pts = _anchor_pairs(depth)
    base = pts[:, 0] * c + pts[:, 1] * s
    corners = np.stack([base, base + c * w, base + s * w], axis=1)
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    tol = 1e-12 * 3**depth
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    parts = []
    cur_lo, cur_hi = float(lo[0]), float(hi[0])
    for L, H in zip(lo[1:], hi[1:]):
        if L <= cur_hi + tol:
            if H > cur_hi:
                cur_hi = float(H)
        else:
            parts.append((cur_lo, cur_hi))
            cur_lo, cur_hi = float(L), float(H)
    parts.append((cur_lo, cur_hi))
    return tuple(parts), math.fsum(b - a for a, b in parts)


class TestSortOnlyMerge:
    @pytest.mark.parametrize("depth", range(9))
    def test_parts_and_measure_equal_reference_merge(self, depth):
        rng = random.Random(depth)
        # the axes, both diagonals, and angles with cos(theta) < 0
        fixed = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, 2.0, 3.0, math.nextafter(math.pi, 0)]
        spec = GasketSpec(depth)
        for theta in fixed + [rng.uniform(0.0, math.pi) for _ in range(24)]:
            proj = project(spec, Direction.from_angle(theta))
            parts, total = _reference_projection(depth, theta)
            assert proj.parts == parts
            assert proj.measure == total
            assert all(type(x) is float for part in proj.parts for x in part)


def _favard_reference(depth, quad_points):
    """Favard from the public projection: same multiplicities, same fsum order."""
    spec = GasketSpec(depth)
    step = math.pi / quad_points
    multiplicity = {}
    for i in range(quad_points):
        if quad_points % 2 == 0:
            rep = min(i, (quad_points // 2 - 1 - i) % quad_points)
        else:
            rep = i
        multiplicity[rep] = multiplicity.get(rep, 0) + 1
    total = math.fsum(
        project(spec, Direction.from_angle((rep + 0.5) * step)).measure * count
        for rep, count in sorted(multiplicity.items())
    )
    return total / quad_points


def _tie_lengths(rng, count):
    """count doubles in [2^-20, 2) whose exact sum lies halfway between two doubles.

    Every length is an integer number of units 2^-52.  The first, in
    [1, 2), keeps the total above 2, so half its ulp is a whole unit; the
    last, in [1, 2), puts the total at an odd multiple of that half ulp.
    """
    units = [rng.randrange(2**52, 2**53)]
    for _ in range(count - 2):
        b = rng.randrange(21)
        units.append(rng.randrange(2 ** (32 + b), 2 ** (33 + b)))
    total = sum(units) + 3 * 2**51
    half_ulp = 2 ** (total.bit_length() - 54)
    last = 3 * 2**51 + (half_ulp - total) % (2 * half_ulp)
    units.append(last)
    lengths = [math.ldexp(u, -52) for u in units]
    exact = F(sum(units), 2**52)
    nearest = F(math.fsum(lengths))
    assert abs(exact - nearest) == F(math.ulp(float(nearest))) / 2
    return lengths, exact < nearest


class TestExactSum:
    @pytest.mark.parametrize("count", [1, 2, 3, 17, 611, 1280, 6561])
    def test_equals_fsum_on_random_lengths(self, count):
        rng = np.random.default_rng(count)
        for _ in range(20):
            lengths = np.exp2(rng.uniform(-20.0, 1.0, count))
            assert lengths.min() >= 2.0**-20 and lengths.max() < 2.0
            assert _exact_sum(lengths) == math.fsum(lengths.tolist())

    def test_range_ends_and_full_load(self):
        top = math.nextafter(2.0, 0.0)
        for lengths in ([2.0**-20], [top], [2.0**-20, top], [top] * (2**13 - 1), [2.0**-20] * (2**13 - 1)):
            assert _exact_sum(np.array(lengths)) == math.fsum(lengths)

    @pytest.mark.parametrize(
        "lengths, expected",
        [
            # 2.5 + 2^-52 is halfway between 2.5 and 2.5 + 2^-51: even is down
            ([1.5, 1.0 + 2.0**-52], 2.5),
            # 2.5 + 3 * 2^-52 is halfway between 2.5 + 2^-51 and 2.5 + 2^-50: even is up
            ([1.5, 1.0 + 3 * 2.0**-52], 2.5 + 2.0**-50),
        ],
    )
    def test_round_half_even(self, lengths, expected):
        assert math.fsum(lengths) == expected
        assert _exact_sum(np.array(lengths)) == expected

    def test_random_ties(self):
        rng = random.Random(11)
        directions = set()
        for count in [2, 3, 9, 100, 1000, 6561] * 4:
            lengths, rounded_up = _tie_lengths(rng, count)
            directions.add(rounded_up)
            assert _exact_sum(np.array(lengths)) == math.fsum(lengths)
        assert directions == {True, False}

    @pytest.mark.parametrize(
        "lengths",
        [
            np.array([0.5, 2.0]),
            np.array([3.0]),
            np.array([0.5, math.nextafter(2.0**-20, 0.0)]),
            np.array([0.0]),
            np.array([-0.5]),
            np.array([0.5, math.nan]),
            np.full(2**13, 0.5),
        ],
    )
    def test_rejects_lengths_outside_the_split(self, lengths):
        with pytest.raises(ValueError):
            _exact_sum(lengths)

    def test_favard_past_the_depth_cap_raises(self):
        # depth 9 has directions with more than 2^13 parts: midpoint 9 of a
        # 64-point grid has 9,694
        with pytest.raises(ValueError, match="2\\^13"):
            _numeric_measure(_anchor_columns(9), 9, (9 + 0.5) * math.pi / 64)


class TestMeasureOnlyPaths:
    @pytest.mark.parametrize("depth", range(9))
    @pytest.mark.parametrize("quad_points", [64, 49])
    def test_favard_equals_projection_reference_bit_for_bit(self, depth, quad_points):
        assert favard(GasketSpec(depth), quad_points) == _favard_reference(depth, quad_points)

    def test_lemma1_rows_equal_projection_reference(self):
        # the grid of `verify lemma1 --depths 1,2,3,4,5,6 --t-points 11`
        grid = [F(k, 10) for k in range(11)]
        for depth in range(1, 7):
            spec = GasketSpec(depth)
            for row, t in zip(lemma1_check(depth, grid), grid, strict=True):
                proj = project(spec, Direction.from_angle(math.atan(float((2 - t) / (1 + t)))))
                rhs = float(1 + t) * proj.measure
                lhs = slice_set(depth, t).measure
                assert (row.depth, row.t, row.lhs, row.rhs) == (depth, t, lhs, rhs)
                assert row.ratio == (float(lhs) / rhs if rhs else math.inf)
                assert row.ok == (float(lhs) <= rhs + 1e-9)

    @pytest.mark.parametrize("depth", range(9))
    def test_projection_measure_is_the_measure_only_sum(self, depth):
        # project reports the same double favard and lemma1_check read
        rng = random.Random(100 + depth)
        spec = GasketSpec(depth)
        for theta in [0.0, math.pi / 2, 3.0] + [rng.uniform(0.0, math.pi) for _ in range(32)]:
            expected = _numeric_measure(_anchor_columns(depth), depth, theta)
            assert project(spec, Direction.from_angle(theta)).measure == expected


class TestLemma1FiniteDepth:
    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=40).flatmap(
            lambda q: st.tuples(st.integers(min_value=0, max_value=q), st.just(q))
        ),
    )
    def test_half_scaled_projection_below_slice(self, depth, pq):
        # the slice digits {0, 1+t, 2-t} are (1+t)/2 times the slope-r
        # projected digits {0, 2, 2r}, with r = (2-t)/(1+t), on the same
        # anchors, and the projection's width max(1+t, 2-t)/2 * 3^-d is at
        # most the slice's 3^-d; the literal bound with the true projection
        # (scaled set times cos phi) fails on some rows and lemma1_check
        # reports those
        t = F(*pq)
        r = (2 - t) / (1 + t)
        projected = _project_exact(GasketSpec(depth), r).scaled_set.measure
        assert (1 + t) / 2 * projected <= slice_set(depth, t).measure


class TestFavard:
    def test_triangle_baseline(self):
        # support width of the unit right triangle integrates to sqrt(2) + 2
        value = favard(GasketSpec(0), 4096)
        assert abs(value - (math.sqrt(2) + 2) / math.pi) <= 5e-3

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            favard(GasketSpec(0), 8)

    def test_nonincreasing_in_depth(self):
        values = [favard(GasketSpec(d), 512) for d in range(0, 7)]
        assert all(a + 1e-3 >= b for a, b in zip(values, values[1:]))

    def test_depth_five_well_below_depth_one(self):
        deep = favard(GasketSpec(5), 8192)
        shallow = favard(GasketSpec(1), 8192)
        assert deep <= 0.9 * shallow

    def test_above_minimum_grid_projection(self):
        spec = GasketSpec(3)
        value = favard(spec, 256)
        grid_min = min(
            project(spec, Direction.from_angle((i + 0.5) * math.pi / 256)).measure
            for i in range(256)
        )
        assert value >= grid_min > 0

    def test_odd_grid_supported(self):
        even = favard(GasketSpec(1), 1024)
        odd = favard(GasketSpec(1), 1023)
        assert abs(even - odd) <= 1e-2


class TestLemma1:
    def test_rows_cover_grid_and_flag_violations(self):
        grid = [F(k, 10) for k in range(11)]
        rows = lemma1_check(2, grid)
        assert [row.t for row in rows] == grid
        # the literal bound fails at t = 0: the slice tiles [0,1] while the
        # projection side is strictly smaller
        first = rows[0]
        assert first.lhs == 1
        assert first.rhs < 1
        assert not first.ok and first.ratio > 1

    def test_reproducible_across_runs(self):
        grid = [F(k, 4) for k in range(5)]
        first = lemma1_check(3, grid)
        second = lemma1_check(3, grid)
        for a, b in zip(first, second):
            assert a == b

    def test_full_height_ok(self):
        # t = 1: slice tiles [0,1]; rhs = 2 * proj at atan(1/2) covers it
        rows = lemma1_check(1, [F(1)])
        assert rows[0].lhs == 1

    def test_rejects_heights_outside_unit_interval(self):
        with pytest.raises(ValueError):
            lemma1_check(1, [F(3, 2)])


# integral of exp(x) x^-1/2 over [0, n] and its ratio to exp(n) n^-1/2, at
# 50 digits, by quadrature and by the series n^(1-p) sum n^k / (k! (k+1-p))
# (both agree to every digit kept here)
LEMMA2_REFERENCE = {
    5: ("76.79622420532206245394", "1.1570508894007744164"),
    10: ("7388.538193810818455267", "1.060751619858032897"),
    20: ("111433109.9370451358566", "1.0271635769461138309"),
    40: ("37701543586026899.34972", "1.013000946388940878"),
}


class TestLemma2:
    def test_matches_high_precision_reference(self):
        rows = lemma2_check(0.5, list(LEMMA2_REFERENCE))
        for row, (integral, ratio) in zip(rows, LEMMA2_REFERENCE.values(), strict=True):
            assert row.integral == pytest.approx(float(integral), rel=1e-12, abs=0)
            assert row.ratio == pytest.approx(float(ratio), rel=1e-12, abs=0)
            assert row.ok

    def test_rising_ratio_is_flagged(self):
        # the ratio falls with n, so taking n = 5 after n = 40 raises it
        first, second = lemma2_check(0.5, [40, 5])
        assert first.ok
        assert second.ratio > first.ratio
        assert not second.ok

    def test_pinned_grid_ratios(self):
        rows = lemma2_check(0.5, [5, 10, 20, 40])
        ratios = [row.ratio for row in rows]
        assert all(math.isfinite(r) for r in ratios)
        assert all(1 < r < 1.2 for r in ratios)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert 1 < ratios[-1] < 1.1

    def test_small_exponent_limit(self):
        # p -> 0: the integral tends to e^n - 1, so the ratio tends to 1
        rows = lemma2_check(0.01, [20])
        assert rows[0].ratio == pytest.approx(1.0, rel=0.1)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            lemma2_check(0.0, [5])
        with pytest.raises(ValueError):
            lemma2_check(1.0, [5])

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError):
            lemma2_check(0.5, [0])

    def test_rejects_grid_past_double_range(self, monkeypatch):
        # e^n overflows past n ~ 709.78; at small p the Simpson sums overflow
        # (and never converge) a little earlier
        for p, n in [(0.5, 710), (0.5, 1e6), (0.5, math.inf), (0.5, math.nan), (0.01, 709)]:
            with pytest.raises(ValueError, match="overflows a double"):
                lemma2_check(p, [n])
        assert lemma2_check(0.5, [709.78])[0].ok

        def no_quadrature(*args):
            raise AssertionError("quadrature started")

        # the whole grid is checked before the quadrature of its first value
        monkeypatch.setattr(gasket, "_singular_exp_integral", no_quadrature)
        with pytest.raises(ValueError, match="overflows a double"):
            lemma2_check(0.5, [5, 710])


class TestDecayFit:
    def test_exact_power_law(self):
        fit = decay_fit([(1, 1.0), (2, 2**-0.5), (4, 4**-0.5)])
        assert fit.p == pytest.approx(0.5, abs=1e-12)
        assert fit.c == pytest.approx(1.0, abs=1e-12)
        assert fit.residual <= 1e-12

    def test_constant_values(self):
        fit = decay_fit([(1, 0.7), (2, 0.7), (3, 0.7)])
        assert fit.p == 0.0

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            decay_fit([(1, 1.0), (2, 0.5)])
        with pytest.raises(ValueError):
            decay_fit([(1, 1.0), (2, -0.5), (3, 0.2)])
        with pytest.raises(ValueError):
            decay_fit([(0.5, 1.0), (2, 0.5), (3, 0.2)])
        with pytest.raises(ValueError):
            decay_fit([(2, 1.0), (2, 0.5), (2, 0.2)])

    def test_digit_swap_family_has_positive_exponent(self):
        pairs = [
            (m, float(area(TrapezoidSpec(3**m, digit_swap_permutation(m)))))
            for m in range(1, 5)
        ]
        fit = decay_fit(pairs)
        assert fit.p > 0
