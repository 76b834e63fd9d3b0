import math
import random
from fractions import Fraction
from itertools import permutations as itertools_permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trapmeasure.exact import integrate_plp, measure, normalize
from trapmeasure.permutations import (
    Permutation,
    composite_permutation,
    digit_swap_permutation,
    identity,
    reversal,
)
from trapmeasure import trapezoid
from trapmeasure.trapezoid import (
    FareyGrid,
    Parallelogram,
    TrapezoidSpec,
    area,
    area_oracle,
    farey_grid,
    slice_at,
    slice_profile,
    weighted_sum_identity,
)

F = Fraction


def spec_of(image):
    return TrapezoidSpec(len(image), Permutation(tuple(image)))


def all_specs(n):
    return [spec_of(img) for img in itertools_permutations(range(1, n + 1))]


class TestSpecType:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TrapezoidSpec(4, Permutation((1, 3, 2)))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            TrapezoidSpec(0, Permutation((1,)))

    def test_parallelogram_decomposition(self):
        pieces = spec_of((1, 3, 2)).parallelograms()
        assert [(p.j, p.k) for p in pieces] == [(1, 1), (2, 3), (3, 2)]


class TestParallelogram:
    def test_slice_width_and_motion(self):
        piece = Parallelogram(j=2, k=3, n=3)
        bottom = piece.slice_at(0)
        top = piece.slice_at(1)
        assert (bottom.lo, bottom.hi) == (F(1, 3), F(2, 3))
        assert (top.lo, top.hi) == (F(2, 3), 1)
        mid = piece.slice_at(F(1, 2))
        assert mid.length == F(1, 3)
        assert mid.lo == F(1, 2)

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            Parallelogram(j=0, k=1, n=3)
        with pytest.raises(ValueError):
            Parallelogram(j=1, k=4, n=3)

    def test_rejects_bad_height(self):
        with pytest.raises(ValueError):
            Parallelogram(j=1, k=1, n=2).slice_at(F(3, 2))


class TestSlice:
    def test_crossing_slice_at_half(self):
        u = slice_at(spec_of((1, 3, 2)), F(1, 2))
        assert [(p.lo, p.hi) for p in u.parts] == [(0, F(1, 3)), (F(1, 2), F(5, 6))]
        assert measure(u) == F(2, 3)

    def test_bottom_boundary_tiles(self):
        for image in ((1, 3, 2), (2, 1), (3, 1, 2)):
            u = slice_at(spec_of(image), 0)
            assert [(p.lo, p.hi) for p in u.parts] == [(0, 1)]

    def test_identity_tiles_everywhere(self):
        spec = spec_of((1, 2, 3, 4))
        for y in (0, F(1, 7), F(1, 2), F(9, 10), 1):
            assert measure(slice_at(spec, y)) == 1

    def test_rejects_height_outside_unit_interval(self):
        with pytest.raises(ValueError):
            slice_at(spec_of((1, 2)), F(3, 2))
        with pytest.raises(ValueError):
            slice_at(spec_of((1, 2)), F(-1, 2))

    @given(
        st.permutations(list(range(1, 7))),
        st.fractions(min_value=0, max_value=1, max_denominator=40),
    )
    def test_parts_stay_in_unit_interval(self, image, y):
        n = len(image)
        spec = spec_of(image)
        u = slice_at(spec, y)
        assert all(0 <= p.lo and p.hi <= 1 for p in u.parts)
        assert F(1, n) <= measure(u) <= 1
        # the integer slice equals the Fraction union of the n strips
        assert u == normalize(piece.slice_at(y) for piece in spec.parallelograms())


class TestSliceProfile:
    def test_single_crossing_profile(self):
        prof = slice_profile(spec_of((1, 3, 2)))
        assert prof.breakpoints == ((0, 1), (F(1, 2), F(2, 3)), (1, 1))

    def test_identity_profile_constant(self):
        prof = slice_profile(spec_of((1, 2, 3, 4, 5)))
        assert prof.breakpoints == ((0, 1), (1, 1))

    def test_two_strip_crossing(self):
        prof = slice_profile(spec_of((2, 1)))
        assert prof.breakpoints == ((0, 1), (F(1, 2), F(1, 2)), (1, 1))

    def test_triple_coincident_crossing(self):
        # all three lines of the reversal meet at y=1/2; offset events add
        # breakpoints at 1/4 and 3/4, and recomputation handles the pileup
        prof = slice_profile(spec_of((3, 2, 1)))
        assert prof.breakpoints == (
            (0, 1),
            (F(1, 4), F(2, 3)),
            (F(1, 2), F(1, 3)),
            (F(3, 4), F(2, 3)),
            (1, 1),
        )

    @given(
        st.permutations(list(range(1, 8))),
        st.fractions(min_value=0, max_value=1, max_denominator=64),
    )
    @settings(max_examples=60)
    def test_profile_agrees_with_slice_everywhere(self, image, y):
        # the profile is defined as y -> measure(slice(y)); linearity between
        # breakpoints means interpolation must reproduce the exact slice
        spec = spec_of(image)
        prof = slice_profile(spec)
        assert prof.value_at(y) == measure(slice_at(spec, y))


class TestArea:
    def test_single_swap_golden_five_sixths(self):
        assert area(spec_of((1, 3, 2))) == F(5, 6)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_identity_tiling(self, n):
        assert area(TrapezoidSpec(n, identity(n))) == 1

    def test_hand_swept_values(self):
        assert area(spec_of((2, 1))) == F(3, 4)
        assert area(spec_of((3, 2, 1))) == F(2, 3)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_reversal_closed_form(self, n):
        # independent derivation: the reversal profile is 1 - 2y(n-1)/n on
        # [0, 1/2] and mirrored above, so the area is (n+1)/(2n)
        assert area(TrapezoidSpec(n, reversal(n))) == F(n + 1, 2 * n)

    def test_reversal_approaches_half_monotonically(self):
        gaps = [
            abs(area(TrapezoidSpec(n, reversal(n))) - F(1, 2)) for n in (2, 4, 8, 16, 32)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_area_within_bounds_exhaustive_n4(self):
        for spec in all_specs(4):
            val = area(spec)
            assert F(1, 4) <= val <= 1

    def test_symmetry_invariance_exhaustive(self):
        for n in (2, 3, 4, 5):
            for image in itertools_permutations(range(1, n + 1)):
                p = Permutation(image)
                base = area(TrapezoidSpec(n, p))
                assert area(TrapezoidSpec(n, p.inverse())) == base
                assert area(TrapezoidSpec(n, p.mirrored())) == base


def interior_heights_reference(image):
    """Every interior candidate height, as a sorted list of Fractions."""
    n = len(image)
    disp = [image[j] - (j + 1) for j in range(n)]
    heights = set()
    for i in range(n):
        for j in range(i + 1, n):
            dd = disp[i] - disp[j]
            if dd:
                for num in (j - i, j - i + 1, j - i - 1):
                    y = F(num, dd)
                    if 0 < y < 1:
                        heights.add(y)
    return sorted(heights)


def area_reference(image):
    """Independent pure-Fraction sweep, structured separately from the
    production path (no integer scaling, no numpy)."""
    spec = spec_of(image)
    ys = [F(0)] + interior_heights_reference(image) + [F(1)]
    vs = [measure(slice_at(spec, y)) for y in ys]
    return sum((b - a) * (va + vb) / 2 for a, b, va, vb in zip(ys, ys[1:], vs, vs[1:]))


def float_sorted_breakpoints(n, disp):
    """Reduced integer (p, q) candidates sorted by float value in plain
    Python: the ordering argument the numpy sweep relies on (distinct p/q
    with q < 2n differ by more than 1/(4n^2)), with no numpy."""
    cands = set()
    for i in range(n):
        for j in range(i + 1, n):
            den = disp[i] - disp[j]
            if not den:
                continue
            for num in (j - i, j - i + 1, j - i - 1):
                p, q = (num, den) if den > 0 else (-num, -den)
                if 0 < p < q:
                    g = math.gcd(p, q)
                    cands.add((p // g, q // g))
    ordered = sorted(cands, key=lambda pq: pq[0] / pq[1])
    return [p for p, _ in ordered], [q for _, q in ordered]


def displacements(spec):
    return np.array(trapezoid._displacements(spec), dtype=np.int64)


def numpy_breakpoints(n, disp):
    """``_interior_breakpoints`` of a displacement list, as int lists."""
    nums, dens = trapezoid._interior_breakpoints(n, np.array(disp, dtype=np.int64))
    assert nums.dtype == dens.dtype == np.int64
    return nums.tolist(), dens.tolist()


class TestInteriorBreakpoints:
    @pytest.mark.parametrize(
        "breakpoints",
        [numpy_breakpoints, float_sorted_breakpoints],
        ids=["numpy", "python"],
    )
    def test_paths_agree_with_fraction_sort(self, breakpoints):
        rng = random.Random(11)
        for n in [1, 2, 3, 7, 16, 33, 48, 49, 60] + [rng.randint(1, 60) for _ in range(12)]:
            image = list(range(1, n + 1))
            rng.shuffle(image)
            spec = spec_of(image)
            nums, dens = breakpoints(n, trapezoid._displacements(spec))
            # distinct Fractions, sorted: strictly increasing and reduced
            ordered = interior_heights_reference(image)
            assert nums == [y.numerator for y in ordered]
            assert dens == [y.denominator for y in ordered]

    def test_two_slabs_agree_with_fraction_sort(self):
        # 131_072 // 400 = 327 pair rows a slab, so the 399 rows of n = 400
        # span two slabs, and heights found in both collapse in the final pass
        rng = random.Random(400)
        image = list(range(1, 401))
        rng.shuffle(image)
        spec = spec_of(image)
        nums, dens = numpy_breakpoints(400, trapezoid._displacements(spec))
        ordered = interior_heights_reference(image)
        assert nums == [y.numerator for y in ordered]
        assert dens == [y.denominator for y in ordered]
        assert area(spec) == integrate_plp(slice_profile(spec))


def slice_totals_reference(spec, nums, dens):
    """n*q times the measure of the merged ``slice_at`` union at each p/q."""
    return [slice_at(spec, F(p, q)).measure * spec.n * q for p, q in zip(nums, dens)]


class TestSliceTotals:
    @staticmethod
    def specs():
        rng = random.Random(23)
        # every size from the smallest numpy-path input up to the old cutoff
        for n in range(2, 49):
            image = list(range(1, n + 1))
            rng.shuffle(image)
            yield spec_of(image)
        for _ in range(5):
            n = rng.randint(49, 200)
            image = list(range(1, n + 1))
            rng.shuffle(image)
            yield spec_of(image)
        for m in (4, 5):
            yield TrapezoidSpec(3**m, digit_swap_permutation(m))
        yield TrapezoidSpec(60, identity(60))
        yield TrapezoidSpec(60, reversal(60))

    def test_breakpoint_paths_agree(self):
        # the numpy sweep against the pure-Fraction candidate list
        for spec in self.specs():
            nums, dens = numpy_breakpoints(spec.n, trapezoid._displacements(spec))
            ordered = interior_heights_reference(spec.sigma.image)
            assert (nums, dens) == ([y.numerator for y in ordered], [y.denominator for y in ordered])

    def test_numpy_path_matches_python_path(self):
        # the numpy sorted-gap totals against the pure-Python interval merge
        for spec in self.specs():
            disp = displacements(spec)
            nums, dens = trapezoid._interior_breakpoints(spec.n, disp)
            totals = trapezoid._slice_totals(spec.n, disp, nums, dens)
            assert totals.dtype == np.int64
            assert totals.tolist() == slice_totals_reference(spec, nums.tolist(), dens.tolist())

    @pytest.mark.parametrize("q", [2**23 - 1, 2**23, 2**23 + 3, 2**26])
    def test_heights_around_the_int32_bound(self, q):
        # n = 65 with one transposition reaching |d| = 63: the numpy path
        # picks int32 iff 2*q*(n + 63) = 2^8*q < 2^31, i.e. q < 2^23; at
        # q = 2^26 the endpoints themselves pass 2^31
        n = 65
        image = list(range(1, n + 1))
        image[0], image[63] = image[63], image[0]
        spec = spec_of(image)
        disp = displacements(spec)
        assert np.abs(disp).max() == 63
        nums = [1, q // 3, q // 2 + 1, q - 1]
        dens = [q] * len(nums)
        totals = trapezoid._slice_totals(n, disp, np.array(nums, dtype=np.int64), np.array(dens, dtype=np.int64))
        assert totals.tolist() == slice_totals_reference(spec, nums, dens)


def random_involution(rng, n):
    image = list(range(1, n + 1))
    free = list(range(n))
    rng.shuffle(free)
    for a, b in zip(free[0::2], free[1::2]):
        if rng.random() < 0.8:
            image[a], image[b] = b + 1, a + 1
    return Permutation(tuple(image))


def full_and_mirrored_totals(spec):
    assert spec.sigma.inverse() == spec.sigma
    disp = displacements(spec)
    nums, dens = trapezoid._interior_breakpoints(spec.n, disp)
    args = (spec.n, disp, nums, dens)
    return trapezoid._slice_totals(*args).tolist(), trapezoid._mirrored_totals(*args).tolist()


class TestMirroredTotals:
    def test_every_involution_up_to_eight(self):
        seen = 0
        for n in range(1, 9):
            for image in itertools_permutations(range(1, n + 1)):
                spec = spec_of(image)
                if spec.sigma.inverse() == spec.sigma:
                    full, mirrored = full_and_mirrored_totals(spec)
                    assert mirrored == full
                    seen += 1
        assert seen == 1115

    def test_random_involutions_up_to_300(self):
        rng = random.Random(31)
        for n in [9, 10, 49, 300] + [rng.randint(9, 300) for _ in range(16)]:
            full, mirrored = full_and_mirrored_totals(TrapezoidSpec(n, random_involution(rng, n)))
            assert mirrored == full

    def test_digit_swap_and_composite_families(self):
        specs = [TrapezoidSpec(3**m, digit_swap_permutation(m)) for m in range(6)]
        specs += [TrapezoidSpec(n, composite_permutation(n)) for n in range(1, 101)]
        for spec in specs:
            full, mirrored = full_and_mirrored_totals(spec)
            assert mirrored == full

    def test_profile_sweeps_only_the_lower_half(self, monkeypatch):
        spec = TrapezoidSpec(27, digit_swap_permutation(3))
        full, _ = full_and_mirrored_totals(spec)
        swept = []
        sweep = trapezoid._slice_totals

        def recording(n, disp, nums, dens):
            swept.extend(zip(nums.tolist(), dens.tolist()))
            return sweep(n, disp, nums, dens)

        monkeypatch.setattr(trapezoid, "_slice_totals", recording)
        profile = slice_profile(spec)
        assert list(profile.v_num[1:-1]) == full
        assert swept and all(2 * p <= q for p, q in swept)
        assert len(swept) == (len(full) + 1) // 2

    def test_asymmetric_candidates_refused(self, monkeypatch):
        spec = TrapezoidSpec(27, digit_swap_permutation(3))
        points = trapezoid._interior_breakpoints

        def forged(n, disp):
            nums, dens = points(n, disp)
            return nums[1:], dens[1:]

        monkeypatch.setattr(trapezoid, "_interior_breakpoints", forged)
        with pytest.raises(AssertionError, match="mirror-symmetric"):
            slice_profile(spec)
        # same denominators, one numerator moved off its mirror image
        with pytest.raises(AssertionError, match="mirror-symmetric"):
            trapezoid._mirrored_totals(3, np.array([1, 0, -1]), np.array([1, 2]), np.array([4, 4]))


class TestSlopeIntegration:
    @staticmethod
    def specs():
        rng = random.Random(41)
        for n in (1, 2, 3, 12, 40, 200):
            yield TrapezoidSpec(n, reversal(n))
            image = list(range(1, n + 1))
            rng.shuffle(image)
            yield spec_of(image)
        for m in range(5):
            yield TrapezoidSpec(3**m, digit_swap_permutation(m))

    def test_int64_bounds_hold(self):
        # the bounds behind SLOPE_MAX_N, checked in Python ints
        for spec in self.specs():
            n, (nums, dens, totals) = spec.n, trapezoid._sweep(spec)
            p, q, t = (0, *nums.tolist(), 1), (1, *dens.tolist(), 1), (n, *totals.tolist(), n)
            cross = [t[k + 1] * q[k] - t[k] * q[k + 1] for k in range(len(p) - 1)]
            assert max(map(abs, cross)) < 8 * n**3
            slopes = [c // (p[k + 1] * q[k] - p[k] * q[k + 1]) for k, c in enumerate(cross)]
            assert max(map(abs, slopes)) < 2 * n**2
            terms = [(b - a) * p[k + 1] ** 2 for k, (a, b) in enumerate(zip(slopes, slopes[1:]))]
            assert max(map(abs, terms), default=0) < 16 * n**4

    def test_inconsistent_totals_refused(self):
        # a total changed by one at y_k changes the slope numerators next
        # to it by q_(k-1) and q_(k+1); where a slope denominator does not
        # divide that change, the slope stops being an integer
        spec = TrapezoidSpec(9, digit_swap_permutation(2))
        nums, dens, totals = trapezoid._sweep(spec)
        # heights with the ends y = 0/1 and 1/1; interior height k is array entry k - 1
        p, q = (0, *nums.tolist(), 1), (1, *dens.tolist(), 1)
        caught = 0
        for k in range(1, len(p) - 1):
            before = p[k] * q[k - 1] - p[k - 1] * q[k]
            after = p[k + 1] * q[k] - p[k] * q[k + 1]
            if q[k - 1] % before == 0 and q[k + 1] % after == 0:
                continue
            corrupt = totals.copy()
            corrupt[k - 1] += 1
            with pytest.raises(AssertionError, match="non-integer slope"):
                trapezoid._integrate_slopes(spec.n, nums, dens, corrupt)
            caught += 1
        assert caught > 0

    def test_int64_limit_boundary(self, monkeypatch):
        def no_sweep(*args):
            raise RuntimeError("the sweep started")

        # the largest n reaches the sweep; one more is refused before it
        monkeypatch.setattr(trapezoid, "_interior_breakpoints", no_sweep)
        n = trapezoid.SLOPE_MAX_N
        assert 16 * n**4 < 2**63 <= 16 * (n + 1) ** 4
        with pytest.raises(RuntimeError, match="the sweep started"):
            area(TrapezoidSpec(n, reversal(n)))
        with pytest.raises(ValueError, match="overflow int64"):
            area(TrapezoidSpec(n + 1, reversal(n + 1)))

    def test_area_builds_no_profile(self, monkeypatch):
        def no_profile(*args):
            raise RuntimeError("a profile was built")

        monkeypatch.setattr(trapezoid, "PiecewiseLinearProfile", no_profile)
        with pytest.raises(RuntimeError, match="a profile was built"):
            slice_profile(spec_of((1, 3, 2)))
        # values pinned from the earlier profile-based area
        spec = TrapezoidSpec(27, digit_swap_permutation(3))
        assert area.__wrapped__(spec) == F(939529831, 1428499800)
        rng = random.Random(50)
        image = list(range(1, 51))
        rng.shuffle(image)
        assert area.__wrapped__(spec_of(image)) == F(
            50322782301636299302042613556401, 80343479538244650379307816160000
        )


class TestAreaCrossValidation:
    def test_exhaustive_small_n(self):
        for n in range(1, 6):
            for image in itertools_permutations(range(1, n + 1)):
                assert area(spec_of(image)) == area_reference(image)

    def test_vectorized_path_matches_reference(self):
        # n = 60 exceeds the pure-python cutoff, exercising the numpy sweep
        rng = random.Random(7)
        for _ in range(3):
            image = list(range(1, 61))
            rng.shuffle(image)
            assert area(spec_of(image)) == area_reference(tuple(image))

    @pytest.mark.parametrize("n", range(9, 13))
    def test_just_above_cutoff_matches_reference(self, n):
        # the sizes just above the former pure-Python cutoff (n <= 8)
        rng = random.Random(n)
        images = [tuple(range(n, 0, -1))]
        for _ in range(3):
            image = list(range(1, n + 1))
            rng.shuffle(image)
            images.append(tuple(image))
        for image in images:
            assert area.__wrapped__(spec_of(image)) == area_reference(image)

    def test_digit_swap_small_orders_frozen(self):
        # frozen after cross-checking against area_reference and the
        # midpoint oracle during development
        assert area(TrapezoidSpec(9, digit_swap_permutation(2))) == F(2759, 3780)
        assert area_reference(digit_swap_permutation(2).image) == F(2759, 3780)
        assert area(TrapezoidSpec(27, digit_swap_permutation(3))) == F(
            939529831, 1428499800
        )

    def test_digit_swap_order_seven_pinned(self):
        # 330,709 breakpoints, swept from the lower half and integrated
        # from slope changes; the value was computed by the earlier
        # full sweep with integrate_plp
        pinned = F((Path(__file__).parent / "data" / "area_digit_swap_7.txt").read_text().strip())
        assert area.__wrapped__(TrapezoidSpec(3**7, digit_swap_permutation(7))) == pinned


def grid_areas(n, images):
    grid = farey_grid(n)
    nums = grid.area_numerators(np.array(images, dtype=np.int64).reshape(-1, n))
    return [F(int(num), grid.denominator) for num in nums]


class TestFareyGrid:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_permutation_matches_exact_sweep(self, n):
        images = list(itertools_permutations(range(1, n + 1)))
        assert grid_areas(n, images) == [area.__wrapped__(spec_of(img)) for img in images]

    @pytest.mark.parametrize("n", range(8, 16))
    def test_random_permutations_match_exact_sweep(self, n):
        rng = random.Random(n)
        images = [tuple(range(n, 0, -1))]
        for _ in range(30):
            image = list(range(1, n + 1))
            rng.shuffle(image)
            images.append(tuple(image))
        if n == 9:
            images.append(digit_swap_permutation(2).image)
        assert grid_areas(n, images) == [area.__wrapped__(spec_of(img)) for img in images]

    def test_grid_sizes(self):
        # the Farey sequence of order 2n - 2, without its ends
        assert [len(farey_grid(n).weights) for n in (1, 2, 8, 9, 10)] == [0, 1, 63, 79, 101]
        assert all(farey_grid(n).denominator < 2**40 for n in range(1, 14))

    @pytest.mark.parametrize("n", range(1, 16))
    def test_network_sorts_every_zero_one_input(self, n):
        # a comparator network that sorts all 2^n 0/1 inputs sorts every input
        rows = list((np.arange(2**n)[None, :] >> np.arange(n)[:, None]) & 1)
        for a, b in trapezoid._sorting_network(n):
            rows[a], rows[b] = np.minimum(rows[a], rows[b]), np.maximum(rows[a], rows[b])
        assert all((lo <= hi).all() for lo, hi in zip(rows, rows[1:]))

    def test_limits_refused(self):
        with pytest.raises(ValueError):
            FareyGrid(0)
        with pytest.raises(ValueError, match="denominator"):
            FareyGrid(40)
        with pytest.raises(ValueError, match="int16"):
            FareyGrid(92)


class TestAreaOracle:
    def test_identity_exact_one(self):
        assert area_oracle(TrapezoidSpec(6, identity(6)), 100) == 1.0

    def test_matches_exact_golden_value(self):
        assert abs(area_oracle(spec_of((1, 3, 2)), 10_000) - 5 / 6) <= 1e-3

    def test_matches_reversal(self):
        assert abs(area_oracle(spec_of((2, 1)), 10_000) - 0.75) <= 1e-3

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            area_oracle(spec_of((2, 1)), 1)

    def test_oracle_close_exhaustive_n4(self):
        for spec in all_specs(4):
            assert abs(area_oracle(spec, 10_000) - float(area(spec))) <= 2e-3

    def test_oracle_close_hundred_random_up_to_n30(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 30)
            image = list(range(1, n + 1))
            rng.shuffle(image)
            spec = spec_of(tuple(image))
            assert abs(area_oracle(spec, 10_000) - float(area(spec))) <= 2e-3

    @pytest.mark.parametrize("m", [4, 5])
    def test_oracle_confirms_large_vectorized_sweeps(self, m):
        # independent check of the numpy breakpoint path at sizes far above
        # the pure-python cutoff
        spec = TrapezoidSpec(3**m, digit_swap_permutation(m))
        assert abs(area_oracle(spec, 10_000) - float(area(spec))) <= 2e-3


class TestWeightedSum:
    def test_examples(self):
        assert weighted_sum_identity(4) == (F(7, 8), F(7, 8))
        assert weighted_sum_identity(3) == (F(5, 6), F(5, 6))
        assert weighted_sum_identity(1) == (F(1), F(1))

    @pytest.mark.parametrize("n", [2, 5, 7, 10, 13, 30])
    def test_identity_holds(self, n):
        lhs, rhs = weighted_sum_identity(n)
        assert lhs == rhs

    def test_composite_area_matches_direct_sweep(self):
        n = 12  # 110 base 3: one 9-block, one 3-block, no 1-block
        lhs, rhs = weighted_sum_identity(n)
        assert lhs == area(TrapezoidSpec(n, composite_permutation(n)))
        assert lhs == rhs
