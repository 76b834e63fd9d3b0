import random
from fractions import Fraction
from itertools import permutations as itertools_permutations

import pytest
from hypothesis import given, settings, strategies as st

from trapmeasure.exact import measure
from trapmeasure.permutations import (
    Permutation,
    composite_permutation,
    digit_swap_permutation,
    identity,
    reversal,
)
from trapmeasure import trapezoid
from trapmeasure.trapezoid import (
    Parallelogram,
    TrapezoidSpec,
    area,
    area_oracle,
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
        u = slice_at(spec_of(image), y)
        assert all(0 <= p.lo and p.hi <= 1 for p in u.parts)
        assert F(1, n) <= measure(u) <= 1


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


class TestInteriorBreakpoints:
    @pytest.mark.parametrize("cutoff", [0, 10**9], ids=["numpy", "python"])
    def test_paths_agree_with_fraction_sort(self, monkeypatch, cutoff):
        monkeypatch.setattr(trapezoid, "_VECTOR_CUTOFF", cutoff)
        rng = random.Random(11)
        for n in [1, 2, 3, 7, 16, 33, 48, 49, 60] + [rng.randint(1, 60) for _ in range(12)]:
            image = list(range(1, n + 1))
            rng.shuffle(image)
            spec = spec_of(image)
            nums, dens = trapezoid._interior_breakpoints(n, trapezoid._displacements(spec))
            # distinct Fractions, sorted: strictly increasing and reduced
            ordered = interior_heights_reference(image)
            assert nums == [y.numerator for y in ordered]
            assert dens == [y.denominator for y in ordered]


def slice_totals_on_path(monkeypatch, cutoff, n, disp, nums, dens):
    monkeypatch.setattr(trapezoid, "_VECTOR_CUTOFF", cutoff)
    return trapezoid._slice_totals(n, disp, nums, dens)


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

    def test_breakpoint_paths_agree(self, monkeypatch):
        for spec in self.specs():
            disp = trapezoid._displacements(spec)
            monkeypatch.setattr(trapezoid, "_VECTOR_CUTOFF", 0)
            numpy_points = trapezoid._interior_breakpoints(spec.n, disp)
            monkeypatch.setattr(trapezoid, "_VECTOR_CUTOFF", 10**9)
            assert numpy_points == trapezoid._interior_breakpoints(spec.n, disp)

    def test_numpy_path_matches_python_path(self, monkeypatch):
        for spec in self.specs():
            disp = trapezoid._displacements(spec)
            nums, dens = trapezoid._interior_breakpoints(spec.n, disp)
            args = (spec.n, disp, nums, dens)
            numpy_totals = slice_totals_on_path(monkeypatch, 0, *args)
            assert numpy_totals == slice_totals_on_path(monkeypatch, 10**9, *args)

    @pytest.mark.parametrize("q", [2**23 - 1, 2**23, 2**23 + 3, 2**26])
    def test_heights_around_the_int32_bound(self, monkeypatch, q):
        # n = 65 with one transposition reaching |d| = 63: the numpy path
        # picks int32 iff 2*q*(n + 63) = 2^8*q < 2^31, i.e. q < 2^23; at
        # q = 2^26 the endpoints themselves pass 2^31
        n = 65
        image = list(range(1, n + 1))
        image[0], image[63] = image[63], image[0]
        disp = trapezoid._displacements(spec_of(image))
        assert max(map(abs, disp)) == 63
        nums = [1, q // 3, q // 2 + 1, q - 1]
        dens = [q] * len(nums)
        args = (n, disp, nums, dens)
        numpy_totals = slice_totals_on_path(monkeypatch, 0, *args)
        assert numpy_totals == slice_totals_on_path(monkeypatch, 10**9, *args)


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
        # the smallest sizes on the numpy sweep
        assert n > trapezoid._VECTOR_CUTOFF
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
