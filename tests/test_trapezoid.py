import copy
import random
from fractions import Fraction
from itertools import permutations as itertools_permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trapmeasure.exact import Interval, integrate_plp, measure, normalize
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
    TrapezoidSpec,
    area,
    area_oracle,
    farey_grid,
    slice_at,
    slice_profile,
    weighted_sum_identity,
)

from reference import inverse, mirrored, value_at

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
        # [(j0 + d*y)/n, (j0 + d*y + 1)/n], d = sigma(j0 + 1) - (j0 + 1)
        strips = [
            Interval((j0 + (v - j0 - 1) * y) / n, (j0 + (v - j0 - 1) * y + 1) / n)
            for j0, v in enumerate(image)
        ]
        assert u == normalize(strips)


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
        # all three lines of the reversal meet at y=1/2, the only kink: the
        # offset events at 1/4 and 3/4 leave the slope as it is
        prof = slice_profile(spec_of((3, 2, 1)))
        assert prof.breakpoints == ((0, 1), (F(1, 2), F(1, 3)), (1, 1))
        assert value_at(prof, F(1, 4)) == value_at(prof, F(3, 4)) == F(2, 3)

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
        assert value_at(prof, y) == measure(slice_at(spec, y))


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
                assert area(TrapezoidSpec(n, inverse(p))) == base
                assert area(TrapezoidSpec(n, mirrored(p))) == base


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
    """Reduced integer (p, q) candidates sorted by Python float value: the
    ordering argument the sweep's height keys rely on (distinct p/q with
    q < 2n differ by more than 1/(4n^2)).

    Strips i < j cross at heights (j - i + e) / (d_i - d_j), e in {-1, 0, 1};
    with d_i <= d_j none lies in (0, 1), so only the pairs d_i > d_j are
    enumerated, in numpy, reduced with ``np.gcd`` and deduplicated as
    sorted keys p * 2n + q (q < 2n)."""
    d = np.asarray(disp, dtype=np.int64)
    i, j = np.nonzero(np.triu(d[:, None] > d[None, :], 1))
    den = np.tile(d[i] - d[j], 3)
    num = np.concatenate((j - i, j - i + 1, j - i - 1))
    keep = (0 < num) & (num < den)
    num, den = num[keep], den[keep]
    g = np.gcd(num, den)
    keys = np.sort(num // g * (2 * n) + den // g)
    keys = keys[np.diff(keys, prepend=-1) != 0]
    cands = zip(*(part.tolist() for part in np.divmod(keys, 2 * n)))
    ordered = sorted(cands, key=lambda pq: pq[0] / pq[1])
    return [p for p, _ in ordered], [q for _, q in ordered]


def displacements(spec):
    return np.array(trapezoid._displacements(spec), dtype=np.int64)


class TestInteriorBreakpoints:
    @pytest.mark.parametrize("breakpoints", [float_sorted_breakpoints], ids=["python"])
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


def slice_totals_reference(spec, nums, dens):
    """n*q times the measure of the merged ``slice_at`` union at each p/q."""
    return [slice_at(spec, F(p, q)).measure * spec.n * q for p, q in zip(nums, dens)]


def slice_totals_integer_reference(spec, nums, dens):
    """The same totals in plain integers, with no interval union.

    At y = p/q parallelogram j0 covers [j0*q + d*p, j0*q + d*p + q], so the
    union is q plus the gaps between sorted left endpoints, each capped at q.
    """
    disp = [image - (j0 + 1) for j0, image in enumerate(spec.sigma.image)]
    totals = []
    for p, q in zip(nums, dens):
        los = sorted([j0 * q + d * p for j0, d in enumerate(disp)])
        gaps = [b - a for a, b in zip(los, los[1:])]
        totals.append(q + sum([gap if gap < q else q for gap in gaps]))
    return totals


def block_shift(n, cut):
    """The image that moves the first ``cut`` strips to the end: two runs of
    parallel strips, each touching its neighbours at every height (den = 0)."""
    return tuple(range(n - cut + 1, n + 1)) + tuple(range(1, n - cut + 1))


def sweep_lists(spec):
    """``_sweep``'s kinks and totals, as int lists."""
    nums, dens, totals, _, _ = trapezoid._sweep(spec)
    assert nums.dtype == dens.dtype == totals.dtype == np.int64
    return nums.tolist(), dens.tolist(), totals.tolist()


def assert_sweep_matches_reference(spec, sample=None):
    """``_sweep`` against the candidate heights and the integer reference.

    The slope changes at every kink, and every kink is a candidate height.
    At every candidate, or at ``sample`` seeded ones when there are more,
    the value interpolated from the kinks and totals is the reference's, so
    a missed kink fails.  With every candidate checked, the kinks are then
    exactly the candidates where the reference's slope changes.  The
    candidates come from ``float_sorted_breakpoints``, the same heights as
    ``interior_heights_reference`` (``TestInteriorBreakpoints``) in a
    fraction of the time.  Every comparison is cross-multiplied in Python
    ints, with no Fraction built.
    """
    n = spec.n
    nums, dens, totals = sweep_lists(spec)
    # the kinks p/q and the ends 0 and 1, with n*q times the measure there
    ps, qs, ts = [0, *nums, 1], [1, *dens, 1], [n, *totals, n]
    # the slope from kink i to kink i + 1 is rise[i] / (n * run[i]), run[i] > 0
    rise = [t2 * q1 - t1 * q2 for q1, q2, t1, t2 in zip(qs, qs[1:], ts, ts[1:])]
    run = [p2 * q1 - p1 * q2 for p1, p2, q1, q2 in zip(ps, ps[1:], qs, qs[1:])]
    assert all(a * d != b * c for a, b, c, d in zip(rise, rise[1:], run, run[1:]))
    ys = list(zip(*float_sorted_breakpoints(n, trapezoid._displacements(spec))))
    assert set(zip(nums, dens)) <= set(ys)
    if sample is not None and len(ys) > sample:
        ys = sorted(random.Random(n).sample(ys, sample), key=lambda y: F(*y))
    want = slice_totals_integer_reference(spec, [p for p, _ in ys], [q for _, q in ys])
    # kink i + 1 is the first kink above y = a/b; the measure interpolated
    # there, times n * q_i * run[i] * b, against the reference's t / (n * b)
    i = 0
    for (a, b), t in zip(ys, want):
        while ps[i + 1] * b <= a * qs[i + 1]:
            i += 1
        assert ts[i] * run[i] * b + rise[i] * (a * qs[i] - ps[i] * b) == t * qs[i] * run[i]


class TestSliceTotals:
    @staticmethod
    def specs():
        rng = random.Random(23)
        yield spec_of((1,))
        # every size from 2 to 48, each swept in a single slab
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
        for n, cut in ((2, 1), (7, 3), (40, 1), (60, 25)):
            yield spec_of(block_shift(n, cut))

    def test_numpy_path_matches_python_path(self):
        # the sweep's kinks and totals against the Fraction candidate list
        # and plain Python integers, and the integer reference against the
        # merged slice_at union at small n
        for spec in self.specs():
            assert_sweep_matches_reference(spec)
            if spec.n <= 12:
                ys = interior_heights_reference(spec.sigma.image)
                nums, dens = [y.numerator for y in ys], [y.denominator for y in ys]
                assert float_sorted_breakpoints(spec.n, trapezoid._displacements(spec)) == (nums, dens)
                assert slice_totals_integer_reference(spec, nums, dens) == slice_totals_reference(spec, nums, dens)

    def test_every_permutation_up_to_six(self):
        seen = 0
        for n in range(1, 7):
            for spec in all_specs(n):
                assert_sweep_matches_reference(spec)
                seen += 1
        assert seen == 873

    def test_random_permutations_up_to_320(self):
        rng = random.Random(320)
        for n in [64, 115, 166, 218, 269, 320] + [rng.randint(49, 320) for _ in range(4)]:
            image = list(range(1, n + 1))
            rng.shuffle(image)
            assert_sweep_matches_reference(spec_of(image), sample=400)

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 30, 101])
    def test_touching_and_extreme_shapes(self, n):
        # identity and block shifts keep strips touching (den = 0) at every
        # height; the reversal sends every pair through one crossing
        images = [identity(n).image, reversal(n).image]
        images += [block_shift(n, cut) for cut in {1, n // 3, n // 2, n - 1} if 0 < cut < n]
        for image in images:
            assert_sweep_matches_reference(spec_of(image))

    def test_several_edge_batches(self, monkeypatch):
        # 16_384 // 400 = 40 strips a slab, and run edges merged into the
        # summed jumps in many small batches give the same sweep as one batch
        rng = random.Random(400)
        image = list(range(1, 401))
        rng.shuffle(image)
        spec = spec_of(image)
        whole = sweep_lists(spec)
        merges = []
        argsort = np.argsort

        def counted(*args, **kwargs):
            merges.append(1)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        assert sweep_lists(spec) == whole
        assert len(merges) == 1
        monkeypatch.setattr(trapezoid, "_BATCH_EDGES", 1)
        assert sweep_lists(spec) == whole
        assert len(merges) > 4
        monkeypatch.undo()
        assert_sweep_matches_reference(spec, sample=400)
        assert area(spec) == integrate_plp(slice_profile(spec))

    def test_shifted_edge_key_refused(self):
        # a kink's own height is keyed by floor(p * 4n^2 / q), and distinct
        # heights with q < 2n have distinct keys
        n = 9
        keys, jump_c, jump_d = trapezoid._edge_jumps(n, displacements(TrapezoidSpec(n, digit_swap_permutation(2))))
        kinks = np.flatnonzero(jump_d[1:-1]) + 1
        assert kinks.size == keys.size - 2
        for k in kinks:
            for step in (-1, 1):
                shifted = keys.copy()
                shifted[k] += step
                with pytest.raises(AssertionError, match="off its edge key"):
                    trapezoid._kinks(n, (shifted, jump_c, jump_d))

    def test_kink_with_a_large_denominator_refused(self):
        # 201/400 has the height key floor(y * 4n^2) = 162 of the kink at 1/2
        # for n = 9, but no kink has a denominator of 2n or more
        n = 9
        keys, jump_c, jump_d = trapezoid._edge_jumps(n, displacements(TrapezoidSpec(n, digit_swap_permutation(2))))
        k = keys.tolist().index(162)
        assert (jump_c[k], jump_d[k]) == (-16, 32) and 201 * 324 // 400 == 162
        forged_c, forged_d = jump_c.copy(), jump_d.copy()
        forged_c[k : k + 2] += (-185, 185)
        forged_d[k : k + 2] += (368, -368)
        with pytest.raises(AssertionError, match="denominator of 2n or more"):
            trapezoid._kinks(n, (keys, forged_c, forged_d))

    def test_corrupted_end_share_refused(self):
        n = 9
        d = displacements(TrapezoidSpec(n, digit_swap_permutation(2)))
        keys, jump_c, jump_d = trapezoid._edge_jumps(n, d)
        # one end's share, (k + 1, d_k) for R_k or (-k, -d_k) for L_k, moved
        # from one key to the next: the sums still close, but no end lies at
        # x = 0 inside (0, 1), so the first key's height moves off its key,
        # or its kink vanishes and the next one's moves
        strip = np.arange(n)
        shares = zip(np.concatenate([strip + 1, -strip]).tolist(), np.concatenate([d, -d]).tolist())
        for share_c, share_d in [share for share in shares if any(share)]:
            for k in range(1, keys.size - 2):
                forged_c, forged_d = jump_c.copy(), jump_d.copy()
                forged_c[k : k + 2] += (share_c, -share_c)
                forged_d[k : k + 2] += (share_d, -share_d)
                with pytest.raises(AssertionError, match="kink|slope"):
                    trapezoid._kinks(n, (keys, forged_c, forged_d))
        # a share lost at one height leaves the sums unclosed above y = 1;
        # a jump at y = 0 or across y = 1 breaks the slice there
        for column, k in ((jump_c, 1), (jump_d, 1), (jump_c, 0), (jump_c, -1), (jump_d, -1)):
            forged = column.copy()
            forged[k] += 1
            forged_c, forged_d = (forged, jump_d) if column is jump_c else (jump_c, forged)
            with pytest.raises(AssertionError, match="not all of"):
                trapezoid._kinks(n, (keys, forged_c, forged_d))

    def test_jump_without_kink_refused(self):
        # (2, 3, 4, 1) has a run edge at y = 1/2 where the slope stays the same
        n = 4
        keys, jump_c, jump_d = trapezoid._edge_jumps(n, displacements(spec_of((2, 3, 4, 1))))
        assert keys.tolist() == [0, 16, 32, 48, 64] and jump_c[2] == jump_d[2] == 0
        assert trapezoid._kinks(n, (keys, jump_c, jump_d))[0].tolist() == [1, 3]
        forged = jump_c.copy()
        forged[1:3] += (-1, 1)
        with pytest.raises(AssertionError, match="slope does not change"):
            trapezoid._kinks(n, (keys, forged, jump_d))

    def test_int64_bound_covers_every_area_size(self):
        # the largest int64 of the sweep, from the packed key widths: far
        # inside int64 at the largest n that area accepts
        n = trapezoid.SLOPE_MAX_N
        shift, tag = trapezoid._packing(n)
        assert 4 * n * n < 2**shift and 4 * n <= 2**tag
        # run keys, edge keys, kink keys p * 4n^2 (p < 2n), the summed jumps
        # (at most n^2), the totals q*C + p*D (|C| <= n^2, |D| <= 2n^2) and
        # area's dC*p
        largest = [
            2 * n << shift,
            4 * n * n + 1 << tag,
            2 * n * 4 * n * n,
            n * n,
            2 * n * (n * n + 2 * n * n),
            2 * n * n * n,
        ]
        assert max(largest) < 2**50
        # the bounds on the jumps and on C and D, on real sweeps
        specs = [TrapezoidSpec(3**m, digit_swap_permutation(m)) for m in range(6)]
        specs += [TrapezoidSpec(n, reversal(n)) for n in (2, 9, 100)]
        specs += [spec_of(block_shift(60, 25)), TrapezoidSpec(1000, composite_permutation(1000))]
        for spec in specs:
            n = spec.n
            keys, jump_c, jump_d = trapezoid._edge_jumps(n, displacements(spec))
            assert np.abs(jump_c).max() <= n * n and np.abs(jump_d).max() <= n * n
            assert np.abs(n + np.cumsum(jump_c)).max() <= n * n
            assert np.abs(np.cumsum(jump_d)).max() <= 2 * n * n
        # refused before any array is read: these inputs are not even arrays
        with pytest.raises(AssertionError, match="overflow int64"):
            trapezoid._edge_jumps(2**20, None)

    def test_int32_bounds_at_each_switch(self):
        # at the largest n that each narrow dtype admits, every value it holds
        # is below 2^31, and one strip more takes int64
        slab = trapezoid._SLAB_PAIRS
        # run keys: a slab's start and stop keys lie below its sentinel
        # 2 * lanes << shift; -1 is the stops' sentinel; heights below
        # 2^shift and tags below 2 * lanes are shifted out of them
        for n, mirrors in ((8191, 1), (4095, 2)):
            lanes = max(1, slab // n) * mirrors
            shift, _ = trapezoid._packing(n)
            largest = [2 * lanes << shift, (2 * lanes - 1 << shift) + 4 * n * n, 2 * lanes, 2**shift - 1]
            assert max(largest) < 2**31
            assert trapezoid._dtypes(n, lanes)[0] is np.int32
            assert trapezoid._dtypes(n + 1, max(1, slab // (n + 1)) * mirrors)[0] is np.int64
        # cuts: (c + 1) * 4n^2 with c = |j - k| <= n - 1, before the division
        n = 812
        assert n * 4 * n * n < 2**31
        assert trapezoid._dtypes(n, 1)[1] is np.int32 and trapezoid._dtypes(n + 1, 1)[1] is np.int64
        # edge keys: a height in [0, 4n^2] over a tag below 4n, and the
        # global ends themselves (2n + end for a start)
        n = 511
        _, tag = trapezoid._packing(n)
        assert 4 * n <= 2**tag
        largest = [4 * n * n << tag | 4 * n - 1, 4 * n - 1]
        assert max(largest) < 2**31
        assert trapezoid._dtypes(n, 1)[2] is np.int32 and trapezoid._dtypes(n + 1, 1)[2] is np.int64
        # the pairs, int32 at every n that _packing admits: |s| < n, |e| < 2n,
        # 2|s| + 2 and the image j + d_j
        n = 741_455
        trapezoid._packing(n)
        with pytest.raises(AssertionError, match="overflow int64"):
            trapezoid._packing(n + 1)
        assert max(n - 1, 2 * n - 2, 2 * (n - 1) + 2, n - 1) < 2**31


def random_involution(rng, n):
    image = list(range(1, n + 1))
    free = list(range(n))
    rng.shuffle(free)
    for a, b in zip(free[0::2], free[1::2]):
        if rng.random() < 0.8:
            image[a], image[b] = b + 1, a + 1
    return Permutation(tuple(image))


def full_sweep(spec):
    """``_kinks`` of the full edge sweep, which every non-involution takes."""
    return trapezoid._kinks(spec.n, trapezoid._edge_jumps(spec.n, displacements(spec)))


def involution_corpus():
    """Every involution up to n = 8, 300 random ones up to n = 400, the
    digit-swap family up to m = 7 and composites up to n = 3000."""
    for n in range(1, 9):
        for image in itertools_permutations(range(1, n + 1)):
            if all(image[v - 1] == j for j, v in enumerate(image, start=1)):
                yield spec_of(image)
    rng = random.Random(1601)
    for _ in range(300):
        n = rng.randint(1, 400)
        yield TrapezoidSpec(n, random_involution(rng, n))
    for m in range(8):
        yield TrapezoidSpec(3**m, digit_swap_permutation(m))
    for n in (10, 100, 364, 1000, 3000):
        yield TrapezoidSpec(n, composite_permutation(n))


class TestMirroredTotals:
    """Self-inverse permutations: every digit-swap and composite one, with
    profiles symmetric about y = 1/2.  ``_sweep`` sweeps their rows
    k <= sigma(k) below y = 1/2 and mirrors the kinks above it."""

    def test_half_sweep_matches_full_sweep(self):
        seen = 0
        for spec in involution_corpus():
            half, full = trapezoid._sweep(spec), full_sweep(spec)
            for got, want in zip(half[:4], full[:4]):
                assert got.dtype == np.int64 and np.array_equal(got, want)
            assert type(half[4]) is int and half[4] == full[4]
            seen += 1
        assert seen == 1115 + 300 + 8 + 5

    def test_only_involutions_take_the_half_sweep(self, monkeypatch):
        taken = []
        edge_jumps = trapezoid._edge_jumps

        def recorded(n, d, half):
            taken.append(half)
            return edge_jumps(n, d, half)

        monkeypatch.setattr(trapezoid, "_edge_jumps", recorded)
        rng = random.Random(17)
        specs = [spec for n in range(1, 6) for spec in all_specs(n)]
        for n in (9, 64, 200):
            image = list(range(1, n + 1))
            rng.shuffle(image)
            specs.append(spec_of(image))
            # an involution with its first three values rotated
            image = list(random_involution(rng, n).image)
            image[0], image[1], image[2] = image[1], image[2], image[0]
            specs.append(spec_of(image))
        for spec in specs:
            sigma = spec.sigma
            trapezoid._sweep(spec)
            assert taken.pop() == all(sigma(sigma(j)) == j for j in range(1, spec.n + 1))

    def test_kink_at_one_half_from_symmetry(self):
        # the two strips of the reversal n = 2 cross at y = 1/2, where the
        # slope turns from -1 to 1 (n times the measure is 2 - 2y below)
        nums, dens, totals, jumps, last = trapezoid._sweep(TrapezoidSpec(2, reversal(2)))
        assert (nums.tolist(), dens.tolist(), totals.tolist(), jumps.tolist(), last) == ([1], [2], [2], [-2], 2)
        nums, dens, totals, jumps, last = trapezoid._sweep(TrapezoidSpec(2, identity(2)))
        assert nums.size == dens.size == totals.size == jumps.size == last == 0

    def test_half_kink_at_or_above_one_half_refused(self):
        # the full sweep's keys without y = 1, read as a lower half
        n = 9
        keys, jump_c, jump_d = trapezoid._edge_jumps(n, displacements(TrapezoidSpec(n, digit_swap_permutation(2))))
        with pytest.raises(AssertionError, match=r"outside \(0, 1/2\)"):
            trapezoid._kinks(n, (keys[:-1], jump_c[:-1], jump_d[:-1]), True)

    def test_half_keys_stay_below_one_half(self):
        n = 27
        d = displacements(TrapezoidSpec(n, digit_swap_permutation(3)))
        keys, jump_c, jump_d = trapezoid._edge_jumps(n, d, True)
        full_keys, full_c, full_d = trapezoid._edge_jumps(n, d)
        below = full_keys < 2 * n * n
        assert keys[0] == 0 and keys[-1] < 2 * n * n
        assert np.array_equal(keys, full_keys[below])
        assert np.array_equal(jump_c, full_c[below]) and np.array_equal(jump_d, full_d[below])

    def test_every_involution_up_to_eight(self):
        seen = 0
        for n in range(1, 9):
            for image in itertools_permutations(range(1, n + 1)):
                spec = spec_of(image)
                if inverse(spec.sigma) == spec.sigma:
                    assert_sweep_matches_reference(spec)
                    seen += 1
        assert seen == 1115

    def test_random_involutions_up_to_300(self):
        rng = random.Random(31)
        for n in [9, 10, 49, 300] + [rng.randint(9, 300) for _ in range(16)]:
            assert_sweep_matches_reference(TrapezoidSpec(n, random_involution(rng, n)), sample=400)

    def test_digit_swap_and_composite_families(self):
        specs = [TrapezoidSpec(3**m, digit_swap_permutation(m)) for m in range(6)]
        specs += [TrapezoidSpec(n, composite_permutation(n)) for n in range(1, 101)]
        for spec in specs:
            assert_sweep_matches_reference(spec)


class TestNarrowKeys:
    """``_edge_jumps`` keeps its run keys, cuts and edge keys in int32 where
    ``_dtypes`` bounds them below 2^31 for n, and in int64 past that, with
    the same int64 outputs either way."""

    @staticmethod
    def recorded(monkeypatch):
        picked = []
        dtypes = trapezoid._dtypes

        def record(n, lanes):
            picked.append(dtypes(n, lanes))
            return picked[-1]

        monkeypatch.setattr(trapezoid, "_dtypes", record)
        return picked

    @pytest.mark.parametrize(
        "n, want",
        [
            (511, (np.int32, np.int32, np.int32)),
            (512, (np.int32, np.int32, np.int64)),
            (812, (np.int32, np.int32, np.int64)),
            (813, (np.int32, np.int64, np.int64)),
        ],
    )
    def test_switch_points(self, monkeypatch, n, want):
        # the edge keys' switch (n = 511/512) and the cuts' (812/813), each
        # side swept for a random permutation and an involution
        picked = self.recorded(monkeypatch)
        rng = random.Random(n)
        image = list(range(1, n + 1))
        rng.shuffle(image)
        for spec in (spec_of(image), TrapezoidSpec(n, random_involution(rng, n))):
            assert_sweep_matches_reference(spec, sample=400)
            assert abs(area_oracle(spec, 4000) - float(area.__wrapped__(spec))) <= 1e-5
        assert picked == [want] * 4

    @pytest.mark.parametrize("n", [63, 64])
    def test_run_key_switch(self, monkeypatch, n):
        # the run keys' switch, moved from n = 8,192 (4,096 on the half) down
        # to 63/64 by larger slabs: 2 * lanes << shift reaches 2^31 at n = 64,
        # where the shift grows by one.  Both slab sizes hold all n rows
        picked = self.recorded(monkeypatch)
        want = (np.int32 if n == 63 else np.int64, np.int32, np.int32)
        rng = random.Random(n)
        image = list(range(1, n + 1))
        rng.shuffle(image)
        specs = {1 << 21: spec_of(image), 1 << 20: TrapezoidSpec(n, random_involution(rng, n))}
        whole = {pairs: sweep_lists(spec) for pairs, spec in specs.items()}
        assert picked == [(np.int32, np.int32, np.int32)] * 2
        for pairs, spec in specs.items():
            picked.clear()
            monkeypatch.setattr(trapezoid, "_SLAB_PAIRS", pairs)
            assert sweep_lists(spec) == whole[pairs]
            assert_sweep_matches_reference(spec)
            assert picked == [want] * 2


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
        # the bounds behind area's int64 products dC*p, checked in Python ints
        for spec in self.specs():
            n = spec.n
            nums, dens, _, jumps, last = trapezoid._sweep(spec)
            assert all(abs(c * p) < 2 * n**3 for c, p in zip(jumps.tolist(), nums.tolist()))
            _, _, jump_d = trapezoid._edge_jumps(n, displacements(spec))
            assert np.abs(np.cumsum(jump_d)).max() <= 2 * n * n and abs(last) <= 2 * n * n

    def test_int64_limit_boundary(self, monkeypatch):
        def no_sweep(*args):
            raise RuntimeError("the sweep started")

        # the largest n reaches the sweep; one more is refused before it
        monkeypatch.setattr(trapezoid, "_edge_jumps", no_sweep)
        n = trapezoid.SLOPE_MAX_N
        assert n == 27_554
        with pytest.raises(RuntimeError, match="the sweep started"):
            area(TrapezoidSpec(n, reversal(n)))
        with pytest.raises(ValueError, match="the largest n exact area accepts"):
            area(TrapezoidSpec(n + 1, reversal(n + 1)))

    def test_limb_sums_match_python_ints(self):
        # terms near +-2n^3 at the largest n that _packing admits, 2^17 of
        # them on each of two q, summed per q in two int64 limbs; the sums
        # are far past int64, and a q holds fewer than 2n terms in a sweep
        n = 741_455
        trapezoid._packing(n)
        with pytest.raises(AssertionError, match="overflow int64"):
            trapezoid._packing(n + 1)
        top = 2 * n**3 - 1
        many = 1 << 17
        rng = np.random.default_rng(5)
        dens = np.concatenate([np.full(many, 2 * n - 1), np.full(many, 2 * n - 3), np.arange(2, 50)])
        terms = np.concatenate(
            [
                top - rng.integers(0, 2**40, many),
                -top + rng.integers(0, 2**40, many),
                rng.integers(-top, top, 48),
            ]
        )
        terms[many : many + 6] = [top, -top, 1, -1, 2**32, -(2**32)]
        order = rng.permutation(dens.size)
        dens, terms = dens[order], terms[order]
        want: dict[int, int] = {}
        for q, t in zip(dens.tolist(), terms.tolist()):
            want[q] = want.get(q, 0) + t
        assert trapezoid._sums_by_denominator(dens, terms) == want
        assert abs(want[2 * n - 1]) > 2**63

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
        # three random permutations of 60 strips against the Fraction sweep
        rng = random.Random(7)
        for _ in range(3):
            image = list(range(1, 61))
            rng.shuffle(image)
            assert area(spec_of(image)) == area_reference(tuple(image))

    @pytest.mark.parametrize("n", range(9, 13))
    def test_just_above_cutoff_matches_reference(self, n):
        # n = 9..12: the reversal and three random permutations each
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
        # 330,709 breakpoints, totals from the exposed-end event sweep,
        # integrated from slope changes; the value was computed by the
        # earlier sorted-endpoint sweep with integrate_plp
        pinned = F((Path(__file__).parent / "data" / "area_digit_swap_7.txt").read_text().strip())
        assert area.__wrapped__(TrapezoidSpec(3**7, digit_swap_permutation(7))) == pinned


def grid_areas(n, images):
    grid = farey_grid(n)
    nums = grid.area_numerators(np.array(images, dtype=np.int64).reshape(-1, n))
    return [F(int(num), grid.denominator) for num in nums]


def exact_grid_areas(grid, images):
    """Areas from the grid's multi-limb Python-int numerators, for any n."""
    return [F(num, grid.denominator) for num in grid.numerators(np.array(images))]


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

    @pytest.mark.parametrize("n", [16, 20, 24, 32])
    def test_exact_areas_match_sweep_beyond_int64(self, n):
        rng = random.Random(n)
        images = [reversal(n).image, composite_permutation(n).image]
        for _ in range(12):
            image = list(range(1, n + 1))
            rng.shuffle(image)
            images.append(tuple(image))
        grid = farey_grid(n)
        exact = [area.__wrapped__(spec_of(img)) for img in images]
        assert exact_grid_areas(grid, images) == exact
        assert (n >= 24) == (grid.denominator >= 2**62) == (grid.limbs.shape[1] > 2)
        if grid.denominator < 2**62:
            # from n = 16 the int64 numerators need the high limb
            assert grid.limbs[:, 1].any()
            assert grid_areas(n, images) == exact

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 13])
    def test_exact_areas_equal_int64_numerators(self, n):
        rng = random.Random(n)
        images = []
        for _ in range(20):
            image = list(range(1, n + 1))
            rng.shuffle(image)
            images.append(tuple(image))
        assert exact_grid_areas(farey_grid(n), images) == grid_areas(n, images)

    @pytest.mark.parametrize("n", [1, 2, 6, 12, 13])
    def test_table_rows_by_strip_and_image_value(self, n):
        grid = farey_grid(n)
        # endpoints reach 2 (n - 1)^2: below 256 up to n = 12
        dtype = np.uint8 if n <= 12 else np.int16
        assert grid.table.dtype == grid.q.dtype == dtype
        assert grid.table.shape == (n * n, len(grid.weights))
        heights = sorted({F(p, q) for q in range(2, 2 * n - 1) for p in range(1, q)})
        for j0 in range(n):
            for v in range(1, n + 1):
                want = [j0 * y.denominator + (v - 1 - j0) * y.numerator for y in heights]
                assert grid.table[j0 * n + v - 1].tolist() == want

    def test_byte_table_equals_int16_table_at_its_limit(self):
        # n = 12 is the largest byte table: endpoints and capped-gap sums up
        # to 2 * 11^2 = 242; the same kernel on an int16 copy cannot wrap
        n = 12
        grid = FareyGrid(n)
        wide = copy.copy(grid)
        wide.table, wide.q = grid.table.astype(np.int16), grid.q.astype(np.int16)
        assert grid.table.dtype == np.uint8 and int(grid.table.max()) == 2 * (n - 1) ** 2
        rng = np.random.default_rng(12)
        images = np.argsort(rng.random((500, n)), axis=1) + 1
        images = np.vstack([images, [reversal(n).image, identity(n).image, composite_permutation(n).image]])
        assert np.array_equal(grid.area_numerators(images), wide.area_numerators(images))
        assert exact_grid_areas(grid, images[-3:]) == [area.__wrapped__(spec_of(img)) for img in images[-3:].tolist()]
        assert FareyGrid(n + 1).table.dtype == np.int16

    def test_limits_refused(self):
        with pytest.raises(ValueError):
            FareyGrid(0)
        # endpoints reach 2 (n - 1)^2: n = 128 fits int16, n = 129 is refused
        # before any table is built
        with pytest.raises(ValueError, match="int16"):
            FareyGrid(129)

    def test_int64_numerators_refused_above_the_denominator_limit(self):
        # the grid itself is exact at any n; only the int64 numerators are refused
        grid = FareyGrid(40)
        assert grid.denominator >= 2**62
        image = np.array([reversal(40).image])
        with pytest.raises(ValueError, match="denominator"):
            grid.area_numerators(image)
        assert exact_grid_areas(grid, image) == [area.__wrapped__(TrapezoidSpec(40, reversal(40)))]


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
        # independent check of the kink sweep on involutions of 81 and 243
        # strips, which take its half sweep
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

    def test_past_the_limit_refused_before_the_permutation(self, monkeypatch):
        def no_permutation(n):
            raise RuntimeError("a permutation was built")

        monkeypatch.setattr(trapezoid, "composite_permutation", no_permutation)
        with pytest.raises(ValueError, match="the largest n exact area accepts"):
            weighted_sum_identity(trapezoid.SLOPE_MAX_N + 1)

    def test_composite_area_matches_direct_sweep(self):
        n = 12  # 110 base 3: one 9-block, one 3-block, no 1-block
        lhs, rhs = weighted_sum_identity(n)
        assert lhs == area(TrapezoidSpec(n, composite_permutation(n)))
        assert lhs == rhs
