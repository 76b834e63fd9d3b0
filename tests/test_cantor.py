from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trapmeasure.cantor import (
    DEPTH_CAP,
    DigitSetSpec,
    anchor_points,
    cantor_measure_closed,
    partial_cantor,
    slice_measure_closed,
    slice_set,
)
from trapmeasure.exact import Interval, measure, normalize
from trapmeasure.permutations import digit_swap_permutation
from trapmeasure.trapezoid import TrapezoidSpec, slice_at

F = Fraction


class TestDigitSetSpec:
    def test_rejects_depth_above_cap(self):
        with pytest.raises(ValueError):
            DigitSetSpec(13, (F(0), F(1), F(2)))

    def test_rejects_digits_outside_range(self):
        with pytest.raises(ValueError):
            DigitSetSpec(1, (F(0), F(1), F(5, 2)))
        with pytest.raises(ValueError):
            DigitSetSpec(1, (F(-1, 2), F(1), F(2)))

    def test_cap_can_be_raised_explicitly(self):
        # the cap is the constant DEPTH_CAP: no spec can raise it
        assert DigitSetSpec(DEPTH_CAP, (F(0), F(1), F(2))).depth == 12
        with pytest.raises(TypeError):
            DigitSetSpec(13, (F(0), F(1), F(2)), cap=13)
        with pytest.raises(ValueError):
            DigitSetSpec(DEPTH_CAP + 1, (F(0), F(1), F(2)))


class TestAnchors:
    def test_depth_one_mixed_digits(self):
        spec = DigitSetSpec(1, (F(0), F(1), F(1, 2)))
        assert anchor_points(spec) == (0, F(1, 6), F(1, 3))

    def test_depth_zero_single_anchor(self):
        assert anchor_points(DigitSetSpec(0, (F(0), F(1), F(2)))) == (0,)

    def test_depth_two_full_grid(self):
        pts = anchor_points(DigitSetSpec(2, (F(0), F(1), F(2))))
        assert pts == tuple(F(k, 9) for k in range(9))

    def test_duplicate_sums_collapse(self):
        # digits {0, 1, 1}: only 2^n distinct sums
        pts = anchor_points(DigitSetSpec(2, (F(0), F(1), F(1))))
        assert pts == (0, F(1, 9), F(1, 3), F(4, 9))


class TestPartialCantor:
    def test_depth_one_merges_to_single_interval(self):
        u = partial_cantor(DigitSetSpec(1, (F(0), F(1), F(1, 2))))
        assert [(p.lo, p.hi) for p in u.parts] == [(0, F(2, 3))]
        assert measure(u) == F(2, 3)

    def test_depth_zero_unit_interval(self):
        u = partial_cantor(DigitSetSpec(0, (F(0), F(1), F(2))))
        assert [(p.lo, p.hi) for p in u.parts] == [(0, 1)]

    def test_full_digit_triple_tiles(self):
        u = partial_cantor(DigitSetSpec(1, (F(0), F(1), F(2))))
        assert measure(u) == 1

    def test_standard_middle_thirds(self):
        # digits {0, 2, 2}: the classical construction
        u = partial_cantor(DigitSetSpec(2, (F(0), F(2), F(2))))
        assert measure(u) == F(4, 9)

    @given(
        st.integers(min_value=0, max_value=6),
        st.tuples(
            st.fractions(min_value=0, max_value=2, max_denominator=6),
            st.fractions(min_value=0, max_value=2, max_denominator=6),
            st.fractions(min_value=0, max_value=2, max_denominator=6),
        ),
    )
    @settings(max_examples=40)
    def test_nesting_in_depth(self, depth, digits):
        shallow = measure(partial_cantor(DigitSetSpec(depth, digits)))
        deep = measure(partial_cantor(DigitSetSpec(depth + 1, digits)))
        assert deep <= shallow


    @given(
        st.integers(min_value=0, max_value=7),
        st.tuples(
            st.fractions(min_value=0, max_value=2, max_denominator=30),
            st.fractions(min_value=0, max_value=2, max_denominator=30),
            st.fractions(min_value=0, max_value=2, max_denominator=30),
        ),
    )
    @settings(max_examples=60)
    def test_level_by_level_union_equals_anchor_enumeration(self, depth, digits):
        spec = DigitSetSpec(depth, digits)
        width = F(1, 3**depth)
        reference = normalize(Interval(a, a + width) for a in anchor_points(spec))
        assert partial_cantor(spec) == reference


class TestSliceSet:
    def test_half_height_example(self):
        u = slice_set(1, F(1, 2))
        assert [(p.lo, p.hi) for p in u.parts] == [(0, F(1, 3)), (F(1, 2), F(5, 6))]
        assert measure(u) == F(2, 3)

    def test_boundary_heights_tile(self):
        assert measure(slice_set(1, 0)) == 1
        assert measure(slice_set(2, 1)) == 1

    def test_rejects_height_outside_unit_interval(self):
        with pytest.raises(ValueError):
            slice_set(1, F(3, 2))

    @pytest.mark.parametrize("depth", range(0, 6))
    def test_matches_trapezoid_slice(self, depth):
        spec = TrapezoidSpec(3**depth, digit_swap_permutation(depth))
        for t in (F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)):
            assert slice_set(depth, t) == slice_at(spec, t)


class TestClosedForms:
    def test_cantor_cases(self):
        assert cantor_measure_closed(F(1, 2)) == F(1, 2)  # 1 + 2 = 3
        assert cantor_measure_closed(F(1)) == 0  # 1 + 1 = 2
        assert cantor_measure_closed(F(2)) == 1  # digits {0,1,2} tile

    def test_cantor_more_cases(self):
        assert cantor_measure_closed(F(1, 5)) == F(1, 5)
        assert cantor_measure_closed(F(2, 7)) == F(1, 7)
        assert cantor_measure_closed(F(0)) == 0  # 0 + 1 = 1
        with pytest.raises(ValueError):
            cantor_measure_closed(F(-1, 2))

    def test_slice_cases(self):
        assert slice_measure_closed(F(0)) == 1  # ratio 2/1
        assert slice_measure_closed(F(1)) == 1  # ratio 1/2 -> (1+1)/2
        assert slice_measure_closed(F(1, 2)) == 0  # ratio 1/1

    def test_slice_nontrivial_value(self):
        # t = 1/4: ratio (7/4)/(5/4) = 7/5, 7 + 5 = 12 divisible by 3,
        # so the measure is (1 + 1/4)/5 = 1/4
        assert slice_measure_closed(F(1, 4)) == F(1, 4)

    def test_nonzero_heights_are_sparse(self):
        # enumerate all admissible ratios with denominator <= 50; each maps to
        # exactly one height via the involution t = (2-r)/(1+r)
        hits = []
        for q in range(1, 51):
            for p in range(1, 2 * q + 1):
                r = F(p, q)
                if not F(1, 2) <= r <= 2 or r.denominator != q:
                    continue
                if (r.numerator + r.denominator) % 3 == 0:
                    t = (2 - r) / (1 + r)
                    hits.append(t)
                    assert slice_measure_closed(t) == (1 + t) / q
        assert len(hits) == len(set(hits))  # injective
        assert len(hits) < 2600  # finitely many per denominator level

    @given(st.fractions(min_value=0, max_value=1, max_denominator=30))
    @settings(max_examples=60)
    def test_partial_measures_dominate_closed_form(self, t):
        closed = slice_measure_closed(t)
        partial = measure(slice_set(5, t))
        assert partial >= closed


class TestConvergence:
    @pytest.mark.parametrize(
        "t, limit",
        [(F(1, 2), F(1, 2)), (F(1, 5), F(1, 5)), (F(2, 7), F(1, 7))],
    )
    def test_monotone_from_above(self, t, limit):
        values = [
            measure(partial_cantor(DigitSetSpec(depth, (F(0), F(1), t))))
            for depth in range(0, 9)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v >= limit for v in values)

    def test_depth_ten_excess_below_pinned_tolerance(self):
        value = measure(partial_cantor(DigitSetSpec(10, (F(0), F(1), F(1, 2)))))
        assert F(0) < value - F(1, 2) < F(2, 100)

