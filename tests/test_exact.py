import copy
import pickle
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trapmeasure.cantor import slice_set
from trapmeasure.exact import (
    Interval,
    IntervalUnion,
    PiecewiseLinearProfile,
    as_rational,
    integrate_plp,
    measure,
    normalize,
)
from trapmeasure.permutations import Permutation, composite_permutation, digit_swap_permutation
from trapmeasure.trapezoid import TrapezoidSpec, area, slice_profile

from test_trapezoid import interior_heights_reference, slice_totals_integer_reference

F = Fraction


def profile_of(pairs):
    """The profile through (y, value) pairs of exact rationals, from their
    reduced integer columns."""
    pts = [(as_rational(y), as_rational(v)) for y, v in pairs]
    return PiecewiseLinearProfile(
        tuple(y.numerator for y, _ in pts),
        tuple(y.denominator for y, _ in pts),
        tuple(v.numerator for _, v in pts),
        tuple(v.denominator for _, v in pts),
    )


def union_measure_oracle(parts):
    """Brute-force measure: sweep every elementary gap between endpoint events."""
    events = sorted({p.lo for p in parts} | {p.hi for p in parts})
    total = F(0)
    for a, b in zip(events, events[1:]):
        mid = (a + b) / 2
        if any(p.lo <= mid <= p.hi for p in parts):
            total += b - a
    return total


small_fractions = st.fractions(min_value=-2, max_value=3, max_denominator=12)


@st.composite
def interval_lists(draw, max_size=12):
    raw = draw(st.lists(st.tuples(small_fractions, small_fractions), max_size=max_size))
    return [Interval(min(a, b), max(a, b)) for a, b in raw]


class TestInterval:
    def test_length(self):
        assert Interval(F(1, 3), F(5, 6)).length == F(1, 2)

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            Interval(F(1), F(0))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Interval(0.1, 0.5)

    def test_degenerate_point(self):
        assert Interval(F(1, 2), F(1, 2)).length == 0


class TestNormalize:
    def test_touching_intervals_merge(self):
        u = normalize([Interval(0, F(1, 3)), Interval(F(1, 3), F(2, 3))])
        assert u.parts == (Interval(0, F(2, 3)),)

    def test_empty_union(self):
        u = normalize([])
        assert u.parts == ()
        assert measure(u) == 0

    def test_sort_merge_with_duplicates(self):
        # hand sort/merge: {[1/2,5/6],[0,1/3],[1/2,5/6]} -> {[0,1/3],[1/2,5/6]}
        parts = [
            Interval(F(1, 2), F(5, 6)),
            Interval(0, F(1, 3)),
            Interval(F(1, 2), F(5, 6)),
        ]
        u = normalize(parts)
        assert u.parts == (Interval(0, F(1, 3)), Interval(F(1, 2), F(5, 6)))
        assert measure(u) == F(2, 3)
        assert union_measure_oracle(parts) == F(2, 3)

    def test_direct_construction_rejects_non_canonical(self):
        # normalize merges what the columns refuse: [0, 1] with [1/2, 2]
        # (overlapping) and with [1, 2] (touching)
        assert normalize([Interval(0, 1), Interval(F(1, 2), 2)]) == IntervalUnion((0,), (4,), 2)
        with pytest.raises(ValueError):
            IntervalUnion((0, 1), (2, 4), 2)
        assert normalize([Interval(0, 1), Interval(1, 2)]) == IntervalUnion((0,), (2,), 1)
        with pytest.raises(ValueError):
            IntervalUnion((0, 1), (1, 2), 1)

    @given(interval_lists())
    def test_measure_matches_endpoint_sweep_oracle(self, parts):
        assert measure(normalize(parts)) == union_measure_oracle(parts)

    @given(interval_lists())
    def test_outputs_in_lowest_terms(self, parts):
        u = normalize(parts)
        m = measure(u)
        assert m.denominator > 0
        from math import gcd

        assert gcd(m.numerator, m.denominator) == 1
        for p in u.parts:
            assert p.lo.denominator > 0 and p.hi.denominator > 0


class TestUnionColumns:
    # {[0, 1/3], [1/2, 5/6]}: over its least common denominator 6, and over 12
    PARTS = (Interval(0, F(1, 3)), Interval(F(1, 2), F(5, 6)))
    COLUMNS = ((0, 3), (2, 5), 6)

    def test_equals_and_hashes_like_the_parts_form(self):
        columns = IntervalUnion(*self.COLUMNS)
        doubled = IntervalUnion((0, 6), (4, 10), 12)
        parts = normalize(self.PARTS)
        assert columns == doubled == parts
        assert hash(columns) == hash(doubled) == hash(parts)
        assert (parts.lo, parts.hi, parts.scale) == ((0, 3), (2, 5), 6)
        assert columns.parts == self.PARTS
        assert repr(columns) == repr(parts) == "{[0, 1/3], [1/2, 5/6]}"
        assert columns.measure == parts.measure == F(2, 3)
        assert columns != IntervalUnion((0, 3), (2, 4), 6)
        assert normalize([]) == IntervalUnion((), (), 7)
        assert hash(normalize([])) == hash(IntervalUnion((), (), 7))

    def test_parts_built_on_first_read_only(self):
        u = IntervalUnion(*self.COLUMNS)
        assert u.measure == F(2, 3)
        assert "parts" not in vars(u)  # the measure needs no Fraction per part
        assert all(type(x) is F for p in u.parts for x in (p.lo, p.hi))
        assert u.parts is u.parts  # cached

    def test_immutable(self):
        u = IntervalUnion(*self.COLUMNS)
        with pytest.raises(AttributeError):
            u.scale = 12

    def test_pickle_and_copy_round_trip(self):
        for u in (IntervalUnion(*self.COLUMNS), normalize(self.PARTS), normalize([])):
            for clone in (pickle.loads(pickle.dumps(u)), copy.copy(u), copy.deepcopy(u)):
                assert clone == u
                assert hash(clone) == hash(u)
                assert (clone.lo, clone.hi, clone.scale) == (u.lo, u.hi, u.scale)

    @pytest.mark.parametrize(
        "columns, error",
        [
            (((0, 1), (1, 2), 3), ValueError),  # touching parts
            (((0, 1), (2, 3), 3), ValueError),  # overlapping parts
            (((2, 0), (3, 1), 3), ValueError),  # unsorted parts
            (((0,), (-1,), 3), ValueError),  # lo above hi
            (((0, 1), (1,), 3), ValueError),  # ragged columns
            (((0,), (1,), 0), ValueError),  # zero scale
            (((0,), (1,), -3), ValueError),  # negative scale
            (((0,), (1,)), TypeError),  # two columns
            (((0,), (1,), 3, 4), TypeError),  # four columns
        ],
    )
    def test_column_checks(self, columns, error):
        with pytest.raises(error):
            IntervalUnion(*columns)

    @pytest.mark.parametrize("bad", [F(1, 2), np.int64(1), 1.0])
    def test_columns_refuse_non_int_entries(self, bad):
        for columns in (((bad,), (2,), 3), ((0,), (bad,), 3), ((0,), (1,), bad)):
            with pytest.raises(TypeError):
                IntervalUnion(*columns)

    @given(
        st.integers(min_value=-50, max_value=50),
        st.lists(st.tuples(st.integers(1, 9), st.integers(0, 9)), max_size=24),
        st.integers(min_value=1, max_value=60),
    )
    def test_measure_is_fraction_sum_of_parts(self, start, steps, scale):
        # each part starts a positive gap after the last one ends, and may
        # be a single point
        lo, hi, x = [], [], start
        for gap, length in steps:
            lo.append(x + gap)
            x += gap + length
            hi.append(x)
        u = IntervalUnion(lo, hi, scale)
        assert u.measure == sum((p.length for p in u.parts), F(0))
        assert u == normalize(u.parts)


class TestMeasure:
    def test_single_part(self):
        assert measure(normalize([Interval(0, F(2, 3))])) == F(2, 3)

    def test_two_parts_hand_sum(self):
        u = normalize([Interval(0, F(1, 3)), Interval(F(1, 2), F(5, 6))])
        assert measure(u) == F(2, 3)

    @given(interval_lists(max_size=8), interval_lists(max_size=4))
    def test_monotone_and_subadditive(self, parts, extra):
        base = measure(normalize(parts))
        grown = measure(normalize(parts + extra))
        assert base <= grown  # monotone under adding parts
        assert grown <= base + measure(normalize(extra))  # subadditive


def profile_pointwise_max(f, g):
    """Oracle construction of max(f, g): merge breakpoints, add crossings."""
    ys = sorted({y for y, _ in f.breakpoints} | {y for y, _ in g.breakpoints})
    refined = set(ys)
    for y0, y1 in zip(ys, ys[1:]):
        fv0, fv1 = f.value_at(y0), f.value_at(y1)
        gv0, gv1 = g.value_at(y0), g.value_at(y1)
        d0, d1 = fv0 - gv0, fv1 - gv1
        if d0 * d1 < 0:  # sign change: one interior crossing
            refined.add(y0 + (y1 - y0) * d0 / (d0 - d1))
    pts = sorted(refined)
    return profile_of((y, max(f.value_at(y), g.value_at(y))) for y in pts)


class TestProfile:
    def test_constant_one_integrates_to_one(self):
        f = profile_of(((F(0), F(1)), (F(1), F(1))))
        assert integrate_plp(f) == 1

    def test_vee_profile_hand_trapezoid_sum(self):
        f = profile_of(((F(0), F(1)), (F(1, 2), F(1, 3)), (F(1), F(1))))
        assert integrate_plp(f) == F(2, 3)

    def test_shallow_vee_profile(self):
        f = profile_of(((F(0), F(1)), (F(1, 2), F(2, 3)), (F(1), F(1))))
        assert integrate_plp(f) == F(5, 6)

    def test_rejects_not_spanning_unit_interval(self):
        with pytest.raises(ValueError):
            profile_of(((F(0), F(1)), (F(1, 2), F(1))))
        with pytest.raises(ValueError):
            profile_of(((F(1, 4), F(1)), (F(1), F(1))))

    def test_rejects_non_increasing_ordinates(self):
        with pytest.raises(ValueError):
            profile_of(((F(0), F(1)), (F(0), F(2)), (F(1), F(1))))

    def test_value_at_interpolates(self):
        f = profile_of(((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0))))
        assert f.value_at(F(1, 4)) == F(1, 2)
        assert f.value_at(F(1, 2)) == 1
        assert f.value_at(1) == 0

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=2, max_denominator=8),
            min_size=3,
            max_size=6,
        ),
        st.lists(
            st.fractions(min_value=0, max_value=2, max_denominator=8),
            min_size=3,
            max_size=6,
        ),
    )
    def test_integral_of_pointwise_max_dominates(self, vals_f, vals_g):
        def build(vals):
            step = F(1, len(vals) - 1)
            return profile_of((i * step, v) for i, v in enumerate(vals))

        f, g = build(vals_f), build(vals_g)
        top = profile_pointwise_max(f, g)
        assert integrate_plp(top) >= max(integrate_plp(f), integrate_plp(g))

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=10**6),
            min_size=0,
            max_size=38,
            unique=True,
        ),
        st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=10**6),
            min_size=40,
            max_size=40,
        ),
    )
    def test_integer_sum_matches_per_segment_fractions(self, inner, vals):
        ys = [F(0)] + sorted(y for y in inner if 0 < y < 1) + [F(1)]
        pts = tuple(zip(ys, vals))
        # the per-segment Fraction sum is the reference formula
        expected = sum(
            ((y1 - y0) * (v0 + v1) / 2 for (y0, v0), (y1, v1) in zip(pts, pts[1:])),
            F(0),
        )
        result = integrate_plp(profile_of(pts))
        assert type(result) is Fraction
        assert result == expected


class TestIntegerColumns:
    # (0, 1) -> (1/2, 1/2) -> (1, 1) written with unreduced fractions
    UNREDUCED = ((0, 2, 3), (5, 4, 3), (2, 3, 7), (2, 6, 7))
    PAIRS = ((F(0), F(1)), (F(1, 2), F(1, 2)), (F(1), F(1)))

    def test_lazy_breakpoints_are_reduced_fraction_pairs(self):
        for n, image in ((3, (1, 3, 2)), (9, digit_swap_permutation(2).image), (30, None)):
            spec = TrapezoidSpec(n, Permutation(image) if image else composite_permutation(n))
            prof = slice_profile(spec)
            assert "breakpoints" not in vars(prof)  # nothing built until first read
            expected = tuple(
                (F(p, q), F(a, b))
                for p, q, a, b in zip(prof.y_num, prof.y_den, prof.v_num, prof.v_den)
            )
            assert prof.breakpoints == expected
            assert all(type(y) is F and type(v) is F for y, v in prof.breakpoints)
            assert prof.breakpoints is prof.breakpoints  # cached
            assert profile_of(expected) == prof

    def test_columns_from_pairs(self):
        # columns are stored as given, reduced or not
        prof = profile_of(self.PAIRS)
        assert (prof.y_num, prof.y_den, prof.v_num, prof.v_den) == (
            (0, 1, 1),
            (1, 2, 1),
            (1, 1, 1),
            (1, 2, 1),
        )
        unreduced = PiecewiseLinearProfile(*self.UNREDUCED)
        assert (unreduced.y_num, unreduced.y_den, unreduced.v_num, unreduced.v_den) == self.UNREDUCED

    def test_equality_is_value_based(self):
        unreduced = PiecewiseLinearProfile(*self.UNREDUCED)
        pairs = profile_of(self.PAIRS)
        assert unreduced == pairs
        assert hash(unreduced) == hash(pairs)
        assert unreduced.breakpoints == self.PAIRS
        assert integrate_plp(unreduced) == integrate_plp(pairs) == F(3, 4)
        assert unreduced != PiecewiseLinearProfile((0, 1), (1, 1), (1, 1), (1, 1))

    def test_immutable(self):
        prof = PiecewiseLinearProfile(*self.UNREDUCED)
        with pytest.raises(AttributeError):
            prof.y_num = (0, 1)

    def test_pickle_and_copy_round_trip(self):
        prof = PiecewiseLinearProfile(*self.UNREDUCED)
        for clone in (pickle.loads(pickle.dumps(prof)), copy.deepcopy(prof)):
            assert clone == prof
            assert clone.v_den == self.UNREDUCED[3]

    # each invalid profile in both forms: (y, value) pairs through
    # ``profile_of``, then integer columns as given
    INVALID = {
        "one point": (((F(0), F(1)),), ((0,), (1,), (1,), (1,)), ValueError),
        "ends below 1": (
            ((F(0), F(1)), (F(1, 2), F(1))),
            ((0, 1), (1, 2), (1, 1), (1, 1)),
            ValueError,
        ),
        "starts above 0": (
            ((F(1, 4), F(1)), (F(1), F(1))),
            ((1, 4), (4, 4), (1, 1), (1, 1)),
            ValueError,
        ),
        "repeated ordinate": (
            ((F(0), F(1)), (F(1, 2), F(2)), (F(1, 2), F(1)), (F(1), F(1))),
            ((0, 1, 2, 1), (1, 2, 4, 1), (1, 2, 1, 1), (1, 1, 1, 1)),
            ValueError,
        ),
        "decreasing ordinate": (
            ((F(0), F(1)), (F(2, 3), F(1)), (F(1, 3), F(1)), (F(1), F(1))),
            ((0, 2, 1, 1), (1, 3, 3, 1), (1, 1, 1, 1), (1, 1, 1, 1)),
            ValueError,
        ),
        "float": (
            ((F(0), F(1)), (0.5, F(1)), (F(1), F(1))),
            ((0, 0.5, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)),
            TypeError,
        ),
    }

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_each_check_raises_on_both_forms(self, case):
        pairs, columns, error = self.INVALID[case]
        with pytest.raises(error):
            profile_of(pairs)
        with pytest.raises(error):
            PiecewiseLinearProfile(*columns)

    @pytest.mark.parametrize(
        "columns, error",
        [
            (((0, 1), (0, 1), (1, 1), (1, 1)), ValueError),  # zero y denominator
            (((0, 1), (1, 1), (1, 1), (1, -1)), ValueError),  # negative value denominator
            (((0, 1, 1), (1, 2, 1), (1, 1), (1, 1)), ValueError),  # ragged columns
            (((0, 1), (1, 1), (1, 1)), TypeError),  # three columns
        ],
    )
    def test_column_only_checks(self, columns, error):
        with pytest.raises(error):
            PiecewiseLinearProfile(*columns)

    @pytest.mark.parametrize("bad", [F(1, 2), np.int64(1), 1.0])
    def test_columns_refuse_non_int_entries(self, bad):
        with pytest.raises(TypeError):
            PiecewiseLinearProfile((0, 1), (1, 1), (bad, 1), (1, 1))


@pytest.mark.parametrize(
    "build, cached",
    [
        (lambda: slice_set(8, "1/3"), "parts"),
        (lambda: slice_profile(TrapezoidSpec(9, digit_swap_permutation(2))), "breakpoints"),
    ],
    ids=["union", "profile"],
)
def test_pickle_holds_the_integer_columns_only(build, cached):
    # a read cache is not pickled: at depth 8, the union's Fraction parts
    # would take its pickle from 2,513 to 17,946 bytes
    value = build()
    before = pickle.dumps(value)
    view = getattr(value, cached)
    assert cached in vars(value)
    assert pickle.dumps(value) == before
    clone = pickle.loads(before)
    assert cached not in vars(clone)
    assert getattr(clone, cached) == view  # rebuilt on first read
    assert clone == value

def integrate_plp_lcm_reference(profile):
    """Trapezoid rule with ordinates and values scaled to integers over the
    lcm of all their denominators, summed segment by segment."""
    pts = profile.breakpoints
    y_den = v_den = 1
    for y, v in pts:
        y_den = lcm(y_den, y.denominator)
        v_den = lcm(v_den, v.denominator)
    total = 0
    y0 = v0 = None
    for y, v in pts:
        y1 = y.numerator * (y_den // y.denominator)
        v1 = v.numerator * (v_den // v.denominator)
        if y0 is not None:
            total += (y1 - y0) * (v0 + v1)
        y0, v0 = y1, v1
    return Fraction(total, 2 * y_den * v_den)


class TestIntegrationByParts:
    @staticmethod
    def specs():
        for m in range(6):
            yield TrapezoidSpec(3**m, digit_swap_permutation(m))
        yield TrapezoidSpec(100, composite_permutation(100))
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 120)
            image = list(range(1, n + 1))
            rng.shuffle(image)
            yield TrapezoidSpec(n, Permutation(tuple(image)))

    @classmethod
    def profiles(cls):
        yield PiecewiseLinearProfile((0, 1), (1, 1), (3, 5), (7, 11))
        for spec in cls.specs():
            yield slice_profile(spec)

    def test_matches_lcm_scaled_trapezoid_sum(self):
        for profile in self.profiles():
            assert integrate_plp(profile) == integrate_plp_lcm_reference(profile)

    def test_slope_integration_matches_trapezoid_rule(self):
        # every spec behind profiles(); the hand-built first profile has
        # no strip count n and no sweep behind it
        for spec in self.specs():
            assert area.__wrapped__(spec) == integrate_plp(slice_profile(spec))

    def test_area_matches_trapezoid_rule_over_reference_heights(self):
        # reads none of the sweep's kinks: every height where two strips'
        # ends meet, with the slice totals there from sorted endpoints
        for spec in self.specs():
            if spec.n > 60:
                continue
            ys = [F(0), *interior_heights_reference(spec.sigma.image), F(1)]
            nums, dens = [y.numerator for y in ys], [y.denominator for y in ys]
            totals = slice_totals_integer_reference(spec, nums, dens)
            vs = [F(t, spec.n * y.denominator) for t, y in zip(totals, ys)]
            rule = sum((b - a) * (va + vb) / 2 for a, b, va, vb in zip(ys, ys[1:], vs, vs[1:]))
            assert area.__wrapped__(spec) == rule

    @given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_slope_integration_matches_on_random_permutations(self, image):
        spec = TrapezoidSpec(len(image), Permutation(tuple(image)))
        assert area.__wrapped__(spec) == integrate_plp(slice_profile(spec))
