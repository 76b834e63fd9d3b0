import math
from itertools import permutations as itertools_permutations

import pytest
from hypothesis import given, strategies as st

from trapmeasure.permutations import (
    CompositePlan,
    Permutation,
    canonical_class,
    composite_permutation,
    composite_plan,
    digit_swap_permutation,
    identity,
    iter_permutations,
    permutation_at_rank,
    reversal,
)


class TestPermutationType:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation((0, 1))
        with pytest.raises(ValueError):
            Permutation(())

    def test_call_and_len(self):
        p = Permutation((1, 3, 2))
        assert len(p) == 3
        assert p(2) == 3
        with pytest.raises(IndexError):
            p(4)

    def test_str_roundtrip(self):
        p = Permutation((2, 4, 1, 3))
        assert str(p) == "2,4,1,3"
        assert Permutation.parse("2,4,1,3") == p

    def test_inverse(self):
        p = Permutation((2, 3, 1))
        assert p.inverse() == Permutation((3, 1, 2))

    def test_mirrored(self):
        # r s r with r the reversal: hand computation for s = (1,3,2)
        assert Permutation((1, 3, 2)).mirrored() == Permutation((2, 1, 3))


class TestNamedFamilies:
    def test_identity_and_reversal(self):
        assert identity(5).image == (1, 2, 3, 4, 5)
        assert reversal(3).image == (3, 2, 1)
        assert reversal(1).image == (1,)

    def test_digit_swap_order_one_is_transposition(self):
        assert digit_swap_permutation(1).image == (1, 3, 2)

    def test_digit_swap_order_zero_is_identity(self):
        assert digit_swap_permutation(0).image == (1,)

    def test_digit_swap_order_two_hand_value(self):
        # 6-1 = 5 = 12 base 3 -> 21 base 3 = 7 -> sigma(6) = 8
        p = digit_swap_permutation(2)
        assert p(6) == 8
        assert p.image == (1, 3, 2, 7, 9, 8, 4, 6, 5)

    def test_digit_swap_rejects_bad_order(self):
        with pytest.raises(ValueError):
            digit_swap_permutation(-1)
        with pytest.raises(ValueError):
            digit_swap_permutation(15)

    @pytest.mark.parametrize("m", range(0, 9))
    def test_digit_swap_matches_base3_digit_formula(self, m):
        # the level-by-level construction against the definition: swap the base-3
        # digits 1 and 2 of j - 1, read from its m-digit expansion
        def swapped(x):
            digits = [(x // 3**i) % 3 for i in range(m)]
            return sum({0: 0, 1: 2, 2: 1}[digit] * 3**i for i, digit in enumerate(digits))

        assert digit_swap_permutation(m).image == tuple(swapped(x) + 1 for x in range(3**m))

    @pytest.mark.parametrize("m", range(0, 9))
    def test_digit_swap_is_involution(self, m):
        p = digit_swap_permutation(m)
        n = 3**m
        assert all(p(p(j)) == j for j in range(1, n + 1))

    def test_composite_plan_digits(self):
        plan = composite_plan(4)
        assert plan.digits == (1, 1)
        assert plan.blocks == ((3, 1), (1, 1))
        plan = composite_plan(1000)
        assert plan.digits == (1, 1, 0, 1, 0, 0, 1)

    def test_composite_plan_rejects_inconsistent_blocks(self):
        with pytest.raises(ValueError):
            CompositePlan(n=4, digits=(1, 1), blocks=((3, 1),))

    def test_composite_examples(self):
        assert composite_permutation(4).image == (1, 3, 2, 4)
        assert composite_permutation(3).image == (1, 3, 2)
        assert composite_permutation(2).image == (1, 2)

    @pytest.mark.parametrize("m", range(0, 6))
    def test_composite_at_power_of_three_is_digit_swap(self, m):
        assert composite_permutation(3**m) == digit_swap_permutation(m)

    def test_composite_covers_zero_digits(self):
        # 10 = 101 base 3: a 9-block, no 3-block, one 1-block
        p = composite_permutation(10)
        assert p.image[:9] == digit_swap_permutation(2).image
        assert p.image[9] == 10


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_itertools_lexicographic(self, n):
        ours = [p.image for p in iter_permutations(n)]
        reference = list(itertools_permutations(range(1, n + 1)))
        assert ours == reference
        assert len(set(ours)) == math.factorial(n)

    def test_rank_ten_of_four(self):
        # independent oracle: itertools enumeration order
        reference = list(itertools_permutations(range(1, 5)))
        assert permutation_at_rank(4, 10).image == reference[10] == (2, 4, 1, 3)

    def test_range_splitting_covers_everything(self):
        n = 5
        total = math.factorial(n)
        cuts = [0, 29, 30, 77, total]
        collected = []
        for a, b in zip(cuts, cuts[1:]):
            collected.extend(p.image for p in iter_permutations(n, a, b))
        assert collected == [p.image for p in iter_permutations(n)]

    def test_empty_and_clipped_ranges(self):
        assert list(iter_permutations(3, 5, 5)) == []
        assert len(list(iter_permutations(3, 4, 99))) == 2

    def test_rank_matches_lexicographic_order(self):
        for n in range(1, 7):
            ordered = list(itertools_permutations(range(1, n + 1)))
            assert [permutation_at_rank(n, r).image for r in range(len(ordered))] == ordered

    def test_rank_out_of_bounds(self):
        with pytest.raises(ValueError):
            permutation_at_rank(3, 6)


class TestCanonicalClass:
    def test_hand_examples(self):
        assert canonical_class(Permutation((1, 3, 2))).image == (1, 3, 2)
        assert canonical_class(identity(4)) == identity(4)
        assert canonical_class(Permutation((2, 3, 1))).image == (2, 3, 1)

    @given(st.permutations(list(range(1, 7))))
    def test_idempotent_and_least(self, image):
        p = Permutation(tuple(image))
        rep = canonical_class(p)
        assert canonical_class(rep) == rep
        inv = p.inverse()
        family = {p.image, inv.image, p.mirrored().image, inv.mirrored().image}
        assert rep.image == min(family)
        assert rep.image <= p.image
