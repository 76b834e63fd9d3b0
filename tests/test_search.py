from fractions import Fraction

import pytest

from trapmeasure.permutations import (
    composite_permutation,
    digit_swap_permutation,
    identity,
    reversal,
)
from trapmeasure.search import (
    alpha_exhaustive,
    alpha_heuristic,
    alpha_scan,
    resolve_workers,
)
from trapmeasure.trapezoid import TrapezoidSpec, area

F = Fraction


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("TRAPMEASURE_THREADS", "5")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("TRAPMEASURE_THREADS", "5")
        assert resolve_workers(None) == 5

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv("TRAPMEASURE_THREADS", "zero")
        with pytest.raises(ValueError):
            resolve_workers(None)
        monkeypatch.setenv("TRAPMEASURE_THREADS", "0")
        with pytest.raises(ValueError):
            resolve_workers(None)

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("TRAPMEASURE_THREADS", raising=False)
        assert resolve_workers(None) >= 1


class TestExhaustive:
    def test_trivial_single_square(self):
        record = alpha_exhaustive(1, workers=1)
        assert record.alpha == 1
        assert record.argmin.image == (1,)
        assert record.mode == "exhaustive"

    def test_two_strips(self):
        record = alpha_exhaustive(2, workers=1)
        assert record.alpha == F(3, 4)
        assert record.argmin.image == (2, 1)

    def test_three_strips_reversal_wins(self):
        record = alpha_exhaustive(3, workers=1)
        assert record.alpha == F(2, 3)
        assert record.argmin.image == (3, 2, 1)

    def test_guard_rejects_large_n(self):
        with pytest.raises(ValueError):
            alpha_exhaustive(11, workers=1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_symmetry_pruning_sound(self, n):
        pruned = alpha_exhaustive(n, use_symmetry=True, workers=1)
        full = alpha_exhaustive(n, use_symmetry=False, workers=1)
        assert pruned.alpha == full.alpha
        assert pruned.argmin == full.argmin
        assert pruned.perms_evaluated <= full.perms_evaluated

    def test_worker_determinism(self):
        single = alpha_exhaustive(5, workers=1)
        split = alpha_exhaustive(5, workers=3)
        assert single.alpha == split.alpha
        assert single.argmin == split.argmin
        assert single.perms_evaluated == split.perms_evaluated

    def test_range_split_independent_of_worker_count(self):
        records = [alpha_exhaustive(7, workers=w) for w in (1, 2, 5)]
        for record in records[1:]:
            assert record.alpha == records[0].alpha
            assert record.argmin == records[0].argmin
            assert record.perms_evaluated == records[0].perms_evaluated

    def test_ranges_tile_rank_space_once(self):
        record = alpha_exhaustive(6, use_symmetry=False, workers=4)
        assert record.perms_evaluated == 720

    def test_never_beaten_by_named_specs(self):
        for n in (2, 3, 4, 5):
            record = alpha_exhaustive(n, workers=1)
            for perm in (identity(n), reversal(n), composite_permutation(n)):
                assert record.alpha <= area(TrapezoidSpec(n, perm))

    def test_alpha_within_bounds(self):
        for n in (1, 2, 3, 4, 5, 6):
            record = alpha_exhaustive(n, workers=1)
            assert F(1, n) <= record.alpha <= 1


class TestHeuristic:
    def test_exhausts_tiny_space(self):
        record = alpha_heuristic(2, budget=50, seed=0)
        assert record.alpha == F(3, 4)
        assert record.mode == "heuristic"

    def test_seeded_by_reversal(self):
        record = alpha_heuristic(3, budget=5, seed=1)
        assert record.alpha <= F(2, 3)

    def test_never_worse_than_composite_seed(self):
        bound = area(TrapezoidSpec(9, digit_swap_permutation(2)))
        record = alpha_heuristic(9, budget=30, seed=3)
        assert record.alpha <= bound

    def test_deterministic_per_seed(self):
        a = alpha_heuristic(6, budget=200, seed=42)
        b = alpha_heuristic(6, budget=200, seed=42)
        assert (a.alpha, a.argmin, a.perms_evaluated) == (b.alpha, b.argmin, b.perms_evaluated)

    def test_upper_bounds_exact_value(self):
        for n in (3, 4, 5, 6):
            exact = alpha_exhaustive(n, workers=1)
            rough = alpha_heuristic(n, budget=120, seed=0)
            assert exact.alpha <= rough.alpha

    def test_input_validation(self):
        with pytest.raises(ValueError):
            alpha_heuristic(1, budget=10, seed=0)
        with pytest.raises(ValueError):
            alpha_heuristic(3, budget=0, seed=0)


class TestScan:
    def test_small_scan_values(self):
        report = alpha_scan(3, workers=1)
        alphas = [r.alpha for r in report.records]
        assert alphas == [1, F(3, 4), F(2, 3)]
        assert report.violations == ()

    def test_modes_split_at_limit(self):
        report = alpha_scan(6, exhaustive_limit=4, budget=40, seed=0, workers=1)
        modes = [r.mode for r in report.records]
        assert modes == ["exhaustive"] * 4 + ["heuristic"] * 2

    def test_c_estimates_and_fit(self):
        report = alpha_scan(6, exhaustive_limit=6, workers=1)
        ns = [n for n, _ in report.c_estimates]
        assert ns == [2, 3, 4, 5, 6]
        assert all(value > 0 for _, value in report.c_estimates)
        # the composite-area curve is not monotone this early (size-1 blocks
        # pull the value back toward 1), so only the fit's presence is pinned
        fit = report.upper_bound_fit
        assert fit is not None
        assert len(fit.pairs) == 4
        assert all(abs(x) < 10 for x in (fit.c, fit.p))

    def test_fit_absent_for_tiny_scan(self):
        report = alpha_scan(4, exhaustive_limit=4, workers=1)
        assert report.upper_bound_fit is None

    def test_rejects_tiny_max(self):
        with pytest.raises(ValueError):
            alpha_scan(1)
