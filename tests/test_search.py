import concurrent.futures
import dataclasses
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from trapmeasure import search
from trapmeasure.permutations import (
    Permutation,
    canonical_class,
    composite_permutation,
    digit_swap_permutation,
    identity,
    iter_permutations,
    reversal,
)
from trapmeasure.search import (
    alpha_exhaustive,
    alpha_heuristic,
    alpha_scan,
    resolve_workers,
)
from trapmeasure.trapezoid import TrapezoidSpec, area, farey_grid

import reference

F = Fraction


class TestResolveWorkers:
    def test_explicit_wins(self):
        assert resolve_workers(3) == 3

    def test_default_positive(self):
        assert resolve_workers(None) >= 1

    def test_default_follows_cpu_affinity(self, monkeypatch):
        # a process pinned to one CPU of a 64-core host gets one worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_workers(None) == 1

    def test_default_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_workers(None) == 64

    def test_environment_sets_nothing(self, monkeypatch):
        # the worker count comes from the argument or the CPUs alone
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for value in ("5", "0", "junk"):
            monkeypatch.setenv("TRAPMEASURE_THREADS", value)
            assert resolve_workers(None) == 2

    def test_record_has_no_wall_time(self):
        # every field of a search result is determined by its inputs
        assert [f.name for f in dataclasses.fields(search.AlphaRecord)] == [
            "n",
            "alpha",
            "argmin",
            "mode",
            "perms_evaluated",
        ]


class InProcessPool:
    """Stand-in for ``ProcessPoolExecutor`` that maps the ranges in this
    process and records each pool's size and jobs."""

    def __init__(self):
        self.sizes: list[int] = []
        self.jobs: list[list[tuple]] = []

    def __call__(self, max_workers):
        self.sizes.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        self.jobs.append(list(jobs))
        return map(fn, self.jobs[-1])


@pytest.fixture
def in_process_pool(monkeypatch):
    """Every search forks on 8 CPUs, through the stand-in pool."""
    pool = InProcessPool()
    monkeypatch.setattr(search, "POOL_MIN_RANKS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return pool


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

    def test_worker_determinism(self, in_process_pool):
        single = alpha_exhaustive(5, workers=1)
        split = alpha_exhaustive(5, workers=3)
        assert in_process_pool.sizes == [3]
        assert single.alpha == split.alpha
        assert single.argmin == split.argmin
        assert single.perms_evaluated == split.perms_evaluated

    def test_range_split_independent_of_worker_count(self, in_process_pool):
        for n in (7, 8):
            records = [alpha_exhaustive(n, workers=w) for w in (1, 2, 5)]
            for record in records[1:]:
                assert record.alpha == records[0].alpha
                assert record.argmin == records[0].argmin
                assert record.perms_evaluated == records[0].perms_evaluated
        assert in_process_pool.sizes == [2, 5, 2, 5]
        assert [len(jobs) for jobs in in_process_pool.jobs] == [64, 160, 64, 160]

    def test_ranges_tile_rank_space_once(self, in_process_pool):
        record = alpha_exhaustive(6, use_symmetry=False, workers=4)
        assert record.perms_evaluated == 720
        record = alpha_exhaustive(7, use_symmetry=False, workers=4)
        assert record.perms_evaluated == 5040
        assert in_process_pool.sizes == [4, 4]
        for jobs, total in zip(in_process_pool.jobs, (720, 5040)):
            assert len(jobs) == 128
            cuts = [(start, stop) for _, start, stop, _ in jobs]
            assert [start for start, _ in cuts] == [0] + [stop for _, stop in cuts[:-1]]
            assert cuts[-1][1] == total

    def test_small_search_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("process pool started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert math.factorial(8) < search.POOL_MIN_RANKS <= math.factorial(9)
        record = alpha_exhaustive(8, workers=2)
        assert (record.alpha, record.perms_evaluated) == (F(9, 16), 10_558)
        with pytest.raises(AssertionError, match="process pool started"):
            alpha_exhaustive(9, workers=2)

    def test_pool_never_exceeds_the_cpus(self, monkeypatch):
        # the pool forks every worker at once, so a huge request must not
        # reach it; the stand-in records the size and starts nothing
        sizes = []

        def recording_pool(max_workers):
            sizes.append(max_workers)
            raise RuntimeError("stand-in pool")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
        with pytest.raises(RuntimeError, match="stand-in pool"):
            alpha_exhaustive(9, workers=64)
        assert sizes == [2]

    def test_ranges_follow_the_pool_size(self, in_process_pool, monkeypatch):
        # 64 workers asked of 2 CPUs: 2 workers' worth of ranges, not 2,048
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        record = alpha_exhaustive(9, workers=64)
        assert in_process_pool.sizes == [2]
        assert len(in_process_pool.jobs[0]) == 2 * search.RANGES_PER_WORKER
        assert record == alpha_exhaustive(9, workers=2)
        assert (record.alpha, record.argmin, record.perms_evaluated) == (F(5, 9), reversal(9), 92_126)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_range_champion_is_least_minimizer(self, n):
        # ranges of n >= 4 hold tied minima, within and across blocks
        total = math.factorial(n)
        cuts = [(0, total)] + [(total * i // 5, total * (i + 1) // 5) for i in range(5)]
        for start, stop in cuts:
            if start == stop:
                continue
            best = min((area(TrapezoidSpec(n, p)), p.image) for p in iter_permutations(n, start, stop))
            assert search._range_champion((n, start, stop, False))[:2] == best

    # (start, stop, use_symmetry) -> (area, image, count), from the
    # per-block kernel that scored at most 256 rows a call; the cuts fall
    # inside blocks of 720 ranks and span several of them
    RANGE_PINS = {
        7: {
            (0, 5040, True): (F(4, 7), (7, 6, 5, 4, 3, 2, 1), 1388),
            (359, 1801, True): (F(1067, 1680), (3, 2, 7, 6, 5, 4, 1), 685),
            (359, 1801, False): (F(1067, 1680), (3, 2, 7, 6, 5, 4, 1), 1442),
            (733, 2117, True): (F(1067, 1680), (3, 2, 7, 6, 5, 4, 1), 695),
            (733, 2117, False): (F(1067, 1680), (3, 2, 7, 6, 5, 4, 1), 1384),
            (4040, 5039, True): (F(143, 245), (7, 6, 4, 5, 3, 2, 1), 65),
            (4040, 5039, False): (F(143, 245), (7, 6, 4, 5, 3, 2, 1), 999),
        },
        8: {
            (0, 40320, True): (F(9, 16), (8, 7, 6, 5, 4, 3, 2, 1), 10558),
            (359, 1801, True): (F(1307, 1920), (1, 4, 3, 8, 7, 6, 5, 2), 962),
            (359, 1801, False): (F(1307, 1920), (1, 4, 3, 8, 7, 6, 5, 2), 1442),
            (5773, 16229, True): (F(68099, 110880), (3, 8, 7, 6, 5, 4, 2, 1), 5293),
            (5773, 16229, False): (F(68099, 110880), (3, 8, 7, 6, 5, 4, 2, 1), 10456),
            (39320, 40319, True): (F(137, 240), (8, 7, 4, 3, 6, 5, 2, 1), 19),
            (39320, 40319, False): (F(137, 240), (8, 7, 4, 3, 6, 5, 2, 1), 999),
        },
        9: {
            (0, 362880, True): (F(5, 9), (9, 8, 7, 6, 5, 4, 3, 2, 1), 92126),
            (359, 1801, True): (F(1547, 2160), (1, 2, 5, 4, 9, 8, 7, 6, 3), 1012),
            (359, 1801, False): (F(1547, 2160), (1, 2, 5, 4, 9, 8, 7, 6, 3), 1442),
            (51853, 145253, True): (F(4231, 7128), (4, 3, 9, 8, 7, 6, 5, 2, 1), 45317),
            (51853, 145253, False): (F(4231, 7128), (4, 3, 9, 8, 7, 6, 5, 2, 1), 93400),
            (361880, 362879, True): (F(319, 567), (9, 8, 7, 5, 6, 4, 3, 2, 1), 6),
            (361880, 362879, False): (F(67, 120), (9, 8, 7, 4, 3, 6, 5, 2, 1), 999),
        },
    }

    @pytest.mark.parametrize("n", [7, 8, 9])
    @pytest.mark.parametrize("rows", [1, 37, 4096, None])
    def test_range_champion_independent_of_batch_size(self, n, rows, monkeypatch):
        # None keeps the default; 1 scores one row a call, 37 cuts blocks
        # mid-way, 4096 pools several blocks
        if rows is not None:
            monkeypatch.setattr(search, "_KERNEL_ROWS", rows)
        for (start, stop, use_symmetry), want in self.RANGE_PINS[n].items():
            # one row a call costs about 0.2 ms a row: only the short ranges
            if rows == 1 and want[2] > 2000:
                continue
            assert search._range_champion((n, start, stop, use_symmetry)) == want

    def test_alpha_9_pinned(self):
        record = alpha_exhaustive(9, workers=2)
        assert record.alpha == F(5, 9)
        assert record.argmin == reversal(9)
        assert record.perms_evaluated == 92_126

    def test_alpha_10_pinned(self):
        record = alpha_exhaustive(10, workers=2)
        assert record.alpha == F(329, 600)
        assert record.argmin.image == (10, 9, 8, 5, 4, 7, 6, 3, 2, 1)
        assert record.perms_evaluated == 912_908

    @pytest.mark.parametrize("n", [16, 20, 1000])
    def test_exactness_limit_refused_before_enumeration(self, n, monkeypatch):
        def enumerate_anyway(args):
            raise RuntimeError("enumeration started")

        monkeypatch.setattr(search, "_range_champion", enumerate_anyway)
        with pytest.raises(ValueError):
            alpha_exhaustive(n, workers=1, force=True)

    def test_largest_admitted_n_has_int64_grid_numerators(self, monkeypatch):
        # the base-(n+1) code bound admits n = 15 and refuses 16, and the
        # grid's int64 numerators (D < 2^62) hold up to n = 21, so the code
        # bound is the only exactness check the search needs
        def enumerate_anyway(args):
            raise RuntimeError("enumeration started")

        monkeypatch.setattr(search, "_range_champion", enumerate_anyway)
        with pytest.raises(RuntimeError, match="enumeration started"):
            alpha_exhaustive(15, workers=1, force=True)
        assert farey_grid(15).denominator < 2**62
        with pytest.raises(ValueError, match="codes overflow int64"):
            alpha_exhaustive(16, workers=1, force=True)

    def test_range_winner_checked_against_exact_sweep(self, monkeypatch):
        monkeypatch.setattr(search, "area", lambda spec: F(1))
        with pytest.raises(AssertionError):
            alpha_exhaustive(4, workers=1)

    def test_never_beaten_by_named_specs(self):
        for n in (2, 3, 4, 5):
            record = alpha_exhaustive(n, workers=1)
            for perm in (identity(n), reversal(n), composite_permutation(n)):
                assert record.alpha <= area(TrapezoidSpec(n, perm))

    def test_alpha_within_bounds(self):
        for n in (1, 2, 3, 4, 5, 6):
            record = alpha_exhaustive(n, workers=1)
            assert F(1, n) <= record.alpha <= 1


class TestBatchEnumeration:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_vector_filter_keeps_class_representatives(self, n):
        perms = list(iter_permutations(n))
        images = np.array([p.image for p in perms])
        inverse = np.array([reference.inverse(p).image for p in perms])
        kept = [canonical_class(p).image == p.image for p in perms]
        assert search._canonical_mask(images, inverse).tolist() == kept

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rank_blocks_match_iter_permutations(self, n):
        total = math.factorial(n)
        cuts = {(0, total), (total - 1, total), (total // 3, total // 3 + 1)}
        cuts |= {(rank, rank + 1) for rank in range(min(total, 30))}
        cuts |= {(total // 7, 2 * total // 5 + 1), (max(0, total // 2 - 1), total)}
        for start, stop in cuts:
            blocks = list(search._rank_blocks(n, start, stop))
            got = [tuple(row) for block, _ in blocks for row in block.tolist()]
            assert got == [p.image for p in iter_permutations(n, start, stop)]
            for block, inverse in blocks:
                assert np.array_equal(inverse, np.argsort(block, axis=1) + 1)

    @pytest.mark.parametrize("rows", [1, 37, 1024, 7000])
    def test_kept_batches_pool_blocks_in_rank_order(self, rows):
        # every batch but the last holds exactly ``rows`` kept rows, pooled
        # across blocks; together they are the kept rows in rank order
        n, start, stop = 8, 359, 30_001
        batches = list(search._kept_batches(n, start, stop, True, rows))
        assert all(len(b) == rows for b in batches[:-1]) and 0 < len(batches[-1]) <= rows
        kept = [p.image for p in iter_permutations(n, start, stop) if canonical_class(p).image == p.image]
        assert [tuple(row) for b in batches for row in b.tolist()] == kept


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

    def test_budget_below_seed_count_refused(self):
        # n = 2 has two distinct seeds (the composite is the identity),
        # n = 3 has three; all are evaluated before the budget applies
        with pytest.raises(ValueError):
            alpha_heuristic(2, budget=1, seed=1)
        with pytest.raises(ValueError):
            alpha_heuristic(3, budget=2, seed=1)
        assert alpha_heuristic(2, budget=2, seed=1).perms_evaluated == 2
        assert alpha_heuristic(3, budget=3, seed=1).perms_evaluated == 3


def _sequential_heuristic(n, budget, seed):
    """The heuristic's descent with one exact sweep per distinct permutation.

    The reference the batched search must reproduce: the same seeds,
    first-improvement order, budget accounting and restarts.
    """
    seeds = []
    for candidate in (identity(n), reversal(n), composite_permutation(n)):
        if candidate.image not in seeds:
            seeds.append(candidate.image)
    rng = random.Random(seed)
    cache = {}
    attempts = 0

    def evaluate(image):
        nonlocal attempts
        attempts += 1
        if image not in cache:
            cache[image] = area.__wrapped__(TrapezoidSpec(n, Permutation(image)))
        return cache[image]

    best_image = min(seeds, key=lambda img: (evaluate(img), img))
    best_area = cache[best_image]
    space = math.factorial(n) if n <= 12 else None
    current, current_area = best_image, best_area
    while attempts < budget:
        if space is not None and len(cache) >= space:
            break
        improved = False
        for pos in range(n - 1):
            if attempts >= budget:
                break
            neighbor = list(current)
            neighbor[pos], neighbor[pos + 1] = neighbor[pos + 1], neighbor[pos]
            neighbor = tuple(neighbor)
            value = evaluate(neighbor)
            if (value, neighbor) < (current_area, current):
                current, current_area = neighbor, value
                improved = True
                break
        if (current_area, current) < (best_area, best_image):
            best_area, best_image = current_area, current
        if not improved and attempts < budget:
            restart = list(range(1, n + 1))
            rng.shuffle(restart)
            current = tuple(restart)
            current_area = evaluate(current)
            if (current_area, current) < (best_area, best_image):
                best_area, best_image = current_area, current
    return best_area, best_image, len(cache)


def _record(n, budget, seed):
    record = alpha_heuristic(n, budget=budget, seed=seed)
    return record.alpha, record.argmin.image, record.perms_evaluated


CAP = search.HEURISTIC_GRID_MAX_N


class TestBatchedHeuristic:
    @pytest.mark.parametrize("n", range(2, 14))
    def test_small_n_matches_sequential_descent(self, n):
        # n <= 4 exhausts the space; the budgets end scans at varied places
        for seed, budget in ((0, 50), (3, 200), (42, 120)):
            assert _record(n, budget, seed) == _sequential_heuristic(n, budget, seed)

    @pytest.mark.parametrize(
        "n, seed, budget",
        [
            (16, 5, 500),
            (24, 1, 500),
            (24, 223970981, 500),
            (24, 9, 13),
            (24, 7, 61),
            (32, 5, 300),
            (33, 5, 300),
            (CAP, 5, 300),
            (CAP + 1, 5, 300),
            (40, 5, 300),
            (41, 5, 300),
        ],
    )
    def test_large_n_matches_sequential_descent(self, n, seed, budget):
        # budget 13 at n = 24 cuts the first scan after 10 of its 23 swaps;
        # CAP and CAP + 1 sit either side of the grid cap; 40 and 41 sit
        # either side of its earlier place
        assert _record(n, budget, seed) == _sequential_heuristic(n, budget, seed)

    def test_grid_path_makes_one_sweep(self, monkeypatch):
        calls = []

        def counting_area(spec):
            calls.append(spec.n)
            return area(spec)

        monkeypatch.setattr(search, "area", counting_area)
        record = alpha_heuristic(CAP, budget=200, seed=2)
        # the cross-check of the reported minimum and nothing else
        assert calls == [CAP]
        calls.clear()
        record = alpha_heuristic(CAP + 1, budget=60, seed=2)
        assert len(calls) == record.perms_evaluated

    def test_wrong_exact_sweep_trips_cross_check(self, monkeypatch):
        monkeypatch.setattr(search, "area", lambda spec: F(1))
        with pytest.raises(AssertionError, match="grid kernel"):
            alpha_heuristic(12, budget=80, seed=0)

    def test_corrupted_grid_value_trips_cross_check(self, monkeypatch):
        class CorruptGrid:
            def __init__(self, grid):
                self.grid = grid
                self.denominator = grid.denominator

            def numerators(self, images):
                return [value - 1 for value in self.grid.numerators(images)]

        real = search.farey_grid
        monkeypatch.setattr(search, "farey_grid", lambda n: CorruptGrid(real(n)))
        with pytest.raises(AssertionError, match="grid kernel"):
            alpha_heuristic(20, budget=80, seed=0)


# perms_evaluated of alpha_heuristic(n, 300, seed) for seeds 0..9, from the
# heuristic that kept every grid score as a Fraction; every run reports the
# reversal, of area (n + 1) / 2n
HEURISTIC_PINS = {
    9: [249, 267, 244, 269, 258, 260, 270, 258, 258, 267],
    24: [285, 285, 284, 285, 280, 286, 284, 283, 283, 288],
    34: [284, 284, 282, 290, 283, 286, 285, 289, 289, 288],
}


@pytest.mark.parametrize("n", sorted(HEURISTIC_PINS))
def test_heuristic_records_pinned(n):
    for seed, count in enumerate(HEURISTIC_PINS[n]):
        assert _record(n, 300, seed) == (F(n + 1, 2 * n), reversal(n).image, count)


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

    @pytest.mark.parametrize(
        "max_n, limit, budget, message",
        [
            (4, -1, 2000, "exhaustive limit"),
            (4, 0, 2000, "exhaustive limit"),
            (10, 9, 1, "budget"),
            # n = 2 has 2 seeds and n = 3 has 3: the largest n decides
            (3, 1, 2, "budget"),
        ],
    )
    def test_refused_before_any_search(self, monkeypatch, max_n, limit, budget, message):
        def no_search(*args, **kwargs):
            raise RuntimeError("a search started")

        monkeypatch.setattr(search, "alpha_exhaustive", no_search)
        monkeypatch.setattr(search, "alpha_heuristic", no_search)
        with pytest.raises(ValueError, match=message):
            alpha_scan(max_n, exhaustive_limit=limit, budget=budget, seed=0, workers=1)
