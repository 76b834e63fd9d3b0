"""Minimum trapezoid measure over permutations: exact and heuristic search.

The exact path enumerates all n! pairings (optionally one representative
per four-element symmetry class) as blocks of images unranked in numpy,
with their inverses from a fixed table, drops the non-representatives of
each block with a vector form of ``canonical_class``, and scores the
rest, pooled over consecutive blocks into batches of ``_KERNEL_ROWS``,
with the exact integer kernel of ``trapezoid.FareyGrid``; each range's
winner is checked against the exact sweep.  With several workers it
cuts the lexicographic rank space into many small contiguous ranges,
about 32 per worker, that a process pool of at most one process per CPU
hands out as workers free up; the reduction runs in rank order, so
results are identical for any worker count.  Searches of fewer than
``POOL_MIN_RANKS`` ranks (n <= 8) take less time than starting the pool
and run in this process.  Exactness bounds n to 15:
beyond it the base-(n+1) row codes of the filter overflow int64.  The
heuristic path is a seeded first-improvement descent over adjacent
transpositions with random restarts, reporting an upper bound.  Up to
``HEURISTIC_GRID_MAX_N`` it scores every neighbour a scan may reach (and
each restart with its first scan's neighbours) in one call of the grid's
exact multi-limb ``FareyGrid.numerators``, then replays the descent in
order on those integers, so budget, restarts and results are those of one
sweep per permutation; one ``Fraction`` is built for the reported
minimum, which is checked against the exact sweep.  Above the cap each
permutation gets its own ``area`` sweep.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .gasket import DecayFit, decay_fit
from .permutations import (
    Permutation,
    composite_permutation,
    identity,
    permutation_at_rank,
    reversal,
)
from .trapezoid import FareyGrid, TrapezoidSpec, area, farey_grid

# n! beyond this is not desk-scale; an explicit override is required.
EXHAUSTIVE_GUARD = 10

# contiguous rank ranges per worker in a parallel exhaustive search
RANGES_PER_WORKER = 32

# below this many ranks the search runs in this process whatever the worker
# count: on 2 cores 8! ranks take about 0.02 s, against 0.08 s on a 2-worker
# pool whose first use also imports the process machinery, while 9! ranks
# take 0.11-0.15 s either way and 10! about 1.6 s alone and 0.8 s on two
POOL_MIN_RANKS = 100_000

# largest n whose heuristic scores each neighbourhood in one Farey-grid call;
# past it the grid's K ~ 0.3 (2n)^2 heights cost more than one exact sweep
# per permutation
HEURISTIC_GRID_MAX_N = 34


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else the number of CPUs this process may run on
    (its affinity mask where the platform has one, so a container pinned to
    2 CPUs gets 2 workers, not the host's count)."""
    if workers is not None:
        if workers < 1:
            raise ValueError(f"worker count must be positive, got {workers}")
        return workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class AlphaRecord:
    """Outcome of one minimum-area search.

    In exhaustive mode ``alpha`` is the true minimum and ``argmin`` the
    lexicographically least minimizer; in heuristic mode ``alpha`` is only
    an upper bound on the true value.
    """

    n: int
    alpha: Fraction
    argmin: Permutation
    mode: str
    perms_evaluated: int


# enumeration blocks hold every order of the last (up to) six entries
_TAIL = 6

# kept permutations per kernel call: the kept rows of consecutive blocks
# are pooled and cut into calls of this many, which amortizes numpy's
# per-call cost (a block keeps about 190 rows at n = 8)
_KERNEL_ROWS = 1024


@lru_cache(maxsize=None)
def _block_orders(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of the enumeration blocks of n, and their 1-based argsort.

    Row r of the first keeps the first n - m places and then lists the
    r-th of the m! orders of the last m places, in lexicographic order
    (m = min(n, 6)); row r of the second is where each place ends up.
    """
    head = n - min(n, _TAIL)
    orders = np.array(
        [(*range(head), *(head + i for i in order)) for order in itertools.permutations(range(n - head))],
        dtype=np.intp,
    )
    return orders, np.argsort(orders, axis=1) + 1


def _rank_blocks(n: int, start: int, stop: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Images of the ranks [start, stop) in lexicographic order, as blocks, with their inverses.

    Ranks in one aligned run of m! share their first n - m entries and
    list every order of the last m, so each block is the run's first
    permutation, whose last m entries are sorted, reordered by a fixed
    index table.  Row r puts first[i] at place places[r, i], so its inverse
    maps value v to places[r, i] for the i where first[i] = v: each block's
    inverses are the table's cached argsort with its columns taken in the
    order of one argsort of ``first``, with no per-row sort.
    """
    orders, places = _block_orders(n)
    size = len(orders)
    for base in range(start - start % size, stop, size):
        first = np.array(permutation_at_rank(n, base).image, dtype=np.int64)
        lo, hi = max(start, base) - base, min(stop, base + size) - base
        yield first[orders[lo:hi]], places[lo:hi][:, first.argsort()]


def _canonical_mask(images: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Rows that are their own ``canonical_class`` representative, given each row's inverse.

    Rows are compared as base-(n+1) codes, which order them as the
    lexicographic tuple order does while (n+1)^n < 2^63.
    """
    n = images.shape[1]
    powers = (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # the mirror r x r, n + 1 - x reversed, has code top - x @ reversed powers
    reverse = powers[::-1].copy()
    top = (n + 1) * int(powers.sum())
    least = inverse @ powers
    np.minimum(least, top - images @ reverse, out=least)
    np.minimum(least, top - inverse @ reverse, out=least)
    return images @ powers <= least


def _kept_batches(n: int, start: int, stop: int, use_symmetry: bool, rows: int) -> Iterator[np.ndarray]:
    """The kept images of the ranks [start, stop), in rank order, ``rows`` at a time.

    The kept rows of consecutive blocks are pooled and cut into batches of
    ``rows``; the last batch of the range takes what is left.
    """
    pending: list[np.ndarray] = []
    held = 0
    for images, inverse in _rank_blocks(n, start, stop):
        if use_symmetry:
            images = images[_canonical_mask(images, inverse)]
        pending.append(images)
        held += len(images)
        if held >= rows:
            pooled = np.concatenate(pending)
            full = held - held % rows
            yield from np.split(pooled[:full], full // rows)
            pending, held = [pooled[full:]], held - full
    if held:
        yield np.concatenate(pending)


def _checked_area(n: int, grid: FareyGrid, num: int, image: tuple[int, ...]) -> Fraction:
    """The grid numerator ``num`` of ``image`` as an area, checked against the exact sweep."""
    value = Fraction(num, grid.denominator)
    if value != area(TrapezoidSpec(n, Permutation(image))):
        raise AssertionError(f"grid kernel disagrees with the exact sweep at {image}")
    return value


def _range_champion(
    args: tuple[int, int, int, bool],
) -> tuple[Fraction | None, tuple[int, ...] | None, int]:
    """Best (area, image) over a lexicographic rank range, plus eval count.

    Areas come from the exact grid kernel; the winner is checked against
    the exact sweep.  A fully pruned range yields (None, None, 0).
    """
    n, start, stop, use_symmetry = args
    grid = farey_grid(n)
    champions: list[tuple[int, tuple[int, ...]]] = []
    evaluated = 0
    for rows in _kept_batches(n, start, stop, use_symmetry, _KERNEL_ROWS):
        evaluated += len(rows)
        nums = grid.area_numerators(rows)
        # rows are in rank order, so the first minimum is the least image
        i = int(nums.argmin())
        champions.append((int(nums[i]), tuple(rows[i].tolist())))
    if not champions:
        return None, None, 0
    num, image = min(champions)
    return _checked_area(n, grid, num, image), image, evaluated


def alpha_exhaustive(
    n: int,
    use_symmetry: bool = True,
    workers: int | None = None,
    force: bool = False,
) -> AlphaRecord:
    """Exact minimum area over all permutations of {1..n}.

    Symmetry pruning keeps one representative per class {s, s^-1, r s r,
    r s^-1 r}; because the four members share the area and the class
    representative is its lexicographic minimum, the reported argmin is
    the same with or without pruning.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    # the exactness limit, checked before any work and not lifted by force;
    # capping the exponent keeps the check cheap and changes no answer.  It
    # also keeps the grid's int64 numerators: D < 2^62 holds up to n = 21.
    if (n + 1) ** min(n, 63) >= 2**63:
        raise ValueError(f"n={n}: base-{n + 1} permutation codes overflow int64")
    if n > EXHAUSTIVE_GUARD and not force:
        raise ValueError(
            f"n={n} means {n}! exact sweeps; pass force=True if you really want this"
        )
    total = math.factorial(n)
    # the pool forks all its workers at once, so never more than the CPUs
    worker_count = min(resolve_workers(workers), resolve_workers(), total)
    if worker_count == 1 or total < POOL_MIN_RANKS:
        results = [_range_champion((n, 0, total, use_symmetry))]
    else:
        # imported here so that a search that never forks loads no
        # process machinery
        from concurrent.futures import ProcessPoolExecutor

        # symmetry pruning keeps far more of the low ranks, so many small
        # ranges handed out on demand balance the load across workers
        ranges = min(total, RANGES_PER_WORKER * worker_count)
        jobs = [
            (n, total * i // ranges, total * (i + 1) // ranges, use_symmetry)
            for i in range(ranges)
        ]
        with ProcessPoolExecutor(max_workers=worker_count) as pool:
            results = list(pool.map(_range_champion, jobs))
    alpha, argmin = min((value, image) for value, image, _ in results if value is not None)
    return AlphaRecord(
        n=n,
        alpha=alpha,
        argmin=Permutation(argmin),
        mode="exhaustive",
        perms_evaluated=sum(count for _, _, count in results),
    )


def _adjacent_swaps(image: tuple[int, ...], count: int) -> list[tuple[int, ...]]:
    """``image`` with entries pos and pos + 1 swapped, for pos < count."""
    swaps = []
    for pos in range(count):
        neighbor = list(image)
        neighbor[pos], neighbor[pos + 1] = neighbor[pos + 1], neighbor[pos]
        swaps.append(tuple(neighbor))
    return swaps


def _seeds(n: int, budget: int) -> list[tuple[int, ...]]:
    """The distinct images of identity, reversal and composite, in that order.

    The heuristic always evaluates them, so a smaller budget is refused.
    """
    seeds = []
    for candidate in (identity(n), reversal(n), composite_permutation(n)):
        if candidate.image not in seeds:
            seeds.append(candidate.image)
    if budget < len(seeds):
        raise ValueError(f"budget {budget} is below the {len(seeds)} seed permutations always evaluated")
    return seeds


def alpha_heuristic(n: int, budget: int, seed: int) -> AlphaRecord:
    """Seeded local-search upper bound on the minimum area.

    Starts from the identity, reversal, and composite permutations (always
    evaluated, so the result can never exceed their best), then runs
    first-improvement descent over adjacent transpositions with random
    restarts.  ``budget`` caps objective evaluations; cached repeats count
    toward the budget but not toward ``perms_evaluated``.  A budget below
    the number of distinct seed permutations is refused.  Deterministic
    for a fixed seed.  Up to ``HEURISTIC_GRID_MAX_N`` the values come from
    batched Farey-grid calls, and the reported minimum is checked against
    the exact sweep.
    """
    if n < 2:
        raise ValueError(f"heuristic search needs n >= 2, got {n}")
    seeds = _seeds(n, budget)
    rng = random.Random(seed)
    grid = farey_grid(n) if n <= HEURISTIC_GRID_MAX_N else None
    # every value computed so far, speculative ones included; only the
    # images the descent really evaluates enter `evaluated`.  On the grid
    # the values are integer numerators over its one denominator, which
    # order as the areas do; off it they are the sweep's Fractions
    scored: dict[tuple[int, ...], int | Fraction] = {}
    evaluated: set[tuple[int, ...]] = set()
    attempts = 0

    def score(images: list[tuple[int, ...]]) -> None:
        missing = [image for image in images if image not in scored]
        if grid is None:
            scored.update((image, area(TrapezoidSpec(n, Permutation(image)))) for image in missing)
        elif missing:
            scored.update(zip(missing, grid.numerators(np.array(missing))))

    def evaluate(image: tuple[int, ...]) -> int | Fraction:
        nonlocal attempts
        attempts += 1
        if image not in scored:
            score([image])
        evaluated.add(image)
        return scored[image]

    score(seeds)
    # candidates are (value, image) pairs, so ties go to the least image
    best = current = min((evaluate(image), image) for image in seeds)
    space = math.factorial(n)
    while attempts < budget and len(evaluated) < space:
        # the neighbours this scan may reach before the budget runs out;
        # on the grid they are all scored in one call, then replayed in order
        scan = _adjacent_swaps(current[1], min(n - 1, budget - attempts))
        if grid is not None:
            score(scan)
        for neighbor in scan:
            candidate = (evaluate(neighbor), neighbor)
            if candidate < current:
                current = candidate
                break
        else:
            if attempts >= budget:
                break
            restart = list(range(1, n + 1))
            rng.shuffle(restart)
            image = tuple(restart)
            if grid is not None:
                # the restart shares one grid call with its first scan
                score([image, *_adjacent_swaps(image, min(n - 1, budget - attempts - 1))])
            current = (evaluate(image), image)
        best = min(best, current)
    value, image = best
    return AlphaRecord(
        n=n,
        alpha=value if grid is None else _checked_area(n, grid, value, image),
        argmin=Permutation(image),
        mode="heuristic",
        perms_evaluated=len(evaluated),
    )


@dataclass(frozen=True)
class AlphaScanReport:
    """Scan of minimum areas with monotonicity and decay diagnostics.

    ``violations`` lists adjacent n where an exact value increased;
    ``c_estimates`` are alpha(n) * log(n); ``upper_bound_fit`` fits the
    composite-permutation areas against (log n)^-p (None when fewer than
    three usable points).
    """

    records: tuple[AlphaRecord, ...]
    violations: tuple[tuple[int, int], ...]
    c_estimates: tuple[tuple[int, float], ...]
    upper_bound_fit: DecayFit | None


def alpha_scan(
    max_n: int,
    exhaustive_limit: int = 8,
    budget: int = 2000,
    seed: int = 0,
    workers: int | None = None,
) -> AlphaScanReport:
    """Search n = 1..max_n, exact up to the limit, heuristic beyond."""
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    # every refusal comes before any search; the scan has no force
    if exhaustive_limit < 1:
        raise ValueError(f"exhaustive limit must be at least 1, got {exhaustive_limit}")
    if max_n > exhaustive_limit:
        _seeds(max_n, budget)  # n = 2 has 2 seeds and every larger n 3
    top = min(max_n, exhaustive_limit)
    if top > EXHAUSTIVE_GUARD:
        raise ValueError(
            f"n={top} means {top}! exact sweeps; the scan searches exhaustively up to n={EXHAUSTIVE_GUARD}"
        )
    records = []
    for n in range(1, max_n + 1):
        if n <= exhaustive_limit:
            records.append(alpha_exhaustive(n, workers=workers))
        else:
            records.append(alpha_heuristic(n, budget=budget, seed=seed))
    violations = tuple(
        (a.n, b.n)
        for a, b in zip(records, records[1:])
        if a.mode == "exhaustive" and b.mode == "exhaustive" and b.alpha > a.alpha
    )
    c_estimates = tuple(
        (rec.n, float(rec.alpha) * math.log(rec.n)) for rec in records if rec.n >= 2
    )
    fit_pairs = [
        (math.log(n), float(area(TrapezoidSpec(n, composite_permutation(n)))))
        for n in range(3, max_n + 1)
    ]
    fit = decay_fit(fit_pairs) if len(fit_pairs) >= 3 else None
    return AlphaScanReport(
        records=tuple(records),
        violations=violations,
        c_estimates=c_estimates,
        upper_bound_fit=fit,
    )
