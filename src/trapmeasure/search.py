"""Minimum trapezoid measure over permutations: exact and heuristic search.

The exact path enumerates all n! pairings (optionally one representative
per four-element symmetry class).  With several workers it cuts the
lexicographic rank space into many small contiguous ranges, about 32 per
worker, that a process pool hands out as workers free up; the reduction
runs in rank order, so results are identical for any worker count.  The
heuristic path is a seeded first-improvement descent over adjacent
transpositions with random restarts, reporting an upper bound.
"""

from __future__ import annotations

import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .gasket import DecayFit, decay_fit
from .permutations import (
    Permutation,
    canonical_class,
    composite_permutation,
    identity,
    iter_permutations,
    reversal,
)
from .trapezoid import TrapezoidSpec, area

# n! beyond this is not desk-scale; an explicit override is required.
EXHAUSTIVE_GUARD = 10

WORKERS_ENV_VAR = "TRAPMEASURE_THREADS"

# contiguous rank ranges per worker in a parallel exhaustive search
RANGES_PER_WORKER = 32


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else the environment override, else CPU count."""
    if workers is not None:
        if workers < 1:
            raise ValueError(f"worker count must be positive, got {workers}")
        return workers
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV_VAR}={env!r} is not an integer") from None
        if value < 1:
            raise ValueError(f"{WORKERS_ENV_VAR} must be positive, got {value}")
        return value
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
    wall_time: float


def _range_champion(
    args: tuple[int, int, int, bool],
) -> tuple[Fraction | None, tuple[int, ...] | None, int]:
    """Best (area, image) over a lexicographic rank range, plus eval count.

    A fully pruned range yields (None, None, 0).
    """
    n, start, stop, use_symmetry = args
    best_area: Fraction | None = None
    best_image: tuple[int, ...] | None = None
    evaluated = 0
    for perm in iter_permutations(n, start, stop):
        if use_symmetry and canonical_class(perm).image != perm.image:
            continue
        value = area(TrapezoidSpec(n, perm))
        evaluated += 1
        if best_area is None or (value, perm.image) < (best_area, best_image):
            best_area, best_image = value, perm.image
    return best_area, best_image, evaluated


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
    if n > EXHAUSTIVE_GUARD and not force:
        raise ValueError(
            f"n={n} means {n}! exact sweeps; pass force=True if you really want this"
        )
    started = time.perf_counter()
    worker_count = resolve_workers(workers)
    total = math.factorial(n)
    worker_count = min(worker_count, total)
    if worker_count == 1:
        results = [_range_champion((n, 0, total, use_symmetry))]
    else:
        # symmetry pruning keeps far more of the low ranks, so many small
        # ranges handed out on demand balance the load across workers
        ranges = min(total, RANGES_PER_WORKER * worker_count)
        jobs = [
            (n, total * i // ranges, total * (i + 1) // ranges, use_symmetry)
            for i in range(ranges)
        ]
        with ProcessPoolExecutor(max_workers=worker_count) as pool:
            results = list(pool.map(_range_champion, jobs))
    best_area: Fraction | None = None
    best_image: tuple[int, ...] | None = None
    evaluated = 0
    for part_area, part_image, part_count in results:
        evaluated += part_count
        if part_area is None:
            continue
        if best_area is None or (part_area, part_image) < (best_area, best_image):
            best_area, best_image = part_area, part_image
    return AlphaRecord(
        n=n,
        alpha=best_area,
        argmin=Permutation(best_image),
        mode="exhaustive",
        perms_evaluated=evaluated,
        wall_time=time.perf_counter() - started,
    )


def alpha_heuristic(n: int, budget: int, seed: int) -> AlphaRecord:
    """Seeded local-search upper bound on the minimum area.

    Starts from the identity, reversal, and composite permutations (always
    evaluated, so the result can never exceed their best), then runs
    first-improvement descent over adjacent transpositions with random
    restarts.  ``budget`` caps objective evaluations; cached repeats count
    toward the budget but not toward ``perms_evaluated``.  Deterministic
    for a fixed seed.
    """
    if n < 2:
        raise ValueError(f"heuristic search needs n >= 2, got {n}")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    started = time.perf_counter()
    rng = random.Random(seed)
    cache: dict[tuple[int, ...], Fraction] = {}
    attempts = 0

    def evaluate(image: tuple[int, ...]) -> Fraction:
        nonlocal attempts
        attempts += 1
        value = cache.get(image)
        if value is None:
            value = area(TrapezoidSpec(n, Permutation(image)))
            cache[image] = value
        return value

    seeds = []
    for candidate in (identity(n), reversal(n), composite_permutation(n)):
        if candidate.image not in seeds:
            seeds.append(candidate.image)
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
    return AlphaRecord(
        n=n,
        alpha=best_area,
        argmin=Permutation(best_image),
        mode="heuristic",
        perms_evaluated=len(cache),
        wall_time=time.perf_counter() - started,
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
