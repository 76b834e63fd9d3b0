"""Exact slices and exact areas of parallelogram trapezoids.

A trapezoid here is the union over j of the parallelogram joining the
j-th bottom subinterval [(j-1)/n, j/n] x {0} to the sigma(j)-th top
subinterval at height 1.  Its horizontal slice at height y is a union of
n intervals of width exactly 1/n whose left endpoints move linearly in y,
so the slice measure is a piecewise-linear function of y and the area is
its exact integral.

The sweep finds every height where two endpoint lines cross or come
within one interval width of each other (the only places the measure's
slope can change), evaluates the slice measure exactly there, and feeds
the resulting profile to the exact trapezoid rule, summed by parts per
distinct denominator into a single Fraction.  Endpoints at a fixed
rational height y = p/q share the denominator n*q, so each evaluation is
pure integer work, and the profile keeps those integers as they are
(heights p/q, values t/(n*q)) with no Fraction built per breakpoint.
Above n = 8 (the measured crossover, ``_VECTOR_CUTOFF``) the same
arithmetic runs through numpy in cache-sized blocks, in int32 when
q*(n + max|d|) < 2^30 bounds every endpoint and gap, else in int64
(refused at 2^62).  Candidate heights are reduced p/q with q < 2n, so
distinct ones differ by more than 1/(4n^2) and both paths sort them by
float value, with a cross-multiplied check that the order is strict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .exact import (
    Interval,
    IntervalUnion,
    PiecewiseLinearProfile,
    Rational,
    RationalLike,
    as_rational,
    integrate_plp,
    normalize,
)
from .permutations import Permutation, composite_plan, composite_permutation, digit_swap_permutation

# Above this size the per-breakpoint integer sweeps run through numpy: the
# measured crossover, where numpy's per-call overhead is repaid (random
# permutations, n = 8: 119 vs 145 us per area; n = 9: a tie; n = 24:
# 1251 vs 435 us).
_VECTOR_CUTOFF = 8


@dataclass(frozen=True)
class TrapezoidSpec:
    """Subdivision count n plus the permutation pairing bottom to top."""

    n: int
    sigma: Permutation

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if len(self.sigma) != self.n:
            raise ValueError(f"permutation length {len(self.sigma)} != n {self.n}")

    def parallelograms(self) -> tuple["Parallelogram", ...]:
        return tuple(
            Parallelogram(j=j, k=self.sigma(j), n=self.n) for j in range(1, self.n + 1)
        )


@dataclass(frozen=True)
class Parallelogram:
    """Strip joining bottom subinterval j to top subinterval k, out of n.

    Every horizontal slice is an interval of width exactly 1/n whose left
    endpoint moves linearly from (j-1)/n at the bottom to (k-1)/n at the
    top.
    """

    j: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if not (1 <= self.j <= self.n and 1 <= self.k <= self.n):
            raise ValueError(f"indices ({self.j}, {self.k}) outside 1..{self.n}")

    def slice_at(self, y: RationalLike) -> Interval:
        y = as_rational(y)
        if not 0 <= y <= 1:
            raise ValueError(f"slice height {y} outside [0, 1]")
        lo = (self.j - 1 + (self.k - self.j) * y) / Fraction(self.n)
        return Interval(lo, lo + Fraction(1, self.n))


def _displacements(spec: TrapezoidSpec) -> list[int]:
    # left endpoint line of parallelogram j (0-based j0): (j0 + d_j * y) / n
    return [spec.sigma.image[j0] - (j0 + 1) for j0 in range(spec.n)]


def slice_at(spec: TrapezoidSpec, y: RationalLike) -> IntervalUnion:
    """Exact horizontal slice at height y as a canonical interval union."""
    y = as_rational(y)
    if not 0 <= y <= 1:
        raise ValueError(f"slice height {y} outside [0, 1]")
    return normalize(piece.slice_at(y) for piece in spec.parallelograms())


def _interior_breakpoints(n: int, disp: list[int]) -> tuple[list[int], list[int]]:
    """Reduced interior breakpoint candidates (p, q), sorted by value.

    Candidates are the heights where two left-endpoint lines meet
    (L_i = L_j) or differ by exactly one width (L_i = L_j +- 1/n),
    generated pairwise, clipped to (0, 1), and deduplicated exactly.
    """
    if n <= _VECTOR_CUTOFF:
        cands: set[tuple[int, int]] = set()
        for i in range(n):
            di = disp[i]
            for j in range(i + 1, n):
                den = di - disp[j]
                if not den:
                    continue
                base = j - i
                for num in (base, base + 1, base - 1):
                    p, q = (num, den) if den > 0 else (-num, -den)
                    if 0 < p < q:
                        g = gcd(p, q)
                        cands.add((p // g, q // g))
        # distinct p/q with q < 2n differ by more than 1/(4n^2), far above
        # double rounding, so the float sort is exact; the guard checks it
        ordered = sorted(cands, key=lambda pq: pq[0] / pq[1])
        for (p0, q0), (p1, q1) in zip(ordered, ordered[1:]):
            if p0 * q1 >= p1 * q0:
                raise AssertionError("breakpoint ordering lost exactness")
        return [p for p, _ in ordered], [q for _, q in ordered]

    d = np.asarray(disp, dtype=np.int64)
    cols = np.arange(n, dtype=np.int64)
    # pair generation in row slabs keeps peak memory flat for large n;
    # duplicates across slabs collapse in the final unique pass
    key_chunks = []
    rows_per_slab = max(1, 131_072 // n)
    for start in range(0, n - 1, rows_per_slab):
        stop = min(n - 1, start + rows_per_slab)
        i_blk = np.repeat(np.arange(start, stop, dtype=np.int64), n - 1 - np.arange(start, stop))
        j_blk = np.concatenate([cols[i + 1 :] for i in range(start, stop)])
        den = d[i_blk] - d[j_blk]
        base = j_blk - i_blk
        nums = np.concatenate([base, base + 1, base - 1])
        dens = np.concatenate([den, den, den])
        neg = dens < 0
        np.negative(nums, where=neg, out=nums)
        np.negative(dens, where=neg, out=dens)
        keep = (dens != 0) & (nums > 0) & (nums < dens)
        nums, dens = nums[keep], dens[keep]
        g = np.gcd(nums, dens)
        nums //= g
        dens //= g
        # q < 2n, so the packed key and the float sort below are collision-free
        key_chunks.append(np.unique(nums * (2 * n + 2) + dens))
    if not key_chunks:
        return [], []
    keys = np.unique(np.concatenate(key_chunks))
    nums, dens = np.divmod(keys, 2 * n + 2)
    order = np.argsort(nums / dens, kind="stable")
    nums, dens = nums[order], dens[order]
    if nums.size > 1 and not np.all(nums[:-1] * dens[1:] < nums[1:] * dens[:-1]):
        raise AssertionError("breakpoint ordering lost exactness")
    return nums.tolist(), dens.tolist()


def _slice_totals(n: int, disp: list[int], nums: list[int], dens: list[int]) -> list[int]:
    """Slice measures at y = p/q, as integers over the denominator n*q.

    With all n intervals sharing width q (in units of 1/(n q)) the union
    length is q plus the capped gaps between consecutive sorted left
    endpoints.
    """
    if not nums:
        return []
    if n <= _VECTOR_CUTOFF:
        totals = []
        cols = list(enumerate(disp))
        for p, q in zip(nums, dens):
            los = sorted([j0 * q + d * p for j0, d in cols])
            tot = q
            a = los[0]
            for b in los[1:]:
                gap = b - a
                tot += gap if gap < q else q
                a = b
            totals.append(tot)
        return totals

    # with 0 < p < q every endpoint j0*q + d*p has magnitude below the
    # bound and every gap stays below twice it; int32 rows halve the bytes
    # each sort moves
    bound = max(dens) * (n + max(map(abs, disp)))
    if bound >= 2**62:
        raise AssertionError("slice sweep would overflow int64")
    dtype = np.int32 if 2 * bound < 2**31 else np.int64
    d = np.asarray(disp, dtype=dtype)
    col = np.arange(n, dtype=dtype)
    p_arr = np.asarray(nums, dtype=dtype)[:, None]
    q_arr = np.asarray(dens, dtype=dtype)[:, None]
    out = np.empty(len(nums), dtype=np.int64)
    # about 128k endpoints per chunk keeps each row block in cache
    chunk = max(1, 131_072 // n)
    for s in range(0, len(nums), chunk):
        e = min(len(nums), s + chunk)
        q = q_arr[s:e]
        los = col * q
        los += d * p_arr[s:e]
        los.sort(axis=1)
        gaps = np.diff(los, axis=1)
        np.minimum(gaps, q, out=gaps)
        out[s:e] = gaps.sum(axis=1, dtype=np.int64) + q[:, 0]
    return out.tolist()


def slice_profile(spec: TrapezoidSpec) -> PiecewiseLinearProfile:
    """Slice measure as an exact piecewise-linear function of height.

    Breakpoints are y = 0, y = 1, and every interior candidate crossing;
    between consecutive breakpoints the interval order and overlap
    pattern are constant, so the measure is linear there.  The value at
    each breakpoint is recomputed from scratch, which makes coincident
    crossings harmless.
    """
    n = spec.n
    disp = _displacements(spec)
    nums, dens = _interior_breakpoints(n, disp)
    totals = _slice_totals(n, disp, nums, dens)
    # breakpoint k sits at (p/q, t/(n q)); the ends are (0, 1) and (1, 1).
    # A plain constructor call: the benchmark's traced runs replace the
    # class name with a wrapper function, so a classmethod would break.
    return PiecewiseLinearProfile(
        (0, *nums, 1), (1, *dens, 1), (1, *totals, 1), (1, *(n * q for q in dens), 1)
    )


@lru_cache(maxsize=256)
def area(spec: TrapezoidSpec) -> Rational:
    """Exact two-dimensional measure of the trapezoid, in [1/n, 1]."""
    return integrate_plp(slice_profile(spec))


def area_oracle(spec: TrapezoidSpec, samples: int) -> float:
    """Midpoint-sampling estimate of the area, independent of the sweep.

    Slices are evaluated exactly at the midpoint heights (i+1/2)/samples
    and only the integration is approximate, so the error is O(1/samples).
    Midpoints can never hit a breakpoint denominator exactly, avoiding
    systematic bias.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    n = spec.n
    disp = _displacements(spec)
    d = np.asarray(disp, dtype=np.int64)
    col = np.arange(n, dtype=np.int64)
    den = 2 * samples
    if den * (n + int(np.abs(d).max())) >= 2**62:
        raise AssertionError("oracle sweep would overflow int64")
    total = 0
    chunk = max(1, 4_000_000 // max(n, 1))
    for s in range(0, samples, chunk):
        e = min(samples, s + chunk)
        p = (2 * np.arange(s, e, dtype=np.int64) + 1)[:, None]
        los = col[None, :] * den + d[None, :] * p
        los.sort(axis=1)
        gaps = np.diff(los, axis=1)
        np.minimum(gaps, den, out=gaps)
        total += int(gaps.sum()) + (e - s) * den
    # exact integer accumulation, one float division at the end
    return total / (samples * n * den)


def weighted_sum_identity(n: int) -> tuple[Rational, Rational]:
    """Both sides of the block decomposition of the composite trapezoid.

    Left: exact area for the composite permutation of {1..n}.  Right: the
    digit-weighted average (1/n) * sum of x_j * 3^j * area(3^j block),
    assembled from the independent single-block areas.  The two are equal
    because each block is an affine copy occupying x_j * 3^j / n of the
    width.
    """
    lhs = area(TrapezoidSpec(n, composite_permutation(n)))
    plan = composite_plan(n)
    top = len(plan.digits) - 1
    rhs = Fraction(0)
    for pos, x in enumerate(plan.digits):
        j = top - pos
        if x:
            block_area = area(TrapezoidSpec(3**j, digit_swap_permutation(j)))
            rhs += x * 3**j * block_area
    return lhs, rhs / n
