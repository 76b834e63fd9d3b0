"""Exact slices and exact areas of parallelogram trapezoids.

A trapezoid here is the union over j of the parallelogram joining the
j-th bottom subinterval [(j-1)/n, j/n] x {0} to the sigma(j)-th top
subinterval at height 1.  Its horizontal slice at height y is a union of
n intervals of width exactly 1/n whose left endpoints move linearly in y,
so the slice measure is a piecewise-linear function of y and the area is
its exact integral.

The sweep finds every height where two endpoint lines cross or come
within one interval width of each other (the only places the measure's
slope can change) and evaluates the slice measure exactly there.
Endpoints at a fixed rational height y = p/q share the denominator n*q,
so each evaluation is pure integer work: the sweep returns the heights
p/q and the totals t (the measure is t/(n*q)) as int64 arrays, with no
Fraction or Python int built per breakpoint.  The arithmetic runs
through numpy in cache-sized blocks, in int32 when q*(n + max|d|) < 2^30
bounds every endpoint and gap, else in int64 (refused at 2^62).
Candidate heights are reduced p/q with q < 2n, so distinct ones differ
by more than 1/(4n^2); they are deduplicated by sorting packed integer
keys (on numpy >= 2.3 ``np.unique`` hashes int64 input, which is several
times slower), then sorted by float value, with a cross-multiplied check
that the order is strict.

A self-inverse permutation (every digit-swap and composite one) has a
profile symmetric about y = 1/2, so only its lower half is swept.  n
times the slice measure has integer slopes, so ``area`` integrates the
sweep's arrays from the slope changes, with no profile in between:
int64 work per breakpoint, Python ints per distinct q, and one
Fraction, for n up to ``SLOPE_MAX_N`` (27,554).  ``slice_profile``
wraps the same arrays in a ``PiecewiseLinearProfile`` for callers that
read the profile itself.

``FareyGrid`` scores many permutations of one n at once for exhaustive
search: the same integer slice totals, taken on the one grid of heights
that holds every permutation's breakpoints, weighted into exact int64
numerators over a shared denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

import numpy as np

from .exact import (
    Interval,
    IntervalUnion,
    PiecewiseLinearProfile,
    Rational,
    RationalLike,
    as_rational,
    merge_ints,
)
from .permutations import Permutation, composite_plan, composite_permutation, digit_swap_permutation

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
    """Exact horizontal slice at height y as a canonical interval union.

    At y = p/q the parts are [j0*q + d*p, j0*q + d*p + q] over n*q, the
    same integers the sweep sorts in ``_slice_totals``.
    """
    y = as_rational(y)
    if not 0 <= y <= 1:
        raise ValueError(f"slice height {y} outside [0, 1]")
    p, q = y.numerator, y.denominator
    lo, hi = merge_ints(
        (j0 * q + d * p, j0 * q + d * p + q) for j0, d in enumerate(_displacements(spec))
    )
    return IntervalUnion(lo, hi, spec.n * q)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int64 array.

    A sort and a neighbour mask: on numpy >= 2.3 ``np.unique`` hashes
    integer input, several times slower here than sorting.
    """
    keys = np.sort(keys)
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _interior_breakpoints(n: int, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced interior breakpoint candidates (p, q) as int64 arrays, sorted by value.

    Candidates are the heights where two left-endpoint lines meet
    (L_i = L_j) or differ by exactly one width (L_i = L_j +- 1/n),
    generated pairwise from the displacements d, clipped to (0, 1), and
    deduplicated exactly.
    """
    cols = np.arange(n, dtype=np.int64)
    # pair generation in row slabs keeps peak memory flat for large n;
    # duplicates across slabs collapse in the final pass
    key_chunks = [np.empty(0, dtype=np.int64)]
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
        # q < 2n, so the packed key is collision-free and distinct heights
        # are distinct doubles, which the float sort below relies on
        key_chunks.append(_distinct(nums * (2 * n + 2) + dens))
    nums, dens = np.divmod(_distinct(np.concatenate(key_chunks)), 2 * n + 2)
    order = np.argsort(nums / dens)
    nums, dens = nums[order], dens[order]
    if nums.size > 1 and not np.all(nums[:-1] * dens[1:] < nums[1:] * dens[:-1]):
        raise AssertionError("breakpoint ordering lost exactness")
    return nums, dens


def _slice_totals(n: int, d: np.ndarray, nums: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """Slice measures at y = p/q, as int64 integers over the denominator n*q.

    With all n intervals sharing width q (in units of 1/(n q)) the union
    length is q plus the capped gaps between consecutive sorted left
    endpoints.
    """
    out = np.empty(nums.size, dtype=np.int64)
    if not nums.size:
        return out
    # with 0 < p < q every endpoint j0*q + d*p has magnitude below the
    # bound and every gap stays below twice it; int32 rows halve the bytes
    # each sort moves
    bound = int(dens.max()) * (n + int(np.abs(d).max()))
    if bound >= 2**62:
        raise AssertionError("slice sweep would overflow int64")
    dtype = np.int32 if 2 * bound < 2**31 else np.int64
    d = d.astype(dtype)
    col = np.arange(n, dtype=dtype)
    p_arr = nums.astype(dtype)[:, None]
    q_arr = dens.astype(dtype)[:, None]
    # about 128k endpoints per chunk keeps each row block in cache
    chunk = max(1, 131_072 // n)
    for s in range(0, nums.size, chunk):
        e = min(nums.size, s + chunk)
        q = q_arr[s:e]
        los = col * q
        los += d * p_arr[s:e]
        los.sort(axis=1)
        gaps = np.subtract(los[:, 1:], los[:, :-1])
        np.minimum(gaps, q, out=gaps)
        out[s:e] = gaps.sum(axis=1, dtype=np.int64) + q[:, 0]
    return out


def _mirrored_totals(n: int, d: np.ndarray, nums: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """``_slice_totals`` of a self-inverse permutation, swept at y <= 1/2 only.

    Turning the trapezoid of sigma upside down gives the trapezoid of
    sigma^-1, so when the two are equal the slice at 1 - p/q is the slice
    at p/q: the same union over the same n*q, hence the same total.  The
    candidate list is then its own mirror, which is checked first.
    """
    if not (np.array_equal(dens, dens[::-1]) and np.array_equal(nums[::-1], dens - nums)):
        raise AssertionError("breakpoints of a self-inverse permutation are not mirror-symmetric")
    # the first ceil(K/2) heights are those <= 1/2 (each swapped pair crosses at 1/2)
    half = (nums.size + 1) // 2
    lower = _slice_totals(n, d, nums[:half], dens[:half])
    return np.concatenate([lower, lower[: nums.size - half][::-1]])


def _sweep(spec: TrapezoidSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior breakpoints p/q and slice totals t over n*q, as int64 arrays.

    Between consecutive breakpoints (and the ends y = 0, 1) the interval
    order and overlap pattern are constant, so the measure is linear
    there.  The value at each breakpoint is recomputed from scratch,
    which makes coincident crossings harmless.  When sigma is its own
    inverse (every digit-swap and composite permutation) the profile is
    symmetric about y = 1/2, and only the lower half of the heights is
    swept.
    """
    n = spec.n
    d = np.array(_displacements(spec), dtype=np.int64)
    nums, dens = _interior_breakpoints(n, d)
    if spec.sigma.inverse() == spec.sigma:
        return nums, dens, _mirrored_totals(n, d, nums, dens)
    return nums, dens, _slice_totals(n, d, nums, dens)


def slice_profile(spec: TrapezoidSpec) -> PiecewiseLinearProfile:
    """Slice measure as an exact piecewise-linear function of height.

    Breakpoints are y = 0, y = 1, and every interior candidate crossing
    found by the sweep; the value at height p/q is t/(n q).
    """
    nums, dens, totals = _sweep(spec)
    # the ends are (0, 1) and (1, 1).  A plain constructor call: the
    # benchmark's traced runs replace the class name with a wrapper
    # function, so a classmethod would break.
    return PiecewiseLinearProfile(
        (0, *nums.tolist(), 1),
        (1, *dens.tolist(), 1),
        (1, *totals.tolist(), 1),
        (1, *(spec.n * dens).tolist(), 1),
    )


# Largest n whose slope integration fits int64: with t <= n*q and q < 2n,
# the slope numerators stay below 8n^3, the slopes below 2n^2 (n components,
# each end moving by at most n - 1) and the summed slope changes times p^2
# below 16n^4, which is below 2^63 iff n^4 < 2^59.
SLOPE_MAX_N = isqrt(isqrt(2**59 - 1))


def _integrate_slopes(n: int, nums: np.ndarray, dens: np.ndarray, totals: np.ndarray) -> Rational:
    """Exact integral of the slice measure from the sweep's arrays.

    Between breakpoints, n times the slice measure is A_k + B_k*y with
    integers A_k, B_k: each connected component of the slice spans
    (j0 + d*y)/n end lines.  At y_k = p_k/q_k it is t_k/q_k (the sweep's
    totals inside, n/1 at the ends y = 0/1 and 1/1, added here), so
    B_k = (t_(k+1) q_k - t_k q_(k+1)) / (p_(k+1) q_k - p_k q_(k+1)),
    computed in int64 and checked to divide exactly.  Integrating by parts
    against the value 1 at y = 1 gives
    area = 1 - B_last/(2n) + 1/(2n) * sum_k (B_k - B_(k-1)) p_k^2/q_k^2.
    The slope changes times p^2 are summed per distinct q (q < 2n) as
    Python ints, and one Fraction over 2n*lcm(q)^2 is built.
    """
    p = np.concatenate(([0], nums, [1]))
    q = np.concatenate(([1], dens, [1]))
    t = np.concatenate(([n], totals, [n]))
    slopes, rem = np.divmod(t[1:] * q[:-1] - t[:-1] * q[1:], p[1:] * q[:-1] - p[:-1] * q[1:])
    if rem.any():
        raise AssertionError("slice totals give a non-integer slope")
    change = slopes[1:] - slopes[:-1]
    hit = np.flatnonzero(change)
    acc: dict[int, int] = {}
    for den, term in zip(dens[hit].tolist(), (change[hit] * nums[hit] ** 2).tolist()):
        acc[den] = acc.get(den, 0) + term
    scale = lcm(*acc)
    total = sum(num * (scale // den) ** 2 for den, num in acc.items())
    scale *= scale
    return Fraction((2 * n - int(slopes[-1])) * scale + total, 2 * n * scale)


@lru_cache(maxsize=256)
def area(spec: TrapezoidSpec) -> Rational:
    """Exact two-dimensional measure of the trapezoid, in [1/n, 1].

    The sweep's arrays integrated from their integer slope changes, with
    no profile built; equal to ``integrate_plp(slice_profile(spec))``.
    n above ``SLOPE_MAX_N`` is refused before any sweep.
    """
    if spec.n > SLOPE_MAX_N:
        raise ValueError(f"n={spec.n} is above {SLOPE_MAX_N}: exact area integration would overflow int64")
    return _integrate_slopes(spec.n, *_sweep(spec))


def _sorting_network(n: int) -> tuple[tuple[int, int], ...]:
    """Comparators (a, b), a < b, of a network that sorts n values.

    Batcher's odd-even merge sort on the next power of two, keeping only
    comparators between the first n wires: the dropped wires would hold
    +inf, which no comparator moves, so the kept ones sort on their own.
    """
    size = 1 << (n - 1).bit_length()
    pairs = []
    p = 1
    while p < size:
        k = p
        while k:
            for j in range(k % p, size - k, 2 * k):
                for i in range(j, j + min(k, size - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p) and i + k < n:
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    return tuple(pairs)


class FareyGrid:
    """Exact area kernel for many permutations of one n at once.

    Every interior breakpoint of every permutation of n is a reduced p/q
    with q = |d_i - d_j| <= 2n - 2, so the K heights of the Farey
    sequence of that order hold them all, and the trapezoid rule over
    this one grid is exact for each permutation.  With the slice total
    t_k over n*q_k at height y_k, the area is
    y_1/2 + (1 - y_K)/2 + sum_k t_k (y_(k+1) - y_(k-1)) / (2 n q_k).
    Scaled by ``denominator`` D, the lcm of all those denominators, each
    term is an integer, so area * D is an exact int64 dot product:
    ``offset`` plus the capped endpoint gaps at every height times
    ``weights``.  Endpoints j0*q + d*p lie in [0, (n-1) q], so rows of
    int16 hold them, and a sorting network orders the n strips of all
    rows at once.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        # the table below also holds (j0, d) pairs no permutation has, all
        # with |j0*q + d*p| < 4 (n-1)^2
        if 4 * (n - 1) ** 2 >= 2**15:
            raise ValueError(f"n={n}: grid endpoints overflow int16")
        order = 2 * n - 2
        heights = sorted({Fraction(p, q) for q in range(2, order + 1) for p in range(1, q)})
        ys = [Fraction(0), *heights, Fraction(1)]
        end_term = ys[1] / 2 + (1 - ys[-2]) / 2
        weights = [(ys[k + 1] - ys[k - 1]) / (2 * n * ys[k].denominator) for k in range(1, len(ys) - 1)]
        denominator = lcm(end_term.denominator, *(w.denominator for w in weights))
        if denominator >= 2**62:
            raise ValueError(f"n={n}: grid denominator {denominator} overflows int64")
        self.n = n
        self.denominator = denominator
        self.weights = np.array([w.numerator * (denominator // w.denominator) for w in weights], dtype=np.int64)
        p = np.array([y.numerator for y in heights], dtype=np.int16)
        self.q = np.array([y.denominator for y in heights], dtype=np.int16)
        # the union of n width-q intervals is q plus the capped gaps
        self.offset = int(end_term * denominator) + int(self.q.astype(np.int64) @ self.weights)
        # row j0 * (2n - 1) + d + n - 1 holds strip j0's endpoints j0*q + d*p
        j0 = np.repeat(np.arange(n, dtype=np.int16), 2 * n - 1)[:, None]
        d = np.tile(np.arange(1 - n, n, dtype=np.int16), n)[:, None]
        self.table = j0 * self.q + d * p
        self.network = _sorting_network(n)

    def area_numerators(self, images: np.ndarray) -> np.ndarray:
        """area * ``denominator`` for each row of 1-based images, as int64."""
        n = self.n
        # image value v at 0-based position j0 means displacement v - 1 - j0
        rows = list(self.table[images.T + (np.arange(n) * (2 * n - 2) + n - 2)[:, None]])
        # one contiguous ufunc call per comparator: 4-7x faster at n = 8..13
        # than np.sort on the last axis of a (B, K, n) copy
        spare = np.empty_like(rows[0])
        for a, b in self.network:
            np.minimum(rows[a], rows[b], out=spare)
            np.maximum(rows[a], rows[b], out=rows[b])
            rows[a], spare = spare, rows[a]
        gaps = np.zeros_like(spare)
        for lo, hi in zip(rows, rows[1:]):
            np.subtract(hi, lo, out=spare)
            np.minimum(spare, self.q, out=spare)
            gaps += spare
        return self.offset + gaps @ self.weights


@lru_cache(maxsize=16)
def farey_grid(n: int) -> FareyGrid:
    """The shared, cached :class:`FareyGrid` of n."""
    return FareyGrid(n)


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
