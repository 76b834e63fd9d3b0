"""Exact slices and exact areas of parallelogram trapezoids.

A trapezoid here is the union over j of the parallelogram joining the
j-th bottom subinterval [(j-1)/n, j/n] x {0} to the sigma(j)-th top
subinterval at height 1.  Its horizontal slice at height y is a union of
n intervals of width exactly 1/n whose left endpoints move linearly in y,
so the slice measure is a piecewise-linear function of y and the area is
its exact integral.

The sweep finds the heights where the measure's slope changes, its kinks,
and evaluates the slice measure exactly there.  n times the slice
measure is the sum of the union's exposed right ends minus the sum of its
exposed left ends.  Each end is covered on at most two open intervals per
pair of strips, between heights p/q with q < 2n, so one sort of packed
start and stop keys per slab of strips gives every end's covered runs.
The keys tag the slab's own ends, so they are int32 below n = 8,192
(4,096 for an involution's half sweep, below); the pairs are int32 at
every n, the height cuts up to n = 812 and the packed run edges up to
n = 511, each int64 past that, and the results int64 at every n.  A run's edges
step integer sums C and D, with n times the measure C + D*y between edges.
The measure is continuous, so at each edge height the summed jumps
satisfy dC + dD*y = 0: the slope changes iff dD != 0, at y = -dC/dD.  The
total at a kink y = p/q, over the denominator n*q, is q*C + p*D: the sweep
returns the kinks and totals as int64 arrays, with no Fraction or Python
int built per kink, no list of candidate heights and no per-height sort.

Every digit-swap and composite permutation is an involution,
sigma(sigma(k)) = k, and then strip sigma(k) is strip k turned upside
down, so the slice measure is symmetric, m(y) = m(1 - y).  The sweep
checks this on the image and then takes only the rows k <= sigma(k),
each with the mirrors of its pairs, in the band of heights below 1/2;
the kinks above 1/2 are the mirrors (q - p)/q of those below, and the
kink at 1/2 follows from the slope just below it.  The outputs are the
full sweep's, bit for bit.

``area`` integrates by parts from the same jumps: with D_last the slope
below y = 1, 2n times the area is 2n - D_last minus the sum of dC*p/q
over the kinks, with no profile in between: one int64 product per kink,
summed per distinct q in two int64 limbs, one Python int per distinct q,
and one Fraction over 2n*lcm(q), for n up to ``SLOPE_MAX_N`` (27,554).
``slice_profile`` wraps the kinks and totals in a
``PiecewiseLinearProfile`` for callers that read the profile itself.

``FareyGrid`` scores many permutations of one n at once, for exhaustive
and heuristic search: the same integer slice totals, taken on the one
grid of heights that holds every permutation's breakpoints, weighted
into exact numerators over a shared denominator (int64 up to n = 21,
Python ints from limb sums for any n up to 128).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .exact import (
    IntervalUnion,
    PiecewiseLinearProfile,
    Rational,
    RationalLike,
    as_rational,
    merge_ints,
)
from .permutations import Permutation, composite_blocks, composite_permutation, digit_swap_permutation


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


def _displacements(spec: TrapezoidSpec) -> list[int]:
    # left endpoint line of parallelogram j (0-based j0): (j0 + d_j * y) / n
    return [spec.sigma.image[j0] - (j0 + 1) for j0 in range(spec.n)]


def slice_at(spec: TrapezoidSpec, y: RationalLike) -> IntervalUnion:
    """Exact horizontal slice at height y as a canonical interval union.

    At y = p/q the parts are [j0*q + d*p, j0*q + d*p + q] over n*q; at the
    kinks, ``_sweep`` gives the same measure, times n*q, from the exposed
    ends of these parts.
    """
    y = as_rational(y)
    if not 0 <= y <= 1:
        raise ValueError(f"slice height {y} outside [0, 1]")
    p, q = y.numerator, y.denominator
    lo, hi = merge_ints(
        (j0 * q + d * p, j0 * q + d * p + q) for j0, d in enumerate(_displacements(spec))
    )
    return IntervalUnion(lo, hi, spec.n * q)


# pairs of strips per slab: about 64 kB per int32 temporary
_SLAB_PAIRS = 16_384
# run edges held before they are merged into the summed jumps: 2 MB
_BATCH_EDGES = 1 << 18
# row 0 of a slab's end tags is lane + lanes*[j > k], row 1 is lane + lanes*[j < k]
_END_ROWS = np.array([[0], [1]], dtype=np.int32)
_END_FLIP = np.array([[1], [-1]], dtype=np.int32)
# the three heights (c - 1)/e, c/e and (c + 1)/e of a covering pair
_CUT_ROWS = np.array([[-1], [0], [1]], dtype=np.int32)


def _packing(n: int) -> tuple[int, int]:
    """Bit widths (shift, tag) of the sweep's packed keys for n strips.

    Heights are keyed in [0, 4n^2], below 2^shift, and the 4n end tags
    below 2^tag.  Refuses n where any int64 the sweep forms could overflow:
    run keys stay at most their sentinel 2 * lanes << shift (``_dtypes``),
    which is below 2^34 up to n = 16,384 and at most 4 << shift <= 2n << shift
    past it, where a slab holds one row and its mirror; edge keys stay below
    (4n^2 + 1) << tag.  The jumps of C and D summed at one height are at
    most n^2 in size (each of the 2n ends steps at most once there, by
    (k + 1, d_k) or (-k, -d_k)); the kink checks' p * 4n^2 and the
    totals q*C + p*D are at most 8n^3 (p < q < 2n, |C| <= n^2,
    |D| <= 2n^2), and ``area``'s products dC*p are below 2n^3.
    """
    width = 4 * n * n
    shift, tag = width.bit_length(), (4 * n - 1).bit_length()
    if max(2 * n << shift, width + 1 << tag, 8 * n**3) >= 2**63:
        raise AssertionError(f"n={n}: slice sweep would overflow int64")
    return shift, tag


def _dtypes(n: int, lanes: int) -> tuple[type, type, type]:
    """Dtypes of ``_edge_jumps``' run keys, height cuts and edge keys for n strips.

    Each is int32 where its largest value is below 2^31, else int64.  With
    ``lanes`` strips' ends tagged per slab (2*lanes tags), run keys are at
    most the sentinel 2*lanes << shift: int32 below n = 8,192 for the full
    sweep and 4,096 for the half, at the default slab size.  A cut
    (c + 1) * 4n^2 / e has c < n, so it is at most 4n^3: int32 up to
    n = 812.  Edge keys are below (4n^2 + 1) << tag: int32 up to n = 511.
    The pairs' own values, |j - k| < n and |d_k - d_j| < 2n, are int32 for
    every n that ``_packing`` admits.
    """
    shift, tag = _packing(n)
    width = 4 * n * n
    return tuple(np.int32 if top < 2**31 else np.int64 for top in (2 * lanes << shift, n * width, width + 1 << tag))


def _edge_jumps(n: int, d: np.ndarray, half: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Height keys where the slice measure's integer sums C and D jump, and the jumps.

    In units of 1/n strip k covers [L_k, L_k + 1] with L_k = k + d_k*y, so n
    times the slice measure is the sum of the union's exposed right ends
    L_k + 1 minus the sum of its exposed left ends L_k.  The right end R_k
    is covered where some L_j - L_k lies in (0, 1], the left end L_k where
    some L_k - L_j does.  For strips i < j with base = j - i and
    den = d_i - d_j >= base, heights in ((base - 1)/den, base/den) cover R_i
    and L_j, and heights in (base/den, (base + 1)/den) cover L_i and R_j.
    Touching parallel strips (den = 0, base = 1) cover R_i and L_j at every
    height, but they are left out: R_i and L_j then coincide, every other
    strip covers both or neither away from the other pairs' heights, and
    exposed they cancel.  No other pair covers anything in (0, 1).

    Strips are taken in slabs.  A height y is keyed by floor(y * 4n^2),
    exact and strictly increasing on 0, 1 and every reduced p/q with
    q < 2n, which holds all the heights above.  Each end's covered runs
    come from sorting the starts and the stops of its intervals, packed
    with a slab-local tag of the end into run keys: a run closes where the
    next start lies past every stop before it.  A small table per slab maps
    the tags back to the ends.  A run starting at height h removes the
    end's share, (k + 1, d_k) for R_k or (-k, -d_k) for L_k, from the
    integer sums C and D of every piece above h, and its stop restores it;
    n times the measure is C + D*y on each piece.  Below 0 every end counts
    as exposed, C = n and D = 0.

    The pairs are int32 at every n; the run keys, the cuts and the packed
    edge keys each take the narrowest dtype that ``_dtypes`` proves safe
    for n, with every narrowed operation naming its dtype, so numpy's
    promotion rules do not pick it.  Returns the distinct keys of the run
    edges, sorted and always with 0 and 4n^2 (y = 0 and 1), and the summed
    jumps of C and D at each, as int64 arrays.  Each end steps at most once
    at one height.

    With ``half``, for an involution (sigma(sigma(k)) = k), only the band
    of heights below 1/2 is swept.  There L_k(1 - y) = L_sigma(k)(y), so
    the pair (sigma(k), sigma(j)) covers the same end of strip sigma(k) at
    1 - y as (k, j) covers of strip k at y.  The slabs take only the rows
    k <= sigma(k) and emit, beside each pair of a row k < sigma(k), its
    mirror pair, so every end's intervals still land in one slab; the
    slab's tags list its own rows, then their mirrors.  Pairs whose
    intervals start at or above 1/2 (2|s| - 2 >= |e|) are dropped, and so
    are run edges keyed at or above 2n^2, y = 1/2: the keys returned start
    with 0 and all lie below 2n^2, with the full sweep's jumps at each.
    ``_kinks`` mirrors the rest.
    """
    shift, tag = _packing(n)
    width = 4 * n * n
    rows_per_slab = max(1, _SLAB_PAIRS // n)
    run_type, cut_type, edge_type = _dtypes(n, 2 * rows_per_slab if half else rows_per_slab)
    # what a run's edge adds to the jumps: ends k and n + k are L_k and R_k,
    # and end 2n + i marks a run start on end i, which removes that end's share
    strip = np.arange(n, dtype=np.int64)
    share_c = np.concatenate([-strip, strip + 1, strip, -1 - strip])
    share_d = np.concatenate([-d, d, d, -d])
    keys = np.array([0] if half else [0, width], dtype=np.int64)
    jump_c = np.zeros(keys.size, dtype=np.int64)
    jump_d = np.zeros(keys.size, dtype=np.int64)
    # run starts and stops, packed as (height, end), held until there are
    # _BATCH_EDGES of them or, if more, as many as keys so far, then merged
    # into the summed jumps
    pending: list[np.ndarray] = []

    def settle() -> None:
        nonlocal keys, jump_c, jump_d
        edges = np.concatenate(pending)
        pending.clear()
        edges.sort()
        end = edges & ((1 << tag) - 1)
        edges >>= tag
        # two sorted runs, which a stable sort merges in one pass
        edges = np.concatenate((keys, edges), dtype=np.int64)
        order = np.argsort(edges, kind="stable")
        edges = edges[order]
        first = np.empty(edges.size, dtype=bool)
        first[0] = True
        np.not_equal(edges[1:], edges[:-1], out=first[1:])
        first = np.flatnonzero(first)
        keys = edges[first]
        jump_c = np.add.reduceat(np.concatenate((jump_c, share_c[end]))[order], first)
        jump_d = np.add.reduceat(np.concatenate((jump_d, share_d[end]))[order], first)

    held = 0
    index = np.arange(n, dtype=np.int32)
    d = d.astype(np.int32)
    image = index + d
    # an involution sweeps the rows k <= sigma(k), that is, d_k >= 0
    swept = np.flatnonzero(d >= 0).astype(np.int32) if half else index
    for k0 in range(0, swept.size, rows_per_slab):
        rows = swept[k0 : k0 + rows_per_slab]
        # s = j - k and e = d_k - d_j over the slab's rows k and every j: a
        # pair covers an end of k iff s*e >= s^2 off the diagonal, that is,
        # e and s share a sign with |e| >= |s|.  As s*e - s^2 equals
        # s*(sigma(k) - sigma(j)), these are the inversions, one XOR
        s = index - rows[:, None]
        e = d[rows, None] - d
        keep = (s >= 0) ^ (image >= image[rows, None])
        lane = np.repeat(np.arange(rows.size, dtype=np.int32), keep.sum(axis=1))
        # np.take, not boolean indexing: 3x faster here
        keep = np.flatnonzero(keep)
        s, e = s.take(keep), e.take(keep)
        # the strip of each lane: the slab's rows, then on the half their mirrors
        lanes = rows
        if half:
            # strip sigma(k)'s pairs are the mirrors (sigma(k), sigma(j)) of
            # strip k's, s - e and -e, covering the same ends of sigma(k) at
            # the heights 1 - y; a fixed strip has them among its own.  Only
            # pairs whose intervals start below 1/2 are kept: (c - 1)/|e| < 1/2
            # with c = |s|, and for the mirror, c' = |e| - c
            c, den = np.abs(s), np.abs(e)
            own = np.flatnonzero(2 * c - 2 < den)
            pick = np.concatenate((own, np.flatnonzero((2 * c + 2 > den) & (d[rows] > 0).take(lane))))
            lane, s, e = lane.take(pick), s.take(pick), e.take(pick)
            lane[own.size :] += rows.size
            s[own.size :] -= e[own.size :]
            lanes = np.concatenate((rows, image[rows]))
        if not s.size:
            continue
        e = np.abs(e)
        # the lower interval ((c - 1)/e, c/e), c = |s|, covers R_k when j > k
        # and L_k when j < k; the upper interval (c/e, (c + 1)/e) covers the
        # other end of k.  Row 0 of ``ends`` tags the lower interval's end,
        # row 1 the upper's, as the lane for L and lanes.size plus the lane
        # for R; rows 0..2 of ``cut`` key the heights (c - 1)/e, c/e and
        # (c + 1)/e, all in [0, 1]: |e| > c, as |e| = c would give strips k
        # and j the same top
        ends = np.multiply(s > 0, _END_FLIP, dtype=run_type)
        ends += _END_ROWS
        ends *= lanes.size
        ends += lane
        ends <<= shift
        cut = np.multiply(np.abs(s) + _CUT_ROWS, width, dtype=cut_type)
        cut //= e
        # starts and stops in one buffer each, with a sentinel on the far
        # side, so a run boundary is one comparison of neighbours
        size = 2 * s.size
        starts = np.empty(size + 1, dtype=run_type)
        stops = np.empty(size + 1, dtype=run_type)
        np.add(ends, cut[:2], out=starts[:-1].reshape(2, -1), dtype=run_type)
        np.add(ends, cut[1:], out=stops[1:].reshape(2, -1), dtype=run_type)
        starts[-1], stops[0] = 2 * lanes.size << shift, -1
        starts[:-1].sort()
        stops[1:].sort()
        # a run starts at starts[i] when every stop before it, the last
        # being stops[i], lies below it, and closes at stops[i'] for the
        # next such i'; the sentinels put 0 and ``size`` in ``cuts``
        cuts = np.flatnonzero(stops < starts)
        runs = cuts.size - 1
        edges = np.empty(2 * runs, dtype=run_type)
        np.take(starts, cuts[:-1], out=edges[:runs])
        np.take(stops, cuts[1:], out=edges[runs:])
        # the global end of each tag: L_k is k, R_k is n + k
        end = np.take(np.concatenate((lanes, lanes + n)), edges >> shift)
        end[:runs] += 2 * n
        edges &= (1 << shift) - 1
        if half:
            # every start lies below 1/2; the stops at or above it are the
            # mirror's
            below = edges < width // 2
            edges, end = edges.compress(below), end.compress(below)
        edges = edges.astype(edge_type, copy=False)
        edges <<= tag
        edges |= end
        pending.append(edges)
        held += edges.size
        if held >= max(keys.size, _BATCH_EDGES):
            settle()
            held = 0
    if pending:
        settle()
    return keys, jump_c, jump_d


def _kinks(
    n: int, edges: tuple[np.ndarray, np.ndarray, np.ndarray], half: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Kinks p/q of the slice measure, its totals there over n*q, and its jumps there.

    Takes ``_edge_jumps``' keys and jumps as one tuple, so that ``_sweep``,
    which passes them on, keeps no reference, and each is freed once read
    (on CPython 3.11 and later, whose calls hand their arguments over).
    n times the measure is C + D*y between keys and continuous, so at a
    key's height y the jumps satisfy jump_c + jump_d*y = 0: the slope
    changes there iff jump_d != 0, at y = -jump_c/jump_d, and where
    jump_d = 0 also jump_c = 0.  The total at a kink p/q is q*C + p*D.
    Returns p, q, the totals and jump_c at each kink as int64 arrays, and D
    on the last piece, below y = 1.

    With ``half`` the keys are an involution's, all below 1/2, and the
    measure is symmetric, m(y) = m(1 - y).  A kink p/q < 1/2 mirrors to
    (q - p)/q with the same q, total and jump_d, and with
    jump_c' = -jump_d - jump_c.  With C + D*y the piece just below 1/2, the
    piece above it has slope -D: a kink at 1/2 iff D != 0, with
    jump_d = -2D, jump_c = D and total 2C + D.  The slope below 1 is minus
    the slope above 0.  The kinks below 1/2 are computed in place at the
    front of the output arrays, and their mirrors written into the back in
    reverse order, with no temporary of the outputs' size.

    Checks on every call: the pieces below 0 and above 1 count every end as
    exposed (C = n, D = 0), and the slice at y = 0 and at y = 1 is all of
    [0, 1], so jump_c is 0 at y = 0 and C + D is n just below 1 (on the
    half, the check at 0 gives the one at 1 by symmetry); heights with
    jump_d = 0 have jump_c = 0; and each reduced kink has 0 < p < q < 2n
    (2p < q on the half) and lies on its own key, floor(p * 4n^2 / q).
    """
    keys, jump_c, jump_d = edges
    del edges
    # C and D on the piece above each key
    above_c = np.cumsum(jump_c)
    above_c += n
    above_d = np.cumsum(jump_d)
    if jump_c[0] or not half and (above_c[-1] != n or above_d[-1] or above_c[-2] + above_d[-2] != n):
        raise AssertionError("the slice at y = 0 or 1 is not all of [0, 1]")
    # the keys strictly inside (0, 1), or (0, 1/2) on the half
    inner = slice(1, None if half else -1)
    if jump_c[inner][jump_d[inner] == 0].any():
        raise AssertionError("the slice measure jumps where its slope does not change")
    # on the half, C and D just below 1/2
    c, slope = int(above_c[-1]), int(above_d[-1])
    last = -int(above_d[0]) if half else int(above_d[-2])
    at = np.flatnonzero(jump_d[inner]) + 1
    count = at.size
    size = 2 * count + (slope != 0) if half else count
    nums, dens, totals, jumps = (np.empty(size, dtype=np.int64) for _ in range(4))
    p, q, t = nums[:count], dens[:count], totals[:count]
    dc = np.take(jump_c, at, out=jumps[:count])
    dd = jump_d[at]
    del jump_c, jump_d
    sign = np.sign(dd)
    g = np.gcd(dc, dd)
    np.multiply(dc, sign, out=p)
    np.negative(p, out=p)
    p //= g
    np.multiply(dd, sign, out=q)
    q //= g
    del sign, g
    if not np.all((0 < p) & ((2 * p if half else p) < q) & (q < 2 * n)):
        raise AssertionError(f"a kink lies outside (0, {'1/2' if half else 1}) or has a denominator of 2n or more")
    if not np.array_equal(p * (4 * n * n) // q, keys[at]):
        raise AssertionError("a kink lies off its edge key")
    del keys
    np.multiply(q, above_c[at], out=t)
    t += p * above_d[at]
    del above_c, above_d, at
    if not half:
        return nums, dens, totals, jumps, last
    if slope:
        nums[count], dens[count], totals[count], jumps[count] = 1, 2, 2 * c + slope, slope
    # the mirrors (q - p)/q of the kinks below 1/2, last first
    np.subtract(q, p, out=nums[size - count :][::-1])
    dens[size - count :][::-1] = q
    totals[size - count :][::-1] = t
    mirrored = jumps[size - count :][::-1]
    np.add(dd, dc, out=mirrored)
    np.negative(mirrored, out=mirrored)
    return nums, dens, totals, jumps, last


def _sweep(spec: TrapezoidSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """``_kinks`` of the trapezoid: kinks p/q, totals over n*q, jumps dC, last slope.

    The measure is linear between consecutive kinks (and the ends y = 0, 1).
    An involution, sigma(sigma(k)) = k, or d at k + d_k equal to -d_k, has
    strip sigma(k) at height y where strip k is at 1 - y, so its lower half
    is swept and mirrored; the outputs are the full sweep's, bit for bit.
    """
    n = spec.n
    d = np.array(_displacements(spec), dtype=np.int64)
    half = bool(np.array_equal(d[np.arange(n) + d], -d))
    return _kinks(n, _edge_jumps(n, d, half), half)


def slice_profile(spec: TrapezoidSpec) -> PiecewiseLinearProfile:
    """Slice measure as an exact piecewise-linear function of height.

    Breakpoints are y = 0, y = 1, and every kink inside, where the slope
    changes; the value at height p/q is t/(n q).
    """
    nums, dens, totals, _, _ = _sweep(spec)
    # the ends are (0, 1) and (1, 1).  A plain constructor call: the
    # benchmark's traced runs replace the class name with a wrapper
    # function, so a classmethod would break.
    return PiecewiseLinearProfile(
        (0, *nums.tolist(), 1),
        (1, *dens.tolist(), 1),
        (1, *totals.tolist(), 1),
        (1, *(spec.n * dens).tolist(), 1),
    )


def _sums_by_denominator(dens: np.ndarray, terms: np.ndarray) -> dict[int, int]:
    """Exact sums of the int64 ``terms`` over each distinct denominator, as Python ints.

    The terms are ``area``'s dC*p, below 2n^3 in size, at distinct kinks, so
    fewer than q < 2n of them share a q.  Each is split into 32-bit limbs,
    t = (t >> 32) * 2^32 + (t & 0xFFFFFFFF), and each limb is summed in
    int64 over the runs of equal q: the low sums stay below 2n * 2^32 and the
    high ones below 2n * (2n^3 / 2^32 + 1), under 2^53 for every n that
    ``_packing`` admits.  One Python int is built per distinct q.
    """
    order = np.argsort(dens, kind="stable")
    dens, terms = dens[order], terms[order]
    first = np.flatnonzero(np.diff(dens, prepend=0))
    low = np.add.reduceat(terms & 0xFFFFFFFF, first)
    high = np.add.reduceat(terms >> 32, first)
    return {q: (h << 32) + lo for q, h, lo in zip(dens[first].tolist(), high.tolist(), low.tolist())}


# Largest n that ``area`` accepts; larger n is refused before any sweep.
SLOPE_MAX_N = 27_554


def check_area_n(n: int) -> None:
    """Refuse an n above ``SLOPE_MAX_N``, the largest n ``area`` accepts."""
    if n > SLOPE_MAX_N:
        raise ValueError(f"n={n} is above {SLOPE_MAX_N}, the largest n exact area accepts")


@lru_cache(maxsize=256)
def area(spec: TrapezoidSpec) -> Rational:
    """Exact two-dimensional measure of the trapezoid, in [1/n, 1].

    n times the slice measure, f = C + D*y between kinks, is continuous
    and n at y = 1, so integrating by parts, n*area = n minus the integral
    of y*D.  D steps by dD at each kink p/q, where dC = -dD*p/q, so
    2n*area = 2n - D_last - sum over kinks of dC*p/q, with D_last the slope
    below y = 1.  Each dC*p is an int64 below 2n^3 (|dC| <= n^2, p < 2n);
    they are summed per distinct q in numpy (``_sums_by_denominator``), and
    the sums as Python ints into one Fraction over 2n*lcm(q), with no
    profile built.  Equal to
    ``integrate_plp(slice_profile(spec))``.
    """
    n = spec.n
    check_area_n(n)
    nums, dens, _, jumps, last = _sweep(spec)
    if not dens.size:
        return Fraction(2 * n - last, 2 * n)
    acc = _sums_by_denominator(dens, jumps * nums)
    scale = lcm(*acc)
    total = sum(num * (scale // den) for den, num in acc.items())
    return Fraction((2 * n - last) * scale - total, 2 * n * scale)


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


_scratch_buffer = np.empty(0, dtype=np.uint8)


def _scratch(size: int) -> np.ndarray:
    """The first ``size`` bytes of one process-wide buffer that only grows.

    ``FareyGrid`` calls reuse it, whatever their n: past a few hundred kB,
    buffers allocated per call go back to the system and fault in again
    (``alpha_exhaustive(8)`` went from about 8 to 12 ms on 2 vCPUs), and
    one buffer per cached grid would keep each grid's largest call resident.
    """
    global _scratch_buffer
    if len(_scratch_buffer) < size:
        _scratch_buffer = np.empty(size, dtype=np.uint8)
    return _scratch_buffer[:size]


# bits per limb of the grid weights: a limb below 2^31 times a capped-gap
# sum below 2^15 (the int16 bound) over fewer than 2^17 heights stays in int64
_LIMB_BITS = 31


class FareyGrid:
    """Exact area kernel for many permutations of one n at once.

    Every interior breakpoint of every permutation of n is a reduced p/q
    with q = |d_i - d_j| <= 2n - 2, so the K heights of the Farey
    sequence of that order hold them all, and the trapezoid rule over
    this one grid is exact for each permutation.  With the slice total
    t_k over n*q_k at height y_k, the area is
    y_1/2 + (1 - y_K)/2 + sum_k t_k (y_(k+1) - y_(k-1)) / (2 n q_k).
    Scaled by ``denominator`` D, the lcm of all those denominators, each
    term is an integer: area * D is ``offset`` plus the capped endpoint
    gaps at every height times the integer ``weights``.

    D passes 2^62 at n = 22 (it is about 2^69 at n = 24), so the weights
    are kept as 31-bit int64 ``limbs``: each limb's dot product with the
    gaps is exact in int64, and ``numerators`` recombines the limbs into
    Python-int numerators over D for any n the table allows.
    ``area_numerators`` keeps the plain int64 result for exhaustive
    search; it, not the constructor, refuses a D of 2^62 or more.  Both
    work in one process-wide scratch buffer (``_scratch``), so no two
    kernel calls may run in threads at once.

    Row j0 * n + v - 1 of ``table`` holds the endpoints
    j0*q + (v - 1 - j0)*p = j0*(q - p) + (v - 1)*p of strip j0 with image
    value v at every height: n^2 rows, all in [0, (n - 1) q], within
    [0, 2(n - 1)^2].  A sorting network orders the n strips of all rows at
    once, and the capped gaps of one row sum to at most its largest minus
    its smallest endpoint, within the same bound.  So ``table``, ``q`` and
    every temporary of the network and the gap loop are uint8 while
    2(n - 1)^2 < 256 (n <= 12, every exhaustive size), which halves the
    bytes the network moves, and int16 up to n = 128 (the constructor
    refuses more); only the product with the limbs is int64.  No
    temporary wraps: the table's parts (v - 1)*p and j0*(q - p) are at most
    the endpoint bound, the network only moves values, and each gap
    hi - lo of sorted endpoints is non-negative.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if 2 * (n - 1) ** 2 >= 2**15:
            raise ValueError(f"n={n}: grid endpoints overflow int16")
        order = 2 * n - 2
        heights = sorted({Fraction(p, q) for q in range(2, order + 1) for p in range(1, q)})
        ys = [Fraction(0), *heights, Fraction(1)]
        end_term = ys[1] / 2 + (1 - ys[-2]) / 2
        weights = [(ys[k + 1] - ys[k - 1]) / (2 * n * ys[k].denominator) for k in range(1, len(ys) - 1)]
        self.n = n
        self.denominator = denominator = lcm(end_term.denominator, *(w.denominator for w in weights))
        self.weights = tuple(w.numerator * (denominator // w.denominator) for w in weights)
        size = -(-denominator.bit_length() // _LIMB_BITS)
        mask = (1 << _LIMB_BITS) - 1
        self.limbs = np.array(
            [[(w >> (_LIMB_BITS * i)) & mask for i in range(size)] for w in self.weights], dtype=np.int64
        ).reshape(len(heights), size)
        dtype = np.uint8 if 2 * (n - 1) ** 2 < 2**8 else np.int16
        p = np.array([y.numerator for y in heights], dtype=dtype)
        self.q = np.array([y.denominator for y in heights], dtype=dtype)
        # the union of n width-q intervals is q plus the capped gaps
        self.offset = int(end_term * denominator) + sum(q * w for q, w in zip(self.q.tolist(), self.weights))
        # one strip of rows at a time, with no full-size temporary
        self.table = np.empty((n * n, len(heights)), dtype=dtype)
        value_p = np.arange(n, dtype=dtype)[:, None] * p
        for j0 in range(n):
            np.add(value_p, j0 * (self.q - p), out=self.table[j0 * n : (j0 + 1) * n])
        self.network = _sorting_network(n)

    def _limb_sums(self, images: np.ndarray) -> np.ndarray:
        """Each limb's dot product with the capped gaps, per row of 1-based images."""
        n, size = self.n, len(self.weights)
        cells = len(images) * size
        width = n * self.table.itemsize
        # the scratch bytes hold the endpoints and, once they are summed into
        # the gaps, the int64 copy of the gaps
        scratch = _scratch(cells * max(width, 8))
        ends = scratch[: cells * width].view(self.table.dtype).reshape(n, len(images), size)
        # np.take copies whole table rows, 2-3x faster than fancy indexing
        # here; into a buffer it needs a mode other than "raise" to skip a
        # temporary, and the indices of a permutation's images are in range
        np.take(self.table, images.T + (np.arange(n) * n - 1)[:, None], axis=0, out=ends, mode="clip")
        rows = list(ends)
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
        wide = scratch[: cells * 8].view(np.int64).reshape(len(images), size)
        np.copyto(wide, gaps)
        return wide @ self.limbs

    def area_numerators(self, images: np.ndarray) -> np.ndarray:
        """area * ``denominator`` for each row of 1-based images, as int64."""
        if self.denominator >= 2**62:
            raise ValueError(f"n={self.n}: grid denominator {self.denominator} overflows int64")
        # with D < 2^62 there are at most two limbs, and the high one shifted
        # is at most the whole numerator
        sums = self._limb_sums(images)
        return self.offset + (sums << (_LIMB_BITS * np.arange(sums.shape[1]))).sum(axis=1)

    def numerators(self, images: np.ndarray) -> list[int]:
        """area * ``denominator`` for each row of 1-based images, as Python ints, for any n."""
        return [
            self.offset + sum(limb << (_LIMB_BITS * i) for i, limb in enumerate(row))
            for row in self._limb_sums(images).tolist()
        ]


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
    width.  An n above ``SLOPE_MAX_N`` is refused before the permutation is
    built.
    """
    check_area_n(n)
    lhs = area(TrapezoidSpec(n, composite_permutation(n)))
    rhs = sum(
        (x * 3**j * area(TrapezoidSpec(3**j, digit_swap_permutation(j))) for j, x in composite_blocks(n) if x),
        Fraction(0),
    )
    return lhs, rhs / n
