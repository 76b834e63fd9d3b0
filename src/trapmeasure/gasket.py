"""Partial gaskets, their linear projections, and decay diagnostics.

The depth-n partial gasket is the union of 3^n right triangles of side
3^-n anchored at all depth-n sums of the digit vectors (0,0), (2,0),
(0,2).  Projecting onto a line through the origin sends each triangle to
the interval spanned by its three projected vertices; averaging the
projection measure over all directions gives the Favard (Buffon needle)
value, which decays as the depth grows.

Directions come in two flavours: an exact rational slope, for which the
projected set is a scaled digit set of ``cantor.partial_cantor``, built
in integers up to a single cosine rescale (every union is integers over
one scale; Fractions only when read), and a floating angle, for which
endpoints are doubles merged with a depth-scaled tolerance.  In angle
mode every triangle's interval is its projected anchor plus one fixed
offset pair, so a single sort of the anchors orders both endpoint arrays
and the parts are cut wherever a gap exceeds the tolerance, with no
per-triangle loop; the anchor columns of each depth are built once and
cached read-only.  Every measure in angle mode (``project``'s, and the
only thing ``favard`` and ``lemma1_check`` read) comes straight from the
endpoint arrays: ``_exact_sum`` splits every part length exactly into
three columns, multiples of 2^-20, 2^-45 and 2^-72, whose numpy sums are
exact in any order, so the ``math.fsum`` of the three column sums is the
correctly rounded total, the double ``math.fsum`` of the lengths gives.
The split is exact only for fewer than 2^13 lengths in [2^-20, 2), which
holds up to ``GASKET_DEPTH_CAP``, a constant that ``GasketSpec``
enforces; anything outside that range raises.  The exact mode exists to
anchor the numeric one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .cantor import DigitSetSpec, partial_cantor, slice_set
from .exact import IntervalUnion, Rational, RationalLike, as_rational

GASKET_DEPTH_CAP = 8

# interval halvings before adaptive Simpson accepts a panel unconverged
_SIMPSON_MAX_DEPTH = 48

_DIGIT_VECTORS = ((0, 0), (2, 0), (0, 2))


@dataclass(frozen=True)
class GasketSpec:
    """Construction depth; 3^depth triangles of side 3^-depth."""

    depth: int

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError(f"negative depth {self.depth}")
        if self.depth > GASKET_DEPTH_CAP:
            raise ValueError(f"depth {self.depth} exceeds cap {GASKET_DEPTH_CAP}")


@dataclass(frozen=True)
class Direction:
    """Projection direction: exact rational slope or floating angle.

    Exactly one of the two must be set.  Slope mode means tan(theta) =
    slope with theta in (0, pi/2); angle mode takes any theta in [0, pi).
    """

    slope: Rational | None = None
    angle: float | None = None

    def __post_init__(self) -> None:
        if (self.slope is None) == (self.angle is None):
            raise ValueError("set exactly one of slope / angle")
        if self.slope is not None:
            object.__setattr__(self, "slope", as_rational(self.slope))
            if self.slope <= 0:
                raise ValueError(f"slope must be positive, got {self.slope}")
        else:
            if not math.isfinite(self.angle):
                raise ValueError(f"angle must be finite, got {self.angle}")
            if not 0 <= self.angle < math.pi:
                raise ValueError(f"angle {self.angle} outside [0, pi)")

    @classmethod
    def from_angle(cls, angle: float) -> "Direction":
        return cls(angle=float(angle))


def gasket_anchors(spec: GasketSpec) -> tuple[tuple[Rational, Rational], ...]:
    """Lower-left corners of all generation-depth triangles.

    Emitted in digit-enumeration order, (0,0) branch first, so the output
    is deterministic; all 3^depth anchors are distinct.
    """
    anchors = [(0, 0)]
    for k in range(1, spec.depth + 1):
        weight = 3 ** (spec.depth - k)
        anchors = [(x + vx * weight, y + vy * weight) for x, y in anchors for vx, vy in _DIGIT_VECTORS]
    scale = 3**spec.depth
    return tuple((Fraction(x, scale), Fraction(y, scale)) for x, y in anchors)


@lru_cache(maxsize=GASKET_DEPTH_CAP + 1)
def _anchor_columns(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Anchor x and y as two contiguous float columns, in digit-enumeration order.

    Cached per depth and shared by every caller, so both are read-only.
    """
    xs, ys = np.zeros(1), np.zeros(1)
    vx, vy = np.array(_DIGIT_VECTORS, dtype=np.float64).T
    for k in range(1, depth + 1):
        xs = (xs[:, None] + vx / 3.0**k).reshape(-1)
        ys = (ys[:, None] + vy / 3.0**k).reshape(-1)
    xs.flags.writeable = False
    ys.flags.writeable = False
    return xs, ys


@dataclass(frozen=True)
class ExactProjection:
    """Projection in slope mode: exact set divided by cos(theta).

    ``scaled_set`` collects the intervals x + slope*y swept by each
    triangle, exactly; the true projected measure is the exact scaled
    measure times the cosine, applied numerically at the boundary.
    """

    scaled_set: IntervalUnion
    cosine: float

    @property
    def measure(self) -> float:
        return float(self.scaled_set.measure) * self.cosine


@dataclass(frozen=True)
class NumericProjection:
    """Projection in angle mode: merged double-precision intervals."""

    parts: tuple[tuple[float, float], ...]
    measure: float


def project(spec: GasketSpec, direction: Direction) -> ExactProjection | NumericProjection:
    """Projection of the partial gasket onto a line with the direction."""
    if direction.slope is not None:
        return _project_exact(spec, direction.slope)
    starts, ends = _project_numeric(_anchor_columns(spec.depth), spec.depth, direction.angle)
    return NumericProjection(parts=tuple(zip(starts.tolist(), ends.tolist())), measure=_exact_sum(ends - starts))


def _project_exact(spec: GasketSpec, slope: Fraction) -> ExactProjection:
    # slope u/v sends the digit vectors to the digits 0, 2v, 2u over v, and
    # each triangle to [s, s + w 3^-depth] over v, with s its anchor's digit
    # sum and w = max(u, v): the digit set {0, 2v/w, 2u/w} scaled by w/v
    u, v = slope.numerator, slope.denominator
    w = max(u, v)
    union = partial_cantor(DigitSetSpec(spec.depth, (0, Fraction(2 * v, w), Fraction(2 * u, w))))
    scaled = IntervalUnion(tuple(a * w for a in union.lo), tuple(b * w for b in union.hi), union.scale * v)
    return ExactProjection(scaled_set=scaled, cosine=1.0 / math.sqrt(1.0 + float(slope) ** 2))


def _project_numeric(
    anchors: tuple[np.ndarray, np.ndarray], depth: int, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the merged parts of the projection at angle theta."""
    # Triangle i projects to [b_i + m, b_i + M] with b_i its projected anchor.
    # Rounding is monotone and fl(b + 0) = b, so these equal the corner
    # min/max bit for bit, and sorting b sorts both endpoint arrays: hi is
    # non-decreasing and a part ends wherever the next lo clears hi + tol.
    c, s = math.cos(theta), math.sin(theta)
    w = 3.0**-depth
    xs, ys = anchors
    base = xs * c
    base += ys * s
    base.sort()
    lo = base + min(0.0, c * w, s * w)
    hi = base + max(0.0, c * w, s * w)
    gaps = np.flatnonzero(lo[1:] > hi[:-1] + 1e-12 * 3**depth)
    starts = lo[np.concatenate(([0], gaps + 1))]
    ends = hi[np.concatenate((gaps, [len(hi) - 1]))]
    return starts, ends


# Adding and subtracting 1.5 * 2^32 rounds a double below 2 to a multiple of
# 2^-20, and 1.5 * 2^7 rounds a remainder of at most 2^-21 to a multiple of
# 2^-45; both differences are exact.
_SPLIT_HIGH = 1.5 * 2.0**32
_SPLIT_MID = 1.5 * 2.0**7


def _exact_sum(lengths: np.ndarray) -> float:
    """``math.fsum`` of fewer than 2^13 doubles in [2^-20, 2), without a list.

    Each length splits exactly into multiples of 2^-20, 2^-45 and 2^-72
    (a double of at least 2^-20 is a multiple of 2^-72), each at most
    2, 2^-21 and 2^-46 in size.  Fewer than 2^13 of them sum to at most
    2^34, 2^37 and 2^39 units, within the 53-bit significand, so every
    column sum is exact in any order and the fsum of the three is the
    correctly rounded total.
    """
    if lengths.size >= 2**13:
        raise ValueError(f"{lengths.size} lengths; the exact split needs fewer than 2^13")
    if not (lengths.min() >= 2.0**-20 and lengths.max() < 2.0):
        raise ValueError("lengths outside [2^-20, 2); the exact split does not apply")
    high = (lengths + _SPLIT_HIGH) - _SPLIT_HIGH
    rest = lengths - high
    mid = (rest + _SPLIT_MID) - _SPLIT_MID
    low = rest - mid
    return math.fsum((high.sum(), mid.sum(), low.sum()))


def _numeric_measure(anchors: tuple[np.ndarray, np.ndarray], depth: int, theta: float) -> float:
    """Measure of the projection at angle theta, with no parts tuple built."""
    starts, ends = _project_numeric(anchors, depth, theta)
    return _exact_sum(ends - starts)


def favard(spec: GasketSpec, quad_points: int) -> float:
    """Midpoint estimate of the direction-averaged projection measure.

    Uniform midpoint grid over [0, pi); the gasket's symmetry under
    swapping coordinates pairs midpoints theta and pi/2 - theta (mod pi),
    halving the evaluations for even grids.  Summation order is fixed by
    grid index, so the result is deterministic.  The depth cap keeps
    every direction below the exact sum's 2^13 parts.
    """
    if quad_points < 16:
        raise ValueError(f"need at least 16 quadrature points, got {quad_points}")
    anchors = _anchor_columns(spec.depth)
    step = math.pi / quad_points
    multiplicity: dict[int, int] = {}
    for i in range(quad_points):
        if quad_points % 2 == 0:
            partner = (quad_points // 2 - 1 - i) % quad_points
            rep = min(i, partner)
        else:
            rep = i
        multiplicity[rep] = multiplicity.get(rep, 0) + 1
    total = math.fsum(
        _numeric_measure(anchors, spec.depth, (rep + 0.5) * step) * count
        for rep, count in sorted(multiplicity.items())
    )
    return total / quad_points


@dataclass(frozen=True)
class SliceBoundRow:
    """One height of the slice-vs-projection comparison."""

    depth: int
    t: Rational
    lhs: Rational
    rhs: float
    ratio: float
    ok: bool


def lemma1_check(depth: int, t_grid: Sequence[RationalLike]) -> list[SliceBoundRow]:
    """Compare exact slice measures against the projection bound.

    For each t the left side is the exact measure of the depth-n slice
    set and the right side is (1+t) times the numeric projection measure
    at the angle whose tangent is (2-t)/(1+t).  Rows report the ratio;
    the literal inequality is known to fail for some t (the projected
    set matches the slice set only up to an affine rescale), so failures
    are flagged, never hidden.
    """
    spec = GasketSpec(depth)
    anchors = _anchor_columns(depth)
    rows = []
    for t_raw in t_grid:
        t = as_rational(t_raw)
        if not 0 <= t <= 1:
            raise ValueError(f"grid height {t} outside [0, 1]")
        lhs = slice_set(depth, t).measure
        phi = math.atan(float((2 - t) / (1 + t)))
        rhs = float(1 + t) * _numeric_measure(anchors, depth, phi)
        ratio = float(lhs) / rhs if rhs else math.inf
        rows.append(
            SliceBoundRow(
                depth=depth,
                t=t,
                lhs=lhs,
                rhs=rhs,
                ratio=ratio,
                ok=float(lhs) <= rhs + 1e-9,
            )
        )
    return rows


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Classic recursive Simpson with the 15x error heuristic."""

    def simp(fa: float, fm: float, fb: float, a: float, b: float) -> float:
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simp(fa, flm, fm, a, m)
        right = simp(fm, frm, fb, m, b)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        return rec(a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + rec(
            m, b, fm, frm, fb, right, tol / 2.0, depth - 1
        )

    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    return rec(a, b, fa, fm, fb, simp(fa, fm, fb, a, b), tol, _SIMPSON_MAX_DEPTH)


def _singular_exp_integral(n: float, p: float) -> float:
    """Integral of exp(x) * x^-p over [0, n] for p in (0, 1).

    Split at x = 1.  On [0, 1] the substitution u = x^(1-p) absorbs the
    singularity exactly: the integrand becomes exp(u^(1/(1-p))) / (1-p),
    smooth and bounded.  On [1, n] plain adaptive Simpson with a
    tolerance relative to the exponential scale.
    """
    top = min(1.0, n)
    u_top = top ** (1.0 - p)
    inner = 1.0 / (1.0 - p)
    smooth = lambda u: math.exp(u**inner)
    part1 = _adaptive_simpson(smooth, 0.0, u_top, 1e-12) / (1.0 - p)
    if n <= 1.0:
        return part1
    g = lambda x: math.exp(x) * x**-p
    part2 = _adaptive_simpson(g, 1.0, n, 1e-13 * g(n) * max(1.0, n - 1.0))
    return part1 + part2


@dataclass(frozen=True)
class ExpBoundRow:
    """One grid point of the singular-integral growth comparison."""

    n: float
    integral: float
    bound: float
    ratio: float
    ok: bool


def lemma2_check(p: float, n_values: Iterable[float]) -> list[ExpBoundRow]:
    """Ratios of the singular integral to its claimed e^n n^-p envelope.

    The ratios stay finite and drift down toward 1 as n grows, which is
    the testable content of the bound: a row is ok when its ratio is
    finite, positive and not above the previous row's.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"exponent p must lie in (0, 1), got {p}")
    grid = [float(n) for n in n_values]
    for n in grid:
        if n <= 0:
            raise ValueError(f"grid value {n} must be positive")
        # exp overflows past ln(largest double), about 709.78, and the Simpson
        # sums on [1, n] reach 6 e^n n^-p, where an infinite one never
        # converges; 8 (a power of two, so exact) leaves room for rounding
        if n > math.log(sys.float_info.max) or not math.isfinite(math.exp(n) * n**-p * 8):
            raise ValueError(f"grid value {n}: 8 e^n n^-p overflows a double")
    rows = []
    previous = math.inf
    for n in grid:
        integral = _singular_exp_integral(n, p)
        bound = math.exp(n) * n**-p
        ratio = integral / bound
        ok = math.isfinite(ratio) and 0 < ratio <= previous
        rows.append(ExpBoundRow(n=n, integral=integral, bound=bound, ratio=ratio, ok=ok))
        previous = ratio
    return rows


@dataclass(frozen=True)
class DecayFit:
    """Power-law fit value ~ C * m^-p by least squares in log-log space."""

    pairs: tuple[tuple[float, float], ...]
    c: float
    p: float
    residual: float


def decay_fit(pairs: Sequence[tuple[float, float]]) -> DecayFit:
    """Fit log value = log C - p log m; residual is the log-space RMS."""
    cleaned = tuple((float(m), float(v)) for m, v in pairs)
    if len(cleaned) < 3:
        raise ValueError(f"need at least 3 pairs, got {len(cleaned)}")
    for m, v in cleaned:
        if m < 1:
            raise ValueError(f"scale index {m} must be >= 1")
        if v <= 0:
            raise ValueError(f"value {v} must be positive")
    xs = [math.log(m) for m, _ in cleaned]
    ys = [math.log(v) for _, v in cleaned]
    mean_x = math.fsum(xs) / len(xs)
    mean_y = math.fsum(ys) / len(ys)
    var = math.fsum((x - mean_x) ** 2 for x in xs)
    if var == 0.0:
        raise ValueError("all scale indices coincide; nothing to fit")
    slope = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var
    intercept = mean_y - slope * mean_x
    residual = math.sqrt(
        math.fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)) / len(xs)
    )
    return DecayFit(pairs=cleaned, c=math.exp(intercept), p=-slope, residual=residual)
