"""Exact rational kernel: intervals, canonical interval unions, and exact
integration of piecewise-linear profiles.

Everything in this module is pure and immutable, and every number is an
arbitrary-precision rational (``fractions.Fraction``).  No floating point
enters any computation here; callers that want decimals convert at the
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Union

# All exact scalars in the package are Fractions: stored in lowest terms
# with a positive denominator, with exact +, -, *, / and comparisons.
Rational = Fraction

RationalLike = Union[Fraction, int, str]


def as_rational(value: RationalLike) -> Rational:
    """Coerce to an exact rational, rejecting floats outright.

    Floats carry binary rounding noise that would silently poison exact
    geometry, so they are not accepted anywhere in the kernel.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r} to an exact rational")
    return Fraction(value)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with rational endpoints, lo <= hi."""

    lo: Rational
    hi: Rational

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: lo={self.lo} > hi={self.hi}")

    @property
    def length(self) -> Rational:
        return self.hi - self.lo

    def contains(self, x: RationalLike) -> bool:
        return self.lo <= x <= self.hi

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class IntervalUnion:
    """Canonical union of closed intervals: sorted, with strict gaps.

    Touching intervals are merged on construction via :func:`normalize`,
    so equal point sets always compare equal.  Direct construction with a
    non-canonical part tuple raises.
    """

    parts: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        for prev, cur in zip(self.parts, self.parts[1:]):
            if prev.hi >= cur.lo:
                raise ValueError(
                    f"parts not canonical: {prev} and {cur} overlap or touch; use normalize()"
                )

    @cached_property
    def measure(self) -> Rational:
        """Exact total length (one-dimensional Lebesgue measure)."""
        return sum((p.length for p in self.parts), Fraction(0))

    def contains(self, x: RationalLike) -> bool:
        return any(p.contains(x) for p in self.parts)

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(p) for p in self.parts) + "}"


def normalize(parts: Iterable[Interval]) -> IntervalUnion:
    """Canonicalize a collection of intervals into an IntervalUnion.

    Sorts by left endpoint and merges everything that overlaps or touches;
    the result's measure equals the measure of the set-theoretic union.
    """
    merged: list[list[Rational]] = []
    for iv in sorted(parts, key=lambda p: (p.lo, p.hi)):
        if merged and iv.lo <= merged[-1][1]:
            if iv.hi > merged[-1][1]:
                merged[-1][1] = iv.hi
        else:
            merged.append([iv.lo, iv.hi])
    return IntervalUnion(tuple(Interval(lo, hi) for lo, hi in merged))


def measure(union: IntervalUnion) -> Rational:
    """Exact measure of a canonical union (sum of part lengths)."""
    return union.measure


@dataclass(frozen=True)
class PiecewiseLinearProfile:
    """Continuous piecewise-linear function on [0, 1], given by breakpoints.

    ``breakpoints`` is a sequence of (y, value) pairs with y strictly
    increasing from exactly 0 to exactly 1.  Storing values (not slopes)
    makes continuity structural and keeps the trapezoid rule exact.
    """

    breakpoints: tuple[tuple[Rational, Rational], ...]

    def __post_init__(self) -> None:
        pts = tuple((as_rational(y), as_rational(v)) for y, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if len(pts) < 2:
            raise ValueError("profile needs at least the two endpoint breakpoints")
        if pts[0][0] != 0 or pts[-1][0] != 1:
            raise ValueError("profile must span [0, 1] exactly")
        for (y0, _), (y1, _) in zip(pts, pts[1:]):
            if y0 >= y1:
                raise ValueError(f"breakpoint ordinates must strictly increase: {y0} >= {y1}")

    def value_at(self, y: RationalLike) -> Rational:
        """Exact value at y by linear interpolation between breakpoints."""
        y = as_rational(y)
        if not 0 <= y <= 1:
            raise ValueError(f"profile argument {y} outside [0, 1]")
        pts = self.breakpoints
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= y:
                lo = mid
            else:
                hi = mid
        (y0, v0), (y1, v1) = pts[lo], pts[hi]
        if y == y0:
            return v0
        if y == y1:
            return v1
        return v0 + (v1 - v0) * (y - y0) / (y1 - y0)


def integrate_plp(profile: PiecewiseLinearProfile) -> Rational:
    """Exact integral over [0, 1] of a piecewise-linear profile.

    The trapezoid rule, summed by parts, gives
    1/2 * sum_k v_k (y_(k+1) - y_(k-1)) with y_(-1) = y_0 and y_K = y_(K-1).
    Each term is a ratio of small integers; numerators are summed per
    distinct denominator, and only those denominators are scaled to their
    common multiple L, so the sum over 2L is the one Fraction built.
    """
    pts = profile.breakpoints
    ys = [y for y, _ in pts]
    acc: dict[int, int] = {}
    for y0, (_, v), y1 in zip([ys[0], *ys], pts, [*ys[1:], ys[-1]]):
        b, e = y0.denominator, y1.denominator
        den = v.denominator * b * e
        acc[den] = acc.get(den, 0) + v.numerator * (y1.numerator * b - y0.numerator * e)
    common = lcm(*acc)
    return Fraction(sum(num * (common // den) for den, num in acc.items()), 2 * common)
