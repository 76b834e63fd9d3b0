"""Exact rational kernel: intervals, canonical interval unions, and exact
integration of piecewise-linear profiles.

Everything in this module is pure and immutable, and every number is an
exact rational.  Every union is integers over one scale, built from its
columns or from :class:`Interval` s by ``normalize``, and every
piecewise-linear profile is built from its integer numerator and
denominator columns; Fractions are built only when read (``parts``,
``breakpoints``) or for the one final value (``measure``,
``integrate_plp``).  No floating point enters any computation here;
callers that want decimals convert at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import le, lt, mul
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

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True, eq=False)
class IntervalUnion:
    """Canonical union of closed intervals: sorted, with strict gaps.

    Two integer columns and a scale, ``(lo, hi, scale)``: part k is the
    interval [lo[k]/scale, hi[k]/scale].  The checks: lo <= hi in every
    part, each part strictly left of the next (touching parts must be
    merged first; :func:`normalize` builds a union from any collection of
    :class:`Interval` s), a positive scale, integers only.  ``parts`` is
    the tuple of reduced Fraction intervals, built on first read;
    ``measure`` never builds it.  Equality, hashing and ``repr`` depend on
    the point set alone, never on the scale.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]
    scale: int

    def __post_init__(self) -> None:
        lo, hi, scale = self.lo, self.hi, self.scale
        # as for profiles: a column's sum is an int only if every entry is
        if type(scale) is not int or type(sum(lo)) is not int or type(sum(hi)) is not int:
            raise TypeError("union columns and scale must be Python ints")
        if len(lo) != len(hi):
            raise ValueError("union columns differ in length")
        if scale <= 0:
            raise ValueError(f"union scale must be positive, got {scale}")
        if not all(map(le, lo, hi)):
            a, b = next((a, b) for a, b in zip(lo, hi) if a > b)
            raise ValueError(f"part endpoints out of order: {Fraction(a, scale)} > {Fraction(b, scale)}")
        if not all(map(lt, hi, lo[1:])):
            k = next(k for k, (b, a) in enumerate(zip(hi, lo[1:])) if b >= a)
            raise ValueError(
                f"parts not canonical: part {k} ends at {Fraction(hi[k], scale)}, "
                f"part {k + 1} starts at {Fraction(lo[k + 1], scale)}; use normalize()"
            )

    @cached_property
    def parts(self) -> tuple[Interval, ...]:
        scale = self.scale
        return tuple(Interval(Fraction(a, scale), Fraction(b, scale)) for a, b in zip(self.lo, self.hi))

    def __getstate__(self) -> dict:
        # pickle the columns only: parts is several times their size, and rebuilt on read
        return {"lo": self.lo, "hi": self.hi, "scale": self.scale}

    @property
    def measure(self) -> Rational:
        """Exact total length (one-dimensional Lebesgue measure)."""
        return Fraction(sum(self.hi) - sum(self.lo), self.scale)

    def _reduced(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        # dividing out the common gcd leaves the least common denominator
        # of the endpoints, so equal point sets give equal columns
        g = gcd(self.scale, *self.lo, *self.hi)
        return (
            tuple(a // g for a in self.lo),
            tuple(b // g for b in self.hi),
            self.scale // g,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._reduced() == other._reduced()

    def __hash__(self) -> int:
        return hash(self._reduced())

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(p) for p in self.parts) + "}"


def merge_ints(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lo and hi columns of the union of integer intervals [lo, hi].

    Sorts the pairs and merges everything that overlaps or touches, so the
    columns pass the canonical check of :class:`IntervalUnion`.
    """
    los: list[int] = []
    his: list[int] = []
    for lo, hi in sorted(pairs):
        if his and lo <= his[-1]:
            if hi > his[-1]:
                his[-1] = hi
        else:
            los.append(lo)
            his.append(hi)
    return tuple(los), tuple(his)


def normalize(parts: Iterable[Interval]) -> IntervalUnion:
    """Canonicalize a collection of intervals into an IntervalUnion.

    Scales every endpoint to an integer over the least common denominator,
    then sorts and merges with :func:`merge_ints`; the result's measure
    equals the measure of the set-theoretic union.
    """
    parts = tuple(parts)
    scale = lcm(*(x.denominator for p in parts for x in (p.lo, p.hi)))
    lo, hi = merge_ints(
        (p.lo.numerator * (scale // p.lo.denominator), p.hi.numerator * (scale // p.hi.denominator))
        for p in parts
    )
    return IntervalUnion(lo, hi, scale)


def measure(union: IntervalUnion) -> Rational:
    """Exact measure of a canonical union (sum of part lengths)."""
    return union.measure


@dataclass(frozen=True, eq=False)
class PiecewiseLinearProfile:
    """Continuous piecewise-linear function on [0, 1], given by breakpoints.

    Four integer columns ``(y_num, y_den, v_num, v_den)``: breakpoint k is
    (y_num[k]/y_den[k], v_num[k]/v_den[k]), fractions not necessarily
    reduced.  The checks: at least two breakpoints, y strictly increasing
    from exactly 0 to exactly 1, positive denominators, integers only.
    ``breakpoints`` is the tuple of reduced Fraction pairs, built on first
    read.  Storing values (not slopes) makes continuity structural and
    keeps the trapezoid rule exact.
    """

    y_num: tuple[int, ...]
    y_den: tuple[int, ...]
    v_num: tuple[int, ...]
    v_den: tuple[int, ...]

    def __post_init__(self) -> None:
        y_num, y_den, v_num, v_den = columns = (self.y_num, self.y_den, self.v_num, self.v_den)
        # a float, a Fraction or a numpy scalar anywhere makes a column's
        # sum non-int, so this one C-level pass per column refuses them all
        for col in columns:
            if type(sum(col)) is not int:
                raise TypeError("profile columns must hold Python ints only")
        if not len(y_num) == len(y_den) == len(v_num) == len(v_den):
            raise ValueError("profile columns differ in length")
        if len(y_num) < 2:
            raise ValueError("profile needs at least the two endpoint breakpoints")
        if min(y_den) <= 0 or min(v_den) <= 0:
            raise ValueError("profile denominators must be positive")
        if y_num[0] != 0 or y_num[-1] != y_den[-1]:
            raise ValueError("profile must span [0, 1] exactly")
        if not all(map(lt, map(mul, y_num, y_den[1:]), map(mul, y_num[1:], y_den))):
            y0, y1 = next(
                (Fraction(a, b), Fraction(c, d))
                for a, b, c, d in zip(y_num, y_den, y_num[1:], y_den[1:])
                if a * d >= c * b
            )
            raise ValueError(f"breakpoint ordinates must strictly increase: {y0} >= {y1}")

    @cached_property
    def breakpoints(self) -> tuple[tuple[Rational, Rational], ...]:
        return tuple(
            (Fraction(p, q), Fraction(a, b))
            for p, q, a, b in zip(self.y_num, self.y_den, self.v_num, self.v_den)
        )

    def __getstate__(self) -> dict:
        # pickle the columns only: breakpoints is several times their size, and rebuilt on read
        return {"y_num": self.y_num, "y_den": self.y_den, "v_num": self.v_num, "v_den": self.v_den}

    def __eq__(self, other: object) -> bool:
        # type(self): the benchmark's traced runs rebind the module-level name
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.breakpoints == other.breakpoints

    def __hash__(self) -> int:
        return hash(self.breakpoints)

    def __repr__(self) -> str:
        return f"PiecewiseLinearProfile({self.breakpoints!r})"

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
    With y_k = p_k/q_k and v_k = t_k/w_k, term k is the integer ratio
    t_k (p_(k+1) q_(k-1) - p_(k-1) q_(k+1)) / (w_k q_(k-1) q_(k+1)), read
    straight from the profile's integer columns.  Numerators are summed
    per distinct denominator, and only those denominators are scaled to
    their common multiple L, so the sum over 2L is the one Fraction built.
    """
    ps, qs = profile.y_num, profile.y_den
    acc: dict[int, int] = {}
    for p0, q0, t, w, p1, q1 in zip(
        (ps[0], *ps),
        (qs[0], *qs),
        profile.v_num,
        profile.v_den,
        (*ps[1:], ps[-1]),
        (*qs[1:], qs[-1]),
    ):
        den = w * q0 * q1
        acc[den] = acc.get(den, 0) + t * (p1 * q0 - p0 * q1)
    common = lcm(*acc)
    return Fraction(sum(num * (common // den) for den, num in acc.items()), 2 * common)
