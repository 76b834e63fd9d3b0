"""Digit-generated interval sets and their closed-form measures.

A depth-n digit set collects all sums x_1/3 + x_2/9 + ... + x_n/3^n with
each x_k drawn from a fixed triple of rationals in [0, 2]; attaching an
interval of width 3^-n to every sum gives the n-th stage of a modified
Cantor construction.  Two digit triples matter most: {0, 1, t} gives the
partial modified Cantor set, and {0, 1+t, 2-t} gives the horizontal slice
of the depth-n digit-swap trapezoid at height t.  ``partial_cantor``
builds each stage level by level, in exact integers, as the union of the
previous stage's merged parts shifted by each digit and scaled by 1/3, so
it never enumerates the 3^n sums.  Depth is capped at ``DEPTH_CAP``.
Every union is integers over one scale; Fractions are built only when
read, so a measure costs one.

The limit measures have closed forms driven by a mod-3 condition on the
lowest-terms representation of the parameter; those are implemented as
stated and tested for consistency against the finite stages, not derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import IntervalUnion, Rational, RationalLike, as_rational, merge_ints

DEPTH_CAP = 12


@dataclass(frozen=True)
class DigitSetSpec:
    """Depth n plus the triple of rational digits, each within [0, 2].

    The digit bound keeps generation n+1 intervals nested inside
    generation n intervals, so measures decrease with depth.
    """

    depth: int
    digits: tuple[Rational, Rational, Rational]

    def __post_init__(self) -> None:
        digits = tuple(as_rational(d) for d in self.digits)
        object.__setattr__(self, "digits", digits)
        if len(digits) != 3:
            raise ValueError("exactly three digits required")
        if self.depth < 0:
            raise ValueError(f"negative depth {self.depth}")
        if self.depth > DEPTH_CAP:
            raise ValueError(f"depth {self.depth} exceeds cap {DEPTH_CAP} (3^n anchors)")
        for d in digits:
            if not 0 <= d <= 2:
                raise ValueError(f"digit {d} outside [0, 2]")


def anchor_points(spec: DigitSetSpec) -> tuple[Rational, ...]:
    """All depth-n digit sums, sorted, duplicates collapsed."""
    q = math.lcm(*(d.denominator for d in spec.digits))
    digit_ints = sorted({int(d * q) for d in spec.digits})
    anchors = {0}
    for k in range(1, spec.depth + 1):
        weight = 3 ** (spec.depth - k)
        anchors = {a + d * weight for a in anchors for d in digit_ints}
    return tuple(Fraction(a, q * 3**spec.depth) for a in sorted(anchors))


def partial_cantor(spec: DigitSetSpec) -> IntervalUnion:
    """Union of [x, x + 3^-depth] over all anchors, canonical.

    Built level by level from C_0 = [0, 1] and C_k = U_d (d + C_(k-1)) / 3:
    the parts of C_(k-1), as integers over q * 3^(k-1), shifted by each
    digit's d * q * 3^(k-1) are the parts of C_k over q * 3^k, which are
    sorted and merged where they touch.  Only merged parts are ever held,
    never the 3^depth anchors.
    """
    q = math.lcm(*(d.denominator for d in spec.digits))
    digit_ints = sorted({int(d * q) for d in spec.digits})
    los, his = [0], [q]
    for k in range(spec.depth):
        shifts = [d * 3**k for d in digit_ints]
        los, his = merge_ints((lo + s, hi + s) for s in shifts for lo, hi in zip(los, his))
    return IntervalUnion(los, his, q * 3**spec.depth)


def slice_set(depth: int, t: RationalLike) -> IntervalUnion:
    """Depth-n slice of the digit-swap trapezoid at height t, in digit form.

    Digit triple {0, 1+t, 2-t}: the bottom-interval digit contributes
    nothing, a swapped 1 sweeps right by t, a swapped 2 sweeps left by t.
    """
    t = as_rational(t)
    if not 0 <= t <= 1:
        raise ValueError(f"slice height {t} outside [0, 1]")
    return partial_cantor(DigitSetSpec(depth, (Fraction(0), 1 + t, 2 - t)))


def cantor_measure_closed(t: RationalLike) -> Rational:
    """Limit measure of the {0, 1, t} modified Cantor set.

    1/q when t = p/q in lowest terms with p + q divisible by 3, else 0.
    """
    t = as_rational(t)
    if t < 0:
        raise ValueError(f"parameter {t} must be nonnegative")
    if (t.numerator + t.denominator) % 3 == 0:
        return Fraction(1, t.denominator)
    return Fraction(0)


def slice_measure_closed(t: RationalLike) -> Rational:
    """Limit measure of the full trapezoid slice at height t.

    The slice set is the {0, 1, (2-t)/(1+t)} Cantor set scaled by 1+t.
    """
    t = as_rational(t)
    if not 0 <= t <= 1:
        raise ValueError(f"slice height {t} outside [0, 1]")
    return (1 + t) * cantor_measure_closed((2 - t) / (1 + t))

