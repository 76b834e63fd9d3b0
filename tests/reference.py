"""Plain references for objects the library builds one other way.

Each helper is the direct construction, in exact arithmetic: the inverse
and mirror of a permutation, a profile's value by interpolation, the
anchors of a digit set and of a partial gasket by enumerating every digit
sum.  The tests compare the library's one construction against these.
"""

import math
from fractions import Fraction

from trapmeasure.cantor import DigitSetSpec
from trapmeasure.exact import PiecewiseLinearProfile, Rational, RationalLike, as_rational
from trapmeasure.gasket import GasketSpec
from trapmeasure.permutations import Permutation


def inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p.image)
    for j, k in enumerate(p.image, start=1):
        inv[k - 1] = j
    return Permutation(tuple(inv))


def mirrored(p: Permutation) -> Permutation:
    """Conjugate by the reversal r: j -> n+1-j (horizontal mirror)."""
    n = len(p.image)
    return Permutation(tuple(n + 1 - p.image[n - i] for i in range(1, n + 1)))


def value_at(profile: PiecewiseLinearProfile, y: RationalLike) -> Rational:
    """Exact value at y by linear interpolation between breakpoints."""
    y = as_rational(y)
    if not 0 <= y <= 1:
        raise ValueError(f"profile argument {y} outside [0, 1]")
    pts = profile.breakpoints
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


def anchor_points(spec: DigitSetSpec) -> tuple[Rational, ...]:
    """All depth-n digit sums, sorted, duplicates collapsed."""
    q = math.lcm(*(d.denominator for d in spec.digits))
    digit_ints = sorted({int(d * q) for d in spec.digits})
    anchors = {0}
    for k in range(1, spec.depth + 1):
        weight = 3 ** (spec.depth - k)
        anchors = {a + d * weight for a in anchors for d in digit_ints}
    return tuple(Fraction(a, q * 3**spec.depth) for a in sorted(anchors))


def gasket_anchors(spec: GasketSpec) -> tuple[tuple[Rational, Rational], ...]:
    """Lower-left corners of all generation-depth triangles.

    Emitted in digit-enumeration order, (0,0) branch first, so the output
    is deterministic; all 3^depth anchors are distinct.
    """
    digit_vectors = ((0, 0), (2, 0), (0, 2))
    anchors = [(0, 0)]
    for k in range(1, spec.depth + 1):
        weight = 3 ** (spec.depth - k)
        anchors = [(x + vx * weight, y + vy * weight) for x, y in anchors for vx, vy in digit_vectors]
    scale = 3**spec.depth
    return tuple((Fraction(x, scale), Fraction(y, scale)) for x, y in anchors)
