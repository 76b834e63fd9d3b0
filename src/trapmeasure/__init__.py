"""Exact measures of parallelogram trapezoids and related fractal sets."""

from .exact import (
    Interval,
    IntervalUnion,
    PiecewiseLinearProfile,
    Rational,
    as_rational,
    integrate_plp,
    measure,
    normalize,
)
from .permutations import (
    CompositePlan,
    Permutation,
    canonical_class,
    composite_permutation,
    composite_plan,
    digit_swap_permutation,
    identity,
    iter_permutations,
    permutation_at_rank,
    reversal,
)
from .trapezoid import (
    TrapezoidSpec,
    area,
    area_oracle,
    slice_at,
    slice_profile,
    weighted_sum_identity,
)
from .cantor import (
    BoundaryImageWarning,
    DigitSetSpec,
    anchor_points,
    cantor_measure_closed,
    digit_swap_real,
    partial_cantor,
    slice_measure_closed,
    slice_set,
)
from .gasket import (
    DecayFit,
    Direction,
    ExactProjection,
    GasketSpec,
    NumericProjection,
    decay_fit,
    favard,
    gasket_anchors,
    lemma1_check,
    lemma2_check,
    project,
)
from .search import AlphaRecord, AlphaScanReport, alpha_exhaustive, alpha_heuristic, alpha_scan

__version__ = "0.1.0"
