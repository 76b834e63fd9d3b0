"""Exact measures of parallelogram trapezoids and related fractal sets."""

from .permutations import digit_swap_permutation
from .trapezoid import TrapezoidSpec, area, slice_at

__version__ = "0.1.0"
