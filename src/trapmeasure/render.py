"""Deterministic SVG renderings of trapezoids and partial gaskets.

Both renderers draw into a 1000 x 1000 viewBox with the y axis flipped by
a group transform, so geometric height 0 sits at the bottom edge while
the emitted coordinates stay in plain unit-square-times-1000 form.
"""

from __future__ import annotations

from .gasket import GasketSpec, _anchor_columns
from .trapezoid import TrapezoidSpec

_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000" '
    'width="1000" height="1000">\n'
    '  <g transform="translate(0,1000) scale(1,-1)">\n'
)
_FOOTER = "  </g>\n</svg>\n"
_STYLE = 'fill="#3564b0" fill-opacity="0.5" stroke="#1a3a66" stroke-width="1"'


def _fmt(value: float) -> str:
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text or "0"


def _polygon(points: list[tuple[float, float]]) -> str:
    coords = ", ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in points)
    return f'    <polygon points="{coords}" {_STYLE}/>\n'


def trapezoid_svg(spec: TrapezoidSpec) -> str:
    """One polygon per parallelogram, in ascending bottom index."""
    n = spec.n
    pieces = [_HEADER]
    for j in range(1, n + 1):
        k = spec.sigma(j)
        pieces.append(
            _polygon(
                [
                    ((j - 1) / n * 1000.0, 0.0),
                    (j / n * 1000.0, 0.0),
                    (k / n * 1000.0, 1000.0),
                    ((k - 1) / n * 1000.0, 1000.0),
                ]
            )
        )
    pieces.append(_FOOTER)
    return "".join(pieces)


def gasket_svg(spec: GasketSpec) -> str:
    """One triangle per generation-depth anchor, from the float anchor columns, in order."""
    side = 1000.0 / 3**spec.depth
    xs, ys = _anchor_columns(spec.depth)
    pieces = [_HEADER]
    for x, y in zip((xs * 1000.0).tolist(), (ys * 1000.0).tolist()):
        pieces.append(_polygon([(x, y), (x + side, y), (x, y + side)]))
    pieces.append(_FOOTER)
    return "".join(pieces)
