"""Minimal deterministic SVG rendering for DD-plots and curve fans.

Presentation only; nothing here computes statistics. Markup comes from
fixed templates with fixed ``%.3f`` coordinate formatting and no
timestamps or randomness, so identical data produces identical bytes.
"""

from __future__ import annotations

from html import escape

from .depth import DDPlotData
from .funcspace import Curve, check_same_grid

# Okabe-Ito-ish palette; index 0 is reserved for the reference/median line.
_COLORS = ("#000000", "#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9")


def _f(v: float) -> str:
    return f"{v:.3f}"


def _canvas(width: int, height: int, pad: float) -> str:
    """The opening svg tag and the grey border of the plot area, pad inside each edge."""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect x="{_f(pad)}" y="{_f(pad)}" width="{_f(width - 2 * pad)}" '
        f'height="{_f(height - 2 * pad)}" fill="none" stroke="#888888" '
        f'stroke-width="1"/>\n'
    )


def _text(label: str, x: float, y: float, anchor: str, rotate: bool = False) -> str:
    """A 12px sans-serif label at (x, y), turned 90 degrees counterclockwise when rotate."""
    turn = f' transform="rotate(-90 {_f(x)} {_f(y)})"' if rotate else ""
    return (
        f'<text x="{_f(x)}" y="{_f(y)}" font-size="12" font-family="sans-serif" '
        f'text-anchor="{anchor}"{turn}>{label}</text>\n'
    )


def dd_plot_svg(dd: DDPlotData, size: int = 480) -> str:
    """Scatter of depth pairs with the 45 degree reference line.

    First-sample observations are filled circles, second-sample ones open
    squares, matching the source labels in the data.
    """
    pad = 40.0
    span = size - 2 * pad

    def px(v: float) -> str:
        return _f(pad + v * span)

    def py(v: float) -> str:
        return _f(size - pad - v * span)

    parts = [_canvas(size, size, pad)]
    parts.append(
        f'<line x1="{px(0.0)}" y1="{py(0.0)}" x2="{px(1.0)}" y2="{py(1.0)}" '
        f'stroke="#000000" stroke-width="1" stroke-dasharray="4,3"/>\n'
    )
    for (d1, d2), src in zip(dd.points, dd.source):
        if src == "sample1":
            parts.append(
                f'<circle cx="{px(d1)}" cy="{py(d2)}" r="3" '
                f'fill="{_COLORS[1]}" fill-opacity="0.7"/>\n'
            )
        else:
            x = pad + d1 * span - 2.5
            y = size - pad - d2 * span - 2.5
            parts.append(
                f'<rect x="{_f(x)}" y="{_f(y)}" width="5" height="5" '
                f'fill="none" stroke="{_COLORS[2]}" stroke-width="1.2"/>\n'
            )
    parts.append(_text("0", pad, size - pad + 16.0, "middle"))
    parts.append(_text("1", size - pad, size - pad + 16.0, "middle"))
    parts.append(_text("depth in sample1", size / 2.0, size - 8.0, "middle"))
    parts.append(_text("depth in sample2", 12.0, size / 2.0, "middle", rotate=True))
    parts.append("</svg>\n")
    return "".join(parts)


def curve_fan_svg(
    curves: list[tuple[str, Curve]], width: int = 640, height: int = 420
) -> str:
    """Polyline per labeled curve on shared axes; first curve drawn black.

    The vertical range is the data range padded by 5 percent; each curve's
    label goes, escaped, into a <title> child so viewers show it on hover.
    """
    if not curves:
        raise ValueError("need at least one curve")
    grid = curves[0][1].grid
    pad = 40.0
    xs = grid.points
    lo = min(float(c.values.min()) for _, c in curves)
    hi = max(float(c.values.max()) for _, c in curves)
    if hi <= lo:
        hi = lo + 1.0
    margin = 0.05 * (hi - lo)
    lo -= margin
    hi += margin

    def px(t: float) -> float:
        return pad + (t - xs[0]) / (xs[-1] - xs[0]) * (width - 2 * pad)

    def py(v: float) -> float:
        return height - pad - (v - lo) / (hi - lo) * (height - 2 * pad)

    parts = [_canvas(width, height, pad)]
    if lo < 0.0 < hi:
        parts.append(
            f'<line x1="{_f(px(xs[0]))}" y1="{_f(py(0.0))}" x2="{_f(px(xs[-1]))}" '
            f'y2="{_f(py(0.0))}" stroke="#bbbbbb" stroke-width="1"/>\n'
        )
    for i, (label, curve) in enumerate(curves):
        check_same_grid(curve.grid, grid, "all curves must share one grid")
        pts = " ".join(
            f"{_f(px(t))},{_f(py(v))}" for t, v in zip(xs, curve.values)
        )
        color = _COLORS[i % len(_COLORS)]
        w = "2" if i == 0 else "1.2"
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{w}"><title>{escape(label, quote=False)}</title></polyline>\n'
        )
    parts.append(_text(f"{xs[0]:g}", pad, height - pad + 16.0, "middle"))
    parts.append(_text(f"{xs[-1]:g}", width - pad, height - pad + 16.0, "middle"))
    parts.append(_text(f"{lo + margin:.3g}", pad - 6.0, height - pad, "end"))
    parts.append(_text(f"{hi - margin:.3g}", pad - 6.0, pad + 4.0, "end"))
    parts.append("</svg>\n")
    return "".join(parts)
