"""Tiny deterministic SVG line plots.

Static vector output with no display or plotting dependency; the same data
always produces byte-identical files, which keeps emitted artifacts
diffable.  Only what the bundled studies need: line series on linear axes,
optional vertical markers, a legend.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 72
_MARGIN_R = 24
_MARGIN_T = 40
_MARGIN_B = 52


def _ticks(lo: float, hi: float, count: int = 5) -> list:
    raw = (hi - lo) / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def _fmt(value: float) -> str:
    return "%.6g" % value


def line_plot(path, series: Sequence[tuple], title: str, xlabel: str,
              ylabel: str, vlines: Sequence[tuple] = ()) -> None:
    """Write an SVG with one polyline per (x, y, label) triple.

    ``vlines`` holds (x, label) pairs drawn as dashed markers.  Each axis
    spans the data extent padded by 5%; an axis flat to 1e-12 of its
    magnitude is widened by 1.0 either side, or by 1e-12 of its magnitude
    where that is larger.  Raises ValueError, naming the series or marker,
    for a value that is not finite, and naming the axis for an extent
    that overflows.
    """
    xs, ys = [], []
    for x, y, label in series:
        x, y = [float(v) for v in x], [float(v) for v in y]
        if not all(map(math.isfinite, x + y)):
            raise ValueError("series %r has a value that is not finite"
                             % (label,))
        xs += x
        ys += y
    for x, label in vlines:
        if not math.isfinite(x):
            raise ValueError("marker %r is not finite" % (label,))
        xs.append(float(x))
    if not xs or not ys:
        raise ValueError("line_plot needs at least one point")

    def padded(values, axis):
        lo, hi = min(values), max(values)
        # Far from zero 1.0 rounds away, and a tick step below an ulp of
        # the ticks never advances.
        width = 1e-12 * max(abs(lo), abs(hi))
        if hi - lo <= width:
            width = max(1.0, width)
            lo, hi = lo - width, hi + width
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad
        if not math.isfinite(hi - lo):
            raise ValueError("%s axis extent overflows" % axis)
        return lo, hi

    x0, x1 = padded(xs, "x")
    y0, y1 = padded(ys, "y")
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (float(x) - x0) / (x1 - x0) * plot_w

    def sy(y):
        return _MARGIN_T + plot_h - (float(y) - y0) / (y1 - y0) * plot_h

    parts = []
    parts.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
                 'height="%d" viewBox="0 0 %d %d">'
                 % (_WIDTH, _HEIGHT, _WIDTH, _HEIGHT))
    parts.append('<rect width="%d" height="%d" fill="white"/>'
                 % (_WIDTH, _HEIGHT))
    parts.append('<text x="%d" y="24" font-family="sans-serif" '
                 'font-size="15" text-anchor="middle">%s</text>'
                 % (_WIDTH // 2, title))

    for tick in _ticks(x0, x1):
        px = sx(tick)
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                     'stroke="#ddd"/>' % (px, _MARGIN_T, px,
                                          _MARGIN_T + plot_h))
        parts.append('<text x="%.2f" y="%d" font-family="sans-serif" '
                     'font-size="11" text-anchor="middle">%s</text>'
                     % (px, _MARGIN_T + plot_h + 18, _fmt(tick)))
    for tick in _ticks(y0, y1):
        py = sy(tick)
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                     'stroke="#ddd"/>' % (_MARGIN_L, py,
                                          _MARGIN_L + plot_w, py))
        parts.append('<text x="%d" y="%.2f" font-family="sans-serif" '
                     'font-size="11" text-anchor="end">%s</text>'
                     % (_MARGIN_L - 6, py + 4, _fmt(tick)))

    parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
                 'stroke="black"/>' % (_MARGIN_L, _MARGIN_T, plot_w, plot_h))
    parts.append('<text x="%d" y="%d" font-family="sans-serif" '
                 'font-size="13" text-anchor="middle">%s</text>'
                 % (_MARGIN_L + plot_w // 2, _HEIGHT - 14, xlabel))
    parts.append('<text x="18" y="%d" font-family="sans-serif" '
                 'font-size="13" text-anchor="middle" '
                 'transform="rotate(-90 18 %d)">%s</text>'
                 % (_MARGIN_T + plot_h // 2, _MARGIN_T + plot_h // 2, ylabel))

    for x, label in vlines:
        px = sx(x)
        parts.append('<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" '
                     'stroke="#555" stroke-dasharray="5,4"/>'
                     % (px, _MARGIN_T, px, _MARGIN_T + plot_h))
        parts.append('<text x="%.2f" y="%d" font-family="sans-serif" '
                     'font-size="11" text-anchor="middle">%s</text>'
                     % (px, _MARGIN_T - 6, label))

    for i, (x, y, label) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        points = " ".join("%.2f,%.2f" % (sx(px), sy(py))
                          for px, py in zip(x, y))
        parts.append('<polyline fill="none" stroke="%s" stroke-width="1.5" '
                     'points="%s"/>' % (color, points))
        if label:
            ly = _MARGIN_T + 16 + 16 * i
            lx = _MARGIN_L + plot_w - 150
            parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" '
                         'stroke="%s" stroke-width="1.5"/>'
                         % (lx, ly - 4, lx + 22, ly - 4, color))
            parts.append('<text x="%d" y="%d" font-family="sans-serif" '
                         'font-size="11">%s</text>'
                         % (lx + 28, ly, label))

    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
