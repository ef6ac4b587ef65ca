"""Minimal native SVG output: polylines and heatmaps, no plotting dependency."""

from __future__ import annotations

import math

import numpy as np

from ._container import _atomic_write

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 30, 40, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
#: Cells per axis of a heatmap; larger grids are decimated by striding.
_MAX_CELLS = 160


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def _axes(parts: list[str], x0: float, x1: float, y0: float, y1: float,
          xlabel: str, ylabel: str, title: str) -> tuple:
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(x):
        return _ML + (x - x0) / (x1 - x0) * pw

    def sy(y):
        return _MT + ph - (y - y0) / (y1 - y0) * ph

    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>')
    for tx in _ticks(x0, x1):
        parts.append(f'<line x1="{sx(tx):.1f}" y1="{_MT + ph}" x2="{sx(tx):.1f}" y2="{_MT + ph + 5}" stroke="#444"/>')
        parts.append(f'<text x="{sx(tx):.1f}" y="{_MT + ph + 18}" font-size="11" text-anchor="middle">{tx:.4g}</text>')
    for ty in _ticks(y0, y1):
        parts.append(f'<line x1="{_ML - 5}" y1="{sy(ty):.1f}" x2="{_ML}" y2="{sy(ty):.1f}" stroke="#444"/>')
        parts.append(f'<text x="{_ML - 8}" y="{sy(ty) + 4:.1f}" font-size="11" text-anchor="end">{ty:.4g}</text>')
    parts.append(f'<text x="{_ML + pw / 2}" y="{_H - 12}" font-size="13" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="18" y="{_MT + ph / 2}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 18 {_MT + ph / 2})">{ylabel}</text>')
    parts.append(f'<text x="{_ML + pw / 2}" y="24" font-size="14" text-anchor="middle">{title}</text>')
    return sx, sy


def svg_polyline(path: str, x: np.ndarray, series: list[tuple[str, np.ndarray]],
                 title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Write line plots of the (label, y) series against shared x."""
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for _, y in series]
    y_lo = min(float(y.min()) for y in ys)
    y_hi = max(float(y.max()) for y in ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}" font-family="sans-serif">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    sx, sy = _axes(parts, float(x[0]), float(x[-1]), y_lo - pad, y_hi + pad, xlabel, ylabel, title)
    for k, (label, y) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, np.asarray(y, dtype=float)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 16 * k}" font-size="12" '
                     f'text-anchor="end" fill="{color}">{label}</text>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts).encode())


def _stride(n: int) -> int:
    """The step of the rows (or columns) that :func:`svg_heatmap` draws of ``n``."""
    return max(1, math.ceil(n / _MAX_CELLS))


def _diverging_color(v: float) -> str:
    # blue (-1) .. white (0) .. red (+1)
    v = max(-1.0, min(1.0, v))
    if v >= 0:
        r, g, b = 255, round(255 - 200 * v), round(255 - 230 * v)
    else:
        r, g, b = round(255 + 230 * v), round(255 + 200 * v), 255
    return f"rgb({r},{g},{b})"


def _sequential_color(v: float) -> str:
    # white (0) .. dark blue (1)
    v = max(0.0, min(1.0, v))
    return f"rgb({round(255 - 220 * v)},{round(255 - 180 * v)},{round(255 - 100 * v)})"


def svg_heatmap(path: str, values: np.ndarray, x_axis: np.ndarray, y_axis: np.ndarray,
                title: str = "", xlabel: str = "", ylabel: str = "",
                diverging: bool = True) -> None:
    """Write a cell heatmap of values[i, j] over (x_axis[i], y_axis[j]).

    Grids larger than ``_MAX_CELLS`` per axis are decimated by striding; plots
    are derived artifacts, never inputs.
    """
    values = np.asarray(values, dtype=float)
    x_axis = np.asarray(x_axis, dtype=float)
    y_axis = np.asarray(y_axis, dtype=float)
    si, sj = _stride(values.shape[0]), _stride(values.shape[1])
    values = values[::si, ::sj]
    x_axis = x_axis[::si]
    y_axis = y_axis[::sj]

    vmax = float(np.abs(values).max()) or 1.0
    lo = float(values.min())
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}" font-family="sans-serif">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    label = f"{title}  [min {lo:.3g}, max {float(values.max()):.3g}]"
    sx, sy = _axes(parts, float(x_axis[0]), float(x_axis[-1]), float(y_axis[0]), float(y_axis[-1]),
                   xlabel, ylabel, label)
    cw = (sx(x_axis[-1]) - sx(x_axis[0])) / max(1, x_axis.size - 1)
    ch = (sy(y_axis[0]) - sy(y_axis[-1])) / max(1, y_axis.size - 1)
    for i, xv in enumerate(x_axis):
        col = []
        for j, yv in enumerate(y_axis):
            v = values[i, j]
            color = _diverging_color(v / vmax) if diverging else _sequential_color(v / vmax)
            col.append(f'<rect x="{sx(xv) - cw / 2:.2f}" y="{sy(yv) - ch / 2:.2f}" '
                       f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" fill="{color}"/>')
        parts.append("".join(col))
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
                 f'fill="none" stroke="#444"/>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts).encode())
