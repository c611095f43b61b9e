"""Static SVG line charts, written without external plotting tooling."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = ["write_line_chart"]

_WIDTH, _HEIGHT = 920, 520
_ML, _MR, _MT, _MB = 70, 70, 40, 50
_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
_X_LABEL, _Y_LABEL, _Y2_LABEL = "t (days)", "individuals", "fraction"
_DASH = ' stroke-dasharray="6,4"'


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    start = math.ceil(lo / step) * step
    vals = []
    v = start
    while v <= hi + 1e-12 * abs(step):
        vals.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return vals


def _fmt(v: float) -> str:
    return f"{v:g}"


def _padded_range(arrays) -> tuple[float, float]:
    """Range of the values, widened to 1 if flat, padded by 5% each side."""
    values = np.concatenate([np.asarray(v, dtype=float) for v in arrays])
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def write_line_chart(path: str | Path, t: np.ndarray,
                     series: dict[str, np.ndarray],
                     secondary: dict[str, np.ndarray] | None = None,
                     title: str = "") -> None:
    """Write a line chart of `series` vs t, with an optional right axis.

    Axes are auto-scaled; the secondary mapping (e.g. the vaccination
    fraction) is drawn dashed against the right-hand axis.
    """
    t = np.asarray(t, dtype=float)
    secondary = secondary or {}
    x0, x1 = float(t[0]), float(t[-1])
    if x1 <= x0:
        x1 = x0 + 1.0

    y_lo, y_hi = _padded_range(series.values())
    y2_lo, y2_hi = _padded_range(secondary.values()) if secondary else (0.0, 1.0)

    pw = _WIDTH - _ML - _MR
    ph = _HEIGHT - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x0) / (x1 - x0) * pw

    def sy(y: float) -> float:
        return _MT + (y_hi - y) / (y_hi - y_lo) * ph

    def sy2(y: float) -> float:
        return _MT + (y2_hi - y) / (y2_hi - y2_lo) * ph

    def polyline(xs: np.ndarray, ys: np.ndarray, to_y, color: str,
                 dash: str) -> str:
        step = max(1, len(xs) // 2000)   # cap path size for long runs
        pts = " ".join(f"{sx(float(x)):.2f},{to_y(float(y)):.2f}"
                       for x, y in zip(xs[::step], ys[::step]))
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.6"'
                f'{dash} points="{pts}"/>')

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
           f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
           f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>']
    if title:
        out.append(f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="15">{title}</text>')

    for xv in _ticks(x0, x1):
        px = sx(xv)
        out.append(f'<line x1="{px:.2f}" y1="{_MT}" x2="{px:.2f}" '
                   f'y2="{_MT + ph}" stroke="#eeeeee"/>')
        out.append(f'<text x="{px:.2f}" y="{_MT + ph + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_fmt(xv)}</text>')
    for yv in _ticks(y_lo, y_hi):
        py = sy(yv)
        out.append(f'<line x1="{_ML}" y1="{py:.2f}" x2="{_ML + pw}" '
                   f'y2="{py:.2f}" stroke="#eeeeee"/>')
        out.append(f'<text x="{_ML - 6}" y="{py + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_fmt(yv)}</text>')
    if secondary:
        for yv in _ticks(y2_lo, y2_hi):
            py = sy2(yv)
            out.append(f'<text x="{_ML + pw + 6}" y="{py + 4:.2f}" '
                       'text-anchor="start" font-family="sans-serif" '
                       f'font-size="11" fill="#555555">{_fmt(yv)}</text>')

    out.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
               'fill="none" stroke="#333333"/>')
    out.append(f'<text x="{_ML + pw / 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12">{_X_LABEL}</text>')
    out.append(f'<text x="18" y="{_MT + ph / 2}" text-anchor="middle" '
               f'transform="rotate(-90 18 {_MT + ph / 2})" '
               f'font-family="sans-serif" font-size="12">{_Y_LABEL}</text>')
    if secondary:
        xr = _WIDTH - 18
        out.append(f'<text x="{xr}" y="{_MT + ph / 2}" text-anchor="middle" '
                   f'transform="rotate(90 {xr} {_MT + ph / 2})" '
                   f'font-family="sans-serif" font-size="12" '
                   f'fill="#555555">{_Y2_LABEL}</text>')

    legend_x = _ML + 10
    legend_y = _MT + 16
    entries = ([(name, vals, sy, "", "") for name, vals in series.items()]
               + [(name, vals, sy2, _DASH, " (right axis)")
                  for name, vals in secondary.items()])
    for idx, (name, vals, to_y, dash, note) in enumerate(entries):
        color = _COLORS[idx % len(_COLORS)]
        out.append(polyline(t, np.asarray(vals, dtype=float), to_y, color, dash))
        out.append(f'<line x1="{legend_x}" y1="{legend_y - 4}" '
                   f'x2="{legend_x + 22}" y2="{legend_y - 4}" '
                   f'stroke="{color}" stroke-width="2"{dash}/>')
        out.append(f'<text x="{legend_x + 28}" y="{legend_y}" '
                   f'font-family="sans-serif" font-size="12">{name}{note}</text>')
        legend_y += 16

    out.append("</svg>")
    Path(path).write_text("\n".join(out))
