"""Static SVG line charts, written without external plotting tooling."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = ["write_line_chart"]

_WIDTH, _HEIGHT = 920, 520
_ML, _MR, _MT, _MB = 70, 70, 40, 50
_PW, _PH = _WIDTH - _ML - _MR, _HEIGHT - _MT - _MB
_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
_X_LABEL, _Y_LABEL, _Y2_LABEL = "t (days)", "individuals", "fraction"
_DASH = ' stroke-dasharray="6,4"'


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    """Round tick values in [lo, hi], a range `_axis` made."""
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    start = math.ceil(lo / step) * step
    vals = []
    v = start
    # n ticks fit at most; the bound on the count only stops a step
    # that rounds away (one below half an ulp)
    while v <= hi + 1e-12 * abs(step) and len(vals) <= n:
        vals.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return vals


def _labels(ticks: list[float], unit: float) -> list[str]:
    """The ticks' labels in units of `unit`: `%g` at the fewest significant
    digits, 6 or more, that tell the ticks apart (17 tell any two doubles
    apart)."""
    values = [v * unit for v in ticks]
    for digits in range(6, 18):
        labels = [f"{v:.{digits}g}" for v in values]
        if len(set(labels)) == len(labels):
            break
    return labels


def _axis(lo: float, hi: float) -> tuple[float, float, float]:
    """(lo, hi, unit): the range of finite values [lo, hi] as one that
    ticks can step across, in units of `unit`.

    The unit is 1e10 where a value passes 1e300, whose padded span would
    overflow, and 1 otherwise. A flat range is widened to 1, and one
    narrower than 1e-12 of its magnitude (or than 1e-300) about its middle
    to that width, so a tick step is many ulps of the ticks it steps from.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("chart refused: a value is not finite")
    unit = 1e10 if max(-lo, hi) > 1e300 else 1.0
    lo, hi = lo / unit, hi / unit
    if hi <= lo:
        hi = lo + 1.0
    width = max(1e-12 * max(-lo, hi), 1e-300)
    if hi - lo < width:
        mid = 0.5 * lo + 0.5 * hi
        lo, hi = mid - 0.5 * width, mid + 0.5 * width
    return lo, hi, unit


def _y_axis(arrays):
    """(to_px, unit, ticks): a y axis over the arrays' values, their `_axis`
    padded by 5% each side. `to_px` maps values in units of `unit` to
    pixels; each tick is (pixel, label)."""
    values = np.concatenate([np.asarray(v, dtype=float) for v in arrays])
    lo, hi, unit = _axis(float(np.min(values)), float(np.max(values)))
    lo, hi = lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)
    ticks = _ticks(lo, hi)

    def to_px(y: float | np.ndarray) -> float | np.ndarray:
        return _MT + (hi - y) / (hi - lo) * _PH

    return to_px, unit, [(to_px(v), label)
                         for v, label in zip(ticks, _labels(ticks, unit))]


def write_line_chart(path: str | Path, t: np.ndarray,
                     series: dict[str, np.ndarray],
                     secondary: dict[str, np.ndarray], title: str) -> None:
    """Write a line chart of `series` vs t, with `secondary` (e.g. the
    vaccination fraction) dashed against the right-hand axis. Axes are
    auto-scaled; a polyline draws every k-th sample, k capping it near 2000
    points, and the last. A non-finite value is refused with a ValueError."""
    t = np.asarray(t, dtype=float)
    x0, x1, x_unit = _axis(float(t[0]), float(t[-1]))
    left, right = _y_axis(series.values()), _y_axis(secondary.values())
    keep = np.r_[0:len(t) - 1:max(1, len(t) // 2000), len(t) - 1]

    def sx(x: float | np.ndarray) -> float | np.ndarray:
        return _ML + (x - x0) / (x1 - x0) * _PW

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
           f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
           f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
           f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" '
           f'font-family="sans-serif" font-size="15">{title}</text>']

    x_ticks = _ticks(x0, x1)
    for xv, label in zip(x_ticks, _labels(x_ticks, x_unit)):
        px = sx(xv)
        out.append(f'<line x1="{px:.2f}" y1="{_MT}" x2="{px:.2f}" '
                   f'y2="{_MT + _PH}" stroke="#eeeeee"/>')
        out.append(f'<text x="{px:.2f}" y="{_MT + _PH + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{label}</text>')
    for py, label in left[2]:
        out.append(f'<line x1="{_ML}" y1="{py:.2f}" x2="{_ML + _PW}" '
                   f'y2="{py:.2f}" stroke="#eeeeee"/>')
        out.append(f'<text x="{_ML - 6}" y="{py + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{label}</text>')
    for py, label in right[2]:
        out.append(f'<text x="{_ML + _PW + 6}" y="{py + 4:.2f}" '
                   'text-anchor="start" font-family="sans-serif" '
                   f'font-size="11" fill="#555555">{label}</text>')

    out += [f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}" '
            'fill="none" stroke="#333333"/>',
            f'<text x="{_ML + _PW / 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_X_LABEL}</text>',
            f'<text x="18" y="{_MT + _PH / 2}" text-anchor="middle" '
            f'transform="rotate(-90 18 {_MT + _PH / 2})" '
            f'font-family="sans-serif" font-size="12">{_Y_LABEL}</text>',
            f'<text x="{_WIDTH - 18}" y="{_MT + _PH / 2}" text-anchor="middle" '
            f'transform="rotate(90 {_WIDTH - 18} {_MT + _PH / 2})" '
            f'font-family="sans-serif" font-size="12" '
            f'fill="#555555">{_Y2_LABEL}</text>']

    px = sx(t[keep] / x_unit)
    entries = ([(name, vals, left, "", "") for name, vals in series.items()]
               + [(name, vals, right, _DASH, " (right axis)")
                  for name, vals in secondary.items()])
    for idx, (name, vals, (to_px, unit, _), dash, note) in enumerate(entries):
        color, ly = _COLORS[idx % len(_COLORS)], _MT + 16 * (idx + 1)
        # the scalar maps applied to whole columns (the same operations in
        # the same order), formatted by one `%` operation
        py = to_px(np.asarray(vals, dtype=float)[keep] / unit)
        pts = (" ".join(["%.2f,%.2f"] * len(px))
               % tuple(np.column_stack((px, py)).ravel().tolist()))
        out += [f'<polyline fill="none" stroke="{color}" stroke-width="1.6"'
                f'{dash} points="{pts}"/>',
                f'<line x1="{_ML + 10}" y1="{ly - 4}" x2="{_ML + 32}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"{dash}/>',
                f'<text x="{_ML + 38}" y="{ly}" '
                f'font-family="sans-serif" font-size="12">{name}{note}</text>']

    out.append("</svg>")
    Path(path).write_text("\n".join(out))
