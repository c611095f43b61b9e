"""SVG line charts: the polyline points against a per-point reference loop."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from seirvax.svgplot import (_ML, _MR, _MT, _PH, _PW, _WIDTH, _y_axis,
                             write_line_chart)


def _reference_points(t, ys, axis) -> str:
    """The points attribute written one point at a time, with Python
    floats, through the y axis' pixel map: every step-th sample, and the
    last."""
    to_px, unit, _ = axis
    x0, x1 = float(t[0]), float(t[-1])
    step = max(1, len(t) // 2000)
    keep = [*range(0, len(t) - 1, step), len(t) - 1]
    return " ".join(
        f"{_ML + (float(t[k]) - x0) / (x1 - x0) * _PW:.2f},"
        f"{to_px(float(ys[k]) / unit):.2f}"
        for k in keep)


@pytest.mark.parametrize("n", [2, 1999, 4002, 12001])
def test_polyline_points_match_the_reference_loop(tmp_path, n):
    # Random values over many magnitudes, a flat series and a right axis;
    # 12001 samples take every 6th point, 4002 every 2nd and the last, so
    # each polyline ends at the plot's right edge.
    rng = np.random.default_rng(n)
    t = np.sort(rng.uniform(0.0, 1200.0, n))
    series = {"S": rng.uniform(0.0, 1000.0, n),
              "E": 10.0 ** rng.uniform(-12.0, 3.0, n),
              "I": np.full(n, 7.0)}
    secondary = {"V": rng.uniform(-0.5, 1.5, n)}
    path = tmp_path / "chart.svg"
    write_line_chart(path, t, series, secondary, "chart")
    got = re.findall(r'points="([^"]*)"', path.read_text())
    left, right = _y_axis(series.values()), _y_axis(secondary.values())
    want = ([_reference_points(t, ys, left) for ys in series.values()]
            + [_reference_points(t, secondary["V"], right)])
    assert got == want
    assert all(pts.rsplit(" ", 1)[1].startswith(f"{_WIDTH - _MR:.2f},")
               for pts in got)


@pytest.mark.parametrize("values", [
    [0.0, 0.0], [4e15, 4e15], [1e17, 1e17], [1e17, 1e17 + 16.0],
    [0.0, 5e-324], [-1e300, -1e300], [0.0, 1.65e308],
    [-1.7976931348623157e308, 1.7976931348623157e308], [123456.7, 123456.8]],
    ids=["flat 0", "flat 4e15", "flat 1e17", "1e17 plus an ulp", "one subnormal",
         "flat -1e300", "0 to 1.65e308", "the doubles' whole range",
         "123456.7 to 123456.8"])
def test_every_finite_range_gets_increasing_ticks(values):
    # A flat or ulp-wide range far from 0 (where adding 1.0 or a tick step
    # rounds away), a subnormal span and spans whose padding overflows: the
    # range is widened or rescaled, so its ticks increase (upward, to
    # smaller pixels), stay in the plot and label finite values, each label
    # its own (six digits print the ticks of a flat 1e17 or of 123456.7 to
    # 123456.8 alike), and the padded values lie inside the plot.
    to_px, unit, ticks = _y_axis([np.array(values)])
    pixels, labels = [px for px, _ in ticks], [label for _, label in ticks]
    assert 2 <= len(ticks) <= 6
    assert all(a > b for a, b in zip(pixels, pixels[1:]))
    assert _MT <= pixels[-1] and pixels[0] <= _MT + _PH
    assert all(math.isfinite(float(label)) for label in labels)
    assert len(set(labels)) == len(labels)
    assert all(_MT < to_px(v / unit) < _MT + _PH for v in values)


def test_non_finite_values_are_refused(tmp_path):
    with pytest.raises(ValueError, match="^chart refused: a value is not finite$"):
        write_line_chart(tmp_path / "chart.svg", np.arange(3.0),
                         {"S": np.array([0.0, np.nan, 1.0])},
                         {"V": np.zeros(3)}, "chart")

