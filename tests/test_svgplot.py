"""SVG line charts: the polyline points against a per-point reference loop."""

from __future__ import annotations

import re

import numpy as np
import pytest

from seirvax.svgplot import (_HEIGHT, _MB, _ML, _MR, _MT, _WIDTH,
                             _padded_range, write_line_chart)


def _reference_points(t, ys, lo, hi) -> str:
    """The points attribute written one point at a time, with Python floats."""
    pw, ph = _WIDTH - _ML - _MR, _HEIGHT - _MT - _MB
    x0, x1 = float(t[0]), float(t[-1])
    step = max(1, len(t) // 2000)
    return " ".join(
        f"{_ML + (float(x) - x0) / (x1 - x0) * pw:.2f},"
        f"{_MT + (hi - float(y)) / (hi - lo) * ph:.2f}"
        for x, y in zip(t[::step], ys[::step]))


@pytest.mark.parametrize("n", [2, 1999, 12001])
def test_polyline_points_match_the_reference_loop(tmp_path, n):
    # Random values over many magnitudes, a flat series and a right axis;
    # 12001 samples take every 6th point.
    rng = np.random.default_rng(n)
    t = np.sort(rng.uniform(0.0, 1200.0, n))
    series = {"S": rng.uniform(0.0, 1000.0, n),
              "E": 10.0 ** rng.uniform(-12.0, 3.0, n),
              "I": np.full(n, 7.0)}
    secondary = {"V": rng.uniform(-0.5, 1.5, n)}
    path = tmp_path / "chart.svg"
    write_line_chart(path, t, series, secondary=secondary)
    got = re.findall(r'points="([^"]*)"', path.read_text())
    lo, hi = _padded_range(series.values())
    lo2, hi2 = _padded_range(secondary.values())
    want = ([_reference_points(t, ys, lo, hi) for ys in series.values()]
            + [_reference_points(t, secondary["V"], lo2, hi2)])
    assert got == want
