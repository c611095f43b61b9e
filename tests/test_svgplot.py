"""SVG line charts: the polyline points against a per-point reference loop."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from seirvax.svgplot import (_HEIGHT, _MB, _ML, _MR, _MT, _WIDTH,
                             _labels, _padded_range, _ticks, write_line_chart)


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
    lo, hi, _ = _padded_range(series.values())
    lo2, hi2, _ = _padded_range(secondary.values())
    want = ([_reference_points(t, ys, lo, hi) for ys in series.values()]
            + [_reference_points(t, secondary["V"], lo2, hi2)])
    assert got == want


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
    # range is widened or rescaled, so its ticks increase, stay in it and
    # label finite values, each label its own (six digits print the ticks
    # of a flat 1e17 or of 123456.7 to 123456.8 alike).
    lo, hi, unit = _padded_range([np.array(values)])
    ticks = _ticks(lo, hi)
    assert 2 <= len(ticks) <= 6
    assert all(a < b for a, b in zip(ticks, ticks[1:]))
    assert lo <= ticks[0] and ticks[-1] <= hi
    assert all(math.isfinite(t * unit) for t in ticks)
    labels = _labels(ticks, unit)
    assert len(set(labels)) == len(labels)
    assert math.isfinite(hi - lo)   # the span the point maps divide by


def test_non_finite_values_are_refused(tmp_path):
    with pytest.raises(ValueError, match="^chart refused: a value is not finite$"):
        write_line_chart(tmp_path / "chart.svg", np.arange(3.0),
                         {"S": np.array([0.0, np.nan, 1.0])})
