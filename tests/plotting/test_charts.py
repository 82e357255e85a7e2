"""Unit tests for the charting layer."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.plotting.charts import Axis, LineChart, Series, _decimate_for_plot
from repro.plotting.ps import PostScriptCanvas


class TestAxis:
    def test_autoscale_linear(self):
        axis = Axis()
        lo, hi = axis.resolved(np.array([2.0, 8.0, 5.0]))
        assert lo == 2.0 and hi == 8.0

    def test_fixed_bounds_win(self):
        axis = Axis(lo=0.0, hi=10.0)
        lo, hi = axis.resolved(np.array([2.0, 8.0]))
        assert (lo, hi) == (0.0, 10.0)

    def test_log_ignores_non_positive(self):
        axis = Axis(log=True)
        lo, hi = axis.resolved(np.array([-1.0, 0.0, 0.1, 10.0]))
        assert lo == pytest.approx(0.1)
        assert hi == pytest.approx(10.0)

    def test_degenerate_range_widened(self):
        axis = Axis()
        lo, hi = axis.resolved(np.array([5.0, 5.0]))
        assert hi > lo

    def test_no_finite_data_rejected(self):
        axis = Axis(label="y")
        with pytest.raises(ReproError):
            axis.resolved(np.array([np.nan, np.inf]))

    def test_log_ticks_are_decades(self):
        axis = Axis(log=True)
        ticks = axis.ticks(0.05, 500.0)
        assert ticks == [0.1, 1.0, 10.0, 100.0]

    def test_linear_ticks_round_steps(self):
        axis = Axis()
        ticks = axis.ticks(0.0, 10.0)
        steps = np.diff(ticks)
        assert np.allclose(steps, steps[0])
        assert len(ticks) <= 7


class TestDecimation:
    def test_short_series_untouched(self, rng):
        x = np.arange(100.0)
        y = rng.normal(size=100)
        dx, dy = _decimate_for_plot(x, y, max_points=2000)
        assert np.array_equal(dx, x)

    def test_long_series_reduced(self, rng):
        x = np.arange(100_000.0)
        y = rng.normal(size=100_000)
        dx, dy = _decimate_for_plot(x, y, max_points=2000)
        assert len(dx) <= 2000

    def test_envelope_preserved(self, rng):
        x = np.arange(50_000.0)
        y = rng.normal(size=50_000)
        y[31_234] = 100.0  # a spike the plot must keep
        _, dy = _decimate_for_plot(x, y, max_points=1000)
        assert dy.max() == 100.0


def reference_decimate(x, y, max_points=2000):
    """The per-bucket decimation the batched one must reproduce."""
    n = x.shape[0]
    if n <= max_points:
        return x, y
    buckets = max_points // 2
    edges = np.linspace(0, n, buckets + 1, dtype=int)
    xs, ys = [], []
    for b in range(buckets):
        s, e = edges[b], edges[b + 1]
        if s >= e:
            continue
        seg = y[s:e]
        i_min = s + int(np.argmin(seg))
        i_max = s + int(np.argmax(seg))
        for i in sorted((i_min, i_max)):
            xs.append(float(x[i]))
            ys.append(float(y[i]))
    return np.asarray(xs), np.asarray(ys)


def reference_polyline(canvas, points):
    """The per-point PostScript path the one-call polyline must reproduce."""
    if len(points) < 2:
        return
    parts = ["newpath", f"{points[0][0]:.2f} {points[0][1]:.2f} moveto"]
    parts.extend(f"{x:.2f} {y:.2f} lineto" for x, y in points[1:])
    parts.append("stroke")
    canvas._emit("\n".join(parts))


def awkward_series(n, seed):
    """Rounded (so tied) values with NaN and +/-inf runs and plateaus."""
    rng = np.random.default_rng(seed)
    y = np.round(rng.normal(size=n), 1)
    y[rng.integers(0, n, size=n // 50)] = np.nan
    y[rng.integers(0, n, size=n // 50)] = np.inf
    y[rng.integers(0, n, size=n // 50)] = -np.inf
    y[n // 3 : n // 3 + 40] = np.inf  # whole buckets of one extreme
    y[n // 2 : n // 2 + 40] = -np.inf
    y[-40:] = 0.0
    return np.arange(n) * 0.01, y


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


class TestBatchedPlotEquality:
    @pytest.mark.parametrize("n", [2001, 2021, 30_000])
    @pytest.mark.parametrize("max_points", [2000, 1001, 3])
    def test_decimation_matches_per_bucket_loop(self, n, max_points):
        x, y = awkward_series(n, seed=n)
        got = _decimate_for_plot(x, y, max_points=max_points)
        want = reference_decimate(x, y, max_points=max_points)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    def test_degenerate_bucket_count_matches(self):
        x, y = awkward_series(2001, seed=1)
        for max_points in (0, 1):
            got = _decimate_for_plot(x, y, max_points=max_points)
            want = reference_decimate(x, y, max_points=max_points)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @pytest.mark.parametrize("n", [2001, 2021, 30_000])
    def test_chart_document_matches_reference_paths(self, n, monkeypatch):
        def render(chart_y):
            chart = LineChart(title="eq", y_axis=Axis(lo=-3.0, hi=3.0))
            chart.add(Series(x=np.arange(n) * 0.01, y=chart_y, label="a"))
            chart.add(Series(x=np.arange(n) * 0.01, y=-chart_y, gray=0.5))
            canvas = PostScriptCanvas()
            chart.draw(canvas, x0=50, y0=50, width=400, height=300)
            return canvas.render()

        _, y = awkward_series(n, seed=7)
        got = render(y)
        monkeypatch.setattr("repro.plotting.charts._decimate_for_plot", reference_decimate)
        monkeypatch.setattr(PostScriptCanvas, "polyline", reference_polyline)
        assert got == render(y)


class TestSeries:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ReproError):
            Series(x=np.ones(3), y=np.ones(4))


class TestLineChart:
    def draw(self, chart: LineChart) -> str:
        canvas = PostScriptCanvas()
        chart.draw(canvas, x0=50, y0=50, width=400, height=300)
        return canvas.render()

    def test_draws_series_and_frame(self, rng):
        chart = LineChart(title="demo", x_axis=Axis(label="t"), y_axis=Axis(label="v"))
        chart.add(Series(x=np.arange(100.0), y=rng.normal(size=100), label="s1"))
        doc = self.draw(chart)
        assert "lineto" in doc
        assert "(demo)" in doc
        assert "(s1)" in doc

    def test_log_log_chart(self, rng):
        chart = LineChart(x_axis=Axis(log=True), y_axis=Axis(log=True))
        x = np.geomspace(0.01, 10.0, 50)
        chart.add(Series(x=x, y=x**-1.5))
        doc = self.draw(chart)
        assert "lineto" in doc

    def test_empty_chart_rejected(self):
        with pytest.raises(ReproError):
            self.draw(LineChart(title="empty"))

    def test_non_finite_points_dropped(self):
        chart = LineChart()
        y = np.array([1.0, np.nan, 3.0, np.inf, 5.0, 6.0])
        chart.add(Series(x=np.arange(6.0), y=y))
        doc = self.draw(chart)  # must not raise nor emit nan
        assert "nan" not in doc

    def test_log_axis_drops_non_positive(self):
        chart = LineChart(y_axis=Axis(log=True))
        chart.add(Series(x=np.arange(5.0), y=np.array([0.0, -1.0, 1.0, 2.0, 3.0])))
        doc = self.draw(chart)
        assert "nan" not in doc and "inf" not in doc

    def test_deterministic_output(self, rng):
        y = rng.normal(size=64)

        def render():
            chart = LineChart(title="d")
            chart.add(Series(x=np.arange(64.0), y=y.copy()))
            return self.draw(chart)

        assert render() == render()
