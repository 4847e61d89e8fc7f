"""Tests for the statistics helpers and experiment summaries."""

import pytest

from repro.stats import ComparisonRow, Ewma, ExperimentSummary, TimeSeries, cdf, fractiles
from repro.stats.series import fraction_at_or_below


class TestTimeSeries:
    def test_append_and_basic_stats(self):
        series = TimeSeries()
        for t, v in ((0.0, 1.0), (1.0, 3.0), (2.0, 2.0)):
            series.add(t, v)
        assert len(series) == 3
        assert series.mean() == pytest.approx(2.0)
        assert series.maximum() == 3.0

    def test_out_of_order_rejected(self):
        series = TimeSeries()
        series.add(1.0, 5.0)
        with pytest.raises(ValueError):
            series.add(0.5, 1.0)

    def test_between(self):
        series = TimeSeries()
        for t in range(10):
            series.add(float(t), float(t))
        window = series.between(2.0, 5.0)
        assert window.times == [2.0, 3.0, 4.0]

    def test_resample_modes(self):
        series = TimeSeries()
        for t, v in ((0.1, 1), (0.2, 3), (1.1, 10), (1.9, 2)):
            series.add(t, v)
        mean = series.resample(1.0, start=0.0, end=2.0, how="mean")
        assert mean.values == [2.0, 6.0]
        maximum = series.resample(1.0, start=0.0, end=2.0, how="max")
        assert maximum.values == [3.0, 10.0]
        last = series.resample(1.0, start=0.0, end=2.0, how="last")
        assert last.values == [3.0, 2.0]
        with pytest.raises(ValueError):
            series.resample(1.0, how="median")

    def test_empty_series(self):
        series = TimeSeries()
        assert series.mean() == 0.0
        assert series.maximum() == 0.0
        assert len(series.resample(1.0)) == 0


class TestDistributions:
    def test_cdf_empty_and_basic(self):
        assert cdf([]) == []
        points = cdf([3.0, 1.0, 2.0])
        assert points == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)),
                          (3.0, pytest.approx(1.0))]

    def test_fractiles(self):
        samples = list(range(101))
        result = fractiles(samples, (0.0, 0.5, 1.0))
        assert result[0.0] == 0
        assert result[0.5] == 50
        assert result[1.0] == 100
        assert fractiles([], (0.5,)) == {0.5: 0.0}
        with pytest.raises(ValueError):
            fractiles([1.0], (1.5,))

    def test_fraction_at_or_below(self):
        assert fraction_at_or_below([], 1) == 0.0
        assert fraction_at_or_below([0, 0, 5, 10], 0) == 0.5


class TestEwma:
    def test_smoothing(self):
        ewma = Ewma(alpha=0.5)
        assert ewma.update(10) == 10
        assert ewma.update(0) == 5
        assert ewma.update(0) == 2.5

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            Ewma(alpha=0.0)
        with pytest.raises(ValueError):
            Ewma(alpha=1.5)


class TestExperimentSummary:
    def test_rows_and_rendering(self):
        summary = ExperimentSummary("E0", "A test experiment")
        summary.add("some metric", 10.0, 9.5, unit="Mb/s", note="close enough")
        summary.add("unmeasured", None, 3.0)
        text = summary.render()
        assert "E0" in text and "some metric" in text and "close enough" in text
        assert "paper=-" in text

    def test_ratio(self):
        row = ComparisonRow("x", paper_value=10.0, measured_value=5.0)
        assert row.ratio() == 0.5
        assert ComparisonRow("x", None, 5.0).ratio() is None
        assert ComparisonRow("x", 0.0, 5.0).ratio() is None

    def test_tolerance_gates_relative_to_the_paper_value(self):
        assert ComparisonRow("x", 10.0, 9.5, tolerance=0.05).passed() is True
        assert ComparisonRow("x", 10.0, 9.4, tolerance=0.05).passed() is False
        assert ComparisonRow("x", 54, 54, tolerance=0).passed() is True
        assert ComparisonRow("x", 54, 55, tolerance=0).passed() is False

    def test_band_gates_on_the_measured_value(self):
        assert ComparisonRow("x", 25.0, 45.0, band=(20, 50)).passed() is True
        assert ComparisonRow("x", 25.0, 51.0, band=(20, 50)).passed() is False
        assert ComparisonRow("x", 0.0, 0.04, band=(0, 0.05)).passed() is True

    def test_rows_without_a_paper_value_or_a_gate_never_gate(self):
        assert ComparisonRow("x", None, 5.0, tolerance=0.01).passed() is None
        assert ComparisonRow("x", None, 5.0, band=(0, 1)).passed() is None
        assert ComparisonRow("x", 10.0, 5.0).passed() is None

    def test_summary_reports_failed_rows_and_renders_the_verdict(self):
        summary = ExperimentSummary("E0", "A test experiment")
        summary.add("inside", 10.0, 10.2, tolerance=0.05)
        outside = summary.add("outside", 10.0, 12.0, tolerance=0.05)
        summary.add("unmeasured by the paper", None, 3.0)
        assert summary.failed() == [outside]
        inside_line, outside_line, info_line = summary.render().splitlines()[1:]
        assert "tol=±5%" in inside_line and "PASS" in inside_line
        assert "FAIL" in outside_line
        assert "info" in info_line
