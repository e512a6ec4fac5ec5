"""Tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import HISTOGRAM_WINDOW, Histogram, MetricsRegistry


class TestCounter:
    def test_counts_and_get_or_create(self):
        reg = MetricsRegistry()
        reg.counter("files").inc()
        reg.counter("files").inc(2)
        assert reg.counter("files").value == 3
        assert reg.counter("other").value == 0

    def test_rejects_negative_increments(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot inc"):
            reg.counter("files").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3)
        reg.gauge("depth").set(1)
        assert reg.gauge("depth").value == 1.0


class TestHistogram:
    def test_percentiles_interpolate(self):
        h = Histogram("t")
        for v in [10.0, 20.0, 30.0, 40.0, 50.0]:
            h.observe(v)
        assert h.percentile(0) == 10.0
        assert h.percentile(50) == 30.0
        assert h.percentile(100) == 50.0
        # Rank 25% falls midway between the first two observations.
        assert h.percentile(25) == 20.0
        assert h.percentile(12.5) == pytest.approx(15.0)

    def test_single_observation(self):
        h = Histogram("t")
        h.observe(7.0)
        for p in (0, 50, 90, 100):
            assert h.percentile(p) == 7.0

    def test_empty_histogram_raises_on_percentile(self):
        h = Histogram("t")
        with pytest.raises(ValueError, match="no observations"):
            h.percentile(50)
        assert h.snapshot() == {"count": 0, "sum": 0.0}

    def test_out_of_range_percentile(self):
        h = Histogram("t")
        h.observe(1.0)
        with pytest.raises(ValueError, match="percentile"):
            h.percentile(101)

    def test_snapshot_summary(self):
        h = Histogram("t")
        for v in range(1, 101):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["count"] == 100
        assert snap["sum"] == 5050.0
        assert snap["min"] == 1.0
        assert snap["max"] == 100.0
        assert snap["p50"] == pytest.approx(50.5)
        assert snap["p90"] == pytest.approx(90.1)


class TestHistogramWindow:
    """A long-lived process observes per request in bounded memory."""

    N = 10_000

    def _filled(self):
        h = Histogram("t")
        for v in range(self.N):
            h.observe(float(v))
        return h

    def test_values_stay_within_window_and_totals_stay_exact(self):
        assert HISTOGRAM_WINDOW < self.N
        h = self._filled()
        assert len(h.values) == HISTOGRAM_WINDOW
        assert list(h.values) == [
            float(v) for v in range(self.N - HISTOGRAM_WINDOW, self.N)
        ]
        snap = h.snapshot()
        assert snap["count"] == self.N
        assert snap["sum"] == float(sum(range(self.N)))
        assert snap["min"] == 0.0
        assert snap["max"] == float(self.N - 1)
        # Percentiles describe the most recent window.
        assert snap["p50"] == pytest.approx(self.N - HISTOGRAM_WINDOW / 2 - 0.5)

    def test_percentiles_under_the_window_are_unchanged(self):
        values = [((i * 7919) % 1000) / 10.0 for i in range(HISTOGRAM_WINDOW)]
        h = Histogram("t")
        for v in values:
            h.observe(v)
        ordered = sorted(values)
        for p in (0, 12.5, 50, 90, 99, 100):
            rank = p / 100 * (len(ordered) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(ordered) - 1)
            expected = ordered[lo] * (1 - (rank - lo)) + ordered[hi] * (rank - lo)
            assert h.percentile(p) == pytest.approx(expected)
        assert h.snapshot()["sum"] == sum(values)  # same additions, same order

    def test_merge_adds_counts_exactly_past_the_window(self):
        worker = MetricsRegistry()
        for v in range(self.N):
            worker.observe("lat", float(v))
        parent = MetricsRegistry()
        for v in (-1.0, 2.0, 3.0):
            parent.observe("lat", v)
        parent.merge(worker.dump())
        merged = parent.histogram("lat")
        assert merged.count == self.N + 3
        assert merged.sum == float(sum(range(self.N))) + 4.0
        assert merged.min == -1.0
        assert merged.max == float(self.N - 1)
        assert len(merged.values) == HISTOGRAM_WINDOW

    def test_merge_under_the_window_matches_observing_in_place(self):
        worker, parent, direct = (MetricsRegistry() for _ in range(3))
        for v in (0.1, 0.2, 0.7):
            parent.observe("lat", v)
            direct.observe("lat", v)
        for v in (0.3, 1e-9, 5.5):
            worker.observe("lat", v)
            direct.observe("lat", v)
        parent.merge(worker.dump())
        merged, expected = parent.snapshot(), direct.snapshot()
        assert merged["histograms"]["lat"].pop("sum") == pytest.approx(
            expected["histograms"]["lat"].pop("sum"))
        assert merged == expected


class TestRegistry:
    def test_snapshot_is_sorted_and_only_touched(self):
        reg = MetricsRegistry()
        reg.inc("z.count")
        reg.inc("a.count", 2)
        reg.gauge("mid").set(5)
        reg.observe("lat", 1.5)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.count", "z.count"]
        assert snap["counters"]["a.count"] == 2
        assert snap["gauges"] == {"mid": 5.0}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("n")
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
