"""Unit tests for the measurement helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import (
    LatencyRecorder,
    ThroughputCounter,
    TimeSeries,
    percentile,
)


class TestPercentile:
    def test_simple(self):
        data = list(range(1, 101))
        assert percentile(data, 50) == 50
        assert percentile(data, 99) == 99
        assert percentile(data, 100) == 100
        assert percentile(data, 0) == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.integers(min_value=0, max_value=10**9),
                    min_size=1, max_size=200),
           st.floats(min_value=0, max_value=100))
    def test_percentile_is_a_member_and_bounded(self, data, pct):
        p = percentile(data, pct)
        assert p in data
        assert min(data) <= p <= max(data)

    @given(st.lists(st.integers(min_value=0, max_value=10**6),
                    min_size=2, max_size=100))
    def test_monotone_in_pct(self, data):
        assert percentile(data, 10) <= percentile(data, 90)


class TestLatencyRecorder:
    def test_mean_and_percentiles(self):
        rec = LatencyRecorder()
        for v in (1000, 2000, 3000):
            rec.record(v)
        assert rec.mean_ns == 2000
        assert rec.mean_us == 2.0
        assert rec.percentile_ns(50) == 2000
        assert rec.min_ns == 1000
        assert rec.max_ns == 3000

    def test_negative_rejected(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            rec.record(-1)

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            _ = LatencyRecorder().mean_ns

    def test_merge(self):
        a, b = LatencyRecorder(), LatencyRecorder()
        a.record(10)
        b.record(30)
        a.merge(b)
        assert a.count == 2
        assert a.mean_ns == 20

    def test_summary_keys(self):
        rec = LatencyRecorder()
        rec.record(5000)
        s = rec.summary()
        assert set(s) == {"count", "mean_us", "p50_us", "p99_us",
                          "p999_us"}


class TestThroughputCounter:
    def test_iops_and_bandwidth(self):
        c = ThroughputCounter()
        c.start(0)
        for _ in range(1000):
            c.record(nbytes=4096)
        c.stop(1_000_000_000)  # 1 second
        assert c.iops == pytest.approx(1000)
        assert c.gbps == pytest.approx(4096 * 1000 / 1e9)
        assert c.kops == pytest.approx(1.0)

    def test_unclosed_interval_raises(self):
        c = ThroughputCounter()
        c.record()
        with pytest.raises(ValueError):
            _ = c.iops


class TestTimeSeries:
    def test_record_and_window(self):
        ts = TimeSeries()
        for t in range(10):
            ts.record(t * 100, float(t))
        assert len(ts) == 10
        assert ts.between(200, 500) == [2.0, 3.0, 4.0]
        assert ts.values()[0] == 0.0

    def test_out_of_order_record_keeps_samples_sorted(self):
        ts = TimeSeries()
        for t in (500, 100, 300, 200, 400, 300):
            ts.record(t, float(t))
        stamps = [t for t, _ in ts.samples]
        assert stamps == sorted(stamps) == [100, 200, 300, 300, 400, 500]
        # Equal timestamps keep insertion order (insort_right ties).
        ts.record(300, -1.0)
        assert ts.between(300, 301) == [300.0, 300.0, -1.0]

    def test_between_is_half_open_and_bisected(self):
        ts = TimeSeries()
        for t in range(0, 1000, 100):
            ts.record(t, float(t))
        # t0 inclusive, t1 exclusive — exactly like the old linear scan.
        assert ts.between(200, 500) == [200.0, 300.0, 400.0]
        assert ts.between(200, 501) == [200.0, 300.0, 400.0, 500.0]
        assert ts.between(0, 1) == [0.0]
        assert ts.between(901, 5000) == []
        assert ts.between(5000, 6000) == []

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=10**6),
                              st.floats(allow_nan=False,
                                        allow_infinity=False)),
                    max_size=100),
           st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=0, max_value=10**6))
    def test_between_matches_linear_scan(self, points, a, b):
        t0, t1 = min(a, b), max(a, b)
        ts = TimeSeries()
        for t, v in points:
            ts.record(t, v)
        linear = [v for t, v in ts.samples if t0 <= t < t1]
        assert ts.between(t0, t1) == linear

    def test_window_reducers(self):
        ts = TimeSeries("depth")
        for t, v in ((0, 1.0), (100, 5.0), (200, 3.0)):
            ts.record(t, v)
        assert ts.window_max(0, 201) == 5.0
        assert ts.window_mean(0, 201) == pytest.approx(3.0)
        assert ts.window_percentile(0, 201, 50) == 3.0
        with pytest.raises(ValueError):
            ts.window_mean(300, 400)
        with pytest.raises(ValueError):
            ts.window_max(300, 400)

    def test_latest_and_points_alias(self):
        ts = TimeSeries()
        assert ts.latest is None
        assert ts.summary() == {"count": 0.0}
        ts.record(10, 2.5)
        assert ts.latest == (10, 2.5)
        # Legacy read-only alias sees the same list.
        assert ts.points is ts.samples
        s = ts.summary()
        assert s["count"] == 1.0 and s["last"] == 2.5

