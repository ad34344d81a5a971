"""Unit tests for the metrics registry: instruments, switch, aggregation."""

import math
import threading
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.prometheus import render_prometheus
from repro.obs.registry import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    NOOP_TIMER,
    Histogram,
    MetricsRegistry,
    enabled,
    reset_session,
    session_histograms,
    set_enabled,
)


@pytest.fixture
def metrics_on():
    """Force the switch on for the test and restore it afterwards."""
    previous = set_enabled(True)
    yield
    set_enabled(previous)


@pytest.fixture
def clean_session():
    """Isolate the process-wide session accumulator."""
    reset_session()
    yield
    reset_session()


class TestInstruments:
    def test_counter_and_gauge(self, metrics_on):
        registry = MetricsRegistry(name="t", register=False)
        registry.inc("ops")
        registry.inc("ops", 4)
        registry.set_gauge("depth", 3.5)
        assert registry.counters() == {"ops": 5}
        assert registry.gauges() == {"depth": 3.5}

    def test_histogram_summary_statistics(self, metrics_on):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 9.0):
            histogram.record(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 5
        assert snapshot["sum"] == pytest.approx(15.5)
        assert snapshot["avg"] == pytest.approx(3.1)
        assert snapshot["max"] == 9.0
        # Buckets: <=1: 1, <=2: 2, <=4: 1, overflow: 1 — only non-empty listed.
        assert snapshot["buckets"] == [[1.0, 1], [2.0, 2], [4.0, 1], ["+Inf", 1]]

    def test_percentile_interpolates_within_the_bucket(self, metrics_on):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for _ in range(99):
            histogram.record(1.5)  # all mass in the (1, 2] bucket ...
        histogram.record(2.0)  # ... and the largest sample on its upper edge
        assert histogram.percentile(0.50) == pytest.approx(1.5)
        assert histogram.percentile(0.95) == pytest.approx(1.95)
        assert histogram.percentile(0.99) == pytest.approx(1.99)

    def test_percentile_never_exceeds_the_largest_sample(self, metrics_on):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for _ in range(100):
            histogram.record(1.5)  # the bucket reaches to 2.0; no sample does
        assert histogram.percentile(0.95) == 1.5
        assert histogram.snapshot()["p99"] == 1.5

    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=20.0, allow_nan=False), min_size=1, max_size=200
        ),
        bounds=st.lists(
            st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=8,
            unique=True,
        ).map(sorted),
    )
    @settings(max_examples=200, deadline=None)
    def test_percentiles_are_ordered_and_bounded_by_an_exact_sort(self, samples, bounds):
        histogram = Histogram("h", bounds=bounds)
        for value in samples:
            histogram.record(value)
        ordered = sorted(samples)
        estimates = [histogram.percentile(q) for q in (0.50, 0.95, 0.99)]
        assert [0.0, *estimates, ordered[-1]] == sorted([0.0, *estimates, ordered[-1]])
        for quantile, estimate in zip((0.50, 0.95, 0.99), estimates):
            # The estimate stays in the bucket the exact order statistic is in.
            exact = ordered[max(0, math.ceil(quantile * len(ordered)) - 1)]
            bucket = bisect_left(bounds, exact)
            lower = bounds[bucket - 1] if bucket else 0.0
            upper = bounds[bucket] if bucket < len(bounds) else ordered[-1]
            assert lower <= estimate <= upper

    @pytest.mark.parametrize(
        "bounds, value",
        [(COUNT_BUCKETS, 1), (COUNT_BUCKETS, 3), (COUNT_BUCKETS, 2000),
         (LATENCY_BUCKETS, 2.1e-4), (LATENCY_BUCKETS, 7e-7), (LATENCY_BUCKETS, 12.0)],
    )  # fmt: skip
    def test_a_single_valued_set_reports_its_value_at_every_quantile(
        self, metrics_on, bounds, value
    ):
        """All batches of size 1 fill the bucket (0, 1]: interpolating from
        its lower edge read p50 0.5 before the minimum bounded it."""
        histogram = Histogram("h", bounds=bounds)
        for _ in range(1200):
            histogram.record(value)
        snapshot = histogram.snapshot()
        assert [snapshot[name] for name in ("p50", "p95", "p99")] == [round(value, 9)] * 3
        assert histogram.percentile(0.5) == value

    def test_quantiles_stay_within_the_merged_minimum_and_maximum(self, metrics_on):
        left = Histogram("l", bounds=COUNT_BUCKETS)
        right = Histogram("r", bounds=COUNT_BUCKETS)
        empty = Histogram("e", bounds=COUNT_BUCKETS)
        for _ in range(10):
            left.record(3)
        right.record(5)
        left.merge_from(right)
        left.merge_from(empty)  # an empty histogram moves neither extreme
        assert left.min_value == 3 and left.max_value == 5
        assert all(3 <= left.percentile(q) <= 5 for q in (0.0, 0.01, 0.5, 0.95, 1.0))
        empty.merge_from(right)
        assert empty.percentile(0.5) == 5
        snapshot = left.snapshot()
        assert set(snapshot) == {"count", "sum", "avg", "max", "p50", "p95", "p99", "buckets"}
        assert (snapshot["count"], snapshot["sum"]) == (11, 35.0)

    def test_overflow_bucket_uses_the_observed_maximum(self, metrics_on):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.record(50.0)
        assert histogram.percentile(0.99) <= 50.0
        assert histogram.snapshot()["max"] == 50.0

    def test_empty_histogram_percentiles_are_zero(self):
        histogram = Histogram("h")
        assert histogram.percentile(0.99) == 0.0
        assert histogram.snapshot()["p50"] == 0.0

    def test_bounds_must_be_ascending(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("empty", bounds=())

    def test_merge_requires_matching_bounds(self, metrics_on):
        latency = Histogram("a", bounds=LATENCY_BUCKETS)
        counts = Histogram("b", bounds=COUNT_BUCKETS)
        with pytest.raises(ValueError):
            latency.merge_from(counts)

    def test_merge_folds_counts_sum_and_max(self, metrics_on):
        left = Histogram("l", bounds=(1.0, 2.0))
        right = Histogram("r", bounds=(1.0, 2.0))
        left.record(0.5)
        right.record(1.5)
        right.record(9.0)
        left.merge_from(right)
        snapshot = left.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["max"] == 9.0
        assert snapshot["sum"] == pytest.approx(11.0)

    def test_timer_records_wall_time(self, metrics_on):
        registry = MetricsRegistry(name="t", register=False)
        with registry.timer("op.x"):
            pass
        snapshot = registry.histogram("op.x").snapshot()
        assert snapshot["count"] == 1
        assert snapshot["max"] >= 0.0

    def test_histogram_is_thread_safe(self, metrics_on):
        histogram = Histogram("h", bounds=(1.0,))

        def record():
            for _ in range(1000):
                histogram.record(0.5)

        workers = [threading.Thread(target=record) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert histogram.count == 4000


class TestSwitch:
    def test_disabled_helpers_record_nothing(self):
        registry = MetricsRegistry(name="t", register=False)
        previous = set_enabled(False)
        try:
            assert not enabled()
            registry.inc("ops")
            registry.observe("lat", 1.0)
            registry.set_gauge("g", 1.0)
            assert registry.timer("lat") is NOOP_TIMER
        finally:
            set_enabled(previous)
        assert registry.counters() == {}
        assert registry.histograms() == {}

    def test_set_enabled_returns_previous(self):
        previous = set_enabled(False)
        try:
            assert set_enabled(True) is False
            assert set_enabled(previous) is True
        finally:
            set_enabled(previous)


class TestAggregation:
    def test_merge_from_and_aggregate(self, metrics_on):
        shards = []
        for index in range(3):
            registry = MetricsRegistry(name=f"shard-{index}", register=False)
            registry.inc("txn.commits", index + 1)
            registry.observe("op.get", 0.001 * (index + 1))
            shards.append(registry)
        total = MetricsRegistry.aggregate(shards, name="all")
        assert total.counters()["txn.commits"] == 6
        assert total.histogram("op.get").count == 3

    def test_snapshot_shape(self, metrics_on):
        registry = MetricsRegistry(name="t", register=False)
        registry.inc("c")
        registry.observe("h", 0.5)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_retire_is_idempotent(self, metrics_on, clean_session):
        registry = MetricsRegistry(name="t")
        registry.observe("op.x", 0.5)
        registry.retire()
        registry.retire()  # double close must not double-count
        assert session_histograms()["op.x"]["count"] == 1

    def test_session_includes_live_registries(self, metrics_on, clean_session):
        live = MetricsRegistry(name="live")
        live.observe("op.y", 0.25)
        assert session_histograms()["op.y"]["count"] == 1
        live.retire()
        assert session_histograms()["op.y"]["count"] == 1


class TestPrometheus:
    def test_render_counters_gauges_histograms(self, metrics_on):
        registry = MetricsRegistry(name="t", register=False)
        registry.inc("txn.commits", 3)
        registry.set_gauge("pool.depth", 2)
        histogram = registry.histogram("op.get", bounds=(0.001, 0.01))
        histogram.record(0.0005)
        histogram.record(0.005)
        histogram.record(5.0)
        text = render_prometheus(registry)
        assert "# TYPE repro_txn_commits_total counter" in text
        assert "repro_txn_commits_total 3" in text
        assert "repro_pool_depth 2" in text
        # Cumulative buckets: 1, then 2, then +Inf carries the full count.
        assert 'repro_op_get_bucket{le="0.001"} 1' in text
        assert 'repro_op_get_bucket{le="0.01"} 2' in text
        assert 'repro_op_get_bucket{le="+Inf"} 3' in text
        assert "repro_op_get_count 3" in text

    def test_names_are_sanitized(self, metrics_on):
        registry = MetricsRegistry(name="t", register=False)
        registry.inc("latch.read-waits")
        text = render_prometheus(registry)
        assert "repro_latch_read_waits_total 1" in text
