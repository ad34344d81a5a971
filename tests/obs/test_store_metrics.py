"""Integration tests: the instrumented store stack end to end.

These drive real stores and assert that the observability layer surfaces
what the acceptance criteria promise — op latency percentiles, latch/lock
wait evidence, WAL group-commit distributions, cache hit ratios, per-shard
breakdowns, and one trace span per shard under a single scatter-gather
parent.
"""

import threading
import time

import pytest

from repro.api import ShardSpec, StoreConfig, VersionStore
from repro.obs import trace
from repro.obs.registry import set_enabled
from tests.crash_harness import forces_held


@pytest.fixture
def metrics_on():
    previous = set_enabled(True)
    yield
    set_enabled(previous)


def open_wal_store(**overrides):
    settings = dict(engine="tsb", page_size=1024, wal=True)
    settings.update(overrides)
    return VersionStore.open(StoreConfig(**settings))


class TestVersionStoreSnapshot:
    def test_ops_wal_cache_and_locks_sections(self, metrics_on):
        with open_wal_store() as store:
            store.put_many([(key, b"v" * 16) for key in range(200)])
            for key in range(0, 200, 5):
                store.get(key)
            store.range_search()
            snapshot = store.metrics_snapshot()

            assert snapshot["engine"] == "tsb"
            histograms = snapshot["metrics"]["histograms"]
            assert histograms["op.put_many"]["count"] == 1
            assert histograms["op.get"]["count"] == 40
            assert histograms["op.get"]["p50"] <= histograms["op.get"]["p99"]
            counters = snapshot["metrics"]["counters"]
            assert counters["txn.begins"] == counters["txn.commits"] == 1
            assert counters["wal.forces"] >= 1
            assert histograms["wal.fsync"]["count"] == counters["wal.forces"]
            assert snapshot["cache"]["accesses"] > 0
            assert 0.0 <= snapshot["cache"]["hit_ratio"] <= 1.0
            assert snapshot["locks"] == {
                "holders": {},
                "waits_for": {},
                "waiting": 0,
                "locked_keys": 0,
            }
            assert "group_commit_size" not in snapshot["wal"]
            assert snapshot["wal"]["flushed_lsn"] == snapshot["wal"]["last_lsn"]

    def test_group_commit_batches_land_in_the_histogram(self, metrics_on):
        with open_wal_store() as store:
            for round_ in range(3):
                transactions = [store.begin() for _ in range(3)]
                for index, txn in enumerate(transactions):
                    txn.write(round_ * 3 + index, b"batched")
                # The first two appended before the third's force, which
                # covers all three.
                with forces_held(store):
                    for txn in transactions[:2]:
                        txn.commit()
                transactions[2].commit()
            snapshot = store.metrics_snapshot()
        batch = snapshot["metrics"]["histograms"]["wal.batch_size"]
        assert batch["count"] >= 3
        assert batch["max"] == 3.0  # each third commit's force covered three

    def test_lock_wait_is_measured(self, metrics_on):
        with open_wal_store() as store:
            t1 = store.begin()
            t1.write("contended", b"held")

            def contender():
                with store.begin() as t2:
                    t2.write("contended", b"waited")

            thread = threading.Thread(target=contender)
            thread.start()
            time.sleep(0.05)
            during = store.txns.locks.debug_state()
            t1.commit()
            thread.join()
            snapshot = store.metrics_snapshot()

        assert during["locked_keys"] == 1
        assert during["waiting"] == 1
        counters = snapshot["metrics"]["counters"]
        assert counters["lock.waits"] == 1
        wait = snapshot["metrics"]["histograms"]["lock.wait"]
        assert wait["count"] == 1
        assert wait["max"] >= 0.04  # it demonstrably waited for the sleep

    def test_latch_write_hold_is_measured(self, metrics_on):
        with VersionStore.open(StoreConfig(engine="tsb", page_size=1024)) as store:
            store.insert(1, b"x")
            snapshot = store.metrics_snapshot()
        assert snapshot["metrics"]["histograms"]["latch.write_hold"]["count"] >= 1

    def test_snapshot_works_on_every_engine(self, metrics_on):
        for engine in ("tsb", "wobt", "naive"):
            with VersionStore.open(StoreConfig(engine=engine, page_size=1024)) as store:
                store.insert("k", b"v")
                store.get("k")
                snapshot = store.metrics_snapshot()
            assert snapshot["engine"] == engine
            assert snapshot["metrics"]["histograms"]["op.insert"]["count"] == 1
            assert "io" in snapshot

    def test_disabled_switch_stops_recording(self):
        previous = set_enabled(False)
        try:
            with VersionStore.open(StoreConfig(engine="tsb", page_size=1024)) as store:
                store.insert(1, b"x")
                store.get(1)
                snapshot = store.metrics_snapshot()
        finally:
            set_enabled(previous)
        assert snapshot["metrics"]["counters"] == {}
        assert snapshot["metrics"]["histograms"] == {}


def open_sharded_store(shards=4):
    spec = ShardSpec.for_int_keys(shards, key_space=400)
    return VersionStore.open(
        StoreConfig(engine="tsb", page_size=1024, wal=True, shards=spec)
    )


class TestShardedSnapshot:
    def test_aggregate_and_per_shard_sections(self, metrics_on):
        with open_sharded_store() as store:
            store.put_many([(key, b"v" * 16) for key in range(400)])
            final = store.now
            store.range_search()
            store.snapshot(max(1, final // 2))
            store.time_slice(max(1, final // 2), final, 0, 400)  # meets all four shards
            snapshot = store.metrics_snapshot()

        assert snapshot["engine"] == "sharded-tsb"
        assert snapshot["shards"] == 4
        histograms = snapshot["metrics"]["histograms"]
        # Façade op timers plus the per-shard task timers, aggregated.
        assert histograms["op.time_slice"]["count"] == 1
        assert histograms["shard.time_slice"]["count"] == 4
        assert histograms["scatter.fanout"]["count"] >= 3
        assert histograms["scatter.merge"]["count"] >= 3
        # txn counters roll up from every shard's WAL transaction manager.
        assert snapshot["metrics"]["counters"]["txn.commits"] >= 4
        assert len(snapshot["locks"]) == 4
        assert [row["shard"] for row in snapshot["per_shard"]] == [0, 1, 2, 3]
        for row in snapshot["per_shard"]:
            assert row["ops"]["shard.time_slice"]["count"] == 1
            assert "p99" in row["ops"]["shard.time_slice"]
        assert snapshot["cache"]["accesses"] > 0

    def test_scatter_gather_traces_one_span_per_shard(self, metrics_on):
        previous = trace.set_enabled(True)
        try:
            with open_sharded_store() as store:
                store.put_many([(key, b"v") for key in range(400)])
                final = store.now
                trace.clear()
                store.time_slice(max(1, final // 2), final, 0, 400)
                spans = trace.spans()
        finally:
            trace.set_enabled(previous)
            trace.clear()
        parents = [span for span in spans if span.name == "store.time_slice"]
        children = [span for span in spans if span.name == "shard.time_slice"]
        assert len(parents) == 1
        assert len(children) == 4
        assert {span.parent_id for span in children} == {parents[0].span_id}
        assert sorted(span.attrs["shard"] for span in children) == [0, 1, 2, 3]
