"""Unit and model tests for the key-range ShardedVersionStore."""

from __future__ import annotations

import threading

import pytest

from repro.api import (
    CapabilityError,
    ShardSpec,
    ShardedVersionStore,
    StoreConfig,
    StoreClosedError,
    VersionStore,
    VersionStoreError,
)
from repro.obs import trace
from repro.storage.magnetic import MagneticDisk
from repro.workload import WorkloadSpec, apply_to, concurrent_clients, generate


def open_sharded(engine="tsb", shards=4, key_space=100, **config_overrides):
    spec = ShardSpec.for_int_keys(shards, key_space=key_space)
    return VersionStore.open(
        StoreConfig(engine=engine, page_size=512, shards=spec, **config_overrides)
    )


class TestShardSpec:
    def test_boundaries_imply_shard_count(self):
        spec = ShardSpec(boundaries=(10, 20, 30))
        assert spec.shards == 4

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ShardSpec(boundaries=(20, 10))
        with pytest.raises(ValueError, match="strictly increasing"):
            ShardSpec(boundaries=(10, 10))

    def test_shard_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagrees"):
            ShardSpec(boundaries=(10,), shards=5)

    def test_multi_shard_without_boundaries_rejected(self):
        with pytest.raises(ValueError, match="explicit boundaries"):
            ShardSpec(shards=4)

    def test_for_int_keys_partitions_evenly(self):
        assert ShardSpec.for_int_keys(4, key_space=100).boundaries == (25, 50, 75)
        assert ShardSpec.for_int_keys(1, key_space=100).boundaries is None

    def test_for_string_keys_partitions_the_alphabet(self):
        spec = ShardSpec.for_string_keys(2)
        assert spec.boundaries == ("n",)

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="split_utilization"):
            ShardSpec(split_utilization=0.0)
        with pytest.raises(ValueError, match="max_shards"):
            ShardSpec(boundaries=(1, 2, 3), max_shards=2)
        for shards in (0, -2):
            with pytest.raises(ValueError, match="at least one shard"):
                ShardSpec(shards=shards)


class TestConstruction:
    def test_open_dispatches_to_sharded_store(self):
        store = open_sharded()
        assert isinstance(store, ShardedVersionStore)
        assert store.shard_count == 4
        assert store.config.shards is not None

    def test_each_shard_owns_its_own_devices(self):
        store = open_sharded(engine="tsb")
        magnetics = {id(inner.backend.magnetic) for inner in store.shard_stores}
        assert len(magnetics) == store.shard_count

    def test_reopen_from_devices_rejected(self):
        spec = ShardSpec.for_int_keys(2, key_space=10)
        with pytest.raises(VersionStoreError, match="device pair"):
            VersionStore.open(
                StoreConfig(engine="tsb", shards=spec),
                magnetic=MagneticDisk(page_size=1024),
            )

    def test_backend_refuses_to_pick_a_shard(self):
        store = open_sharded()
        with pytest.raises(VersionStoreError, match="no single backend"):
            store.backend


class TestRoutingAndScatterGather:
    @pytest.fixture(params=["tsb", "naive"])
    def pair(self, request):
        """The same workload on a sharded store and on one plain store."""
        operations = generate(
            WorkloadSpec(operations=400, update_fraction=0.5, seed=11, value_size=16)
        )
        sharded = open_sharded(engine=request.param, shards=4, key_space=250)
        single = VersionStore.open(StoreConfig(engine=request.param, page_size=512))
        apply_to(sharded, operations)
        apply_to(single, operations)
        return sharded, single, operations

    def test_point_queries_route_to_one_shard(self, pair):
        sharded, single, operations = pair
        keys = sorted({operation.key for operation in operations})
        for key in keys:
            assert 0 <= sharded.shard_for(key) < sharded.shard_count
            assert sharded.get(key) == single.get(key)

    def test_scatter_gather_queries_match_single_store(self, pair):
        sharded, single, operations = pair
        keys = sorted({operation.key for operation in operations})
        final = operations[-1].timestamp
        for low, high in [(None, None), (keys[3], keys[-3]), (keys[10], keys[11])]:
            assert sharded.range_search(low, high) == single.range_search(low, high)
        for probe in (1, final // 3, final // 2, final):
            assert sharded.snapshot(probe) == single.snapshot(probe)
            assert sharded.range_search(as_of=probe) == single.range_search(as_of=probe)
        for key in keys[:25]:
            assert sharded.key_history(key) == single.key_history(key)
            assert sharded.history_between(key, final // 4, final // 2) == (
                single.history_between(key, final // 4, final // 2)
            )
        assert sharded.now == single.now

    def test_range_results_are_globally_key_sorted(self, pair):
        sharded, _, _ = pair
        scanned = [record.key for record in sharded.range_search()]
        assert scanned == sorted(scanned)

    def test_read_view_pins_across_shards(self):
        store = open_sharded(shards=2, key_space=10)
        store.insert(1, b"v1", timestamp=1)
        store.insert(8, b"w1", timestamp=2)
        view = store.read_view()
        store.insert(1, b"v2", timestamp=5)
        store.insert(8, b"w2", timestamp=6)
        assert view.get(1).value == b"v1"
        assert {k: r.value for k, r in view.snapshot().items()} == {1: b"v1", 8: b"w1"}

    def test_global_timestamp_order_enforced(self):
        store = open_sharded(shards=2, key_space=10)
        store.insert(9, b"late", timestamp=50)
        # Shard 0 has never seen timestamp 50, but the *store* has: a
        # backdated stamp must fail exactly as it would on a single store.
        with pytest.raises(VersionStoreError, match="precedes"):
            store.insert(1, b"early", timestamp=10)
        store.insert(1, b"equal", timestamp=50)  # equal stamps are fine


class TestWritesAndPutMany:
    def test_put_many_groups_per_shard_and_matches_sequential_stamps(self):
        store = open_sharded(shards=4, key_space=100)
        items = [(key, f"v{key}".encode()) for key in (90, 5, 40, 70, 12, 60)]
        report = store.put_many_detailed(items)
        # Per-item timestamps follow input order, exactly like a loop of
        # auto-stamped inserts on one store.
        assert report.timestamps == [1, 2, 3, 4, 5, 6]
        assert {batch.shard for batch in report.batches} == {0, 1, 2, 3}
        assert sum(batch.count for batch in report.batches) == len(items)
        for key, value in items:
            assert store.get(key).value == value

    def test_put_many_with_wal_commits_one_transaction_per_shard(self):
        store = open_sharded(
            shards=2, key_space=10, wal=True, cache_pages=4096
        )
        report = store.put_many_detailed([(1, b"a"), (8, b"b"), (2, b"c")])
        assert len(report.batches) == 2
        assert all(inner.log.pending_commits == 0 for inner in store.shard_stores)
        # One commit timestamp per shard group, globally ordered.
        stamps = [batch.timestamps[0] for batch in report.batches]
        assert stamps == sorted(stamps) and len(set(stamps)) == 2
        assert store.get(1).value == b"a"
        assert store.get(2).value == b"c"

    def test_put_many_with_wal_preserves_duplicate_key_versions(self):
        # A transaction's write set holds one value per key, so a batch
        # repeating a key must chunk into multiple commits — not silently
        # collapse the earlier version (regression: WAL vs non-WAL parity).
        store = open_sharded(
            shards=2, key_space=10, wal=True, cache_pages=4096
        )
        stamps = store.put_many([(1, b"a"), (1, b"b"), (8, b"c")])
        assert [r.value for r in store.key_history(1)] == [b"a", b"b"]
        assert stamps[0] < stamps[1]  # two distinct commits for key 1
        plain = open_sharded(shards=2, key_space=10)
        plain.put_many([(1, b"a"), (1, b"b"), (8, b"c")])
        assert [r.value for r in plain.key_history(1)] == [b"a", b"b"]

    def test_boundary_aligned_range_skips_the_excluded_shard(self):
        store = open_sharded(shards=4, key_space=100)  # boundaries 25/50/75
        for key in range(100):
            store.insert(key, b"v")
        touched = []
        for index, inner in enumerate(store.shard_stores):
            original = inner.engine.range_search
            inner.engine.range_search = (
                lambda *a, _i=index, _f=original, **kw: (touched.append(_i), _f(*a, **kw))[1]
            )
        # high == boundary 25: shard 1 starts at 25 and can never match.
        result = store.range_search(0, 25)
        assert [record.key for record in result] == list(range(25))
        assert touched == [0]

    @pytest.mark.parametrize(
        "read, arguments",
        [
            ("range_search", ()),
            ("time_slice", (0, 10_000)),
            ("keys", ()),
        ],
    )
    @pytest.mark.parametrize("low, high, asked", [(30, 40, [1]), (60, 90, [2, 3])])
    def test_bounded_scatter_reads_ask_only_overlapping_shards(
        self, read, arguments, low, high, asked
    ):
        store = open_sharded(shards=8, key_space=200)  # boundaries every 25 keys
        single = VersionStore.open(StoreConfig(engine="tsb", page_size=512))
        for key in range(200):
            for target in (store, single):
                target.insert(key, b"v%d" % key)
        for target in (store, single):
            target.delete(35)
        touched = []
        for index, inner in enumerate(store.shard_stores):
            original = getattr(inner.engine, read)
            setattr(
                inner.engine,
                read,
                lambda *a, _i=index, _f=original, **kw: (touched.append(_i), _f(*a, **kw))[1],
            )
        answer = getattr(store.engine, read)(*arguments, low, high)
        assert touched == asked
        assert answer == getattr(single.engine, read)(*arguments, low, high)
        assert len(answer) in (high - low, high - low - 1)  # minus the deleted key

    def test_empty_batch_is_a_no_op(self):
        store = open_sharded()
        assert store.put_many([]) == []
        assert store.now == 0

    def test_delete_routes_and_hides_the_key(self):
        store = open_sharded(shards=2, key_space=10)
        store.insert(8, b"v", timestamp=1)
        store.delete(8, timestamp=3)
        assert store.get(8) is None
        assert store.get_as_of(8, 2).value == b"v"
        assert 8 not in {record.key for record in store.range_search()}

    def test_duplicate_timestamp_guard_still_applies(self):
        store = open_sharded(shards=2, key_space=10)
        store.insert(3, b"v1", timestamp=5)
        with pytest.raises(VersionStoreError, match="already has a version"):
            store.insert(3, b"v2", timestamp=5)


class TestSplitting:
    def aggressive(self, engine="tsb", max_shards=6):
        spec = ShardSpec(
            split_utilization=0.5, shard_page_budget=8, max_shards=max_shards
        )
        return VersionStore.open(
            StoreConfig(engine=engine, page_size=512, shards=spec)
        )

    def test_shard_splits_when_utilization_crosses_threshold(self):
        store = self.aggressive()
        operations = generate(
            WorkloadSpec(operations=600, update_fraction=0.4, seed=5, value_size=32)
        )
        apply_to(store, operations)
        assert store.shard_count > 1
        assert store.sharded_engine.splits_performed == store.shard_count - 1
        # Ranges partition the key space: every key routes to exactly one
        # shard and the boundaries are strictly increasing.
        boundaries = store.sharded_engine.boundaries
        assert boundaries == sorted(boundaries)

    def test_split_preserves_answers(self):
        store = self.aggressive()
        single = VersionStore.open(StoreConfig(engine="tsb", page_size=512))
        operations = generate(
            WorkloadSpec(operations=600, update_fraction=0.5, seed=6, value_size=32)
        )
        apply_to(store, operations)
        apply_to(single, operations)
        assert store.shard_count > 1
        final = operations[-1].timestamp
        assert store.snapshot(final) == single.snapshot(final)
        assert store.snapshot(final // 2) == single.snapshot(final // 2)
        assert store.range_search() == single.range_search()
        for key in sorted({operation.key for operation in operations})[:30]:
            assert store.key_history(key) == single.key_history(key)

    def test_split_carries_tombstones(self):
        store = self.aggressive()
        store.insert(1, b"keep", timestamp=1)
        store.insert(2, b"dead", timestamp=2)
        store.delete(2, timestamp=3)
        # Force enough data through to trigger splits.
        for index in range(300):
            store.insert(10 + index, b"x" * 32)
        assert store.shard_count > 1
        assert store.get(2) is None
        assert store.get_as_of(2, 2).value == b"dead"
        # The (key, timestamp) slot the tombstone occupies survived the move.
        assert store.engine.has_version_at(2, 3)

    def test_max_shards_caps_splitting(self):
        store = self.aggressive(max_shards=2)
        for index in range(300):
            store.insert(index, b"x" * 32)
        assert store.shard_count <= 2


class TestCallerThread:
    """A sharded store owns no thread: fan-outs, ``put_many`` groups and
    split checks all run on the calling thread, visiting shards in key order."""

    @pytest.fixture
    def tracing(self):
        previous = trace.set_enabled(True)
        trace.clear()
        yield
        trace.clear()
        trace.set_enabled(previous)

    @pytest.mark.parametrize("wal", [False, True], ids=["logless", "wal"])
    def test_reads_writes_and_splits_start_no_thread(self, monkeypatch, wal):
        spec = ShardSpec(split_utilization=0.5, shard_page_budget=8, max_shards=6)
        store = VersionStore.open(
            StoreConfig(engine="tsb", page_size=512, wal=wal, shards=spec)
        )

        def refuse(thread):
            raise AssertionError(f"a sharded store started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        store.put_many([(index, b"x" * 32) for index in range(200)])
        for index in range(200, 300):
            store.insert(index, b"x" * 32)
        assert store.shard_count > 1  # the splits ran, inline
        assert len(store.range_search()) == 300
        assert len(store.snapshot(store.now)) == 300
        assert len(store.time_slice(0, store.now + 1)) == 300
        monkeypatch.undo()
        store.close()

    def test_shard_visits_run_on_the_calling_thread_in_key_order(self, tracing):
        store = open_sharded(shards=4, key_space=100)
        store.put_many([(key, b"v") for key in range(100)])
        trace.clear()
        store.range_search()
        visits = [span for span in trace.spans() if span.name == "shard.range_search"]
        # Spans are recorded as they finish: one visit ends before the next starts.
        assert [span.attrs["shard"] for span in visits] == [0, 1, 2, 3]
        assert {span.thread for span in visits} == {threading.get_ident()}
        for earlier, later in zip(visits, visits[1:]):
            assert earlier.start + earlier.duration <= later.start

    @pytest.mark.parametrize("wal", [False, True], ids=["logless", "wal"])
    def test_put_many_stops_at_the_first_failing_shard(self, monkeypatch, wal):
        store = open_sharded(shards=4, key_space=100, wal=wal)
        failing = store.shard_stores[1]

        def fail(writes, timestamp=None):
            raise RuntimeError("shard 1 refused the write")

        monkeypatch.setattr(failing, "_write", fail)
        with pytest.raises(RuntimeError, match="shard 1 refused"):
            store.put_many([(key, b"v") for key in range(100)])
        # Shard 0's group landed; shard 1 failed; shards 2 and 3 were never reached.
        assert [len(inner.engine.keys()) for inner in store.shard_stores] == [25, 0, 0, 0]
        assert [record.key for record in store.range_search()] == list(range(25))
        monkeypatch.undo()
        store.put_many([(key, b"w") for key in range(25, 100)])  # still usable
        assert len(store.range_search()) == 100

    def test_fanout_is_recorded_only_when_more_than_one_shard_is_visited(self):
        store = open_sharded(shards=4, key_space=100)
        for key in range(100):
            store.insert(key, b"v")
        store.range_search(0, 10)  # inside shard 0
        assert "scatter.fanout" not in store.metrics.histograms()
        store.range_search()
        fanout = store.metrics.histograms()["scatter.fanout"].snapshot()
        assert (fanout["count"], fanout["sum"]) == (1, 4)
        store.range_search(30, 60)  # shards 1 and 2
        fanout = store.metrics.histograms()["scatter.fanout"].snapshot()
        assert (fanout["count"], fanout["sum"]) == (2, 6)

    def test_each_visit_is_timed_into_its_own_shards_histogram(self):
        store = open_sharded(shards=4, key_space=100)
        for key in range(100):
            store.insert(key, b"v")
        store.snapshot(store.now)
        store.range_search(30, 60)
        snapshot_counts = [
            inner.metrics.histograms()["shard.snapshot"].count
            for inner in store.shard_stores
        ]
        range_counts = [
            inner.metrics.histograms()["shard.range_search"].count
            if "shard.range_search" in inner.metrics.histograms()
            else 0
            for inner in store.shard_stores
        ]
        assert snapshot_counts == [1, 1, 1, 1]
        assert range_counts == [0, 1, 1, 0]

    def test_put_many_splits_before_it_returns(self):
        spec = ShardSpec(split_utilization=0.5, shard_page_budget=8, max_shards=6)
        store = VersionStore.open(StoreConfig(engine="tsb", page_size=512, shards=spec))
        assert store.shard_count == 1
        store.put_many([(index, b"x" * 32) for index in range(300)])
        assert store.shard_count > 1
        assert store.sharded_engine.splits_performed == store.shard_count - 1
        assert [record.key for record in store.range_search()] == list(range(300))

    def test_describe_shards_and_metrics_snapshot_print_the_same_ranges(self):
        store = open_sharded(shards=4, key_space=100)
        expected = ["[-inf, 25)", "[25, 50)", "[50, 75)", "[75, +inf)"]
        assert [row["range"] for row in store.describe_shards()] == expected
        per_shard = store.metrics_snapshot()["per_shard"]
        assert [row["range"] for row in per_shard] == expected


class TestAccountingAndLifecycle:
    def test_space_summary_sums_across_shards(self):
        store = open_sharded(shards=2, key_space=40)
        for index in range(40):
            store.insert(index, b"payload")
        summary = store.space_summary()
        parts = [inner.space_summary() for inner in store.shard_stores]
        assert summary["versions_stored"] == sum(p["versions_stored"] for p in parts)
        assert summary["total_bytes"] == sum(p["total_bytes"] for p in parts)
        assert summary["shards"] == 2

    def test_io_summary_aggregates_per_tier(self):
        store = open_sharded(shards=2, key_space=40)
        for index in range(40):
            store.insert(index, b"payload")
        store.flush()
        before = store.io_summary()
        store.engine.drop_cache(2)
        list(store.range_search())
        after = store.io_summary()
        assert set(after) == {"magnetic", "historical"}
        assert after["magnetic"].reads > before["magnetic"].reads

    def test_tree_counters_roll_up(self):
        store = open_sharded(shards=2, key_space=40)
        for index in range(40):
            store.insert(index, b"payload")
        merged = store.tree_counters()
        assert merged.inserts == 40
        per_shard = [inner.backend.counters.inserts for inner in store.shard_stores]
        assert sum(per_shard) == 40 and all(count > 0 for count in per_shard)

    def test_transactions_are_not_coordinated_across_shards(self):
        store = open_sharded()
        with pytest.raises(CapabilityError):
            store.begin()

    def test_close_closes_every_shard(self):
        store = open_sharded(shards=2, key_space=10)
        store.insert(1, b"v")
        inners = store.shard_stores
        store.close()
        assert store.closed and all(inner.closed for inner in inners)
        with pytest.raises(StoreClosedError):
            store.get(1)

    def test_describe_shards_reports_ranges(self):
        store = open_sharded(shards=3, key_space=90)
        for index in range(90):
            store.insert(index, b"v")
        rows = store.describe_shards()
        assert len(rows) == 3
        assert rows[0]["range"].startswith("[-inf")
        assert rows[-1]["range"].endswith("+inf)")
        assert sum(row["keys_written"] for row in rows) == 90


class TestConcurrentClientsScenario:
    def test_scenario_matches_oracle_on_a_sharded_store(self):
        scenario = concurrent_clients(clients=6, operations_per_client=60)
        # Client keys cluster by prefix (c00-*, c01-*, ...): boundaries on
        # the prefixes spread the clients across shards two per shard.
        spec = ShardSpec(boundaries=("c02", "c04"))
        store = VersionStore.open(StoreConfig(engine="tsb", page_size=512, shards=spec))
        for event in scenario.events:
            store.insert(event.entity, event.payload, timestamp=event.timestamp)
        # Clients land on different shards (their key prefixes cluster).
        used = {store.shard_for(entity) for entity in scenario.history}
        assert len(used) > 1
        final = scenario.final_timestamp
        for probe in (final // 3, final):
            observed = {k: r.value for k, r in store.snapshot(probe).items()}
            assert observed == scenario.state_at(probe)
        for entity, versions in list(scenario.history.items())[:20]:
            assert [
                (r.timestamp, r.value) for r in store.key_history(entity)
            ] == versions

    def test_streams_interleave_and_cover_every_client(self):
        scenario = concurrent_clients(clients=4, operations_per_client=50, seed=3)
        assert len(scenario.events) == 200
        owners = [event.attribute for event in scenario.events]
        assert len(set(owners)) == 4
        # Not one giant run per client: the interleave switches clients often.
        switches = sum(1 for a, b in zip(owners, owners[1:]) if a != b)
        assert switches > 50
        stamps = [event.timestamp for event in scenario.events]
        assert stamps == list(range(1, 201))
