"""Engine-conformance suite: one scenario, three engines, identical answers.

Every engine behind the :class:`~repro.api.VersionedEngine` protocol replays
the same insert/update scenario and must give the same logical answer to
every query class — current lookup, as-of lookup, snapshot, key history,
time-slice history and range scan.  The oracle from ``tests/conftest`` is
the ground truth; on top of that, the answers are compared *across* engines,
which is exactly the comparability guarantee the unified API exists to give.
"""

from __future__ import annotations

import pytest

from repro.api import (
    Capability,
    CapabilityError,
    ENGINE_NAMES,
    RecordView,
    StoreConfig,
    VersionStore,
)
from repro.workload import WorkloadSpec
from repro.workload.generator import apply_to, generate
from tests.conftest import VersionedOracle, run_mixed_workload

#: Deterministic mixed scenario: inserts of new keys and updates of old ones.
SCENARIO = dict(operations=300, update_fraction=0.6, key_space=30, seed=1989)


def open_store(engine: str) -> VersionStore:
    return VersionStore.open(StoreConfig(engine=engine, page_size=512))


@pytest.fixture(params=ENGINE_NAMES)
def populated(request):
    """A (store, oracle) pair after the shared scenario, per engine."""
    store = open_store(request.param)
    oracle = VersionedOracle()
    run_mixed_workload(store, oracle, **SCENARIO)
    return store, oracle


def record_value(record):
    return None if record is None else record.value


class TestAgainstOracle:
    def test_current_lookups(self, populated):
        store, oracle = populated
        for key in oracle.keys():
            record = store.get(key)
            assert record_value(record) == oracle.current(key)
            assert record is None or isinstance(record, RecordView)
        assert store.get(999_999) is None  # a key the scenario never wrote

    def test_as_of_lookups(self, populated, rng):
        store, oracle = populated
        for _ in range(120):
            key = rng.choice(oracle.keys())
            timestamp = rng.randint(0, oracle.max_timestamp + 1)
            assert record_value(store.get_as_of(key, timestamp)) == oracle.as_of(
                key, timestamp
            )

    def test_snapshots(self, populated):
        store, oracle = populated
        for timestamp in (1, oracle.max_timestamp // 3, oracle.max_timestamp):
            observed = {
                key: record.value for key, record in store.snapshot(timestamp).items()
            }
            assert observed == oracle.snapshot(timestamp)

    def test_key_histories(self, populated):
        store, oracle = populated
        for key in oracle.keys():
            observed = [(r.timestamp, r.value) for r in store.key_history(key)]
            assert observed == oracle.key_history(key)
            for record in store.key_history(key):
                assert record.key == key

    def test_history_between(self, populated):
        store, oracle = populated
        key = oracle.keys()[0]
        start = oracle.max_timestamp // 4
        end = oracle.max_timestamp // 2
        observed = [(r.timestamp, r.value) for r in store.history_between(key, start, end)]
        expected = []
        history = oracle.key_history(key)
        for position, (timestamp, value) in enumerate(history):
            next_start = (
                history[position + 1][0] if position + 1 < len(history) else None
            )
            if timestamp >= end:
                continue
            if next_start is not None and next_start <= start:
                continue
            expected.append((timestamp, value))
        assert observed == expected
        assert store.history_between(key, end, end) == []

    def test_range_scans(self, populated):
        store, oracle = populated
        keys = oracle.keys()
        low, high = keys[len(keys) // 4], keys[3 * len(keys) // 4]
        observed = {r.key: r.value for r in store.range_search(low, high)}
        expected = {
            key: value
            for key, value in oracle.range_current(low, high).items()
            if value is not None
        }
        assert observed == expected
        full = [r.key for r in store.range_search()]
        assert full == sorted(full)

    def test_reads_before_time_zero_answer_nothing(self, populated):
        """Nothing is valid before time zero, and a slice that starts before
        zero starts at zero (the TSB walk used to build a negative TimeRange)."""
        store, oracle = populated
        key = oracle.keys()[0]
        assert store.get_as_of(key, -1) is None
        assert store.range_search(0, 10, as_of=-1) == []
        assert store.snapshot(-1) == {}
        assert store.time_slice(-5, -1) == {}
        assert store.time_slice(-5, 3) == store.time_slice(0, 3) != {}
        assert store.history_between(key, -5, 3) == store.history_between(key, 0, 3)

    def test_now_tracks_the_latest_commit(self, populated):
        store, oracle = populated
        assert store.now == oracle.max_timestamp


class TestCrossEngine:
    """The engines must agree with each other, not only with the oracle."""

    @pytest.fixture(scope="class")
    def all_stores(self):
        spec = WorkloadSpec(operations=400, update_fraction=0.5, seed=7, value_size=16)
        operations = generate(spec)
        stores = {}
        for engine in ENGINE_NAMES:
            store = open_store(engine)
            apply_to(store, operations)
            stores[engine] = store
        return stores, operations

    def test_identical_logical_answers(self, all_stores):
        stores, operations = all_stores
        keys = sorted({operation.key for operation in operations})
        final = operations[-1].timestamp
        probes = [1, final // 4, final // 2, final]

        def answers(store):
            return {
                "current": {k: record_value(store.get(k)) for k in keys},
                "as_of": {
                    (k, t): record_value(store.get_as_of(k, t))
                    for k in keys[:10]
                    for t in probes
                },
                "snapshots": [
                    sorted((k, r.timestamp, r.value) for k, r in store.snapshot(t).items())
                    for t in probes
                ],
                "histories": {
                    k: [(r.timestamp, r.value) for r in store.key_history(k)]
                    for k in keys[:10]
                },
                "slices": {
                    k: [
                        (r.timestamp, r.value)
                        for r in store.history_between(k, final // 4, final // 2)
                    ]
                    for k in keys[:10]
                },
                "range": [
                    (r.key, r.timestamp, r.value)
                    for r in store.range_search(keys[2], keys[-2])
                ],
            }

        reference = answers(stores["tsb"])
        for engine in ("wobt", "naive"):
            assert answers(stores[engine]) == reference, (
                f"engine {engine!r} disagrees with the TSB-tree"
            )


class TestCapabilities:
    def test_every_engine_reports_its_surface(self):
        for engine_name in ENGINE_NAMES:
            store = open_store(engine_name)
            engine = store.engine
            assert engine.name == engine_name
            summary = store.space_summary()
            for column in (
                "magnetic_bytes",
                "historical_bytes",
                "total_bytes",
                "versions_stored",
                "redundancy_ratio",
            ):
                assert column in summary
            tiers = store.io_summary()
            assert set(tiers) == {"magnetic", "historical"}

    def test_unsupported_operations_raise_capability_errors(self):
        for engine_name in ("wobt", "naive"):
            store = open_store(engine_name)
            with pytest.raises(CapabilityError):
                store.begin()
            with pytest.raises(CapabilityError):
                store.delete("k")
        wobt = open_store("wobt")
        with pytest.raises(CapabilityError):
            wobt.flush()
        with pytest.raises(CapabilityError):
            wobt.checkpoint()

    def test_capability_flags_match_behaviour(self):
        tsb = open_store("tsb").engine
        assert tsb.supports(Capability.TRANSACTIONS)
        assert tsb.supports(Capability.DELETE)
        assert tsb.supports(Capability.CHECKPOINT)
        wobt = open_store("wobt").engine
        assert not wobt.supports(Capability.TRANSACTIONS)
        naive = open_store("naive").engine
        assert naive.supports(Capability.FLUSH)
        assert not naive.supports(Capability.CHECKPOINT)

    def test_equal_timestamp_reinserts_are_rejected_uniformly(self):
        # The backends disagree on this case (the TSB-tree keeps the first
        # version, the WOBT and naive index overwrite); the facade must
        # reject it identically everywhere so answers stay comparable.
        from repro.api import VersionStoreError

        for engine_name in ENGINE_NAMES:
            store = open_store(engine_name)
            store.insert("a", b"v1", timestamp=5)
            with pytest.raises(VersionStoreError, match="already has a version"):
                store.insert("a", b"v2", timestamp=5)
            assert store.get("a").value == b"v1"
            # A *different* key at the same timestamp is fine (that is how
            # multi-key transactions stamp their writes).
            store.insert("b", b"w1", timestamp=5)
            assert store.get("b").value == b"w1"

    def test_delete_is_honoured_where_supported(self):
        store = open_store("tsb")
        store.insert("k", b"v1", timestamp=1)
        store.delete("k", timestamp=3)
        assert store.get("k") is None
        assert store.get_as_of("k", 2).value == b"v1"
        assert store.get_as_of("k", 4) is None

    def test_timestamp_guard_sees_tombstones(self):
        from repro.api import VersionStoreError

        store = open_store("tsb")
        store.insert("k", b"v1", timestamp=1)
        store.delete("k", timestamp=3)
        # The tombstone occupies the (k, 3) slot even though normalized
        # reads hide it; a re-insert there must be rejected, not lost.
        with pytest.raises(VersionStoreError, match="already has a version"):
            store.insert("k", b"v2", timestamp=3)
        # ...and deletes get the same guard as inserts.
        store.insert("j", b"w1", timestamp=5)
        with pytest.raises(VersionStoreError, match="already has a version"):
            store.delete("j", timestamp=5)
        assert store.get("j").value == b"w1"
