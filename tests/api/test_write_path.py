"""The one write path: every façade mutation is in the log and on one clock.

A store with a log runs every mutation — auto-stamped or stamped, a delete,
a batch, an imported range — as one logged transaction; a store without one
writes the engine directly and moves the same commit clock.  These tests
hold the path to what that buys: *recovered ≡ acknowledged* after a crash
on every way in, transactions and façade writes that share one timeline and
one set of record locks, and ``put_many`` stamps that did not move.
"""

from __future__ import annotations

import threading
import time
import zlib

import pytest

from repro.analysis.experiment import answers_digest
from repro.api import ShardSpec, StoreConfig, VersionStore
from repro.api.engine import VersionStoreError
from repro.core.tsb_tree import RecordTooLargeError, TimestampOrderError
from repro.recovery.log_records import LogRecordType, decode_stream
from repro.recovery.replay import replay_device
from tests.api.test_differential import DictOracle
from tests.crash_harness import crash_and_reopen

KEY_SPACE = 30


def wal_config(sharded: bool) -> StoreConfig:
    return StoreConfig(
        engine="tsb",
        page_size=256,
        wal=True,
        group_commit_size=1,  # an acknowledgement follows a log force
        shards=ShardSpec.for_int_keys(3, key_space=KEY_SPACE) if sharded else None,
    )


def assert_answers_like(store: VersionStore, oracle: DictOracle) -> None:
    """State at every written stamp and every key's history, tombstones'
    effect included."""
    assert set(store.engine.keys()) == set(oracle.history)
    for key in oracle.history:
        observed = [(r.timestamp, r.value) for r in store.key_history(key)]
        assert observed == oracle.visible_history(key), key
    stamps = sorted({stamp for versions in oracle.history.values() for stamp, _ in versions})
    for stamp in stamps:
        observed = {k: (r.timestamp, r.value) for k, r in store.snapshot(stamp).items()}
        assert observed == oracle.snapshot(stamp), stamp


@pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
class TestRecoveredEqualsAcknowledged:
    def test_stamped_inserts_and_deletes_survive_a_crash(self, sharded):
        store = VersionStore.open(wal_config(sharded))
        oracle = DictOracle()
        for key in range(0, KEY_SPACE, 3):
            oracle.write(key, store.insert(key, b"auto-%d" % key), b"auto-%d" % key)
        for key in range(1, KEY_SPACE, 3):
            stamp = store.now + 2
            assert store.insert(key, b"stamped-%d" % key, timestamp=stamp) == stamp
            oracle.write(key, stamp, b"stamped-%d" % key)
        # A second key at a stamp already used, as a multi-key commit would.
        assert store.insert(2, b"same-stamp", timestamp=store.now) == store.now
        oracle.write(2, store.now, b"same-stamp")
        for key in range(0, KEY_SPACE, 6):
            oracle.write(key, store.delete(key), None)
        stamp = store.now + 5
        assert store.delete(1, timestamp=stamp) == stamp
        oracle.write(1, stamp, None)

        reopened = crash_and_reopen(store)
        assert reopened.now == store.now
        assert_answers_like(reopened, oracle)

    def test_imported_events_survive_a_crash_one_commit_per_stamp(self, sharded):
        store = VersionStore.open(wal_config(sharded))
        # Keys 0 and 1 share shard 0 and stamp 5: one commit where it came
        # from; key 29 (last shard) at stamp 5 is a commit of its own shard.
        events = [
            (3, 0, False, b"zero@3"),
            (5, 0, False, b"zero@5"),
            (5, 1, False, b"one@5"),
            (5, 29, False, b"last@5"),
            (7, 1, True, b""),
            (9, 12, False, b"mid@9"),
        ]
        oracle = DictOracle()
        for stamp, key, tombstone, value in events:
            oracle.write(key, stamp, None if tombstone else value)

        assert store.import_events(events) == len(events)
        logged = store.durable_lsn()
        # A retried chunk is skipped, event for event — and writes nothing.
        assert store.import_events(events) == 0
        assert store.import_events(events[2:]) == 0
        if not sharded:
            assert store.durable_lsn() == logged
        assert_answers_like(store, oracle)

        reopened = crash_and_reopen(store)
        assert_answers_like(reopened, oracle)
        inner = reopened.shard_stores if sharded else [reopened]
        commits = sum(s.recovery_report.winners_replayed for s in inner)
        routed = {(store.shard_for(key) if sharded else 0, stamp) for stamp, key, _, _ in events}
        assert commits == len(routed)  # 4 stamps on one store, 5 (shard, stamp) pairs on three

    def test_a_refused_batch_leaves_no_trace(self, sharded):
        """A record too large for a page, between two that fit: the batch is
        refused before any of it is logged or written, the clock stays put,
        and a restart agrees.  Keys 1-3 share a shard, so on the sharded
        store too the batch is one transaction."""
        store = VersionStore.open(wal_config(sharded))
        store.insert(5, b"before")
        now = store.now
        batch = [(1, b"small"), (2, b"x" * 1000), (3, b"small")]
        with pytest.raises(RecordTooLargeError):
            store.put_many(batch)
        assert store.now == now
        inner = store.shard_stores if sharded else [store]
        for shard in inner:
            tree = shard.backend
            assert not [v for node in tree.data_nodes() for v in node.versions if v.key in (1, 2, 3)]
            shard.log.force()
            logged = [
                r for r in decode_stream(shard.log_device.durable_contents())
                if r.kind is LogRecordType.INSERT and r.key in (1, 2, 3)
            ]
            assert logged == []
        assert not any(shard.txns.requires_recovery for shard in inner)
        assert store.put_many([(1, b"next"), (3, b"next")]) == [now + 1, now + 1]

        state = {r.key: (r.timestamp, r.value) for r in store.range_search()}
        reopened = crash_and_reopen(store)
        assert {r.key: (r.timestamp, r.value) for r in reopened.range_search()} == state
        assert reopened.key_history(2) == []
        assert reopened.insert(2, b"after") == now + 2

    def test_a_backdated_event_still_fails_the_import(self, sharded):
        store = VersionStore.open(wal_config(sharded))
        store.insert(4, b"newer", timestamp=10)
        with pytest.raises((VersionStoreError, TimestampOrderError), match="precedes"):
            store.import_events([(3, 5, False, b"older")])
        assert store.get(5) is None
        # Refused before any operation was logged: the store recovers clean.
        reopened = crash_and_reopen(store)
        assert reopened.get(5) is None and reopened.get(4).value == b"newer"


class TestOneClock:
    @pytest.mark.parametrize("wal", [False, True], ids=["logless", "wal"])
    def test_transactions_after_facade_writes_are_stamped_after_them(self, wal):
        store = VersionStore.open(StoreConfig(engine="tsb", wal=wal))
        for key in range(3):
            store.insert(key, b"facade")
        assert store.insert(7, b"stamped", timestamp=9) == 9
        assert store.delete(0) == 10
        reader = store.begin_readonly()
        assert reader.timestamp == store.now == 10
        assert reader.get(2).value == b"facade" and reader.get(0) is None
        with store.begin() as txn:
            txn.write(9, b"txn")
        assert txn.commit_timestamp == 11
        assert store.put_many([(5, b"batch")]) == [12]
        assert store.insert(6, b"facade-again") == 13
        assert store.begin_readonly().timestamp == 13

    def test_facade_insert_waits_for_the_transaction_holding_its_key(self):
        store = VersionStore.open(StoreConfig(engine="tsb", wal=True))
        txn = store.begin()
        txn.write(5, b"held")
        stamps = []
        writer = threading.Thread(target=lambda: stamps.append(store.insert(5, b"facade")))
        writer.start()
        deadline = time.monotonic() + 5
        while not store.txns.locks.waiting_transactions() and time.monotonic() < deadline:
            time.sleep(0.001)
        assert store.txns.locks.waiting_transactions(), "the façade insert did not wait"
        assert store.get(5) is None  # readers are not held up by the waiter
        assert txn.commit() == 1
        writer.join(timeout=5)
        assert stamps == [2]
        assert [(r.timestamp, r.value) for r in store.key_history(5)] == [
            (1, b"held"),
            (2, b"facade"),
        ]

    def test_logless_facade_insert_beside_an_open_transaction_keeps_both(self):
        store = VersionStore.open(StoreConfig(engine="tsb"))
        txn = store.begin()
        txn.write(5, b"held")
        assert store.insert(5, b"facade") == 1
        assert txn.commit() == 2
        assert [(r.timestamp, r.value) for r in store.key_history(5)] == [
            (1, b"facade"),
            (2, b"held"),
        ]

    def test_a_refused_stamped_write_leaves_no_trace_in_the_log(self):
        store = VersionStore.open(wal_config(sharded=False))
        store.insert(1, b"first", timestamp=5)
        with pytest.raises(VersionStoreError, match="already has a version"):
            store.insert(1, b"again", timestamp=5)
        with pytest.raises(TimestampOrderError, match="precedes"):
            store.delete(2, timestamp=3)
        assert not store.txns.active_transactions()
        assert not store.txns.requires_recovery
        assert store.put_many([(2, b"next")]) == [6]
        reopened = crash_and_reopen(store)
        assert [(r.timestamp, r.value) for r in reopened.key_history(1)] == [(5, b"first")]
        assert reopened.get(2).value == b"next"


class TestStampsDidNotMove:
    """Literals recorded from the parent commit (PR 17): the fold changed who
    assigns a sharded batch's stamps, not what they are."""

    @pytest.mark.parametrize("threads", [1, 4], ids=["sequential", "scatter4"])
    @pytest.mark.parametrize(
        "wal, expected",
        [(True, (1365668541, 30, 821154208)), (False, (2279837371, 156, 363382226))],
        ids=["wal", "logless"],
    )
    def test_sharded_put_many_stamps_and_digest(self, wal, expected, threads):
        spec = ShardSpec.for_int_keys(4, key_space=40, scatter_threads=threads)
        config = StoreConfig(
            engine="tsb", page_size=256, wal=wal, group_commit_size=2, shards=spec
        )
        with VersionStore.open(config) as store:
            stamps = []
            for round_ in range(6):
                items = [((7 * i + round_) % 40, f"r{round_}-{i}".encode()) for i in range(25)]
                items.append((items[3][0], b"again"))  # a second run on its shard
                stamps.append(store.put_many(items))
            digest = answers_digest(store, range(40), [1, store.now // 2, store.now])
            assert (zlib.crc32(repr(stamps).encode()), store.now, digest) == expected


class TestSplitLandsInTheLog:
    def test_each_half_is_rebuilt_by_its_own_log_alone(self):
        spec = ShardSpec(boundaries=(500,), shard_page_budget=6, split_utilization=0.8)
        config = StoreConfig(
            engine="tsb", page_size=256, wal=True, group_commit_size=4, shards=spec
        )
        store = VersionStore.open(config)
        for i in range(240):
            store.put_many([(i % 120, b"v%03d" % i)])
            if i % 9 == 0:
                store.delete((i * 7) % 120)
        assert store.sharded_engine.splits_performed >= 2
        for index, inner in enumerate(store.shard_stores):
            inner.log.force()
            rebuilt = replay_device(inner.log_device).tree
            assert rebuilt.keys() == inner.backend.keys(), index
            for key in rebuilt.keys():
                assert rebuilt.key_history(key) == inner.backend.key_history(key), key
        # And a crash of the whole store after the splits loses nothing forced.
        before = {r.key: r.value for r in store.range_search()}
        reopened = crash_and_reopen(store)
        assert {r.key: r.value for r in reopened.range_search()} == before
