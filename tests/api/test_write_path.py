"""The one write path: every façade mutation is one call of the manager.

Every store runs every mutation — auto-stamped or stamped, a delete, a
batch, an imported range — as one call of its transaction manager's
``run_transaction``, on every engine, with a log or without; with a log each
of the call's commits is one ``COMMIT`` record.  These tests hold the path
to what that buys: *recovered ≡ acknowledged* after a crash on every way
in, transactions and façade writes that share one timeline and one set of
record locks, batches that cannot deadlock each other, and ``put_many``
stamps that did not move.
"""

from __future__ import annotations

import threading
import time
import zlib

import pytest

from repro.analysis.experiment import answers_digest
from repro.api import ShardSpec, StoreConfig, VersionStore
from repro.api.engine import Capability, CapabilityError, VersionStoreError
from repro.core.checker import check_tree
from repro.core.tsb_tree import RecordTooLargeError, TimestampOrderError
from repro.recovery.log_records import LogRecordType, decode_stream
from repro.recovery.replay import replay_device
from repro.storage.serialization import SerializationError
from tests.api.test_differential import DictOracle
from tests.crash_harness import crash_and_reopen

KEY_SPACE = 30


def wal_config(sharded: bool) -> StoreConfig:
    return StoreConfig(
        engine="tsb",
        page_size=256,
        wal=True,
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
                key
                for r in decode_stream(shard.log_device.durable_contents())
                if r.kind is LogRecordType.COMMIT
                for key, _ in r.writes
                if key in (1, 2, 3)
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


def restarted(store: VersionStore) -> VersionStore:
    """A WAL store crashed and recovered; a logless one reopened from the
    devices its last checkpoint wrote."""
    if store.log is not None:
        return crash_and_reopen(store)
    magnetic, historical = store.devices
    return VersionStore.open(store.config, magnetic=magnetic, historical=historical)


@pytest.mark.parametrize("wal", [False, True], ids=["logless", "wal"])
class TestRefusedBesideItsOwnVersions:
    """A version that fits a page alone but not beside its key's committed
    version, which no split can move out: the tree refuses it with
    ``RecordTooLargeError`` before touching a node (a key split of the root
    leaf once went first and cut key 2 off the tree)."""

    def open_store(self, wal):
        store = VersionStore.open(StoreConfig(engine="tsb", page_size=1024, wal=wal))
        store.insert(1, b"a" * 500)
        store.insert(2, b"x" * 10)
        return store

    def assert_intact(self, store, committed):
        assert {r.key: r.value for r in store.range_search()} == committed
        assert check_tree(store.backend) == []
        assert not (store.txns is not None and store.txns.requires_recovery)
        store.checkpoint()  # a WAL store's checkpoint is not refused
        reopened = restarted(store)
        assert {r.key: r.value for r in reopened.range_search()} == committed
        assert check_tree(reopened.backend) == []

    def test_a_transactional_rewrite(self, wal):
        store = self.open_store(wal)
        txn = store.begin()
        txn.write(3, b"pending")
        with pytest.raises(RecordTooLargeError):
            txn.write(1, b"b" * 500)
        assert store.get(2).value == b"x" * 10
        if not wal:  # without a log the transaction stays active
            txn.abort()
        self.assert_intact(store, {1: b"a" * 500, 2: b"x" * 10})

    def test_a_facade_insert(self, wal):
        store = self.open_store(wal)
        with pytest.raises(RecordTooLargeError):
            store.insert(1, b"b" * 500)
        assert store.get(2).value == b"x" * 10
        store.insert(3, b"next")
        self.assert_intact(store, {1: b"a" * 500, 2: b"x" * 10, 3: b"next"})

    def test_refused_after_a_batch_write_landed(self, wal):
        """Key 2's version is committed by the time key 1's is refused: a
        WAL store can only undo it by a restart, so it asks for one."""
        store = self.open_store(wal)
        with pytest.raises(RecordTooLargeError):
            store.put_many([(2, b"y"), (1, b"b" * 500)])
        assert check_tree(store.backend) == []
        if wal:
            assert store.txns.requires_recovery
            reopened = crash_and_reopen(store)
            committed = {1: b"a" * 500, 2: b"x" * 10}
            assert {r.key: r.value for r in reopened.range_search()} == committed


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

    @pytest.mark.parametrize("wal", [False, True], ids=["logless", "wal"])
    def test_facade_insert_waits_for_the_transaction_holding_its_key(self, wal):
        store = VersionStore.open(StoreConfig(engine="tsb", wal=wal))
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


    def test_a_key_the_log_cannot_hold_is_refused_before_the_tree(self):
        """An int key outside i64 has no log encoding: a façade insert and
        an interactive write of one are refused with the tree and the clock
        untouched, so full checkpoints still run."""
        store = VersionStore.open(wal_config(sharded=False))
        store.insert(1, b"first")
        now = store.now
        with pytest.raises(SerializationError):
            store.insert(2**63, b"v")
        txn = store.txns.begin()
        with pytest.raises(SerializationError):
            txn.write(-(2**63) - 1, b"v")
        txn.abort()
        assert store.now == now and not store.txns.requires_recovery
        assert [r.key for r in store.range_search()] == [1]
        store.checkpoint()
        reopened = crash_and_reopen(store)
        assert [(r.key, r.value) for r in reopened.range_search()] == [(1, b"first")]

    @pytest.mark.parametrize("shards", [None, 2], ids=["plain", "two-shard"])
    def test_a_logless_store_refuses_a_key_outside_the_codec(self, shards):
        """Without a log, nothing logs the key, yet the write path still
        asks the codec before the tree takes it, so a later checkpoint still
        writes every page and the devices reopen."""
        spec = None if shards is None else ShardSpec(boundaries=(10,))
        store = VersionStore.open(StoreConfig(engine="tsb", shards=spec))
        store.insert(1, b"first")
        now = store.now
        for key in (2**63, -(2**63) - 1):
            with pytest.raises(SerializationError):
                store.insert(key, b"v")
            with pytest.raises(SerializationError):
                store.put_many([(key, b"v")])
            with pytest.raises(SerializationError):
                store.delete(key)
        assert store.now == now
        store.checkpoint()
        store.flush()
        shard_stores = [store] if shards is None else store.shard_stores
        for inner in shard_stores:
            magnetic, historical = inner.devices
            reopened = VersionStore.open(inner.config, magnetic=magnetic, historical=historical)
            assert [r.key for r in reopened.range_search()] == (
                [1] if inner.get(1) is not None else []
            )


class TestStampsDidNotMove:
    """Literals recorded from the parent commit (PR 17): the fold changed who
    assigns a sharded batch's stamps, not what they are."""

    @pytest.mark.parametrize(
        "wal, expected",
        [(True, (1365668541, 30, 821154208)), (False, (2279837371, 156, 363382226))],
        ids=["wal", "logless"],
    )
    def test_sharded_put_many_stamps_and_digest(self, wal, expected):
        spec = ShardSpec.for_int_keys(4, key_space=40)
        config = StoreConfig(
            engine="tsb", page_size=256, wal=wal, shards=spec
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
            engine="tsb", page_size=256, wal=True, shards=spec
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


#: One store per engine, and the TSB-tree with and without a log.
EVERY_STORE = {
    "tsb-logless": StoreConfig(engine="tsb", page_size=256),
    "tsb-wal": StoreConfig(engine="tsb", page_size=256, wal=True),
    "wobt": StoreConfig(engine="wobt", page_size=256),
    "naive": StoreConfig(engine="naive", page_size=256),
}


@pytest.mark.parametrize("config", EVERY_STORE.values(), ids=EVERY_STORE.keys())
class TestOneCallPerWrite:
    def spy(self, store):
        calls = []
        run_transaction = store.txns.run_transaction

        def counted(commits, admit=None):
            calls.append(commits)
            return run_transaction(commits, admit)

        store.txns.run_transaction = counted
        return calls

    def test_every_facade_write_is_one_call_of_run_transaction(self, config):
        store = VersionStore.open(config)
        calls = self.spy(store)
        expected = 0
        for write in (
            lambda: store.insert(1, b"auto"),
            lambda: store.insert(2, b"stamped", timestamp=store.now + 3),
            lambda: store.put_many([(3, b"c"), (4, b"d"), (3, b"again")]),
            lambda: store.import_events(
                [
                    (store.now + 1, 5, False, b"e"),
                    (store.now + 1, 6, False, b"f"),
                    (store.now + 2, 5, False, b"g"),
                ]
            ),
        ):
            write()
            expected += 1
            assert len(calls) == expected
        if store.engine.supports(Capability.DELETE):
            store.delete(1)
            store.delete(2, timestamp=store.now + 1)
            assert len(calls) == expected + 2
        else:
            with pytest.raises(CapabilityError):
                store.delete(1)
            assert store.txns.locks.locked_key_count == 0

    def test_a_batch_takes_the_latch_once_and_keeps_its_stamps(self, config):
        store = VersionStore.open(config)
        store.insert(0, b"first")
        holds = []
        acquire_write = store.latch.acquire_write

        def counted():
            holds.append(1)
            acquire_write()

        store.latch.acquire_write = counted
        items = [(key % 5, b"v%d" % key) for key in range(12)]
        stamps = store.put_many(items)
        assert len(holds) == 1
        if config.wal:  # a distinct-key run shares its commit's stamp
            assert stamps == [2] * 5 + [3] * 5 + [4] * 2
        else:
            assert stamps == list(range(2, 14))
        assert store.now == stamps[-1]


class TestFailedCalls:
    def test_a_logless_batch_keeps_the_items_before_an_oversized_one(self):
        store = VersionStore.open(StoreConfig(engine="tsb", page_size=256))
        with pytest.raises(RecordTooLargeError):
            store.put_many([(1, b"a"), (2, b"b"), (3, b"x" * 1000), (4, b"d")])
        assert [(r.key, r.timestamp) for r in store.range_search()] == [(1, 1), (2, 2)]
        assert store.txns.locks.locked_key_count == 0
        assert store.txns.active_transactions() == []
        # The refused item moved neither the tree nor the clock.
        assert store.put_many([(4, b"d")]) == [3]
        assert check_tree(store.backend) == []

    def test_a_wal_batch_forces_the_commits_before_the_one_that_failed(self):
        """Key 1's second value opens a second commit, a lone version too
        large for a page: the tree refuses it untouched, and the first
        commit is durable by the time the error arrives."""
        store = VersionStore.open(wal_config(sharded=False))
        with pytest.raises(RecordTooLargeError):
            store.put_many([(1, b"kept"), (2, b"kept"), (1, b"x" * 1000)])
        assert store.log.is_durable(store.log.last_lsn)
        assert store.txns.locks.locked_key_count == 0
        assert not store.txns.requires_recovery
        reopened = crash_and_reopen(store)
        assert [(r.key, r.timestamp, r.value) for r in reopened.range_search()] == [
            (1, 1, b"kept"),
            (2, 1, b"kept"),
        ]


class TestBatchesCannotDeadlock:
    def test_opposite_orders_over_the_same_keys_both_commit(self):
        """Each batch pauses after its first record lock until the other has
        taken one too (or half a second passed).  Locking in input order,
        A would hold 1 and B 2, and one of them would die in a deadlock
        cycle; in the one total order B waits for 1 and both commit."""
        store = VersionStore.open(StoreConfig(engine="tsb", wal=True))
        locks = store.txns.locks
        grant = locks._grant
        first_locked = set()

        def pause_after_first_lock(txn_id, key):
            grant(txn_id, key)
            me = threading.get_ident()
            if me not in first_locked:
                first_locked.add(me)
                locks._cond.notify_all()
                # Waiting on the lock manager's own condition lets the other
                # batch in to take its first lock.
                locks._cond.wait_for(lambda: len(first_locked) == 2, timeout=0.5)

        locks._grant = pause_after_first_lock
        stamps, errors = {}, []

        def batch(name, items):
            try:
                stamps[name] = store.put_many(items)
            except Exception as exc:  # noqa: BLE001 - the assertion below shows it
                errors.append(exc)

        threads = [
            threading.Thread(target=batch, args=("a", [(1, b"a1"), (2, b"a2")])),
            threading.Thread(target=batch, args=("b", [(2, b"b2"), (1, b"b1")])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert errors == []
        assert sorted(stamps.values()) == [[1, 1], [2, 2]]
        assert locks.locked_key_count == 0
