"""End-to-end replication tests: WAL shipping, follower reads, failover.

Everything runs over real sockets.  The correctness anchors are byte-level:
a replica's mirror device must hold a byte-identical prefix of the
primary's log, a promoted replica must answer exactly what a fresh replay
of its mirror answers, and a follower read at a timestamp must wait for the
replicated watermark before answering.
"""

import threading
import time

import pytest

from repro.analysis.experiment import answers_digest
from repro.api.store import ShardSpec, StoreConfig, VersionStore
from repro.client import ReproClient
from repro.replication import Replica, ReplicationPrimary, elect, replay_device
from repro.server import protocol
from repro.server.protocol import ByteReader, Opcode, Status
from repro.server.registry import StoreRegistry
from repro.server.service import ReproServer
from tests.wire import Wire, until


def _wal_config(shards=None):
    return StoreConfig(engine="tsb", wal=True, shards=shards)


@pytest.fixture()
def sharded_setup():
    """A WAL-enabled sharded store with a live replication listener."""
    registry = StoreRegistry(
        {"default": _wal_config(shards=ShardSpec(boundaries=("g", "p")))}
    )
    store = registry.get("default")
    primary = ReplicationPrimary(store).start()
    yield registry, store, primary
    primary.stop()
    registry.close_all()


def _write(store, count, prefix="k"):
    stamps = []
    for i in range(count):
        stamps.append(store.put_many([(f"{prefix}{i % 23:04d}", f"v{i}".encode())])[0])
    return stamps


class TestShipping:
    def test_replica_mirrors_and_serves_the_primary(self, sharded_setup):
        _, store, primary = sharded_setup
        _write(store, 60)
        with Replica(primary.host, primary.port, name="r1") as replica:
            replica.start()
            assert primary.wait_caught_up(timeout=10)
            # Byte-identical mirror prefix, shard by shard.
            for state, shard_store in zip(replica._states, primary._shards):
                assert (
                    state.mirror.durable_contents()
                    == shard_store.log_device.durable_contents()
                )
            # The follower surface answers like the primary.
            now = store.now
            assert replica.wait_for_watermark(now)
            assert replica.store.get("k0003").value == store.get("k0003").value
            theirs = {k: r.value for k, r in replica.store.snapshot(now).items()}
            ours = {k: r.value for k, r in store.snapshot(now).items()}
            assert theirs == ours

    def test_resubscribe_after_disconnect_resumes_at_cursor(self, sharded_setup):
        _, store, primary = sharded_setup
        _write(store, 30)
        with Replica(primary.host, primary.port, name="r1") as replica:
            replica.start()
            assert primary.wait_caught_up(timeout=10)
            # Sever every subscription mid-stream; the tailers reconnect
            # and resume from their durable mirror cursors.
            for state in replica._states:
                if state.connection is not None:
                    state.connection.close()
            _write(store, 30, prefix="m")
            assert primary.wait_caught_up(timeout=10)
            # If resume re-shipped from zero the mirror would hold
            # duplicate frames and the byte-prefix equality would break.
            for state, shard_store in zip(replica._states, primary._shards):
                assert (
                    state.mirror.durable_contents()
                    == shard_store.log_device.durable_contents()
                )

    def test_raw_subscribe_resumes_past_from_lsn(self, sharded_setup):
        _, store, primary = sharded_setup
        _write(store, 20)
        durable = primary.durable_lsns()[0]
        from_lsn = durable // 2
        with Wire.connect(primary.host, primary.port) as wire:
            wire.send(
                protocol.encode_request(
                    1, Opcode.SUBSCRIBE, "default", protocol.pack_subscribe(0, from_lsn)
                )
            )
            _, status, payload = wire.response()
            assert status is Status.PARTIAL
            _, _, records = protocol.unpack_log_batch(payload)
            first_lsn = next(lsn for _, lsn, _ in protocol.iter_wal_records(records))
            assert first_lsn == from_lsn + 1

    def test_out_of_order_acks_keep_a_monotone_cursor(self, sharded_setup):
        _, store, primary = sharded_setup
        _write(store, 10)
        with Wire.connect(primary.host, primary.port) as wire:
            # Subscribe far past the durable end: the stream stays silent,
            # leaving the connection free for ACK traffic.
            wire.send(
                protocol.encode_request(
                    1, Opcode.SUBSCRIBE, "default", protocol.pack_subscribe(0, 1 << 40)
                )
            )
            wire.send(
                protocol.encode_request(
                    2, Opcode.ACK, "default", protocol.pack_ack(0, 10)
                )
            )
            wire.send(
                protocol.encode_request(
                    3, Opcode.ACK, "default", protocol.pack_ack(0, 5)
                )
            )
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and primary.min_acked(0) != 10:
                time.sleep(0.002)
            # The late, smaller ACK must not regress the cursor.
            assert primary.min_acked(0) == 10


def _repl_threads():
    return sorted(t.name for t in threading.enumerate() if t.name.startswith("repl-"))


class TestLifecycle:
    @pytest.mark.parametrize("end", ["stop", "kill"])
    def test_primary_leaves_no_thread_and_no_reference_behind(self, end):
        """``stop()`` used to close the listener under a blocked ``accept()``
        — which Linux does not wake — and kept every connection's and every
        stream's ``Thread`` in a list for the primary's whole life."""
        registry = StoreRegistry(
            {"default": _wal_config(shards=ShardSpec(boundaries=("g", "p")))}
        )
        store = registry.get("default")
        primary = ReplicationPrimary(store).start()
        try:
            _write(store, 12)
            for name in ("first", "second"):  # connections come and go
                with Replica(primary.host, primary.port, name=name).start():
                    assert primary.wait_caught_up(timeout=10)
            until(lambda: not primary._subscribers, "both subscribers to be forgotten")
            # Nothing finished is remembered: only the accept loop is left.
            assert primary._subscribers == [] and primary._listener._connections == {}
            assert _repl_threads() == ["repl-primary-accept"]
        finally:
            getattr(primary, end)()
            registry.close_all()
        assert _repl_threads() == []
        assert primary.killed is (end == "kill")

    def test_a_subscription_blocks_without_a_read_timeout(self, sharded_setup):
        """The connect timeout used to stay on the socket, so an idle shard's
        subscription timed out every 10 s and was re-made — two new primary
        threads each time, and a batch in flight then shipped twice."""
        _, _, primary = sharded_setup
        with Replica(primary.host, primary.port, name="idle").start() as replica:
            for state in replica._states:
                until(lambda: state.connection is not None, "the tailer to connect")
                assert state.connection.sock.gettimeout() is None


class TestFollowerReads:
    def test_follower_read_waits_for_watermark(self):
        # A lone commit is durable once acknowledged, so it ships.
        registry = StoreRegistry({"default": _wal_config()})
        store = registry.get("default")
        server = ReproServer(registry, port=0)
        server.start()
        primary = ReplicationPrimary(store).start()
        replica = Replica(
            primary.host, primary.port, name="slow", apply_delay=0.005
        )
        try:
            replica.start()
            follower_server = replica.serve()
            with ReproClient(
                server.host,
                server.port,
                followers=[follower_server.address],
                read_preference="follower",
            ) as client:
                stamp = client.insert("watched", b"payload")
                # The timestamped read must block until the slow replica's
                # watermark covers the stamp, then answer correctly.
                record = client.get_as_of("watched", stamp)
                assert record is not None and record.value == b"payload"
                assert client.watermark()[1] >= stamp
        finally:
            replica.stop()
            primary.stop()
            server.stop()

    def test_follower_equals_primary_after_served_delete_and_stamped_insert(self):
        """Only auto-stamped writes used to reach the log (through the
        server's batcher); a served DELETE or stamped INSERT was acknowledged
        and never shipped, so a follower answered differently for ever."""
        shards = ShardSpec.for_int_keys(4, key_space=40)
        registry = StoreRegistry({"default": _wal_config(shards)})
        store = registry.get("default")
        server = ReproServer(registry, port=0).start()
        primary = ReplicationPrimary(store).start()
        replica = Replica(primary.host, primary.port, name="same").start()
        try:
            with ReproClient(server.host, server.port) as client:
                assert client.insert(10, b"auto") == 1
                assert client.insert(11, b"stamped", timestamp=4) == 4
                assert client.delete(10) == 5
                assert client.put_many([(12, b"batch")]) == [6]
                assert client.delete(31, timestamp=9) == 9
            assert primary.wait_caught_up(timeout=10)
            follower = replica.store
            assert follower.now == store.now == 9
            assert follower.get(10) is None and follower.get_as_of(10, 4).value == b"auto"
            assert follower.get(11).value == b"stamped"
            probe = (range(40), range(0, 10))
            assert answers_digest(follower, *probe) == answers_digest(store, *probe)
            assert follower.engine.keys() == store.engine.keys() == [10, 11, 12, 31]
        finally:
            replica.stop()
            primary.stop()
            server.stop()

    def test_follower_applying_the_log_ends_like_the_primary(self):
        """Every kind of logged commit — a multi-key batch at one stamp, an
        interactive transaction that rewrites a key and deletes then rewrites
        another, one that straddles a checkpoint, an abort — replayed by the
        follower at the logged stamps: same snapshot digest, same history."""
        registry = StoreRegistry({"default": _wal_config()})
        store = registry.get("default")
        primary = ReplicationPrimary(store).start()
        replica = Replica(primary.host, primary.port, name="apply").start()
        try:
            store.put_many([(key, b"batch-%d" % key) for key in range(12)])
            with store.begin() as txn:
                txn.write(3, b"draft")
                txn.write(3, b"final")
                txn.delete(4)
                txn.write(4, b"revived")
            straddling = store.begin()
            straddling.write(5, b"before-checkpoint")
            store.checkpoint()
            straddling.write(5, b"after-checkpoint")
            straddling.delete(6)
            straddling.commit()
            with pytest.raises(RuntimeError):
                with store.begin() as doomed:
                    doomed.write(7, b"never")
                    raise RuntimeError("abort")
            store.delete(8)
            store.insert(9, b"stamped", timestamp=store.now + 3)
            assert primary.wait_caught_up(timeout=10)
            assert replica.wait_for_watermark(store.now)
            follower = replica.store
            assert follower.now == store.now
            keys, stamps = range(12), range(store.now + 1)
            assert answers_digest(follower, keys, stamps) == answers_digest(store, keys, stamps)
            for key in keys:
                assert follower.key_history(key) == store.key_history(key), key
            assert [r.value for r in store.key_history(5)] == [b"batch-5", b"after-checkpoint"]
        finally:
            replica.stop()
            primary.stop()
            registry.close_all()

    def test_follower_refuses_writes(self):
        registry = StoreRegistry({"default": _wal_config()})
        store = registry.get("default")
        primary = ReplicationPrimary(store).start()
        replica = Replica(primary.host, primary.port, name="ro")
        try:
            replica.start()
            follower_server = replica.serve()
            host, port = follower_server.address
            with ReproClient(host, port) as client:
                with pytest.raises(Exception, match="read-only"):
                    client.insert("nope", b"x")
        finally:
            replica.stop()
            primary.stop()
            registry.close_all()


class TestWaitsAreEvents:
    """Every replication wait is woken by the event it waits for: a force
    ships, an ACK ends ``wait_caught_up``, an applied batch (or a stop)
    ends ``wait_for_watermark``, and a served read as-of a stamp waits at
    the follower."""

    def test_stop_wakes_a_watermark_waiter(self, sharded_setup):
        """A waiter used to look only at ``detached``, so one that outlived
        ``stop()`` slept out its whole timeout."""
        _, _, primary = sharded_setup
        replica = Replica(primary.host, primary.port, name="stopped").start()
        outcome = []
        waiter = threading.Thread(
            target=lambda: outcome.append(replica.wait_for_watermark(1 << 40, timeout=30))
        )
        try:
            waiter.start()
            waiter.join(0.2)
            assert waiter.is_alive()  # no stamp will ever reach 2**40
            stopped = time.monotonic()
            replica.stop()
            waiter.join(1.0)
            assert not waiter.is_alive() and outcome == [False]
            assert time.monotonic() - stopped < 1.0
        finally:
            replica.stop()
            waiter.join(30)

    def test_a_follower_read_as_of_a_stamp_waits_at_the_follower(self):
        """A plain client pointed straight at a follower: the server there
        waits for the stamp to be applied, so the answer is the primary's;
        an untimestamped read answers from the prefix at once."""
        registry = StoreRegistry({"default": _wal_config()})
        store = registry.get("default")
        primary = ReplicationPrimary(store).start()
        replica = Replica(primary.host, primary.port, name="lagging", apply_delay=0.5)
        try:
            host, port = replica.start().serve().address
            with ReproClient(host, port) as follower:
                reads = {
                    b"get_as_of": lambda stamp: follower.get_as_of("k", stamp),
                    b"range_search": lambda stamp: follower.range_search("a", "z", as_of=stamp)[0],
                    b"snapshot": lambda stamp: follower.snapshot(stamp)["k"],
                }
                applied = None
                for value, read in reads.items():
                    stamp = store.insert("k", value)
                    # The batch carrying ``stamp`` is half a second from applied.
                    prefix = follower.get("k")
                    assert (prefix and prefix.value) == applied
                    assert read(stamp).value == value
                    applied = value
        finally:
            replica.stop()
            primary.stop()
            registry.close_all()

    def test_a_waiting_read_holds_no_execution_slot(self, sharded_setup):
        _, store, primary = sharded_setup
        _write(store, 5)
        replica = Replica(primary.host, primary.port, name="slots").start()
        try:
            assert primary.wait_caught_up(timeout=10)
            follower = replica.serve(workers=1)
            answers = []
            with ReproClient(*follower.address) as waiting, ReproClient(
                *follower.address
            ) as other:
                reader = threading.Thread(
                    target=lambda: answers.append(waiting.get_as_of("k0001", 1 << 40))
                )
                reader.start()
                until(
                    lambda: follower.metrics.gauges().get("server.inflight") == 1,
                    "the read to be admitted",
                )
                assert reader.is_alive()  # waiting at the follower for 2**40 ...
                assert other.get("k0001").value == b"v1"  # ... in no slot of one
                assert reader.is_alive()
                replica.stop()  # releases the wait: the answer is the prefix's
                reader.join(5)
                assert not reader.is_alive() and answers[0].value == b"v1"
        finally:
            replica.stop()

    def test_the_replication_path_never_sleeps(self, monkeypatch):
        shards = ShardSpec.for_int_keys(2, key_space=100)
        registry = StoreRegistry({"default": _wal_config(shards)})
        store = registry.get("default")
        server = ReproServer(registry, port=0).start()
        primary = ReplicationPrimary(store).start()
        replica = Replica(primary.host, primary.port, name="awake").start()

        def no_sleep(seconds):
            raise AssertionError(f"slept {seconds} s on the replication path")

        try:
            follower_server = replica.serve()
            assert primary.wait_caught_up(timeout=10)  # every shard subscribed
            with ReproClient(
                server.host,
                server.port,
                followers=[follower_server.address],
                read_preference="follower",
            ) as client:
                with monkeypatch.context() as patch:
                    patch.setattr(time, "sleep", no_sleep)
                    # One shard's keys: the watermark is the max over shards.
                    stamp = max(client.put_many([(key, b"v%d" % key) for key in range(10, 20)]))
                    assert client.get_as_of(12, stamp).value == b"v12"
                    rows = client.range_search(10, 20, as_of=stamp)
                    assert [(r.key, r.value) for r in rows] == [
                        (key, b"v%d" % key) for key in range(10, 20)
                    ]
                    assert primary.wait_caught_up(timeout=10)
        finally:
            replica.stop()
            primary.stop()
            server.stop()


class TestFailover:
    def test_promoted_replica_serves_exactly_its_durable_prefix(
        self, sharded_setup
    ):
        _, store, primary = sharded_setup
        # Whatever the façade acknowledges must reach the followers: batches,
        # deletes and explicitly stamped inserts alike.
        stamps = []
        for i in range(120):
            key, value = f"k{i % 23:04d}", f"v{i}".encode()
            if i % 7 == 6:
                stamps.append(store.delete(key))
            elif i % 11 == 10:
                stamps.append(store.insert(key, value, timestamp=store.now + 1))
            else:
                stamps += store.put_many([(key, value)])
        replicas = [
            Replica(primary.host, primary.port, name=f"r{i}").start()
            for i in range(2)
        ]
        try:
            store.checkpoint()  # force the group-commit tail: all of it ships
            assert primary.wait_caught_up(timeout=10)
            cut, all_keys = store.now, sorted({f"k{i % 23:04d}" for i in range(120)})
            cut_digest = answers_digest(store, all_keys, [cut])
            primary.kill()  # mid-workload from the replicas' point of view
            for replica in replicas:
                replica.kill()
            winner = elect(replicas)
            promoted = winner.promote()
            # Oracle: an independent replay of the winner's mirror bytes.
            oracle_replayers = [
                replay_device(state.mirror) for state in winner._states
            ]
            from repro.api.adapters import TSBEngine
            from repro.api.sharded import ShardedEngine, ShardedVersionStore
            from repro.api.store import VersionStore

            inner_config = StoreConfig(engine="tsb")
            inner = [
                VersionStore(TSBEngine(r.tree), inner_config)
                for r in oracle_replayers
            ]
            boundaries = list(store.sharded_engine.boundaries)
            spec = ShardSpec(boundaries=tuple(boundaries))
            engine = ShardedEngine(inner, boundaries, spec, inner_config)
            oracle = ShardedVersionStore(
                engine, StoreConfig(engine="tsb", shards=spec)
            )
            probe_keys = engine.keys()
            assert probe_keys == all_keys
            probe_times = sorted(set(stamps))[::7]
            assert answers_digest(
                promoted, probe_keys, probe_times
            ) == answers_digest(oracle, probe_keys, probe_times)
            # ... and equals the primary itself, as it stood caught up.
            assert answers_digest(promoted, all_keys, [cut]) == cut_digest
            # The promoted store is writable and extends the same timeline.
            new_stamp = promoted.put_many([("k9999", b"after")])[0]
            assert new_stamp > max(
                r.watermark for r in oracle_replayers
            ) - 1
            assert promoted.get("k9999").value == b"after"
        finally:
            for replica in replicas:
                replica.stop()

    def test_elect_prefers_longest_durable_prefix(self, sharded_setup):
        _, store, primary = sharded_setup
        _write(store, 40)
        fast = Replica(primary.host, primary.port, name="fast").start()
        assert primary.wait_caught_up(timeout=10)
        slow = Replica(
            primary.host, primary.port, name="slow", apply_delay=0.5
        ).start()
        try:
            # The slow replica has barely started; the caught-up one wins.
            assert elect([slow, fast]) is fast
        finally:
            fast.stop()
            slow.stop()


class TestSplitUnderReplication:
    def test_a_split_ends_the_subscription_loudly(self):
        """The primary tails the shard stores it was built over.  A split
        closes one and opens two it knows nothing of: it used to go on
        tailing the closed store's finished log and report caught-up while
        the follower fell behind for ever.  (Healing — shipping the new
        layout — is the routing-table item; this only makes it loud.)"""
        spec = ShardSpec.for_int_keys(2, key_space=600, shard_page_budget=8)
        store = VersionStore.open(_wal_config(spec))
        primary = ReplicationPrimary(store).start()
        replica = Replica(primary.host, primary.port, name="split").start()
        try:
            stamps = []
            while not store.sharded_engine.splits_performed:
                stamps += store.put_many([(len(stamps), b"x" * 40)])
                assert len(stamps) < 600
            # Key 0 now lives in a half the primary does not tail.
            lost = store.put_many([(0, b"after the split")])[0]
            assert not primary.wait_caught_up(timeout=10)
            assert not replica.wait_for_watermark(lost, timeout=10)
            assert "closed or replaced" in replica.detached
            # The tailers are gone, and what was applied is still served.
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and any(
                state.thread.is_alive() for state in replica._states
            ):
                time.sleep(0.001)
            assert not any(state.thread.is_alive() for state in replica._states)
            assert replica.watermark()[1] < lost
            assert replica.store.get(0).value == b"x" * 40
        finally:
            replica.stop()
            primary.stop()
            store.close()


class TestDurableLsnResume:
    def test_reopened_store_resumes_lsns_for_subscription(self):
        """Closing and reopening a tenant must expose the durable LSN a
        replica would subscribe from — and new writes must extend it."""
        catalog = {"default": _wal_config(shards=ShardSpec(boundaries=("m",)))}
        registry = StoreRegistry(catalog)
        store = registry.get("default")
        _write(store, 30)
        before = registry.durable_lsns("default")
        assert any(lsn > 1 for lsn in before)
        registry.close_tenant("default")

        reopened = registry.get("default")
        after = registry.durable_lsns("default")
        # Close checkpoints each shard, so the durable horizon only grows.
        assert all(later >= earlier for earlier, later in zip(before, after)), (
            before,
            after,
        )
        _write(reopened, 10, prefix="z")
        final = registry.durable_lsns("default")
        # "z" keys land on the upper shard only: it must advance, and no
        # shard may ever hand out an LSN the previous incarnation used.
        assert all(later >= earlier for earlier, later in zip(after, final))
        assert any(later > earlier for earlier, later in zip(after, final))
        registry.close_all()
