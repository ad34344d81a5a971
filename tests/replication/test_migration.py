"""Online shard-migration tests: live rebalancing with zero failed writes.

The contract under test: moving ``[low, high)`` between live nodes never
fails a write (writes stall only for the cutover freeze), stale clients
are corrected by ``WRONG_SHARD`` + routing-table install, and every
scatter-gather answer over the moved range is byte-identical before and
after the cutover — the migration is invisible to readers.
"""

import inspect
import threading

import pytest

from repro.api.store import ShardSpec, StoreConfig, VersionStore
from repro.client import Pipeline, ReproClient, ServerError, WrongShardError
from repro.replication import (
    ClusterClient,
    ClusterNode,
    Replica,
    ReplicationPrimary,
    migrate_range,
)
from repro.replication.cluster import RoutingTable
from repro.server.protocol import ADMIN, CUTOVER_COMMIT, CUTOVER_PREPARE, OPS
from tests.crash_harness import crash_and_reopen


def _node_config():
    return StoreConfig(
        engine="tsb",
        wal=True,
        group_commit_size=2,
        shards=ShardSpec(boundaries=("m",)),
    )


@pytest.fixture()
def cluster():
    """Two live nodes; node A initially owns the whole keyspace."""
    with ClusterNode("A", _node_config()) as node_a:
        table_b = RoutingTable([(None, None, "A", 0)])
        with ClusterNode("B", _node_config(), table=table_b) as node_b:
            client = ClusterClient(
                {"A": node_a.address, "B": node_b.address}
            )
            try:
                yield node_a, node_b, client
            finally:
                client.close()


def _seed(client, count=120):
    items = [(f"k{i:04d}", f"seed{i}".encode()) for i in range(count)]
    client.put_many(items)
    return [key for key, _ in items]


class TestMigration:
    def test_migration_is_invisible_to_readers(self, cluster):
        _, _, client = cluster
        keys = _seed(client)
        # Overwrite a slice so moved keys carry multi-version histories.
        client.put_many([(k, b"second") for k in keys[40:60]])
        cut = client.now
        before_snapshot = {
            k: r.value for k, r in client.snapshot(cut).items()
        }
        before_range = [
            (r.key, r.timestamp, r.value)
            for r in client.range_search(as_of=cut)
        ]
        before_history = {
            k: [(r.timestamp, r.value) for r in client.key_history(k)]
            for k in keys[45:55]
        }

        report = migrate_range(client, "k0050", None, "A", "B")
        assert report.snapshot_events == 80  # 60 singles + 10 two-version keys

        after_snapshot = {
            k: r.value for k, r in client.snapshot(cut).items()
        }
        after_range = [
            (r.key, r.timestamp, r.value)
            for r in client.range_search(as_of=cut)
        ]
        after_history = {
            k: [(r.timestamp, r.value) for r in client.key_history(k)]
            for k in keys[45:55]
        }
        assert after_snapshot == before_snapshot
        assert after_range == before_range
        assert after_history == before_history

    def test_concurrent_writes_never_fail(self, cluster):
        _, _, client = cluster
        _seed(client, 80)
        stop = threading.Event()
        written = []
        failures = []

        def writer():
            i = 0
            while not stop.is_set():
                key = f"k{i % 80:04d}"
                try:
                    stamp = client.put_many([(key, f"w{i}".encode())])[0]
                except Exception as exc:  # noqa: BLE001 - the assertion target
                    failures.append(exc)
                    return
                written.append((key, f"w{i}".encode(), stamp))
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            report = migrate_range(client, "k0040", None, "A", "B")
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not failures
        assert written, "writer thread never got a write through"
        assert report.stall_seconds < 2.0
        # Every acknowledged write is readable at its stamp, wherever the
        # key lives now.
        for key, value, stamp in written[-50:]:
            record = client.get_as_of(key, stamp)
            assert record is not None and record.value == value

    def test_routing_moves_with_the_range(self, cluster):
        node_a, node_b, client = cluster
        _seed(client, 60)
        migrate_range(client, "k0030", None, "A", "B")
        assert client.table.owner("k0010") == "A"
        assert client.table.owner("k0030") == "B"
        assert client.table.owner("k0059") == "B"
        # Both nodes agree: their own tables carry the new entry.
        assert node_a.role.table.owner("k0045") == "B"
        assert node_b.role.table.owner("k0045") == "B"
        # Writes land on the new owner without touching the old one.
        a_now = node_a.store.now
        client.put_many([("k0045", b"post-move")])
        assert client.get("k0045").value == b"post-move"
        assert node_b.store.get("k0045").value == b"post-move"
        assert node_a.store.now == a_now

    def test_stale_client_corrected_by_wrong_shard(self, cluster):
        node_a, node_b, client = cluster
        _seed(client, 40)
        migrate_range(client, "k0020", None, "A", "B")
        # A direct client still pointed at the old owner gets WRONG_SHARD
        # with routes naming the new owner.
        host, port = node_a.address
        with ReproClient(host, port) as stale:
            with pytest.raises(WrongShardError) as excinfo:
                stale.get("k0025")
            routes = excinfo.value.routes
            owners = {
                node for low, high, node, _ in routes if low == "k0020"
            }
            assert owners == {"B"}

    def test_second_migration_bumps_epoch(self, cluster):
        _, _, client = cluster
        _seed(client, 40)
        first = migrate_range(client, "k0020", None, "A", "B")
        second = migrate_range(client, "k0020", None, "B", "A")
        assert second.epoch > first.epoch
        assert client.table.owner("k0030") == "A"
        assert client.get("k0030").value == b"seed30"

    def test_range_the_target_cannot_take_fails_before_cutover(self, cluster):
        """A target whose commit clock has run ahead rejects the range's
        (older) history as backdated.  That must fail the migration before
        PREPARE — it used to "succeed" with every event silently dropped,
        cut the range over, and read ``None`` for all of it."""
        node_a, node_b, client = cluster
        keys = _seed(client, 100)
        migrate_range(client, "k0050", None, "A", "B")
        for round_ in range(5):  # B's clock runs ahead of A's history
            client.put_many([(k, f"b{round_}".encode()) for k in keys[50:60]])
        assert node_b.store.now > node_a.store.now

        with pytest.raises(ServerError, match="precedes"):
            migrate_range(client, "k0020", "k0050", "A", "B")

        # No cutover happened: A still owns the range, nothing is frozen,
        # and every key of it is still readable (and writable) there.
        assert client.table.owner("k0030") == "A"
        assert node_b.role.table.owner("k0030") == "A"
        for index in range(20, 50):
            assert client.get(keys[index]).value == f"seed{index}".encode()
        client.put_many([("k0030", b"still-on-a")])
        assert node_a.store.get("k0030").value == b"still-on-a"


class TestMigratedRangeIsInTheTargetsLog:
    """After COMMIT the source no longer answers for the range: what the
    migration landed must survive a crash of the target and reach the
    target's followers — it used to exist only in the target's trees."""

    def test_target_crash_after_commit_keeps_the_range(self, cluster):
        _, node_b, client = cluster
        keys = _seed(client)
        client.put_many([(k, b"second") for k in keys[60:80]])
        client.delete(keys[70])
        report = migrate_range(client, "k0050", None, "A", "B")
        assert report.snapshot_events == 70 + 20 + 1

        # group_commit_size=2: a crash has a real unforced tail to lose.
        recovered = crash_and_reopen(node_b.store)
        expected = {k: f"seed{i}".encode() for i, k in enumerate(keys) if i >= 50}
        expected.update((k, b"second") for k in keys[60:80])
        del expected[keys[70]]
        assert {r.key: r.value for r in recovered.range_search()} == expected

    def test_a_replica_of_the_target_holds_the_range(self, cluster):
        _, node_b, client = cluster
        keys = _seed(client)
        with ReplicationPrimary(node_b.store, poll_interval=0.001) as primary:
            primary.start()
            with Replica(primary.host, primary.port) as replica:
                replica.start()
                migrate_range(client, "k0050", None, "A", "B")
                assert primary.wait_caught_up(timeout=10)
                follower = replica.store
                assert [r.key for r in follower.range_search()] == keys[50:]
                assert follower.get("k0099").value == node_b.store.get("k0099").value


class TestScatterReadsDuringCutover:
    """Between ``CUTOVER(PREPARE)`` and the last ``CUTOVER(COMMIT)`` the
    source clips the frozen range out and the target does not own it yet.
    A scatter read must never return the union minus the moving range: the
    frozen source deflects it and the cluster client retries the fan-out.
    The phases are driven by hand — no sleeps, no racing threads."""

    LOW = "k0050"

    def _copy_and_freeze(self, cluster):
        _, _, client = cluster
        _seed(client, 100)
        source, target = client.clients["A"], client.clients["B"]
        events, _ = source.migrate_read(self.LOW, None)
        target.migrate_apply(events)
        epoch = client.table.max_epoch() + 1
        source.cutover(CUTOVER_PREPARE, self.LOW, None, epoch, "B")
        return client, source, target, epoch

    def test_frozen_source_deflects_scatter_reads_only(self, cluster):
        client, source, _, _ = self._copy_and_freeze(cluster)
        for scatter in (
            lambda: source.range_search(),
            lambda: source.snapshot(source.now),
            lambda: source.time_slice(0, source.now + 1),
        ):
            with pytest.raises(WrongShardError):
                scatter()
        # Keyed operations outside the frozen range are unaffected.
        assert source.get("k0010").value == b"seed10"
        assert [r.value for r in source.key_history("k0049")] == [b"seed49"]
        assert source.insert("k0011", b"during-freeze") > 0
        with pytest.raises(WrongShardError):
            source.get("k0050")

    @pytest.mark.parametrize("scatter", ["range_search", "snapshot"])
    def test_scatter_read_started_mid_freeze_returns_every_row(self, cluster, scatter):
        client, source, target, epoch = self._copy_and_freeze(cluster)
        # Each deflection the cluster client absorbs advances the cutover
        # by one step, so the read observes every intermediate state:
        # frozen; target committed but source still frozen; both committed.
        steps = iter(
            [
                lambda: target.cutover(CUTOVER_COMMIT, self.LOW, None, epoch, "B"),
                lambda: source.cutover(CUTOVER_COMMIT, self.LOW, None, epoch, "B"),
            ]
        )
        absorb = client._note_wrong_shard

        def absorb_then_advance(error):
            absorb(error)
            next(steps)()

        client._note_wrong_shard = absorb_then_advance
        if scatter == "range_search":
            keys = [record.key for record in client.range_search()]
        else:
            keys = sorted(client.snapshot(client.now))
        assert keys == [f"k{i:04d}" for i in range(100)]
        assert next(steps, None) is None, "the read never saw the frozen window"
        # The scatter needed no routes; the next keyed read learns them.
        client._note_wrong_shard = absorb
        assert client.get("k0075").value == b"seed75"
        assert client.table.owner("k0075") == "B"

    def test_migrate_range_commits_the_target_first(self, cluster, monkeypatch):
        _, _, client = cluster
        _seed(client, 100)
        order = []
        for name, node_client in client.clients.items():
            cutover = node_client.cutover

            def recording(phase, *args, _name=name, _cutover=cutover):
                order.append((phase, _name))
                return _cutover(phase, *args)

            monkeypatch.setattr(node_client, "cutover", recording)
        migrate_range(client, self.LOW, None, "A", "B")
        assert order == [
            (CUTOVER_PREPARE, "A"),
            (CUTOVER_COMMIT, "B"),
            (CUTOVER_COMMIT, "A"),
        ]
        assert len(client.range_search()) == len(client.snapshot(client.now)) == 100


class TestSurfaceParity:
    """Every ``read`` / ``write`` row of the operation table is a method of
    the façade and of all three client classes, same parameter names — and a
    two-node cluster answers each exactly like one store fed the same
    writes."""

    ROWS = [op for op in OPS.values() if op.kind != ADMIN]

    @pytest.mark.parametrize("op", ROWS, ids=lambda op: op.method)
    def test_same_method_same_parameters_everywhere(self, op):
        from repro.api.sharded import ShardedVersionStore

        for owner in (ShardedVersionStore, ReproClient, Pipeline, ClusterClient):
            parameters = list(inspect.signature(getattr(owner, op.method)).parameters)
            assert parameters == ["self", *op.fields], (owner.__name__, op.method)

    def test_two_node_cluster_answers_like_a_single_store(self):
        table = [(None, "k0050", "A", 0), ("k0050", None, "B", 0)]
        with ClusterNode("A", _node_config(), table=RoutingTable(table)) as node_a, \
                ClusterNode("B", _node_config(), table=RoutingTable(table)) as node_b, \
                ClusterClient({"A": node_a.address, "B": node_b.address}) as cluster, \
                VersionStore.open(_node_config()) as single:
            keys = [f"k{i:04d}" for i in range(0, 100, 5)]
            stamp = 0
            for target in (cluster, single):
                stamp = 0
                for round_ in range(3):
                    for key in keys:
                        stamp += 1
                        value = f"{key}-v{round_}".encode()
                        assert target.insert(key, value, timestamp=stamp) == stamp
                for key in keys[::4]:
                    stamp += 1
                    assert target.delete(key, timestamp=stamp) == stamp
            assert node_a.store.now < stamp and node_b.store.now == stamp
            assert cluster.now == single.now == stamp
            middle = stamp // 2
            calls = [
                ("range_search", ()),
                ("range_search", ("k0020", "k0070", middle)),
                ("snapshot", (middle,)),
                ("snapshot", (stamp,)),
                ("time_slice", (0, stamp + 1)),
                ("time_slice", (5, middle, "k0040", "k0060")),
            ] + [
                call
                for key in ("k0000", "k0045", "k0050", "k0095", "missing")
                for call in (
                    ("get", (key,)),
                    ("get_as_of", (key, middle)),
                    ("key_history", (key,)),
                    ("history_between", (key, 3, middle)),
                )
            ]
            assert {name for name, _ in calls} | {"insert", "delete", "put_many"} == {
                op.method for op in self.ROWS
            }
            for name, args in calls:
                served = getattr(cluster, name)(*args)
                assert served == getattr(single, name)(*args), (name, args)
            # put_many stamps per node, so it is compared by what it stored.
            stamps = cluster.put_many([(key, b"batch") for key in keys])
            assert len(stamps) == len(keys)
            assert all(cluster.get(key).value == b"batch" for key in keys)
