"""A follower store keeps one clock, and it moves as the replica applies.

A follower's shard stores are written only by the log replayer.  Their
commit clock is the clock a read-only transaction (``begin_readonly``) pins,
so it must move with every applied batch: a clock left where the store was
built would pin timestamp 0 and hide everything the replica holds.
"""

import pytest

from repro.api.store import ShardSpec, StoreConfig, VersionStore
from repro.replication import Replica, ReplicationPrimary


@pytest.fixture(
    params=[None, ShardSpec(boundaries=("k2",))], ids=["plain", "sharded"]
)
def primary(request):
    store = VersionStore.open(StoreConfig(engine="tsb", wal=True, shards=request.param))
    primary = ReplicationPrimary(store).start()
    try:
        yield store, primary
    finally:
        primary.stop()
        store.close()


def _insert(store, keys):
    for key in keys:
        store.insert(key, f"v-{key}".encode())


class TestFollowerClock:
    def test_readonly_view_on_a_follower_sees_every_applied_commit(self, primary):
        store, shipping = primary
        with Replica(shipping.host, shipping.port, name="r1") as replica:
            replica.start()
            _insert(store, [f"k{i}" for i in range(5)])
            assert shipping.wait_caught_up(timeout=10)
            follower = replica.store
            assert follower.now == store.now == 5
            for shard in follower.shard_stores:
                assert shard.txns.clock.read_timestamp() == shard.now
            if store.config.shards is None:  # a sharded store has no transactions
                view = follower.begin_readonly()
                assert view.timestamp == 5
                assert view.get("k4").value == b"v-k4"

    def test_the_clock_follows_later_batches(self, primary):
        store, shipping = primary
        with Replica(shipping.host, shipping.port, name="r1") as replica:
            replica.start()
            for round_ in range(3):
                _insert(store, [f"k{round_}-{i}" for i in range(4)])
                assert shipping.wait_caught_up(timeout=10)
                pinned = [shard.txns.clock.read_timestamp() for shard in replica.store.shard_stores]
                assert pinned == [shard.now for shard in replica.store.shard_stores]
                assert max(pinned) == store.now
