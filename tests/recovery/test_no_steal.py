"""No-steal is the pool's rule, not a cache size somebody has to remember.

A tree under a write-ahead log keeps every dirty page in memory until a
checkpoint, whatever ``cache_pages`` says: the log is replayed onto the image
the last checkpoint left on the device, so that image must still be there.
These tests crash ``wal=True`` stores whose working set is far larger than
their pool and require every acknowledged write back.
"""

import pytest

from repro.api import StoreConfig, VersionStore
from repro.api.adapters import TSBEngine
from repro.core import TSBTree, check_tree
from repro.recovery.replay import LogReplayer
from tests.crash_harness import crash_and_reopen

KEYS = 700
WRITES = 1500


def wal_config(cache_pages=None):
    sizing = {} if cache_pages is None else {"cache_pages": cache_pages}
    # Small pages: ~300 current pages after the writes below, well over the
    # default pool of 128 (and so over 8 and 1).
    return StoreConfig(engine="tsb", page_size=256, wal=True, **sizing)


def write_stream(store, start, count, acked):
    for index in range(start, start + count):
        key = (index * 7919) % KEYS
        value = b"value-%d" % index
        store.put_many([(key, value)])  # acked means durable
        acked[key] = value


@pytest.mark.parametrize("middle", ["nothing", "flush", "space_summary", "engine.checkpoint"])
@pytest.mark.parametrize("cache_pages", [None, 8, 1], ids=["default-pool", "8-pages", "1-page"])
def test_a_wal_store_recovers_every_acknowledged_write(cache_pages, middle):
    config = wal_config(cache_pages)
    store = VersionStore.open(config)
    acked = {}
    write_stream(store, 0, WRITES // 2, acked)
    if middle == "engine.checkpoint":
        # Anchor-less: pages and superblock used to move, the anchor did not,
        # and redo then replayed the log from the old anchor onto the new image.
        store.engine.checkpoint()
    elif middle != "nothing":
        getattr(store, middle)()
    write_stream(store, WRITES // 2, WRITES // 2, acked)
    assert store.backend.magnetic.allocated_pages > 2 * store.backend.cache.capacity

    recovered = crash_and_reopen(store)
    assert check_tree(recovered.backend) == []
    assert {key: recovered.get(key).value for key in acked} == acked
    assert len(recovered.range_search()) == len(acked)
    # ... and it goes on: more acknowledged writes, a second crash.
    write_stream(recovered, WRITES, 50, acked)
    again = crash_and_reopen(recovered)
    assert {key: again.get(key).value for key in acked} == acked


def test_no_page_reaches_the_device_between_two_checkpoints_of_a_logged_tree():
    store = VersionStore.open(wal_config(cache_pages=1))
    tree = store.backend
    acked = {}
    write_stream(store, 0, 200, acked)
    store.checkpoint()
    writes_at_checkpoint = tree.magnetic.stats.writes
    write_stream(store, 200, 400, acked)
    for key in range(0, KEYS, 5):  # misses, served around the dirty residents
        store.get_as_of(key, store.now // 2)
    store.range_search(0, 100)
    store.space_summary()
    store.engine.flush()  # a bare engine flush may not move a logged tree's pages
    store.engine.checkpoint()  # ... and neither may a checkpoint that carries no anchor
    store.engine.drop_cache(1)
    assert tree.magnetic.stats.writes == writes_at_checkpoint
    assert {key: store.get(key).value for key in acked} == acked  # from memory
    store.checkpoint()
    assert tree.magnetic.stats.writes > writes_at_checkpoint
    assert (tree.cache.dirty_count, len(tree.cache._residents)) == (0, 1)  # trimmed to capacity again


def test_flush_on_a_wal_store_is_a_checkpoint():
    config = wal_config(cache_pages=4)
    store = VersionStore.open(config)
    acked = {}
    write_stream(store, 0, 300, acked)
    anchor = store.backend.log_anchor
    store.flush()
    assert store.backend.log_anchor > anchor  # a logged checkpoint, not a bare write-back
    write_stream(store, 300, 300, acked)
    recovered = crash_and_reopen(store)
    assert recovered.recovery_report.checkpoint_lsn == store.backend.log_anchor
    assert {key: recovered.get(key).value for key in acked} == acked


def test_a_tree_is_logged_from_its_first_logged_checkpoint_or_replayed_record():
    assert not TSBTree().cache.no_steal  # no log: the pool may steal
    logged = VersionStore.open(wal_config())
    assert logged.backend.cache.no_steal  # over_tree's first act is a checkpoint
    logged.close()
    magnetic, historical = logged.devices
    assert TSBTree.open(magnetic, historical).cache.no_steal  # the anchor says so
    follower = TSBTree()
    LogReplayer(follower)
    assert follower.cache.no_steal
    # A follower store has no log manager: its close takes the anchor-less
    # checkpoint, which must be a quiet no-op.
    follower_store = VersionStore(TSBEngine(follower), StoreConfig(engine="tsb"))
    follower_store.close()
    assert follower_store.closed
