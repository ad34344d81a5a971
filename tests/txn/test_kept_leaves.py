"""Interactive commits and aborts through the leaves their writes landed in.

Each provisional write keeps the leaf its version landed in
(``Transaction.leaves``); commit and abort stamp or erase the version there
while that leaf is still the pool's resident at its address, and descend
from the root otherwise.  Every case below makes kept leaves go stale in
one way — a later write of the same transaction splits the leaf by time or
by key, a two-page pool evicts it, a checkpoint falls between the write and
the commit — and then holds the tree's answers to a dict oracle and its
structure to ``check_tree``.  One case counts the pool reads of a commit
whose leaves are all still current.
"""

import pytest

from repro.api import StoreConfig, VersionStore
from repro.core import AlwaysKeySplitPolicy, AlwaysTimeSplitPolicy, TSBTree, check_tree
from repro.txn import TransactionManager

FATES = ["commit", "abort"]


class Oracle:
    """Per key, its committed ``(stamp, value or None)`` history."""

    def __init__(self):
        self.history = {}

    def write(self, key, stamp, value):
        self.history.setdefault(key, []).append((stamp, value))

    def check(self, tree):
        assert check_tree(tree) == []
        for key, expected in self.history.items():
            got = [(v.timestamp, None if v.is_tombstone else v.value) for v in tree.key_history(key)]
            assert got == expected, key
            current = tree.search_current(key)
            assert (None if current is None else current.value) == expected[-1][1], key
        assert not [v for node in tree.data_nodes() for v in node.versions if v.timestamp is None]


def resident(tree, leaf):
    """Whether ``leaf`` is still the pool's resident at its address (a peek
    that moves no counter and no LRU order)."""
    entry = tree.cache._residents.get(leaf.address.page_id)
    return entry is not None and entry[0] is leaf


def finish(txn, fate, oracle, writes):
    """Commit or abort ``txn``, whose last word per key is ``writes``."""
    if fate == "abort":
        txn.abort()
        return
    stamp = txn.commit()
    for key, value in writes.items():
        oracle.write(key, stamp, value)


def preload(tree, manager, oracle, keys, rounds=1):
    for round_ in range(rounds):
        for key in keys:
            txn = manager.begin()
            value = b"pre-%d-%d" % (key, round_)
            txn.write(key, value)
            oracle.write(key, txn.commit(), value)


@pytest.mark.parametrize("fate", FATES)
def test_a_later_write_time_splits_the_earlier_writes_leaf(fate):
    tree = TSBTree(page_size=512, policy=AlwaysTimeSplitPolicy())
    manager, oracle = TransactionManager(tree), Oracle()
    preload(tree, manager, oracle, range(4), rounds=5)  # history a time split migrates
    txn = manager.begin()
    txn.write(0, b"first")
    writes = {0: b"first"}
    first_leaf = txn.leaves[0]
    splits = tree.counters.data_time_splits
    key = 100
    while tree.counters.data_time_splits == splits:
        txn.write(key, b"x" * 24)
        writes[key] = b"x" * 24
        key += 1
    assert not resident(tree, first_leaf)
    finish(txn, fate, oracle, writes)
    oracle.check(tree)


@pytest.mark.parametrize("fate", FATES)
def test_a_later_write_key_splits_the_earlier_writes_leaf(fate):
    tree = TSBTree(page_size=512, policy=AlwaysKeySplitPolicy())
    manager, oracle = TransactionManager(tree), Oracle()
    preload(tree, manager, oracle, range(0, 40, 4))
    txn = manager.begin()
    txn.write(1, b"first")
    txn.delete(5)
    writes = {1: b"first", 5: None}
    kept = dict(txn.leaves)
    splits = tree.counters.data_key_splits
    key = 2
    while tree.counters.data_key_splits == splits:
        txn.write(key, b"y" * 24)
        writes[key] = b"y" * 24
        key += 4
    assert not all(resident(tree, leaf) for leaf in kept.values())
    txn.write(1, b"rewritten")  # a rewrite keeps the leaf it lands in now
    writes[1] = b"rewritten"
    assert resident(tree, txn.leaves[1])
    finish(txn, fate, oracle, writes)
    oracle.check(tree)


@pytest.mark.parametrize("fate", FATES)
def test_a_two_page_pool_leaves_every_kept_leaf_stale(fate):
    tree = TSBTree(page_size=256, cache_pages=2)
    manager, oracle = TransactionManager(tree), Oracle()
    preload(tree, manager, oracle, range(0, 120, 2))
    assert tree.height >= 2
    txn = manager.begin()
    writes = {3: b"a", 41: None, 77: b"c", 113: b"d"}
    for key, value in writes.items():
        if value is None:
            txn.delete(key)
        else:
            txn.write(key, value)
    # Another transaction's writes cycle the pool (reads would not: a read
    # never evicts a dirty resident).
    preload(tree, manager, oracle, (0, 60, 118))
    assert not any(resident(tree, leaf) for leaf in txn.leaves.values())
    finish(txn, fate, oracle, writes)
    oracle.check(tree)


@pytest.mark.parametrize("fate", FATES)
def test_a_checkpoint_between_the_writes_and_the_commit(fate):
    store = VersionStore.open(StoreConfig(engine="tsb", page_size=256, wal=True))
    tree, oracle = store.backend, Oracle()
    for key in range(0, 60, 3):
        oracle.write(key, store.insert(key, b"pre-%d" % key), b"pre-%d" % key)
    txn = store.begin()
    writes = {4: b"a", 31: None, 57: b"c"}
    for key, value in writes.items():
        if value is None:
            txn.delete(key)
        else:
            txn.write(key, value)
    store.checkpoint()
    # A checkpoint writes the pool back and keeps every resident.
    assert all(resident(tree, leaf) for leaf in txn.leaves.values())
    finish(txn, fate, oracle, writes)
    oracle.check(tree)
    store.close()


def test_a_commit_of_unsplit_leaves_reads_one_page_per_key():
    """A 4-key commit whose leaves no split replaced makes one pool read per
    key — the check that its kept leaf is still resident — and no descent
    (which would make ``height`` reads per key)."""
    tree = TSBTree(page_size=512)
    manager, oracle = TransactionManager(tree), Oracle()
    preload(tree, manager, oracle, range(0, 400, 2))
    assert tree.height >= 2
    txn = manager.begin()
    writes = {11: b"a", 151: b"b", 233: b"c", 397: b"d"}
    splits = tree.counters.total_splits
    for key, value in writes.items():
        txn.write(key, value)
    assert tree.counters.total_splits == splits
    stats = tree.cache.stats
    before = stats.hits + stats.misses
    finish(txn, "commit", oracle, writes)
    assert stats.hits + stats.misses - before <= len(writes)
    oracle.check(tree)


def test_the_kept_leaves_die_with_the_transaction():
    tree = TSBTree(page_size=512)
    manager = TransactionManager(tree)
    committed, aborted = manager.begin(), manager.begin()
    committed.write(1, b"a")
    aborted.write(2, b"b")
    assert set(committed.leaves) == {1} and set(aborted.leaves) == {2}
    committed.commit()
    aborted.abort()
    assert committed.leaves == {} and aborted.leaves == {}
