"""Tests for the transaction manager (paper section 4)."""

import pytest

from repro.core import AlwaysTimeSplitPolicy, ThresholdPolicy, TSBTree, assert_tree_valid
from repro.core.tsb_tree import RecordTooLargeError
from repro.txn import (
    LockConflictError,
    TransactionError,
    TransactionManager,
    TransactionState,
)


def make_manager(policy=None, page_size=512):
    tree = TSBTree(page_size=page_size, policy=policy or ThresholdPolicy(0.5))
    return TransactionManager(tree), tree


class TestCommitAndVisibility:
    def test_writes_invisible_until_commit(self):
        manager, tree = make_manager()
        txn = manager.begin()
        txn.write("k", b"draft")
        assert tree.search_current("k") is None
        assert txn.read("k") == b"draft"          # read-your-writes
        commit_time = txn.commit()
        assert tree.search_current("k").value == b"draft"
        assert tree.search_current("k").timestamp == commit_time
        assert txn.state is TransactionState.COMMITTED

    def test_commit_timestamps_are_commit_ordered(self):
        manager, tree = make_manager()
        first = manager.begin()
        second = manager.begin()
        second.write("b", b"2")
        first.write("a", b"1")
        # `second` commits first and therefore gets the earlier stamp, even
        # though it began later — a rollback database stamps commit time.
        second_time = second.commit()
        first_time = first.commit()
        assert second_time < first_time
        assert tree.search_as_of("b", second_time).value == b"2"
        assert tree.search_as_of("a", second_time) is None

    def test_multi_key_transaction_commits_atomically_stamped(self):
        manager, tree = make_manager()
        txn = manager.begin()
        for key in range(5):
            txn.write(key, f"value-{key}".encode())
        commit_time = txn.commit()
        for key in range(5):
            assert tree.search_current(key).timestamp == commit_time

    def test_refused_rewrite_keeps_the_earlier_write(self):
        """An oversized rewrite is refused before the tree is touched: the
        transaction's earlier provisional version of the key must survive."""
        manager, tree = make_manager(page_size=256)
        txn = manager.begin()
        txn.write("k", b"v1")
        with pytest.raises(RecordTooLargeError):
            txn.write("k", b"x" * 1000)
        assert txn.state is TransactionState.ACTIVE
        assert txn.read("k") == b"v1"
        txn.write("k", b"v2")  # a rewrite that fits still replaces, not adds
        assert txn.read("k") == b"v2"
        txn.commit()
        assert [v.value for v in tree.key_history("k")] == [b"v2"]
        assert_tree_valid(tree)

    def test_read_own_delete(self):
        manager, tree = make_manager()
        setup = manager.begin()
        setup.write("k", b"v")
        setup.commit()
        txn = manager.begin()
        txn.delete("k")
        assert txn.read("k") is None
        assert tree.search_current("k").value == b"v"   # others still see it
        txn.commit()
        assert tree.search_current("k") is None

    def test_context_manager_commits_on_success(self):
        manager, tree = make_manager()
        with manager.begin() as txn:
            txn.write("ctx", b"ok")
        assert tree.search_current("ctx").value == b"ok"

    def test_context_manager_aborts_on_exception(self):
        manager, tree = make_manager()
        with pytest.raises(RuntimeError):
            with manager.begin() as txn:
                txn.write("ctx", b"doomed")
                raise RuntimeError("boom")
        assert tree.search_current("ctx") is None


class TestAbort:
    def test_abort_erases_all_writes(self):
        manager, tree = make_manager()
        txn = manager.begin()
        for key in range(10):
            txn.write(key, b"provisional")
        txn.abort()
        for key in range(10):
            assert tree.search_current(key) is None
        assert all(
            not version.is_provisional
            for node in tree.data_nodes()
            for version in node.versions
        )
        assert txn.state is TransactionState.ABORTED

    def test_abort_restores_previous_committed_value(self):
        manager, tree = make_manager()
        setup = manager.begin()
        setup.write("k", b"stable")
        setup.commit()
        doomed = manager.begin()
        doomed.write("k", b"will vanish")
        doomed.abort()
        assert tree.search_current("k").value == b"stable"
        assert len(tree.key_history("k")) == 1

    def test_operations_on_finished_transactions_fail(self):
        manager, _tree = make_manager()
        txn = manager.begin()
        txn.write("k", b"v")
        txn.commit()
        with pytest.raises(TransactionError):
            txn.write("k", b"again")
        with pytest.raises(TransactionError):
            txn.commit()
        with pytest.raises(TransactionError):
            txn.abort()

    def test_unknown_transaction_id(self):
        manager, _tree = make_manager()
        with pytest.raises(TransactionError):
            manager.commit(999)


class TestLockingBetweenUpdaters:
    def test_conflicting_writers_collide(self):
        manager, _tree = make_manager()
        first = manager.begin()
        second = manager.begin()
        first.write("hot", b"1")
        with pytest.raises(LockConflictError):
            second.write("hot", b"2")
        first.commit()
        second.write("hot", b"2")   # lock released at commit
        second.commit()

    def test_abort_also_releases_locks(self):
        manager, _tree = make_manager()
        first = manager.begin()
        first.write("hot", b"1")
        first.abort()
        second = manager.begin()
        second.write("hot", b"2")
        second.commit()

    def test_disjoint_writers_do_not_interact(self):
        manager, tree = make_manager()
        first = manager.begin()
        second = manager.begin()
        first.write("a", b"1")
        second.write("b", b"2")
        first.commit()
        second.commit()
        assert tree.search_current("a").value == b"1"
        assert tree.search_current("b").value == b"2"

    def test_active_transactions_listing(self):
        manager, _tree = make_manager()
        first = manager.begin()
        second = manager.begin()
        first.write("a", b"1")
        first.commit()
        active = manager.active_transactions()
        assert [txn.txn_id for txn in active] == [second.txn_id]

    def test_registry_holds_only_the_active_transactions(self):
        manager, _tree = make_manager()
        open_handles = [manager.begin() for _ in range(3)]
        finished = []
        for index in range(10_000):
            txn = manager.begin()
            if index % 100 == 0:  # a few with writes, most write-less: cheap
                txn.write(f"k{index % 7}", b"v")
            (txn.commit if index % 2 else txn.abort)()
            finished.append(txn)
        assert sorted(manager._transactions) == [txn.txn_id for txn in open_handles]
        assert manager.active_transactions() == open_handles
        for txn in (finished[0], finished[-1]):  # forgotten, but the handle knows
            with pytest.raises(TransactionError, match="not active"):
                txn.write("k", b"late")
            with pytest.raises(TransactionError, match="not active"):
                manager.commit(txn.txn_id)


class TestUncommittedDataNeverMigrates:
    def test_long_running_transaction_survives_heavy_churn(self):
        """Section 4: provisional versions stay erasable no matter how much
        the current database is reorganised around them."""
        manager, tree = make_manager(policy=AlwaysTimeSplitPolicy("current"))
        pending = manager.begin()
        pending.write(10_000, b"long running provisional write")

        churn = manager.begin()
        for step in range(150):
            churn_key = step % 4
            churn.write(churn_key, f"churn-{step}".encode())
            churn.commit()
            churn = manager.begin()
        churn.abort()

        # The provisional version never reached the historical database.
        for node in tree.data_nodes():
            if node.address.is_historical:
                assert all(not version.is_provisional for version in node.versions)
        # And it can still be either aborted...
        pending.abort()
        assert tree.search_current(10_000) is None
        assert_tree_valid(tree)

    def test_commit_after_heavy_churn(self):
        manager, tree = make_manager(policy=AlwaysTimeSplitPolicy("current"))
        pending = manager.begin()
        pending.write(10_000, b"eventually committed")
        for step in range(100):
            quick = manager.begin()
            quick.write(step % 3, f"churn-{step}".encode())
            quick.commit()
        commit_time = pending.commit()
        version = tree.search_current(10_000)
        assert version.value == b"eventually committed"
        assert version.timestamp == commit_time
        assert_tree_valid(tree)
