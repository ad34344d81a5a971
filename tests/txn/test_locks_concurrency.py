"""Concurrent lock-manager behaviour: modes, blocking, timeout, deadlock."""

import threading
import time

import pytest

from repro.core import TSBTree
from repro.txn.locks import LockConflictError, LockManager
from repro.txn.manager import TransactionManager


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestLockModes:
    def test_exclusive_holder_rerequests_for_free(self):
        locks = LockManager()
        locks.acquire_exclusive(1, "k")
        locks.acquire_exclusive(1, "k")  # its own lock: granted at once
        assert locks.holder_of("k") == 1
        assert locks.locks_held(1) == {"k"}


class TestBlockingAcquire:
    def test_blocked_request_resolves_when_holder_releases(self):
        locks = LockManager()
        granted = threading.Event()

        def holder():
            locks.acquire_exclusive(1, "hot")
            granted.set()
            time.sleep(0.05)
            locks.release_all(1)

        thread = threading.Thread(target=holder)
        thread.start()
        assert granted.wait(2.0)
        started = time.monotonic()
        locks.acquire_exclusive(2, "hot", timeout=5.0)  # blocks until release
        elapsed = time.monotonic() - started
        thread.join()
        assert locks.holder_of("hot") == 2
        assert elapsed < 2.0  # released long before the timeout

    def test_timeout_raises_with_reason(self):
        locks = LockManager()

        def holder():
            locks.acquire_exclusive(1, "hot")
            time.sleep(0.5)
            locks.release_all(1)

        thread = threading.Thread(target=holder)
        thread.start()
        assert wait_until(lambda: locks.holder_of("hot") == 1)
        with pytest.raises(LockConflictError) as info:
            locks.acquire_exclusive(2, "hot", timeout=0.05)
        thread.join()
        assert info.value.reason == "timeout"
        assert info.value.holder == 1

    def test_same_thread_conflict_fails_fast(self):
        locks = LockManager()
        locks.acquire_exclusive(1, "k")
        started = time.monotonic()
        with pytest.raises(LockConflictError) as info:
            locks.acquire_exclusive(2, "k")  # this very thread holds it for txn 1
        assert time.monotonic() - started < 0.5  # no timeout wait
        assert info.value.reason == "conflict"


class TestDeadlockDetection:
    def test_two_transaction_cycle_is_detected_and_carries_the_cycle(self):
        locks = LockManager()
        outcomes = {}
        barrier = threading.Barrier(2)

        def client(txn_id, first_key, second_key):
            locks.acquire_exclusive(txn_id, first_key)
            barrier.wait()
            try:
                locks.acquire_exclusive(txn_id, second_key, timeout=5.0)
                outcomes[txn_id] = "granted"
            except LockConflictError as exc:
                outcomes[txn_id] = exc
            finally:
                locks.release_all(txn_id)

        t1 = threading.Thread(target=client, args=(1, "a", "b"))
        t2 = threading.Thread(target=client, args=(2, "b", "a"))
        t1.start(), t2.start()
        t1.join(timeout=10.0), t2.join(timeout=10.0)

        victims = [o for o in outcomes.values() if isinstance(o, LockConflictError)]
        assert len(victims) == 1, outcomes  # exactly one victim, one survivor
        victim = victims[0]
        assert victim.reason == "deadlock"
        assert set(victim.cycle) == {1, 2}
        assert victim.cycle[0] == victim.requester  # cycle starts at the victim

    def test_manager_level_deadlock_resolves_and_survivor_commits(self):
        """The acceptance-criteria scenario: an induced two-transaction cycle
        through the TransactionManager, victim aborted, survivor commits."""
        tree = TSBTree(page_size=512)
        manager = TransactionManager(tree)
        outcomes = {}
        barrier = threading.Barrier(2)

        def client(first_key, second_key, slot):
            txn = manager.begin()
            txn.write(first_key, b"mine")
            barrier.wait()
            try:
                txn.write(second_key, b"theirs-too")
                # May have to wait for the victim's abort to release the key.
                txn.commit()
                outcomes[slot] = ("committed", txn.commit_timestamp)
            except LockConflictError as exc:
                txn.abort()
                outcomes[slot] = ("victim", exc)

        t1 = threading.Thread(target=client, args=("k1", "k2", "t1"))
        t2 = threading.Thread(target=client, args=("k2", "k1", "t2"))
        t1.start(), t2.start()
        t1.join(timeout=10.0), t2.join(timeout=10.0)
        assert sorted(kind for kind, _ in outcomes.values()) == ["committed", "victim"]
        victim_error = next(v for kind, v in outcomes.values() if kind == "victim")
        assert victim_error.reason == "deadlock"
        assert len(set(victim_error.cycle)) == 2
        # The survivor's writes are visible; the victim's were erased.
        survivor_keys = {
            key
            for key in ("k1", "k2")
            if tree.search_current(key) is not None
        }
        assert survivor_keys == {"k1", "k2"}  # survivor wrote both keys
