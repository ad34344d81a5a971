"""Concurrent clients on one store: oracle-verified histories.

The tier-1 tests here are quick smokes: a handful of writer and reader
threads on a sharded, WAL-enabled store, with every applied write checked
against the PR 3 dict-of-sorted-version-lists oracle.  The ``stress``-marked
variants run the same machinery at nightly scale (more threads, more
operations, shard splits under load and background group commit on at
once) and are deselected from tier-1 by ``pytest.ini``.
"""

import random
import threading
import time

import pytest

from repro.api import ShardSpec, StoreConfig, VersionStore
from repro.workload import run_concurrent


def sharded_wal_config(shards=4, key_space=400):
    spec = ShardSpec.for_int_keys(shards, key_space=key_space)
    return StoreConfig(engine="tsb", page_size=512, wal=True, shards=spec)


def workload_pairs(operations, key_space, seed):
    rng = random.Random(seed)
    return [
        (rng.randrange(key_space), f"v{index}-{rng.randrange(1000)}".encode())
        for index in range(operations)
    ]


def verify_against_oracle(store, result):
    """The PR 3 oracle check: the store's per-key histories, current state
    and a full snapshot must match the applied writes exactly."""
    assert result.errors == []
    oracle = result.history()
    assert oracle, "the run wrote nothing"
    for key, versions in oracle.items():
        observed = [(r.timestamp, r.value) for r in store.key_history(key)]
        assert observed == versions, f"history diverged for key {key!r}"
    expected_current = {
        key: versions[-1] for key, versions in oracle.items()
    }
    scanned = {r.key: (r.timestamp, r.value) for r in store.range_search()}
    assert scanned == expected_current
    snapshot = store.snapshot(store.now)
    assert {k: (r.timestamp, r.value) for k, r in snapshot.items()} == expected_current
    # Per-key stamps are unique (a transaction's run holds one write per
    # key, so re-writes always land in later commits); across keys one
    # commit stamp legitimately covers a whole distinct-key run.
    for key, versions in oracle.items():
        stamps = [stamp for stamp, _ in versions]
        assert len(stamps) == len(set(stamps)), f"duplicate stamp on key {key!r}"


class TestConcurrentSmoke:
    def test_writers_and_readers_produce_an_oracle_consistent_history(self):
        with VersionStore.open(sharded_wal_config()) as store:
            pairs = workload_pairs(400, key_space=400, seed=7)
            result = run_concurrent(
                store, pairs, threads=4, reader_threads=4, batch_size=5
            )
            assert result.writes == len(pairs)
            assert result.reads > 0
            verify_against_oracle(store, result)

    def test_put_many_blocked_on_a_record_lock_does_not_stall_readers(self):
        """Regression: put_many must take record locks before latches, so a
        batch waiting on an open transaction's lock leaves readers flowing
        (and resolves when the transaction commits, not via timeout)."""
        config = StoreConfig(engine="tsb", page_size=512, wal=True)
        with VersionStore.open(config) as store:
            store.insert("warm", b"seed")
            txn = store.begin()
            txn.write("hot", b"txn-value")
            outcome = {}

            def batch():
                outcome["stamps"] = store.put_many(
                    [("cold", b"a"), ("hot", b"b"), ("cool", b"c")]
                )

            worker = threading.Thread(target=batch)
            worker.start()
            deadline = time.monotonic() + 5.0
            while store.txns.locks.holder_of("cold") is None:
                assert time.monotonic() < deadline, "batch never reached its lock wait"
                time.sleep(0.005)
            # The batch now holds cold's lock and is blocked on hot's; a
            # reader must be served promptly (no latch held through the wait).
            started = time.monotonic()
            assert store.get("warm").value == b"seed"
            assert time.monotonic() - started < 1.0
            txn.commit()
            worker.join(timeout=5.0)
            assert not worker.is_alive()
            assert len(outcome["stamps"]) == 3
            assert store.get("hot").value == b"b"  # batch version landed after the txn's

    def test_single_inserts_from_many_threads_stay_consistent(self):
        with VersionStore.open(sharded_wal_config()) as store:
            pairs = workload_pairs(200, key_space=100, seed=11)
            result = run_concurrent(store, pairs, threads=4, reader_threads=2)
            verify_against_oracle(store, result)


class TestGroupCommit:
    def test_commits_become_durable_without_an_explicit_force(self):
        with VersionStore.open(sharded_wal_config(shards=2)) as store:
            report = store.put_many_detailed(workload_pairs(40, key_space=64, seed=9))
            # Every commit was forced before put_many returned.
            assert all(inner.log.pending_commits == 0 for inner in store.shard_stores)
            assert all(
                inner.log.flushed_lsn == inner.log.last_lsn for inner in store.shard_stores
            )
            assert report.timestamps  # the batch really committed


@pytest.mark.stress
class TestConcurrentStress:
    def test_heavy_mixed_load_with_splits_and_group_commit(self):
        spec = ShardSpec.for_int_keys(
            4,
            key_space=2_000,
            split_utilization=0.5,
            shard_page_budget=128,
            max_shards=16,
        )
        config = StoreConfig(
            engine="tsb",
            page_size=512,
            wal=True,
            shards=spec,
        )
        with VersionStore.open(config) as store:
            pairs = workload_pairs(4_000, key_space=2_000, seed=1989)
            result = run_concurrent(
                store, pairs, threads=6, reader_threads=6, batch_size=8
            )
            assert result.writes == len(pairs)
            # The splits ran inline, on the writers' threads, under load.
            assert store.sharded_engine.splits_performed > 0
            verify_against_oracle(store, result)

    def test_sustained_single_insert_contention(self):
        with VersionStore.open(sharded_wal_config(shards=4, key_space=256)) as store:
            pairs = workload_pairs(1_500, key_space=256, seed=23)
            result = run_concurrent(store, pairs, threads=8, reader_threads=4)
            verify_against_oracle(store, result)
