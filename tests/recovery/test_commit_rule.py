"""The one commit rule: a commit is visible once its record is appended and
acknowledged once the log is forced through it; committers that wait
together share one force, on their own threads — a store starts none.

These tests hold the rule where it matters: two committers held at the
force by a barrier (ordering, not timing) share one; a WAL store, plain or
sharded, leaves ``threading.enumerate()`` as it found it; and under
concurrent committers with a crash at a random log byte, what was
acknowledged is a subset of what recovers, which is a subset of what was
attempted.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.api import ShardSpec, StoreConfig, VersionStore
from repro.obs.registry import set_enabled
from repro.recovery import log_manager
from tests.crash_harness import crash_and_reopen


def wal_store(shards=None):
    spec = None if shards is None else ShardSpec.for_int_keys(shards, key_space=400)
    return VersionStore.open(StoreConfig(engine="tsb", page_size=512, wal=True, shards=spec))


def counters(store):
    return store.metrics_snapshot()["metrics"]["counters"]


def test_two_committers_held_at_the_force_share_one():
    previous = set_enabled(True)
    store = wal_store()
    try:
        log = store.log
        force_through = log.force_through
        at_force = threading.Barrier(2, timeout=10.0)

        def held(lsn):
            at_force.wait()  # both records are appended before either forces
            force_through(lsn)

        log.force_through = held
        before = counters(store)
        threads = [
            threading.Thread(target=store.insert, args=(key, b"v")) for key in (1, 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        after = counters(store)
        assert after["txn.commits"] - before.get("txn.commits", 0) == 2
        assert after["wal.forces"] - before["wal.forces"] == 1
        assert store.get(1).value == store.get(2).value == b"v"
        assert log.flushed_lsn == log.last_lsn
    finally:
        del store.log.force_through
        store.close()
        set_enabled(previous)


@pytest.mark.parametrize("shards", [None, 4], ids=["plain", "four-shard"])
def test_a_wal_store_owns_no_thread(shards):
    before = set(threading.enumerate())
    store = wal_store(shards)
    assert set(threading.enumerate()) == before
    seen = []

    def committer(index):
        for n in range(20):
            store.insert(index * 100 + n, b"v")
        store.put_many([(index * 100 + n, b"w") for n in range(20)])
        seen.append(set(threading.enumerate()))

    workers = [threading.Thread(target=committer, args=(index,)) for index in range(4)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30.0)
    assert len(seen) == 4
    assert all(threads - set(workers) == before for threads in seen)
    store.checkpoint()
    assert set(threading.enumerate()) == before
    store.close()
    assert set(threading.enumerate()) == before


class Crashed(Exception):
    """The machine died: the log took no force from this instant on."""


@pytest.mark.parametrize("rule_bytes", [None, 2048], ids=["default-rule", "small-rule"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_acknowledged_within_recovered_within_attempted(seed, rule_bytes, monkeypatch):
    """Four threads commit — façade inserts and interactive transactions —
    until the log reaches a random byte: from then on every force fails, as
    on a machine that died there.  After the crash, every acknowledged write
    is recovered and every recovered write was attempted."""
    if rule_bytes is not None:
        monkeypatch.setattr(log_manager, "CHECKPOINT_EVERY_BYTES", rule_bytes)
    rng = random.Random(seed)
    store = wal_store()
    device = store.log_device
    crash_at = device.appended_bytes + rng.randrange(1, 24000)
    device_force = device.force
    dead = threading.Event()

    def force():
        if dead.is_set() or device.appended_bytes >= crash_at:
            dead.set()
            raise Crashed
        return device_force()

    device.force = force
    attempted, acknowledged = {}, {}

    def committer(index):
        for n in range(40):
            key, value = index * 1000 + n, f"t{index}-{n}".encode()
            attempted[key] = value
            try:
                if n % 2:
                    store.insert(key, value)
                else:
                    with store.begin() as txn:
                        txn.write(key, value)
            except Crashed:
                return
            acknowledged[key] = value

    threads = [threading.Thread(target=committer, args=(index,)) for index in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    del device.force  # the restarted machine's device forces again
    recovered = {record.key: record.value for record in crash_and_reopen(store).range_search()}
    assert acknowledged.items() <= recovered.items()
    assert recovered.items() <= attempted.items()
