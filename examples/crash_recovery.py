#!/usr/bin/env python3
"""Crash recovery: what a write-ahead log keeps, narrated.

Opens a ``wal=True`` :class:`repro.VersionStore` with a group-commit batch
of two, commits three transactions and leaves a fourth in flight, then
crashes: everything in memory and the unforced tail of the log are gone.
Reopening the store from the three devices it was built on runs restart
recovery, and the recovered store holds exactly the durably committed
prefix — the forced commits survive, the commit still sitting in the
volatile log tail is lost, and the uncommitted write, which only a commit
would have logged, leaves no trace.

Run with::

    python examples/crash_recovery.py
"""

from __future__ import annotations

from repro import StoreConfig, VersionStore


def main() -> None:
    config = StoreConfig(engine="tsb", page_size=512, wal=True, group_commit_size=2)
    store = VersionStore.open(config)
    # What survives a crash is what real hardware keeps: keep hold of it.
    magnetic, historical = store.devices
    log_device = store.log_device
    print("group commit batch size      : 2 (a force makes two commits durable)")
    print()

    def commit(key: str, value: bytes):
        txn = store.begin()
        txn.write(key, value)
        txn.commit()
        return txn

    def durable(txn) -> bool:
        return txn.commit_lsn <= store.durable_lsn()

    t1 = commit("alice", b"balance=50")
    print(f"T1 commits alice=50          : durable={durable(t1)} (waiting for the batch to fill)")
    t4 = store.begin()
    t4.write("alice", b"balance=9999")
    print("T4 writes alice=9999         : provisional, never commits (nothing logged)")
    t2 = commit("bob", b"balance=200")
    print(
        f"T2 commits bob=200           : durable={durable(t2)}, T1 durable={durable(t1)}"
        " (the batch filled; one force covered both)"
    )
    t3 = commit("carol", b"balance=75")
    print(
        f"T3 commits carol=75          : durable={durable(t3)}"
        " (still in the volatile log tail)"
    )
    print()

    print("*** CRASH ***  (buffer pool, lock table and unforced log tail are gone)")
    log_device.lose_volatile_tail()
    recovered = VersionStore.open(
        config, magnetic=magnetic, historical=historical, log_device=log_device
    )
    print(recovered.recovery_report.summary())
    print()

    print(f"alice after recovery         : {recovered.get('alice').value.decode()} (T1, forced)")
    print(f"bob after recovery           : {recovered.get('bob').value.decode()} (T2, forced)")
    print(f"carol after recovery         : {recovered.get('carol')!r} (T3's commit was never forced)")
    print("T4's provisional alice=9999  : gone (only a commit is logged, and T4 never made one)")
    print()

    with recovered.begin() as t5:
        t5.write("alice", b"balance=120")
    alice = recovered.get("alice")
    print(f"post-recovery T5 commits     : alice {alice.value.decode()} @ T={alice.timestamp}")
    print("The store is live again; recovery preserved exactly the committed prefix.")
    recovered.close()


if __name__ == "__main__":
    main()
