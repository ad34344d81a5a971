#!/usr/bin/env python3
"""Crash recovery: what a write-ahead log keeps, narrated.

Opens a ``wal=True`` :class:`repro.VersionStore`, commits two transactions,
leaves a third in flight, and lets the power fail while a fourth is
committing: its ``COMMIT`` record has been appended to the log, but the
force that would acknowledge it never happens.  Everything in memory and
the unforced tail of the log are gone.  Reopening the store from the three
devices it was built on runs restart recovery, and the recovered store
holds exactly the durably committed prefix — every acknowledged commit
survives, the commit nobody was told about is lost, and the uncommitted
write, which only a commit would have logged, leaves no trace.

Run with::

    python examples/crash_recovery.py
"""

from __future__ import annotations

from repro import StoreConfig, VersionStore


class PowerFailure(Exception):
    """The machine stops between a commit's append and its force."""


def main() -> None:
    config = StoreConfig(engine="tsb", page_size=512, wal=True)
    store = VersionStore.open(config)
    # What survives a crash is what real hardware keeps: keep hold of it.
    magnetic, historical = store.devices
    log_device = store.log_device
    print("commit rule                  : a commit is acknowledged once its log record is forced")
    print()

    def commit(key: str, value: bytes):
        txn = store.begin()
        txn.write(key, value)
        txn.commit()
        return txn

    def durable(txn) -> bool:
        return txn.commit_lsn <= store.durable_lsn()

    t1 = commit("alice", b"balance=50")
    print(f"T1 commits alice=50          : acknowledged, durable={durable(t1)}")
    t4 = store.begin()
    t4.write("alice", b"balance=9999")
    print("T4 writes alice=9999         : provisional, never commits (nothing logged)")
    t2 = commit("bob", b"balance=200")
    print(f"T2 commits bob=200           : acknowledged, durable={durable(t2)}")

    def power_fails(lsn: int) -> None:
        raise PowerFailure

    store.log.force_through = power_fails
    t3 = store.begin()
    t3.write("carol", b"balance=75")
    try:
        t3.commit()
    except PowerFailure:
        print(
            f"T3 commits carol=75          : record appended, durable={durable(t3)};"
            " the power fails before its force, so T3 is never acknowledged"
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
    print("The store is live again; recovery preserved exactly the acknowledged commits.")
    recovered.close()


if __name__ == "__main__":
    main()
