"""Replication benchmark: shipping lag, follower-read scaling, cutover stall.

Three studies, one JSON artifact (``BENCH_replication.json``):

1. **Lag vs write throughput** — the same write workload against a WAL
   sharded store with 0, 1 and 2 live replicas subscribed.  Reports write
   throughput (the shipping tax: replicas tail the same log devices the
   writers force), the worst LSN lag observed at workload end, and the
   catch-up time until every replica has acknowledged the full durable
   log.
2. **Follower-read scaling** — one primary + one served follower; 1, 2
   and 4 reader threads drive timestamped reads through
   ``ReproClient(read_preference="follower")``.  Follower reads never
   touch the primary, so reads/s should scale with reader count until the
   follower's latch saturates.
3. **Migration cutover stall** — two live cluster nodes, a background
   writer, and one online range migration.  Reports the write-stall
   window (PREPARE -> COMMIT), the events copied, and asserts the
   headline guarantee: **zero failed writes** during the move, and every
   acknowledged write readable at its stamp afterwards.

Run standalone (the nightly-bench step)::

    PYTHONPATH=src python benchmarks/bench_replication.py --quick
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from pathlib import Path

try:
    from .harness import emit_results
except ImportError:  # standalone: python benchmarks/bench_replication.py
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from harness import emit_results

from repro.api import ShardSpec, StoreConfig
from repro.client import ReproClient
from repro.replication import (
    ClusterClient,
    ClusterNode,
    Replica,
    ReplicationPrimary,
    migrate_range,
)
from repro.server.registry import StoreRegistry
from repro.server.service import ReproServer

OPS = 3000
QUICK_OPS = 800
READS = 2000
QUICK_READS = 600
VALUE = b"x" * 48

REPLICA_COUNTS = (0, 1, 2)
READER_COUNTS = (1, 2, 4)


def _wal_catalog():
    return {
        "bench": StoreConfig(
            engine="tsb",
            wal=True,
            shards=ShardSpec.for_int_keys(4, key_space=1 << 20),
        )
    }


# ----------------------------------------------------------------------
# Study 1: lag vs write throughput at 0/1/2 replicas
# ----------------------------------------------------------------------
def run_lag_cell(replica_count: int, ops: int) -> dict:
    registry = StoreRegistry(_wal_catalog())
    store = registry.get("bench")
    primary = ReplicationPrimary(store).start()
    replicas = [
        Replica(primary.host, primary.port, tenant="bench", name=f"r{i}").start()
        for i in range(replica_count)
    ]
    try:
        started = time.perf_counter()
        for index in range(ops):
            store.put_many([(index * 7 % (1 << 20), VALUE)])
        write_elapsed = time.perf_counter() - started
        end_lag = primary.replication_lag()
        catchup_started = time.perf_counter()
        caught_up = primary.wait_caught_up(timeout=60) if replicas else True
        catchup_s = time.perf_counter() - catchup_started if replicas else 0.0
        if not caught_up:
            raise RuntimeError(f"{replica_count} replicas failed to catch up")
        # Shipping must be loss-free: every replica mirrors the full log.
        for replica in replicas:
            durable = replica.durable_lsns()
            if durable != primary.durable_lsns():
                raise RuntimeError(
                    f"mirror diverged: {durable} != {primary.durable_lsns()}"
                )
        return {
            "replicas": replica_count,
            "writes": ops,
            "writes_per_s": round(ops / write_elapsed, 1),
            "end_lag_lsn": end_lag,
            "catchup_s": round(catchup_s, 4),
        }
    finally:
        for replica in replicas:
            replica.stop()
        primary.stop()
        registry.close_all()


# ----------------------------------------------------------------------
# Study 2: follower-read scaling at 1/2/4 reader threads
# ----------------------------------------------------------------------
def run_follower_cell(readers: int, reads: int, key_space: int = 512) -> dict:
    registry = StoreRegistry(_wal_catalog())
    store = registry.get("bench")
    server = ReproServer(registry, port=0, workers=4)
    server.start()
    primary = ReplicationPrimary(store).start()
    replica = Replica(primary.host, primary.port, tenant="bench", name="f0")
    try:
        replica.start()
        follower_server = replica.serve(workers=4)
        stamps = [
            store.put_many([(key, VALUE)])[0] for key in range(key_space)
        ]
        if not replica.wait_for_watermark(max(stamps), timeout=30):
            raise RuntimeError("follower never reached the primary watermark")

        per_reader = reads // readers
        errors: list = []
        counts = [0] * readers

        def reader(slot: int) -> None:
            try:
                with ReproClient(
                    server.host,
                    server.port,
                    tenant="bench",
                    followers=[follower_server.address],
                    read_preference="follower",
                ) as client:
                    for i in range(per_reader):
                        key = (slot * per_reader + i) % key_space
                        record = client.get_as_of(key, stamps[key])
                        if record is None or record.value != VALUE:
                            raise RuntimeError(f"wrong follower answer for {key}")
                        counts[slot] += 1
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(slot,)) for slot in range(readers)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if errors:
            raise RuntimeError(f"follower reader errors: {errors[:3]}")
        total = sum(counts)
        return {
            "readers": readers,
            "reads": total,
            "reads_per_s": round(total / elapsed, 1),
            "elapsed_s": round(elapsed, 3),
        }
    finally:
        replica.stop()
        primary.stop()
        server.stop()


# ----------------------------------------------------------------------
# Study 3: migration cutover write-stall
# ----------------------------------------------------------------------
def run_migration_study(seed_keys: int = 300) -> dict:
    config = StoreConfig(
        engine="tsb",
        wal=True,
        shards=ShardSpec(boundaries=("m",)),
    )
    from repro.replication.cluster import RoutingTable

    with ClusterNode("A", config) as node_a:
        with ClusterNode(
            "B", config, table=RoutingTable([(None, None, "A", 0)])
        ) as node_b:
            cluster = ClusterClient({"A": node_a.address, "B": node_b.address})
            try:
                cluster.put_many(
                    [(f"k{i:04d}", VALUE) for i in range(seed_keys)]
                )
                stop = threading.Event()
                written: list = []
                failures: list = []

                def writer() -> None:
                    i = 0
                    while not stop.is_set():
                        key = f"k{i % seed_keys:04d}"
                        try:
                            stamp = cluster.put_many([(key, VALUE)])[0]
                        except Exception as exc:  # noqa: BLE001
                            failures.append(exc)
                            return
                        written.append((key, stamp))
                        i += 1

                thread = threading.Thread(target=writer)
                thread.start()
                time.sleep(0.05)
                try:
                    report = migrate_range(
                        cluster, f"k{seed_keys // 2:04d}", None, "A", "B"
                    )
                finally:
                    stop.set()
                    thread.join(timeout=10)
                if failures:
                    raise RuntimeError(f"writes failed during migration: {failures[:3]}")
                for key, stamp in written[-64:]:
                    record = cluster.get_as_of(key, stamp)
                    if record is None or record.value != VALUE:
                        raise RuntimeError(f"acknowledged write lost: {key}@{stamp}")
                return {
                    "moved_range": f"[k{seed_keys // 2:04d}, None)",
                    "snapshot_events": report.snapshot_events,
                    "catchup_rounds": report.catchup_rounds,
                    "catchup_events": report.catchup_events,
                    "final_delta_events": report.final_delta_events,
                    "stall_ms": round(report.stall_seconds * 1000.0, 3),
                    "writes_during_migration": len(written),
                    "failed_writes": len(failures),
                }
            finally:
                cluster.close()


def _print_rows(title: str, rows: list) -> None:
    print(f"\n== {title} ==")
    for row in rows:
        print("  " + "  ".join(f"{k}={v}" for k, v in row.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"{QUICK_OPS} writes / {QUICK_READS} reads per cell "
        f"instead of {OPS} / {READS}",
    )
    args = parser.parse_args(argv)
    ops = QUICK_OPS if args.quick else OPS
    reads = QUICK_READS if args.quick else READS

    lag_rows = [run_lag_cell(count, ops) for count in REPLICA_COUNTS]
    _print_rows("lag vs write throughput", lag_rows)
    emit_results(
        "replication",
        lag_rows,
        study="write throughput and shipping lag at 0/1/2 replicas",
        extra={"ops_per_cell": ops, "catalog": "tsb, 4 shards, wal"},
    )

    follower_rows = [run_follower_cell(count, reads) for count in READER_COUNTS]
    _print_rows("follower-read scaling", follower_rows)
    emit_results(
        "replication",
        follower_rows,
        study="follower-read scaling at 1/2/4 reader threads",
        extra={"reads_per_cell": reads},
    )

    migration_row = run_migration_study()
    _print_rows("migration cutover", [migration_row])
    emit_results(
        "replication",
        [migration_row],
        study="online migration: cutover write-stall and zero failed writes",
    )

    print(f"\nBENCH_replication.json written")
    if migration_row["failed_writes"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
