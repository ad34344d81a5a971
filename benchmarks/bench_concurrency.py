"""Concurrency benchmark: threaded clients on one sharded store.

``workload.run_concurrent`` drives an 8-shard TSB store, whose simulated
magnetic devices charge real wall-clock latency per page access (so overlap
is observable, exactly as it would be on hardware), from 1/2/4/8 client
threads in read-only, write-only and mixed modes.  Reads scale with threads
(they share the store's reader latch and overlap device latency); writes
serialize on the writer latch — both numbers are recorded to
``BENCH_concurrency.json`` so the trajectory is tracked honestly rather
than asserted optimistically.

The store does its own work on the calling thread: the only parallelism
measured here is the clients'.
"""

import threading
import time

from repro.analysis.metrics import ExperimentRow
from repro.analysis.report import render_comparison
from repro.api import ShardSpec, StoreConfig, VersionStore
from repro.workload import WorkloadSpec, generate, run_concurrent

from .harness import emit_results

SHARDS = 8
PAGE_SIZE = 512
DEVICE_LATENCY_S = 0.0002  # 200 µs per magnetic page access while measuring
THREAD_COUNTS = (1, 2, 4, 8)
LOAD_SPEC = WorkloadSpec(operations=6_000, update_fraction=0.5, seed=1989, value_size=40)


def build_loaded_store():
    operations = generate(LOAD_SPEC)
    keys = sorted({operation.key for operation in operations})
    spec = ShardSpec.for_int_keys(SHARDS, key_space=keys[-1] + 1)
    store = VersionStore.open(
        StoreConfig(engine="tsb", page_size=PAGE_SIZE, shards=spec)
    )
    store.put_many([(operation.key, operation.value) for operation in operations])
    return store, keys


def set_device_latency(store, latency_s):
    """Charge (or stop charging) wall-clock time per magnetic page access."""
    for inner in store.shard_stores:
        inner.backend.magnetic.access_latency_s = latency_s


def measure_read_throughput(store, keys, threads, reads_per_thread=150):
    """Point-get throughput from N reader threads against cold-ish caches."""
    store.engine.drop_cache(16)  # small pools: most reads pay device latency
    barrier = threading.Barrier(threads + 1)
    done = []

    def reader(offset):
        barrier.wait()
        for index in range(reads_per_thread):
            store.get(keys[(offset * 7 + index * 13) % len(keys)])
        done.append(offset)

    workers = [threading.Thread(target=reader, args=(n,)) for n in range(threads)]
    for worker in workers:
        worker.start()
    barrier.wait()
    started = time.perf_counter()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started
    assert len(done) == threads
    return threads * reads_per_thread / elapsed


def run_client_scaling():
    rows = []
    for threads in THREAD_COUNTS:
        # Fresh store per configuration so earlier runs cannot warm later ones.
        store, keys = build_loaded_store()
        try:
            set_device_latency(store, DEVICE_LATENCY_S)
            reads_per_s = measure_read_throughput(store, keys, threads)

            pairs = [(keys[index % len(keys)], b"w" * 40) for index in range(400)]
            write_result = run_concurrent(store, pairs, threads=threads)
            assert write_result.errors == []

            mixed_pairs = [
                (keys[(index * 3) % len(keys)], b"m" * 40) for index in range(300)
            ]
            mixed = run_concurrent(
                store, mixed_pairs, threads=threads, reader_threads=threads
            )
            assert mixed.errors == []
        finally:
            set_device_latency(store, 0.0)
            store.close()
        write_latency = write_result.latency.get("write", {})
        mixed_read_latency = mixed.latency.get("read", {})
        rows.append(
            ExperimentRow(
                f"{threads} thread{'s' if threads > 1 else ''}",
                {
                    "threads": threads,
                    "reads_per_s": round(reads_per_s, 1),
                    "writes_per_s": round(write_result.writes_per_s, 1),
                    "write_p50_ms": round(write_latency.get("p50", 0.0) * 1000, 3),
                    "write_p99_ms": round(write_latency.get("p99", 0.0) * 1000, 3),
                    "mixed_writes_per_s": round(mixed.writes_per_s, 1),
                    "mixed_reads_per_s": round(mixed.reads_per_s, 1),
                    "read_p50_ms": round(mixed_read_latency.get("p50", 0.0) * 1000, 3),
                    "read_p99_ms": round(mixed_read_latency.get("p99", 0.0) * 1000, 3),
                },
            )
        )
    return rows


def test_client_thread_scaling(benchmark):
    scaling_rows = benchmark.pedantic(run_client_scaling, rounds=1, iterations=1)
    print("\n" + render_comparison("client-thread scaling (read/write/mixed)", scaling_rows))
    benchmark.extra_info["scaling"] = [
        {"label": row.label, **row.metrics} for row in scaling_rows
    ]
    emit_results(
        "concurrency",
        [{"label": row.label, **row.metrics} for row in scaling_rows],
        study="client-thread scaling (read/write/mixed)",
        extra={"shards": SHARDS, "device_latency_s": DEVICE_LATENCY_S},
    )

    # Reads scale with client threads (they overlap device latency under
    # the shared read latch): 8 threads must beat 1 thread clearly.
    by_threads = {row.metrics["threads"]: row.metrics for row in scaling_rows}
    assert by_threads[8]["reads_per_s"] > 2.0 * by_threads[1]["reads_per_s"], by_threads
