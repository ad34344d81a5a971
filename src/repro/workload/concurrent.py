"""Multi-threaded client driver: N writers and M readers on one store.

The single-threaded workload generator (:mod:`repro.workload.generator`)
replays a deterministic operation stream; this module drives the *same*
store from many client threads at once, which is what the thread-safe
façade exists for.  :func:`run_concurrent`:

* splits a batch of ``(key, value)`` writes round-robin across
  ``threads`` writer threads (each applies them through ``store.insert``,
  or through ``store.put_many`` in chunks when ``batch_size > 1`` — the
  logged, group-commit-riding path on a WAL store);
* runs ``reader_threads`` readers concurrently, each issuing point
  lookups, as-of lookups and small range scans until the writers finish;
* starts everyone on a barrier, joins everyone, and returns a
  :class:`ConcurrentRunResult` carrying throughput numbers **and** every
  applied ``(key, timestamp, value)`` triple — exactly what a
  dict-of-sorted-version-lists oracle needs to verify that the concurrent
  interleaving produced a consistent history.

Timestamps are assigned by the store (writes race, so pre-assigned stamps
would be meaningless); the oracle therefore checks the history the store
*chose*, not a predetermined one.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import Histogram, MetricsRegistry


@dataclass(frozen=True)
class AppliedWrite:
    """One write as the store actually stamped it."""

    thread: int
    key: object
    timestamp: int
    value: bytes


@dataclass
class ThreadReport:
    """Per-client-thread accounting."""

    thread: int
    role: str  # "writer" or "reader"
    operations: int = 0
    errors: List[str] = field(default_factory=list)
    #: Per-store-call wall-time distribution for this client (one sample per
    #: ``insert``/``put_many``/read call).  Recorded unconditionally — this is
    #: the harness measuring the store from outside, not the store's own
    #: (switchable) instrumentation.
    latency: Optional[Histogram] = None


@dataclass
class ConcurrentRunResult:
    """What a :func:`run_concurrent` call did, with oracle-ready evidence."""

    writer_threads: int
    reader_threads: int
    elapsed_s: float
    writes: int
    reads: int
    applied: List[AppliedWrite]
    per_thread: List[ThreadReport]
    #: Requests each writer kept in flight (1 = classic lock-step issue).
    pipeline_depth: int = 1
    #: Merged client-side latency snapshots keyed by role: ``{"write":
    #: <histogram snapshot>, "read": ...}``.  Empty when nothing ran.
    latency: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def writes_per_s(self) -> float:
        return self.writes / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def reads_per_s(self) -> float:
        return self.reads / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def errors(self) -> List[str]:
        """Every error any client thread hit (empty on a clean run)."""
        return [error for report in self.per_thread for error in report.errors]

    def history(self) -> dict:
        """The applied writes as a dict of per-key sorted version lists.

        This is the PR 3 differential-oracle shape: ``{key: [(timestamp,
        value), ...]}`` sorted by timestamp — compare it against
        ``store.key_history`` per key to verify the concurrent run.
        """
        oracle: dict = {}
        for write in self.applied:
            oracle.setdefault(write.key, []).append((write.timestamp, write.value))
        for versions in oracle.values():
            versions.sort(key=lambda item: item[0])
        return oracle


def _normalize(items: Sequence) -> List[Tuple[object, bytes]]:
    pairs: List[Tuple[object, bytes]] = []
    for item in items:
        if hasattr(item, "key") and hasattr(item, "value"):
            pairs.append((item.key, item.value))
        else:
            key, value = item
            pairs.append((key, value))
    return pairs


def run_concurrent(
    store=None,
    items: Sequence = (),
    *,
    target=None,
    threads: int = 4,
    reader_threads: int = 0,
    batch_size: int = 1,
    pipeline_depth: int = 1,
    read_keys: Optional[Sequence] = None,
    seed: int = 1989,
    metrics: Optional[MetricsRegistry] = None,
) -> ConcurrentRunResult:
    """Apply ``items`` from ``threads`` writers with ``reader_threads`` readers.

    The driver issues every call against ``target`` — any object exposing
    the façade's client surface (``insert``, ``put_many``, ``get``,
    ``get_as_of``, ``range_search``, ``now``).  That is an in-process
    :class:`~repro.api.store.VersionStore` *or* a wire
    :class:`~repro.client.ReproClient`: the same workload, the same
    oracle-ready result, through either path.  ``store`` (the historical
    first positional) and ``target`` are aliases; pass exactly one.

    ``items`` are ``(key, value)`` pairs (or objects with ``key``/``value``
    attributes, e.g. generated :class:`~repro.workload.generator.Operation`
    streams — their scripted timestamps are ignored; the store stamps).
    ``batch_size > 1`` makes writers call ``store.put_many`` on chunks of
    that size instead of per-item ``insert`` — on a WAL store that is the
    logged transactional path riding group commit.  Readers pick keys from
    ``read_keys`` (default: the written keys) and stop when writers finish.

    ``pipeline_depth > 1`` makes each writer keep that many requests in
    flight through ``target.pipeline()`` (the wire client's explicit batch
    context) instead of issuing lock-step: a request is gathered only once
    the window is full, so the server sees a standing queue per writer and
    serves it a burst at a time.  Targets without a ``pipeline()`` method (the in-process
    façade) silently run at depth 1 — the applied history is identical
    either way, which is exactly what the differential oracles check.

    Every client times each store call into a per-thread
    :class:`~repro.obs.registry.Histogram`; the merged write/read
    distributions land in ``result.latency`` and, when a ``metrics``
    registry is passed (e.g. ``store.metrics``), are also folded into it
    as ``client.write`` / ``client.read``.

    Client errors are captured per thread, never swallowed silently:
    inspect ``result.errors`` (tests assert it is empty).
    """
    if (store is None) == (target is None):
        raise ValueError("pass exactly one of `store` (positional) or `target=`")
    store = store if store is not None else target
    if threads < 1:
        raise ValueError("at least one writer thread is required")
    if reader_threads < 0:
        raise ValueError("reader_threads cannot be negative")
    if pipeline_depth < 1:
        raise ValueError("pipeline_depth must be at least 1")
    use_pipeline = pipeline_depth > 1 and hasattr(store, "pipeline")
    pairs = _normalize(items)
    if not pairs:
        # Nothing to write means nothing for readers to key on either —
        # a clean no-op beats reader threads crashing on an empty choice.
        return ConcurrentRunResult(
            writer_threads=threads,
            reader_threads=reader_threads,
            elapsed_s=0.0,
            writes=0,
            reads=0,
            applied=[],
            per_thread=[],
        )
    slices = [pairs[index::threads] for index in range(threads)]
    keys_for_readers = list(read_keys) if read_keys else sorted({k for k, _ in pairs})

    reports = [
        ThreadReport(
            thread=index, role="writer", latency=Histogram(f"client.write.{index}")
        )
        for index in range(threads)
    ] + [
        ThreadReport(
            thread=threads + index,
            role="reader",
            latency=Histogram(f"client.read.{index}"),
        )
        for index in range(reader_threads)
    ]
    applied: List[AppliedWrite] = []
    applied_lock = threading.Lock()
    barrier = threading.Barrier(threads + reader_threads + 1)
    writers_done = threading.Event()

    def record(report: ThreadReport, index: int, chunk, stamps) -> None:
        with applied_lock:
            for (key, value), stamp in zip(chunk, stamps):
                applied.append(
                    AppliedWrite(thread=index, key=key, timestamp=stamp, value=value)
                )
        report.operations += len(chunk)

    def pipelined_writer(report: ThreadReport, index: int, mine) -> None:
        """Keep ``pipeline_depth`` write requests in flight, gather in order."""
        inflight: deque = deque()

        def settle() -> None:
            chunk, pending = inflight.popleft()
            with report.latency.time():
                outcome = pending.result()
            record(report, index, chunk, outcome if batch_size > 1 else [outcome])

        with store.pipeline() as pipe:
            position = 0
            while position < len(mine):
                chunk = mine[position : position + max(1, batch_size)]
                if batch_size > 1:
                    pending = pipe.put_many(chunk)
                else:
                    pending = pipe.insert(chunk[0][0], chunk[0][1])
                inflight.append((chunk, pending))
                if len(inflight) >= pipeline_depth:
                    settle()
                position += len(chunk)
            while inflight:
                settle()

    def writer(index: int) -> None:
        report = reports[index]
        mine = slices[index]
        barrier.wait()
        try:
            if use_pipeline:
                pipelined_writer(report, index, mine)
                return
            position = 0
            while position < len(mine):
                chunk = mine[position : position + max(1, batch_size)]
                if batch_size > 1:
                    with report.latency.time():
                        stamps = store.put_many(chunk)
                else:
                    stamps = []
                    for key, value in chunk:
                        with report.latency.time():
                            stamps.append(store.insert(key, value))
                record(report, index, chunk, stamps)
                position += len(chunk)
        except Exception as exc:  # noqa: BLE001 - reported, asserted on by callers
            report.errors.append(f"{type(exc).__name__}: {exc}")

    def reader(index: int) -> None:
        report = reports[threads + index]
        rng = random.Random(seed + index)
        barrier.wait()
        try:
            while not writers_done.is_set():
                key = rng.choice(keys_for_readers)
                choice = rng.random()
                if choice < 0.5:
                    with report.latency.time():
                        store.get(key)
                elif choice < 0.8:
                    now = store.now
                    stamp = rng.randint(0, max(1, now))
                    with report.latency.time():
                        store.get_as_of(key, stamp)
                else:
                    window = keys_for_readers[: max(1, len(keys_for_readers) // 8)]
                    low = rng.choice(window)
                    with report.latency.time():
                        store.range_search(low, None)[:16]
                report.operations += 1
        except Exception as exc:  # noqa: BLE001 - reported, asserted on by callers
            report.errors.append(f"{type(exc).__name__}: {exc}")

    workers = [
        threading.Thread(target=writer, args=(index,), name=f"client-writer-{index}")
        for index in range(threads)
    ] + [
        threading.Thread(target=reader, args=(index,), name=f"client-reader-{index}")
        for index in range(reader_threads)
    ]
    for worker in workers:
        worker.start()
    barrier.wait()
    started = time.perf_counter()
    for worker in workers[:threads]:
        worker.join()
    writers_done.set()
    for worker in workers[threads:]:
        worker.join()
    elapsed = time.perf_counter() - started

    merged = {
        "write": Histogram("client.write"),
        "read": Histogram("client.read"),
    }
    for report in reports:
        role = "write" if report.role == "writer" else "read"
        if report.latency is not None:
            merged[role].merge_from(report.latency)
    if metrics is not None:
        for histogram in merged.values():
            if histogram.count:
                metrics.histogram(histogram.name).merge_from(histogram)
    latency = {
        role: histogram.snapshot()
        for role, histogram in merged.items()
        if histogram.count
    }

    return ConcurrentRunResult(
        writer_threads=threads,
        reader_threads=reader_threads,
        elapsed_s=elapsed,
        writes=sum(r.operations for r in reports if r.role == "writer"),
        reads=sum(r.operations for r in reports if r.role == "reader"),
        applied=applied,
        per_thread=reports,
        pipeline_depth=pipeline_depth if use_pipeline else 1,
        latency=latency,
    )
