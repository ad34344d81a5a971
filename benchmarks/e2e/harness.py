"""Load generation and measurement: one thread, closed loop, fixed op counts.

The load generator is the benchmark process.  Each executor below turns the
seeded operation stream of one workload into calls on the system under test,
times every request, and *records* every answer; nothing is checked until
the measured interval is over.
"""

from __future__ import annotations

import statistics
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.client import ReproClient

from benchmarks.e2e import workloads as w
from benchmarks.e2e.check import Oracle, check_answers, check_state, flip_one_answer
from benchmarks.e2e.speed import SpeedReference
from benchmarks.e2e.sut import ChildSut, LocalSut

#: Operations between two reference slices (a slice every ~20 ms).
SLICE_EVERY = 50
#: Rates are interquartile means over this many consecutive windows of the
#: interval (see :func:`midmean_rate`).
WINDOWS = 24

#: In-flight requests of the pipelined client (``served_mixed``).
WINDOW = 8
#: ``get_as_of`` "at the stamp of a recent acknowledged write": how recent.
RECENT = 64
PRELOAD_BATCH = 128


@dataclass
class Interval:
    """Everything one pass over an operation stream produced."""

    elapsed_s: float = 0.0
    logical_ops: int = 0
    requests: int = 0
    write_s: List[float] = field(default_factory=list)
    read_s: List[float] = field(default_factory=list)
    scan_s: List[float] = field(default_factory=list)
    scan_rows: List[int] = field(default_factory=list)  # rows of each scan in scan_s
    #: ``(clock, logical ops so far)`` at the start, at every reference slice
    #: and at the end of the interval.
    marks: List[Tuple[float, int]] = field(default_factory=list)
    records: List[Tuple] = field(default_factory=list)


def _row(view) -> Optional[Tuple[int, int, bytes]]:
    """An answer as a plain tuple.  Recorded answers outlive the interval by
    the hundred thousand; as ``RecordView`` objects they would make every full
    garbage collection — which the store's own allocations trigger — slower
    as the run goes on, and the benchmark would be measuring itself."""
    return None if view is None else (view.key, view.timestamp, bytes(view.value))


def _rows(views) -> Tuple[Tuple[int, int, bytes], ...]:
    return tuple((view.key, view.timestamp, bytes(view.value)) for view in views)


class _Executor:
    """State shared by the executors: sequence numbers, acknowledged writes."""

    def __init__(self, reference: SpeedReference) -> None:
        self.reference = reference
        self.sequence = 0
        self.horizon = 0  # newest acknowledged stamp
        self.writes: List[Tuple[int, int, bytes]] = []  # (key, stamp, value), acked

    def adopt(self, other: "_Executor") -> None:
        """Continue from where ``other`` (the preloader) stopped."""
        self.sequence, self.horizon, self.writes = other.sequence, other.horizon, other.writes

    def _next_value(self) -> bytes:
        self.sequence += 1
        return w.value_for(self.sequence)

    def _past_stamp(self, fraction: float) -> int:
        return min(self.horizon, 1 + int(fraction * self.horizon))


class EmbeddedExecutor(_Executor):
    """Direct calls on an in-process :class:`~repro.api.VersionStore`."""

    def __init__(self, store, reference: SpeedReference) -> None:
        super().__init__(reference)
        self.store = store

    def preload(self, keys: Sequence[int]) -> None:
        for start in range(0, len(keys), PRELOAD_BATCH):
            items = [(key, self._next_value()) for key in keys[start : start + PRELOAD_BATCH]]
            stamps = self.store.put_many(items)
            self.writes.extend((key, stamp, value) for (key, value), stamp in zip(items, stamps))
            self.horizon = max(self.horizon, max(stamps))
            self.reference.slice()
        self.store.checkpoint()

    def run(self, ops: Sequence[Tuple], final_checkpoint: bool) -> Interval:
        out = Interval()
        store, records, reference = self.store, out.records, self.reference
        started = perf_counter()
        out.marks.append((started, 0))
        for op in ops:
            code = op[0]
            out.requests += 1
            if out.requests % SLICE_EVERY == 0:
                reference.slice()
                out.marks.append((perf_counter(), out.logical_ops))
            try:
                if code == w.AS_OF_PAST:
                    stamp = self._past_stamp(op[2])
                    t0 = perf_counter()
                    answer = store.get_as_of(op[1], stamp)
                    out.read_s.append(perf_counter() - t0)
                    records.append(("as_of", op[1], stamp, _row(answer)))
                    out.logical_ops += 1
                elif code == w.GET:
                    t0 = perf_counter()
                    answer = store.get(op[1])
                    out.read_s.append(perf_counter() - t0)
                    records.append(("get", op[1], self.horizon, _row(answer)))
                    out.logical_ops += 1
                elif code == w.RANGE:
                    stamp = self._past_stamp(op[3])
                    t0 = perf_counter()
                    rows = store.range_search(op[1], op[1] + op[2], as_of=stamp)
                    out.scan_s.append(perf_counter() - t0)
                    out.scan_rows.append(len(rows))
                    records.append(("range", op[1], op[1] + op[2], stamp, _rows(rows)))
                    out.logical_ops += 1
                elif code == w.HISTORY:
                    t0 = perf_counter()
                    rows = store.key_history(op[1])
                    out.scan_s.append(perf_counter() - t0)
                    out.scan_rows.append(len(rows))
                    records.append(("history", op[1], self.horizon, _rows(rows)))
                    out.logical_ops += 1
                elif code == w.INSERT:
                    value = self._next_value()
                    t0 = perf_counter()
                    stamp = store.insert(op[1], value)
                    out.write_s.append(perf_counter() - t0)
                    self.writes.append((op[1], stamp, value))
                    self.horizon = stamp
                    out.logical_ops += 1
                elif code == w.TXN:
                    self._transaction(op, out)
                elif code == w.CHECKPOINT:
                    out.requests -= 1
                    store.checkpoint()
            except Exception as exc:  # noqa: BLE001 - a failed op is a counted failure
                records.append(("error", f"{type(exc).__name__}: {exc}"))
        if final_checkpoint:
            store.checkpoint()  # a store without a log is durable only from here
        out.elapsed_s = perf_counter() - started
        out.marks.append((started + out.elapsed_s, out.logical_ops))
        return out

    def _transaction(self, op: Tuple, out: Interval) -> None:
        _, keys, abort, reads = op
        store = self.store
        items = [(key, self._next_value()) for key in keys]
        t0 = perf_counter()
        txn = store.begin()
        for key, value in items:
            txn.write(key, value)
        stamp = txn.abort() if abort else txn.commit()
        out.write_s.append(perf_counter() - t0)
        if not abort:
            self.writes.extend((key, stamp, value) for key, value in items)
            self.horizon = stamp
        for key in reads:
            t0 = perf_counter()
            answer = store.get(key)
            out.read_s.append(perf_counter() - t0)
            out.records.append(("get", key, self.horizon, _row(answer)))
        out.logical_ops += len(keys) + len(reads)


class PipelinedExecutor(_Executor):
    """One ``ReproClient`` connection, a sliding window of in-flight requests
    through ``client.pipeline()``, answers gathered in issue order."""

    def __init__(self, client: ReproClient, reference: SpeedReference) -> None:
        super().__init__(reference)
        self.client = client
        self.recent: deque = deque(maxlen=RECENT)  # (key, stamp) of acked writes

    def preload(self, keys: Sequence[int]) -> None:
        pipe = self.client.pipeline()
        inflight: deque = deque()

        def settle() -> None:
            items, pending = inflight.popleft()
            stamps = pending.result()
            for (key, value), stamp in zip(items, stamps):
                self.writes.append((key, stamp, value))
                self.recent.append((key, stamp))
            self.horizon = max(self.horizon, max(stamps))

        for start in range(0, len(keys), PRELOAD_BATCH):
            items = [(key, self._next_value()) for key in keys[start : start + PRELOAD_BATCH]]
            if len(inflight) >= 4:
                settle()
            inflight.append((items, pipe.put_many(items)))
            self.reference.slice()
        while inflight:
            settle()

    def run(self, ops: Sequence[Tuple]) -> Interval:
        out = Interval()
        pipe = self.client.pipeline()
        inflight: deque = deque()
        started = perf_counter()
        out.marks.append((started, 0))
        for op in ops:
            if len(inflight) >= WINDOW:
                self._settle(inflight.popleft(), out)
            out.requests += 1
            if out.requests % SLICE_EVERY == 0:
                self.reference.slice()
                out.marks.append((perf_counter(), out.requests))
            try:
                inflight.append(self._submit(pipe, op))
            except Exception as exc:  # noqa: BLE001 - a failed op is a counted failure
                out.records.append(("error", f"{type(exc).__name__}: {exc}"))
        while inflight:
            self._settle(inflight.popleft(), out)
        out.elapsed_s = perf_counter() - started
        out.logical_ops = out.requests
        out.marks.append((started + out.elapsed_s, out.logical_ops))
        return out

    def audit_histories(self, interval: Interval, sample: int = 512) -> None:
        """After the interval: the full ``key_history`` of ``sample`` evenly
        spaced written keys, to be compared with the acknowledged-write list."""
        keys = sorted({key for key, _, _ in self.writes})
        chosen = keys[:: max(1, len(keys) // sample)][:sample]
        for start in range(0, len(chosen), 32):
            pipe = self.client.pipeline()
            pending = [(key, pipe.key_history(key)) for key in chosen[start : start + 32]]
            for key, answer in pending:
                interval.requests += 1
                try:
                    interval.records.append(
                        ("history", key, self.horizon, _rows(answer.result()))
                    )
                except Exception as exc:  # noqa: BLE001 - a failed op is a counted failure
                    interval.records.append(("error", f"{type(exc).__name__}: {exc}"))

    def _submit(self, pipe, op: Tuple) -> Tuple:
        code = op[0]
        if code == w.INSERT:
            value = self._next_value()
            t0 = perf_counter()
            return code, t0, pipe.insert(op[1], value), (op[1], value)
        if code == w.GET:
            t0 = perf_counter()
            return code, t0, pipe.get(op[1]), (op[1], self.horizon)
        if code == w.AS_OF_RECENT:
            key, stamp = self.recent[int(op[1] * len(self.recent))]
            t0 = perf_counter()
            return code, t0, pipe.get_as_of(key, stamp), (key, stamp)
        if code == w.AS_OF_PAST:
            stamp = self._past_stamp(op[2])
            t0 = perf_counter()
            return code, t0, pipe.get_as_of(op[1], stamp), (op[1], stamp)
        if code == w.RANGE:
            stamp = self._past_stamp(op[3])
            t0 = perf_counter()
            pending = pipe.range_search(op[1], op[1] + op[2], as_of=stamp)
            return code, t0, pending, (op[1], op[1] + op[2], stamp)
        if code == w.HISTORY:
            t0 = perf_counter()
            return code, t0, pipe.key_history(op[1]), (op[1], self.horizon)
        raise ValueError(f"operation {op!r} is not part of this workload")

    def _settle(self, issued: Tuple, out: Interval) -> None:
        code, t0, pending, detail = issued
        try:
            answer = pending.result()
        except Exception as exc:  # noqa: BLE001 - busy-after-retries, timeout, server error
            out.records.append(("error", f"{type(exc).__name__}: {exc}"))
            return
        latency = perf_counter() - t0
        if code == w.INSERT:
            out.write_s.append(latency)
            key, value = detail
            self.writes.append((key, answer, value))
            self.recent.append((key, answer))
            if answer > self.horizon:
                self.horizon = answer
        elif code == w.GET:
            out.read_s.append(latency)
            out.records.append(("get", *detail, _row(answer)))
        elif code == w.AS_OF_RECENT or code == w.AS_OF_PAST:
            out.read_s.append(latency)
            out.records.append(("as_of", *detail, _row(answer)))
        elif code == w.RANGE:
            out.scan_s.append(latency)
            out.scan_rows.append(len(answer))
            out.records.append(("range", *detail, _rows(answer)))
        else:
            out.scan_s.append(latency)
            out.scan_rows.append(len(answer))
            out.records.append(("history", *detail, _rows(answer)))


class ReplicatedExecutor(_Executor):
    """Synchronous depth 1 against a primary, reads from its follower.

    The follower's watermark is the *newest* stamp applied on any shard, so a
    timestamped follower read is exact only where no newer stamp exists on
    another shard: every read here is of the newest batch, at that batch's
    newest stamp, on the shard that stamp belongs to.  Reading at older
    stamps, or across shards, would race shard appliers against each other.
    """

    def __init__(self, client: ReproClient, key_space: int, reference: SpeedReference) -> None:
        super().__init__(reference)
        self.client = client
        self.key_space = key_space
        self.newest_stamp = 0
        self.newest_keys: List[int] = []

    def run(self, ops: Sequence[Tuple], span: int) -> Interval:
        out = Interval()
        client, records = self.client, out.records
        started = perf_counter()
        out.marks.append((started, 0))
        for op in ops:
            code = op[0]
            out.requests += 1
            if out.requests % 4 == 0:
                self.reference.slice()  # requests here take milliseconds each
                out.marks.append((perf_counter(), out.logical_ops))
            try:
                if code == w.PUT_MANY:
                    items = [(key, self._next_value()) for key in op[1]]
                    t0 = perf_counter()
                    stamps = client.put_many(items)
                    out.write_s.append(perf_counter() - t0)
                    self.writes.extend(
                        (key, stamp, value) for (key, value), stamp in zip(items, stamps)
                    )
                    self.horizon = self.newest_stamp = max(stamps)
                    self.newest_keys = [
                        key for key, stamp in zip(op[1], stamps) if stamp == self.newest_stamp
                    ]
                    out.logical_ops += len(items)
                    continue
                key = self.newest_keys[int(op[1] * len(self.newest_keys))]
                stamp = self.newest_stamp
                if code == w.RYW:
                    t0 = perf_counter()
                    answer = client.get_as_of(key, stamp)
                    out.read_s.append(perf_counter() - t0)
                    records.append(("as_of", key, stamp, _row(answer)))
                else:
                    low, high = self._shard_window(key, span)
                    t0 = perf_counter()
                    rows = client.range_search(low, high, as_of=stamp)
                    out.scan_s.append(perf_counter() - t0)
                    out.scan_rows.append(len(rows))
                    records.append(("range", low, high, stamp, _rows(rows)))
                out.logical_ops += 1
            except Exception as exc:  # noqa: BLE001 - a failed op is a counted failure
                records.append(("error", f"{type(exc).__name__}: {exc}"))
        out.elapsed_s = perf_counter() - started
        return out

    def _shard_window(self, key: int, span: int) -> Tuple[int, int]:
        """``span`` keys around ``key``, clipped to the shard that owns it."""
        width = self.key_space // w.SHARDS
        shard = min(key // width, w.SHARDS - 1)
        shard_low = shard * width
        shard_high = self.key_space if shard == w.SHARDS - 1 else shard_low + width
        low = max(shard_low, min(key - span // 2, shard_high - span))
        return low, min(shard_high, low + span)


# ----------------------------------------------------------------------
# Set-up and the two kinds of run
# ----------------------------------------------------------------------
class Rig:
    """One set-up system under test plus the executor that drives it."""

    def __init__(
        self, spec: w.Workload, keys: Sequence[int], key_space: int, reference: SpeedReference
    ) -> None:
        self.spec = spec
        self.key_space = key_space
        self.client: Optional[ReproClient] = None
        started = perf_counter()
        if spec.served:
            self.sut = ChildSut(spec, key_space)
            host, port = self.sut.address
            self.client = ReproClient(host, port, tenant=w.TENANT, pool_size=1)
            loader = PipelinedExecutor(self.client, reference)
            loader.preload(keys)
            self.sut.call("checkpoint")
            self.executor = loader
            if spec.replicated:
                self.sut.attach_replica()
                self.client.close()
                self.client = ReproClient(
                    host,
                    port,
                    tenant=w.TENANT,
                    pool_size=1,
                    followers=[self.sut.follower_address],
                    read_preference="follower",
                )
                self.executor = ReplicatedExecutor(self.client, key_space, reference)
                self.executor.adopt(loader)
        else:
            self.sut = LocalSut(spec, key_space)
            self.executor = EmbeddedExecutor(self.sut.store, reference)
            self.executor.preload(keys)
        self.setup_s = perf_counter() - started

    def run(self, ops: Sequence[Tuple]) -> Interval:
        spec = self.spec
        if spec.replicated:
            interval = self.executor.run(ops, min(spec.range_span, self.key_space // 8))
            # The interval ends when the follower holds everything acknowledged.
            caught_up_from = perf_counter()
            if not self.sut.call("caught_up"):
                interval.records.append(("error", "follower never caught up"))
            interval.elapsed_s += perf_counter() - caught_up_from
            interval.marks.append((interval.marks[0][0] + interval.elapsed_s, interval.logical_ops))
            return interval
        if spec.served:
            return self.executor.run(ops)
        return self.executor.run(ops, final_checkpoint=not spec.wal)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        self.sut.close()


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``samples`` (which must not be empty)."""
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def _stretches(count: int, at_least: int) -> List[Tuple[int, int]]:
    """``count`` consecutive items cut into up to ``WINDOWS`` equal stretches
    of ``at_least`` items or more: ``(low, high)`` index pairs."""
    windows = max(1, min(WINDOWS, count // at_least))
    edges = [round(index * count / windows) for index in range(windows + 1)]
    return list(zip(edges, edges[1:]))


def midmean_rate(amounts: Sequence[float], seconds: Sequence[float], at_least: int) -> float:
    """The interquartile mean, over consecutive stretches of a run (each of
    ``at_least`` items or more), of the stretch's amount of work per second.

    ``amounts[i]`` was done in ``seconds[i]``.  Work over elapsed time for
    the whole run charges the program for every burst in which a neighbour on
    this shared box took the processor away (seconds at a time, and no
    CPU-time reference sees it).  A burst spoils only the stretches it falls
    in: the slowest and the fastest quarter of the stretches are set aside
    and the rest averaged, which on a quiet box reads within a few percent of
    the whole-run figure.
    """
    rates = sorted(
        sum(amounts[low:high]) / sum(seconds[low:high])
        for low, high in _stretches(len(amounts), at_least)
    )
    return statistics.mean(rates[len(rates) // 4 : len(rates) - len(rates) // 4])


def windowed_rate(marks: Sequence[Tuple[float, int]]) -> float:
    """:func:`midmean_rate` of logical operations over the interval's marks."""
    return midmean_rate(
        [after[1] - before[1] for before, after in zip(marks, marks[1:])],
        [after[0] - before[0] for before, after in zip(marks, marks[1:])],
        at_least=2,
    )


def windowed_quantile(samples: Sequence[float], q: float, at_least: int = 100) -> float:
    """The median, over consecutive stretches of a run, of the stretch's
    ``q``-quantile: a tail percentile that a burst of the neighbours' load
    (which fills the top few percent of the whole run's samples) moves only
    in the stretches it falls in.  The median itself needs no such care."""
    return statistics.median(
        quantile(samples[low:high], q) for low, high in _stretches(len(samples), at_least)
    )


def verify(
    rig: Rig,
    interval: Interval,
    recovered: Dict[str, object],
    digests: Sequence[str],
    flip_answer: bool,
) -> Tuple[int, List[str], Oracle]:
    """Check every recorded answer and every end state.

    Returns ``(attempted, failures, oracle)``."""
    oracle = Oracle()
    for key, stamp, value in rig.executor.writes:
        oracle.add(key, stamp, value)
    oracle.freeze()
    records = interval.records
    if flip_answer and not flip_one_answer(records):
        records.append(("error", "no recorded answer to flip"))
    failures = check_answers(oracle, records)
    attempted = interval.requests
    # Durability: the state recovered from flushed bytes alone must hold
    # every acknowledged write (every ack followed a log force, or, without
    # a log, the final checkpoint).
    attempted += 1
    failures += check_state(oracle, recovered["state"], "recovered store")
    if digests:
        attempted += 1
        expected = oracle.current_digest()
        if any(digest != expected for digest in digests):
            failures.append("primary / follower snapshot digests differ from the oracle's")
    return attempted, failures, oracle
