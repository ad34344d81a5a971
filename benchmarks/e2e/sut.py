"""The system under test: built through public constructors only.

The two embedded workloads hold a :class:`LocalSut` in the benchmark process.
The two served workloads put server, primary, replica and follower server in
**one child process** (:func:`child_main`) so load generator and SUT do not
share an interpreter lock; the parent drives it through :class:`ChildSut`
over a pipe and the child leaves with ``os._exit`` (``Replica.stop()``
currently waits out two 5 s join timeouts — ROADMAP item 4).

Both kinds answer the same small surface: ``counters()``,
``reference_state()``, ``peak_rss_mb()``, ``recover()`` and ``close()``.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import resource
import select
import statistics
import subprocess
import sys
import threading
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import ShardedVersionStore, ShardSpec, StoreConfig, VersionStore
from repro.core.checker import check_tree
from repro.recovery import RecoveryManager

from benchmarks.e2e import spans
from benchmarks.e2e.speed import SpeedReference
from benchmarks.e2e.check import state_digest
from benchmarks.e2e.workloads import (
    GROUP_COMMIT_INTERVAL,
    GROUP_COMMIT_SIZE,
    PAGE_SIZE,
    SHARDS,
    TENANT,
    WORKLOADS,
    Workload,
)


def store_config(spec: Workload, key_space: int) -> StoreConfig:
    """The store shape of ``spec``; devices are in-memory, zero latency."""
    return StoreConfig(
        engine="tsb",
        page_size=PAGE_SIZE,
        cache_pages=spec.cache_pages,
        wal=spec.wal,
        group_commit_size=GROUP_COMMIT_SIZE,
        group_commit_interval=GROUP_COMMIT_INTERVAL,
        shards=ShardSpec.for_int_keys(SHARDS, key_space=key_space) if spec.served else None,
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _inner_stores(store: VersionStore) -> List[VersionStore]:
    return store.shard_stores if isinstance(store, ShardedVersionStore) else [store]


#: Counters that accumulate: the per-layer table reports end minus start.
ADDITIVE = (
    "magnetic.reads",
    "magnetic.writes",
    "magnetic.bytes_written",
    "worm.reads",
    "worm.bytes_written",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "cache.flushes",
    "log.forces",
    "log.bytes_forced",
    "latch.write_wait_s",
    "latch.read_wait_s",
    "latch.write_hold_s",
    "txn.commits",
    "txn.aborts",
    "lock.waits",
    "wal.forces",
    "wal.commits_forced",
    "tree.data_time_splits",
    "tree.data_key_splits",
    "tree.index_splits",
    "tree.redundant_versions_written",
    "tree.historical_nodes_written",
    "shard_splits",
    "server.requests",
    "server.busy",
    "server.errors",
    "server.batches",
    "server.batch_requests",
    "repl.batches_sent",
    "repl.batch_records",
    "repl.batch_bytes",
)


def collect_counters(stores: List[VersionStore], servers=()) -> Dict[str, float]:
    """Cumulative counters of ``stores`` (every copy: primary, then follower),
    read through public accessors only.

    ``space_summary()`` is deliberately not among them: it flushes the tree,
    and flushing a WAL store between checkpoints puts pages on the magnetic
    device that the checkpointed root does not know — restart recovery then
    fails.  Device ``bytes_used`` gives the same bytes without the flush.
    """
    out: Dict[str, float] = {name: 0 for name in ADDITIVE}
    out["tree.height"] = 0
    out["tree.redundant_versions_total"] = 0
    out["data_bytes"] = 0
    out["log.durable_bytes"] = 0
    for store in stores:
        snapshot = store.metrics_snapshot()
        registry = snapshot["metrics"]
        histograms, counters = registry["histograms"], registry["counters"]
        for tier, prefix in (("magnetic", "magnetic"), ("historical", "worm")):
            io = snapshot["io"][tier]
            out[f"{prefix}.reads"] += io["reads"]
            out[f"{prefix}.bytes_written"] += io["bytes_written"]
        out["magnetic.writes"] += snapshot["io"]["magnetic"]["writes"]
        for name in ("hits", "misses", "evictions", "flushes"):
            out[f"cache.{name}"] += snapshot.get("cache", {}).get(name, 0)
        for name in ("write_wait", "read_wait", "write_hold"):
            out[f"latch.{name}_s"] += histograms.get(f"latch.{name}", {}).get("sum", 0.0)
        out["txn.commits"] += counters.get("txn.commits", 0)
        out["txn.aborts"] += counters.get("txn.aborts", 0)
        out["lock.waits"] += counters.get("lock.waits", 0)
        out["wal.forces"] += counters.get("wal.forces", 0)
        out["wal.commits_forced"] += histograms.get("wal.batch_size", {}).get("sum", 0)
        out["repl.batches_sent"] += counters.get("repl.batches_sent", 0)
        out["repl.batch_records"] += histograms.get("repl.batch_records", {}).get("sum", 0)
        out["repl.batch_bytes"] += histograms.get("repl.batch_bytes", {}).get("sum", 0)
        if isinstance(store, ShardedVersionStore):
            out["shard_splits"] += store.sharded_engine.splits_performed
        for inner in _inner_stores(store):
            tree = inner.backend
            out["tree.data_time_splits"] += tree.counters.data_time_splits
            out["tree.data_key_splits"] += tree.counters.data_key_splits
            out["tree.index_splits"] += (
                tree.counters.index_key_splits + tree.counters.index_time_splits
            )
            out["tree.redundant_versions_written"] += tree.counters.redundant_versions_written
            out["tree.historical_nodes_written"] += tree.counters.historical_nodes_written
            out["tree.height"] = max(out["tree.height"], tree.height)
            out["tree.redundant_versions_total"] += tree.counters.redundant_versions_written
            magnetic, historical = inner.devices
            out["data_bytes"] += magnetic.bytes_used + historical.bytes_used
            device = inner.log_device
            if device is not None:
                out["log.forces"] += device.forces
                out["log.bytes_forced"] += device.stats.bytes_written
                out["log.durable_bytes"] += device.durable_bytes
    for server in servers:
        registry = server.metrics.snapshot()
        for name in ("requests", "busy", "errors"):
            out[f"server.{name}"] += registry["counters"].get(f"server.{name}", 0)
        batches = registry["histograms"].get("server.batch.requests", {})
        out["server.batches"] += batches.get("count", 0)
        out["server.batch_requests"] += batches.get("sum", 0)
    return out


#: Restarts timed per run.  Restarting only reads what was flushed and leaves
#: it as it was, so it can be repeated: one restart is a single shot of a few
#: seconds at most, and a neighbour's burst on this shared box moves it by a
#: tenth.  Restart recovery from a log is timed this many times and the
#: median reported; reopening a store without a log is over in a third of a
#: second, so it is timed more often.
RECOVERIES = 3
LOGLESS_RESTARTS = 9
#: Reference slices taken, on the restarting thread itself, before every
#: (shard's) restart and after the last: each timing is normalised by the
#: machine's speed right around it.  (A sampler *thread* is no use here: with
#: the other core idle it wakes there, cold, and its slices cost 1.0–1.6× the
#: restarting thread's own, differently from one run to the next.)
RESTART_SLICES = 32
#: What one of those back-to-back slices costs on the reference box at its
#: usual speed, in seconds.  Run in a row they run warm, so — unlike a slice
#: taken amid a workload's operations — they cost the same on every workload.
RESTART_SLICE_S = 64e-6


def snapshot_digest(store: VersionStore) -> str:
    snapshot = store.snapshot(store.now)
    return state_digest(
        (key, snapshot[key].timestamp, bytes(snapshot[key].value)) for key in sorted(snapshot)
    )


def _restart(inner: VersionStore, config: StoreConfig):
    """One crash and restart of one (shard's) store from its devices alone:
    ``(tree, recovery report or None)``."""
    magnetic, historical = inner.devices
    if inner.log_device is None:
        tree = VersionStore.open(config, magnetic=magnetic, historical=historical).backend
        violations = check_tree(tree)
        if violations:
            raise RuntimeError(f"reopened tree violates invariants: {violations[:3]}")
        return tree, None
    inner.log_device.lose_volatile_tail()
    result = RecoveryManager(
        magnetic, historical, inner.log_device, cache_pages=config.cache_pages
    ).recover(verify=True)
    return result.tree, result.report


def crash_and_recover(store: VersionStore, config: StoreConfig) -> Dict[str, object]:
    """Crash ``store`` honestly and restart it from its devices alone.

    WAL stores lose the unforced log tail and run restart recovery per shard
    (``verify=True``: the rebuilt tree must pass every structural invariant).
    A store without a log is durable only as of its last checkpoint — the
    caller took one — and restarts by reopening the checkpointed devices and
    verifying the tree.

    Returns the median seconds of a restart (all shards) as the clock read
    them, the ``slowdown`` that speed-normalises that figure, the recovery
    report and the recovered visible state.
    """
    stores = _inner_stores(store)
    reference = SpeedReference(RESTART_SLICE_S)
    timed: List[Tuple[float, float]] = []  # (seconds, slowdown) of each restart
    for _ in range(RECOVERIES if config.wal else LOGLESS_RESTARTS):
        restarted = []  # one restarted copy in memory at a time (peak_rss_mb)
        seconds = 0.0
        mark = reference.state()
        for inner in stores:
            for _ in range(RESTART_SLICES):
                reference.slice()
            started = time.perf_counter()
            restarted.append(_restart(inner, config))
            seconds += time.perf_counter() - started
        for _ in range(RESTART_SLICES):
            reference.slice()
        timed.append((seconds, reference.slowdown(mark, reference.state())))
    seconds = statistics.median(seconds for seconds, _ in timed)
    report = {"records_scanned": 0, "operations_replayed": 0}
    state: Dict[int, bytes] = {}
    for tree, restart_report in restarted:
        if restart_report is not None:
            report["records_scanned"] += restart_report.records_scanned
            report["operations_replayed"] += restart_report.operations_replayed
        # Reading the state back is checking, not recovering: untimed.
        state.update((version.key, bytes(version.value)) for version in tree.range_search())
    return {
        "seconds": seconds,
        "slowdown": seconds / statistics.median(raw / slowdown for raw, slowdown in timed),
        "restarts_s": [raw for raw, _ in timed],
        "report": report,
        "state": state,
    }


class LocalSut:
    """An in-process :class:`VersionStore` (the two embedded workloads)."""

    def __init__(self, spec: Workload, key_space: int) -> None:
        self.config = store_config(spec, key_space)
        self.store = VersionStore.open(self.config)

    def counters(self) -> Dict[str, float]:
        return collect_counters([self.store])

    def reference_state(self):
        return None  # the SUT's CPU and speed are the benchmark process's own

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def recover(self) -> Dict[str, object]:
        return crash_and_recover(self.store, self.config)

    def close(self) -> None:
        self.store = None


# ----------------------------------------------------------------------
# The served SUT: one child process
# ----------------------------------------------------------------------
class _ServedSut:
    """Child-side state: server over a sharded WAL tenant, optional replica."""

    def __init__(self, spec: Workload, key_space: int) -> None:
        from repro.server import ReproServer, StoreRegistry

        self.config = store_config(spec, key_space)
        registry = StoreRegistry({TENANT: self.config})
        self.server = ReproServer(registry, workers=2).start()
        self.store = registry.get(TENANT)
        self.primary = None
        self.replica = None
        self.follower_server = None
        self.catchup_s = 0.0
        self.recorder: Optional[spans.Recorder] = None
        self._installed = contextlib.ExitStack()  # the wrappers stay on until exit
        self.reference = SpeedReference(spec.nominal_slice_us * 1e-6)
        self.lag_lsn_max = 0
        self.inflight_max = 0
        threading.Thread(target=self._sample, name="bench-sampler", daemon=True).start()
        if spec.replicated:
            from repro.replication import ReplicationPrimary

            self.primary = ReplicationPrimary(self.store).start()

    def stores(self) -> List[VersionStore]:
        return [self.store] + ([self.replica.store] if self.replica is not None else [])

    # -- commands ------------------------------------------------------
    def cmd_address(self, _):
        return self.server.host, self.server.port

    def cmd_checkpoint(self, _):
        self.store.checkpoint()

    def cmd_attach_replica(self, _):
        from repro.replication import Replica

        started = time.perf_counter()
        self.replica = Replica(self.primary.host, self.primary.port, tenant=TENANT).start()
        if not self.primary.wait_caught_up(timeout=120.0):
            raise RuntimeError("replica did not catch up with the preload")
        self.catchup_s = time.perf_counter() - started
        self.follower_server = self.replica.serve(workers=2)
        return self.follower_server.host, self.follower_server.port

    def cmd_caught_up(self, _):
        return self.primary.wait_caught_up(timeout=120.0)

    def cmd_counters(self, _):
        servers = [self.server] + ([self.follower_server] if self.follower_server else [])
        counters = collect_counters(self.stores(), servers)
        counters["repl.catchup_s"] = self.catchup_s
        counters["repl.lag_lsn_max"] = self.lag_lsn_max
        counters["server.inflight_max"] = self.inflight_max
        return counters

    def cmd_peak_rss_mb(self, _):
        return peak_rss_mb()

    def cmd_digests(self, _):
        return [snapshot_digest(store) for store in self.stores()]

    def cmd_recover(self, _):
        return crash_and_recover(self.store, self.config)

    def cmd_trace_start(self, _):
        recorder = spans.Recorder()
        self._installed.enter_context(spans.tracing(recorder))
        self.recorder = recorder

    def cmd_reference(self, _):
        """``(reference state, process CPU seconds)`` — the child's half of a
        phase's slowdown figure."""
        return self.reference.state(), time.process_time()

    def _sample(self) -> None:
        # 50 Hz, for the life of the child: one slice of the speed reference
        # and, in the traced run, the gauges that keep no high-water mark of
        # their own (read through the public accessors).
        while True:
            time.sleep(0.02)
            self.reference.slice()
            if self.recorder is None:
                continue
            if self.primary is not None and self.replica is not None:
                self.lag_lsn_max = max(self.lag_lsn_max, self.primary.replication_lag())
            inflight = self.server.metrics.gauges().get("server.inflight", 0)
            if self.follower_server is not None:
                inflight += self.follower_server.metrics.gauges().get("server.inflight", 0)
            self.inflight_max = max(self.inflight_max, int(inflight))

    def cmd_trace_summary(self, _):
        return self.recorder.summary()

    def cmd_trace_dump(self, limit):
        return self.recorder.dump(limit)


class _Channel:
    """Pickled messages over a pair of pipe ends shared with one other
    process.  Strictly request then reply, so at most one message is ever in
    the pipe; only this program's own two processes write to it."""

    def __init__(self, read_fd: int, write_fd: int) -> None:
        self._reader = os.fdopen(read_fd, "rb")
        self._writer = os.fdopen(write_fd, "wb")

    def send(self, message) -> None:
        pickle.dump(message, self._writer, protocol=pickle.HIGHEST_PROTOCOL)
        self._writer.flush()

    def receive(self, timeout: Optional[float] = None):
        """The next message; ``EOFError`` once the other side is gone."""
        if timeout is not None and not select.select([self._reader], [], [], timeout)[0]:
            raise TimeoutError(f"no message within {timeout} s")
        return pickle.load(self._reader)

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


def child_main(argv: Sequence[str]) -> None:
    """Entry point of the SUT child (``python -m benchmarks.e2e.sut workload
    key_space read_fd write_fd``): serve commands until told to exit."""
    spec = WORKLOADS[argv[0]]
    channel = _Channel(int(argv[2]), int(argv[3]))
    try:
        sut = _ServedSut(spec, int(argv[1]))
        channel.send(("ok", None))
    except BaseException:  # noqa: BLE001 - reported to the parent, then exit
        channel.send(("error", traceback.format_exc()))
        os._exit(1)
    while True:
        try:
            command, argument = channel.receive()
        except (EOFError, OSError):
            os._exit(0)  # the parent is gone
        if command == "exit":
            channel.send(("ok", None))
            os._exit(0)
        try:
            channel.send(("ok", getattr(sut, f"cmd_{command}")(argument)))
        except BaseException:  # noqa: BLE001 - the parent decides what a failure means
            channel.send(("error", traceback.format_exc()))


class ChildSut:
    """Parent-side handle on the SUT child process."""

    def __init__(self, spec: Workload, key_space: int) -> None:
        to_child_r, to_child_w = os.pipe()
        from_child_r, from_child_w = os.pipe()
        self._process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "benchmarks.e2e.sut",
                spec.name,
                str(key_space),
                str(to_child_r),
                str(from_child_w),
            ],
            pass_fds=(to_child_r, from_child_w),
            # The child must import what this process imported, from where.
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path for path in sys.path if path)},
        )
        os.close(to_child_r)
        os.close(from_child_w)
        self._channel = _Channel(from_child_r, to_child_w)
        self._reply()
        self.address: Tuple[str, int] = self.call("address")
        self.follower_address: Optional[Tuple[str, int]] = None

    def _reply(self):
        try:
            status, payload = self._channel.receive(timeout=170.0)
        except (TimeoutError, EOFError) as exc:
            raise RuntimeError(f"the SUT child did not answer: {exc!r}") from exc
        if status != "ok":
            raise RuntimeError(f"the SUT child failed:\n{payload}")
        return payload

    def call(self, command: str, argument=None):
        self._channel.send((command, argument))
        return self._reply()

    def attach_replica(self) -> None:
        self.follower_address = self.call("attach_replica")

    def counters(self) -> Dict[str, float]:
        return self.call("counters")

    def reference_state(self):
        return self.call("reference")

    def peak_rss_mb(self) -> float:
        return self.call("peak_rss_mb")

    def recover(self) -> Dict[str, object]:
        return self.call("recover")

    def close(self) -> None:
        """Stop the child and wait until it has ended."""
        if self._process.poll() is None:
            try:
                self.call("exit")
            except (RuntimeError, OSError):
                pass
        try:
            self._process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._channel.close()


if __name__ == "__main__":
    child_main(sys.argv[1:])
