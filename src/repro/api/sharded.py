"""Key-range sharding: many independent stores behind one façade.

The paper designs one current/historical device pair; the roadmap's
production-scale story needs many.  :class:`ShardedVersionStore`
key-range-partitions the database across N inner
:class:`~repro.api.store.VersionStore` instances — each with its own
magnetic disk, historical device, buffer pool and (optionally) WAL — while
exposing the same query surface as a single store:

* **routing** — point lookups, as-of lookups, key histories and writes go
  to exactly the one shard whose range contains the key;
* **scatter-gather** — range scans, snapshots and time-slice queries fan
  out to the overlapping shards and merge their answers (shards are ordered
  by key range, so concatenating per-shard range results is already
  key-sorted);
* **writes** — every write enters its shard through the inner store's one
  write path (``VersionStore._write``, described in :mod:`repro.api.store`)
  at a stamp the sharded engine has drawn; :meth:`ShardedVersionStore.put_many`
  groups a batch of records per shard first, one logged transaction per
  distinct-key run when the inner stores run a WAL (so a batch rides each
  shard's group commit);
* **splitting** — when a shard's current-device utilization crosses the
  :class:`~repro.api.store.ShardSpec` threshold, the shard is split at its
  median key into two fresh stores — export, then import through that same
  write path — the scale-out analogue of the TSB-tree's own key splits.
  With ``ShardSpec.maintenance_interval > 0`` the split check leaves the
  write hot path entirely and runs on an opt-in background maintenance
  thread instead.

No key set is kept beside the trees: a shard's keys are what its tree holds
(:meth:`~repro.api.engine.VersionedEngine.keys`), so a sharded store is its
boundaries and its shards' devices and nothing else.

With ``ShardSpec.scatter_threads > 1`` the fan-outs run on a
:class:`~concurrent.futures.ThreadPoolExecutor`: scatter-gather queries
(``range_search`` / ``snapshot`` / ``time_slice`` / ``io_summary``) visit
their shards concurrently — results are gathered in shard order, so the
key-sorted merge is unchanged — and ``put_many`` applies its per-shard
groups concurrently.  Parallel ``put_many`` pre-assigns each shard the very
commit stamps the sequential walk would have produced (a contiguous block
per shard, in shard order, carved from the global clock), so the observable
history is byte-identical whichever mode ran it.

Timestamps stay globally consistent: the sharded engine's clock is the
newest commit any shard holds, it stamps every write itself, and it rejects
a timestamp that would precede the latest global commit — exactly the rule
every single-store engine enforces — so a workload replayed through a
sharded store gives the same logical answers as the same workload on one
store.

Construction goes through the ordinary front door::

    from repro import ShardSpec, StoreConfig, VersionStore

    spec = ShardSpec.for_int_keys(shards=4, key_space=100_000)
    config = StoreConfig(engine="tsb", shards=spec)
    store = VersionStore.open(config)       # a ShardedVersionStore
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from operator import itemgetter
from time import perf_counter
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, TypeVar

_T = TypeVar("_T")

from repro.api.engine import (
    Capability,
    RecordView,
    VersionStoreError,
    VersionedEngine,
)
from repro.api.store import (
    ShardSpec,
    StoreConfig,
    VersionEvent,
    VersionStore,
    distinct_key_run_end,
)
from repro.core.stats import merge_space_summaries
from repro.core.tsb_tree import TSBTree, TreeCounters, merge_tree_counters
from repro.obs import trace
from repro.obs.registry import COUNT_BUCKETS, MetricsRegistry
from repro.obs.registry import enabled as metrics_enabled
from repro.storage.iostats import IOStats, merge_io_summaries
from repro.storage.logdevice import LogDevice
from repro.storage.serialization import Key


@dataclass(frozen=True)
class ShardBatch:
    """One shard's slice of a :meth:`ShardedVersionStore.put_many` batch.

    ``shard`` is the shard index *at apply time*: the store whose log the
    batch actually committed to.  A batch big enough to cross the split
    threshold renumbers shards before ``put_many`` returns, so under an
    aggressive :class:`~repro.api.store.ShardSpec` the index may no longer
    match :attr:`ShardedVersionStore.shard_stores`; re-route a key with
    :meth:`ShardedVersionStore.shard_for` for the current layout.
    """

    shard: int
    keys: Tuple[Key, ...]
    timestamps: Tuple[int, ...]
    #: Commit durability at return time: under a WAL, True iff every commit
    #: record of this batch (one per distinct-key run) is already in the
    #: forced log prefix; None without a WAL.
    durable: Optional[bool] = None

    @property
    def count(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class PutManyReport:
    """What one ``put_many`` call did: per-item stamps and per-shard batches."""

    timestamps: List[int] = field(default_factory=list)
    batches: List[ShardBatch] = field(default_factory=list)


class ShardedEngine(VersionedEngine):
    """The :class:`VersionedEngine` protocol over N range-partitioned stores.

    Holds the inner :class:`VersionStore` objects (not just their engines)
    because shard splits need to build replacement stores from the inner
    configuration.  Capabilities are the intersection of the inner engines'
    capabilities minus transactions and secondary indexes, which are
    single-store concepts the sharded layer does not coordinate.
    """

    def __init__(
        self,
        stores: List[VersionStore],
        boundaries: List[Key],
        spec: ShardSpec,
        inner_config: StoreConfig,
    ) -> None:
        if len(stores) != len(boundaries) + 1:
            raise VersionStoreError(
                f"{len(stores)} shards need exactly {len(stores) - 1} boundaries"
            )
        self.stores = stores
        self.boundaries = boundaries
        self.spec = spec
        self.inner_config = inner_config
        self.name = f"sharded-{inner_config.engine}"
        inner_caps = [store.engine.capabilities for store in stores]
        self.capabilities: FrozenSet[Capability] = frozenset.intersection(
            frozenset(Capability), *inner_caps
        ) - {Capability.TRANSACTIONS, Capability.SECONDARY_INDEXES}
        self._dirty: set = set()
        self.splits_performed = 0
        #: The façade-level registry (set by ShardedVersionStore): fan-out
        #: widths and merge times land here; per-shard task latencies land
        #: in each inner store's own registry.
        self.metrics: Optional[MetricsRegistry] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self.configure_scatter(spec.scatter_threads)

    # ------------------------------------------------------------------
    # Scatter-gather execution
    # ------------------------------------------------------------------
    def configure_scatter(self, threads: int) -> None:
        """Resize (or disable, with ``threads == 1``) the fan-out pool."""
        if threads < 1:
            raise VersionStoreError("scatter_threads must be at least 1")
        old = self._executor
        self._scatter_threads = threads
        self._executor = (
            ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="shard-scatter"
            )
            if threads > 1
            else None
        )
        if old is not None:
            old.shutdown(wait=True)

    @property
    def scatter_threads(self) -> int:
        return self._scatter_threads

    def _gather(
        self,
        tasks: Sequence[Callable[[], _T]],
        label: Optional[str] = None,
        indices: Optional[Sequence[int]] = None,
    ) -> List[_T]:
        """Run the per-shard tasks, preserving task order in the results.

        Sequential without an executor (or for a single task); otherwise the
        tasks run concurrently and the gather waits for all of them.  Order
        preservation is what keeps concatenated range results key-sorted.

        With a ``label``, each task is wrapped to time itself into its
        shard's ``shard.<label>`` histogram and to open a ``shard.<label>``
        span parented under the submitting thread's current span — so a
        parallel fan-out still reads as one tree in a trace.  ``indices``
        names the shard each task targets (defaults to task position).
        """
        if label is not None:
            parent = trace.current_id()
            shard_indices = (
                list(indices) if indices is not None else list(range(len(tasks)))
            )
            tasks = [
                self._scatter_task(task, parent, label, index)
                for task, index in zip(tasks, shard_indices)
            ]
        if self._executor is None or len(tasks) <= 1:
            return [task() for task in tasks]
        if label is not None and self.metrics is not None and metrics_enabled():
            self.metrics.observe("scatter.fanout", len(tasks), bounds=COUNT_BUCKETS)
        futures = [self._executor.submit(task) for task in tasks]
        return [future.result() for future in futures]

    def _scatter_task(
        self,
        task: Callable[[], _T],
        parent: Optional[int],
        label: str,
        index: int,
    ) -> Callable[[], _T]:
        """Wrap one fan-out task with its shard's latency metric and span."""

        def run() -> _T:
            with trace.attach(parent), trace.span(f"shard.{label}", shard=index):
                started = perf_counter()
                try:
                    return task()
                finally:
                    if index < len(self.stores) and metrics_enabled():
                        self.stores[index].metrics.observe(
                            f"shard.{label}", perf_counter() - started
                        )

        return run

    def _record_merge(self, merge_started: float) -> None:
        """Time a gather's merge phase into the façade registry."""
        if self.metrics is not None and metrics_enabled():
            self.metrics.observe("scatter.merge", perf_counter() - merge_started)

    def shutdown(self) -> None:
        """Stop the fan-out pool (store close)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _apply_shard_groups(self, shard_order, apply_shard):
        """Run ``put_many``'s per-shard apply tasks with mode-appropriate
        failure semantics.

        Sequential mode is fail-stop, like applying the batch by hand: the
        first failing shard ends the walk and later shards are never
        reached (the sharded-recovery suite relies on this).  Parallel mode
        has no ordering to stop on — every shard's task runs; the caller
        records what landed everywhere and re-raises the first error.
        Either way each task *settles* (returns its error, last in its
        outcome, rather than raising) so the caller's bookkeeping always
        covers committed work.
        """
        if self._executor is None or len(shard_order) <= 1:
            parent = trace.current_id()
            results = []
            for index in shard_order:
                results.append(
                    self._scatter_task(
                        lambda index=index: apply_shard(index), parent, "put_many", index
                    )()
                )
                if results[-1][-1] is not None:
                    break
            return results
        return self._gather(
            [lambda index=index: apply_shard(index) for index in shard_order],
            label="put_many",
            indices=shard_order,
        )

    @property
    def backend(self):
        raise VersionStoreError(
            "a sharded store has no single backend; iterate "
            "ShardedVersionStore.shard_stores for the per-shard backends"
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_index(self, key: Key) -> int:
        """The shard whose half-open key range contains ``key``."""
        return bisect_right(self.boundaries, key)

    def shard_range(self, index: int) -> Tuple[Optional[Key], Optional[Key]]:
        """Shard ``index``'s ``[low, high)`` range (None = unbounded)."""
        low = self.boundaries[index - 1] if index > 0 else None
        high = self.boundaries[index] if index < len(self.boundaries) else None
        return low, high

    def _store_for(self, key: Key) -> VersionStore:
        return self.stores[self.shard_index(key)]

    def _stamp(self, timestamp: Optional[int]) -> int:
        now = self.now
        if timestamp is None:
            return now + 1
        if timestamp < now:
            raise VersionStoreError(
                f"timestamp {timestamp} precedes the latest committed "
                f"timestamp {now}; a sharded store stamps in global "
                "commit order, like every single-store engine"
            )
        return timestamp

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def insert(self, key: Key, value: bytes, timestamp: Optional[int] = None) -> int:
        return self._write_one(key, value, timestamp)

    def delete(self, key: Key, timestamp: Optional[int] = None) -> int:
        self.require(Capability.DELETE)
        return self._write_one(key, None, timestamp)

    def _write_one(self, key: Key, value: Optional[bytes], timestamp: Optional[int]) -> int:
        timestamp = self._stamp(timestamp)
        index = self.shard_index(key)
        self.stores[index]._write([(key, value)], timestamp)
        self._dirty.add(index)
        return timestamp

    def put_many(self, items: Sequence[Tuple[Key, bytes]]) -> PutManyReport:
        """Group a batch per shard, then apply each shard's group in one go.

        Every stamp is assigned here, up front, from the global clock.
        Without a WAL every item keeps its own timestamp, in input order —
        byte-identical answers to the same items inserted one by one.  With a
        WAL each distinct-key run of a shard's group (the shared batching
        rule of :func:`distinct_key_run_end`: a repeated key starts a new
        transaction so no version is silently collapsed) commits as one
        logged transaction, and shard i's runs get the contiguous block of
        stamps after shard i-1's — exactly the stamps the sequential walk
        produces, so the shard groups can be applied concurrently without
        perturbing the global commit history.
        """
        items = list(items)
        if not items:
            return PutManyReport()
        groups: Dict[int, List[Tuple[int, Key, bytes]]] = {}
        for position, (key, value) in enumerate(items):
            groups.setdefault(self.shard_index(key), []).append((position, key, value))
        shard_order = sorted(groups)

        timestamps: List[int] = [0] * len(items)
        #: Per shard, the ``(start, end)`` slices of its group that are one
        #: commit each; every item of a slice carries the slice's stamp.
        runs_per_shard: Dict[int, List[Tuple[int, int]]] = {}
        wal = self.inner_config.wal
        first_stamp = self.now + 1
        commits = 0
        for index in shard_order:
            group = groups[index]
            runs = runs_per_shard[index] = []
            start = 0
            while start < len(group):
                if wal:  # a distinct-key run at the next stamp of the block
                    end = distinct_key_run_end(group, start, key_of=itemgetter(1))
                    stamp = first_stamp + commits
                    commits += 1
                else:  # one item at the stamp of its input position
                    end = start + 1
                    stamp = first_stamp + group[start][0]
                for position, _, _ in group[start:end]:
                    timestamps[position] = stamp
                runs.append((start, end))
                start = end

        def apply_shard(index: int) -> Tuple[int, Optional[bool], Optional[Exception]]:
            """Apply one shard's runs; on failure return how many items
            *did* land (and whether their commits are forced) plus the error,
            so the caller's bookkeeping can record every committed write
            before re-raising."""
            store = self.stores[index]
            group = groups[index]
            landed = 0
            durable: Optional[bool] = None
            try:
                for start, end in runs_per_shard[index]:
                    _, forced = store._write(
                        [(key, value) for _, key, value in group[start:end]],
                        timestamps[group[start][0]],
                    )
                    durable = forced if durable is None else durable and forced
                    landed = end
            except Exception as exc:  # noqa: BLE001 - re-raised after bookkeeping
                return landed, durable, exc
            return landed, durable, None

        results = self._apply_shard_groups(shard_order, apply_shard)
        batches: List[ShardBatch] = []
        first_error: Optional[Exception] = None
        for index, (landed, durable, error) in zip(shard_order, results):
            done = groups[index][:landed]
            if done:
                batches.append(
                    ShardBatch(
                        shard=index,
                        keys=tuple(key for _, key, _ in done),
                        timestamps=tuple(timestamps[position] for position, _, _ in done),
                        durable=durable,
                    )
                )
                self._dirty.add(index)
            if error is not None and first_error is None:
                first_error = error
        if first_error is not None:
            # Every committed run above is recorded (reported, its shard
            # marked for a split check) even though the batch failed partway.
            raise first_error
        return PutManyReport(timestamps=timestamps, batches=batches)

    def import_events(self, events: Sequence[VersionEvent]) -> int:
        """Hand each shard its own events, in order, as one list: the events
        of one source commit that land on one shard stay one commit there
        (:meth:`VersionStore.import_events`).  An event that is not already
        present must respect global commit order, like any stamped write."""
        per_shard: Dict[int, List[VersionEvent]] = {}
        now = self.now
        for event in events:
            timestamp, key = event[0], event[1]
            index = self.shard_index(key)
            if timestamp < now and not self.stores[index].engine.has_version_at(key, timestamp):
                self._stamp(timestamp)  # raises: the global clock is past it
            per_shard.setdefault(index, []).append(event)
        self._dirty.update(per_shard)
        return sum(
            self.stores[index].import_events(per_shard[index]) for index in sorted(per_shard)
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: Key) -> Optional[RecordView]:
        return self._store_for(key).engine.get(key)

    def get_as_of(self, key: Key, timestamp: int) -> Optional[RecordView]:
        return self._store_for(key).engine.get_as_of(key, timestamp)

    def _shards_overlapping(self, low: Optional[Key], high: Optional[Key]) -> range:
        """The shards whose key range meets ``[low, high)`` — the only ones a
        bounded scatter read asks."""
        first = 0 if low is None else self.shard_index(low)
        # bisect_left for the exclusive high bound: when high sits exactly
        # on a shard boundary, the shard starting at high can never match.
        last = len(self.boundaries) if high is None else bisect_left(self.boundaries, high)
        return range(first, last + 1)

    def _scatter(self, label: str, shards: Sequence[int], *args) -> list:
        """``engine.<label>(*args)`` of each of ``shards``, in shard order —
        so per-shard key-sorted answers concatenate key-sorted."""
        return self._gather(
            [
                lambda store=self.stores[index]: getattr(store.engine, label)(*args)
                for index in shards
            ],
            label=label,
            indices=shards,
        )

    def range_search(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        as_of: Optional[int] = None,
    ) -> List[RecordView]:
        per_shard = self._scatter(
            "range_search", self._shards_overlapping(low, high), low, high, as_of
        )
        merge_started = perf_counter()
        results: List[RecordView] = []
        for rows in per_shard:
            results.extend(rows)
        self._record_merge(merge_started)
        return results

    def _merged(self, per_shard: Sequence[dict]) -> dict:
        merge_started = perf_counter()
        merged: dict = {}
        for piece in per_shard:
            merged.update(piece)
        self._record_merge(merge_started)
        return merged

    def snapshot(self, timestamp: int) -> Dict[Key, RecordView]:
        return self._merged(self._scatter("snapshot", range(len(self.stores)), timestamp))

    def time_slice(
        self,
        start: int,
        end: int,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
    ) -> Dict[Key, List[RecordView]]:
        shards = self._shards_overlapping(low, high)
        return self._merged(self._scatter("time_slice", shards, start, end, low, high))

    def keys(self, low: Optional[Key] = None, high: Optional[Key] = None) -> List[Key]:
        return [
            key
            for index in self._shards_overlapping(low, high)
            for key in self.stores[index].engine.keys(low, high)
        ]

    def key_history(self, key: Key) -> List[RecordView]:
        return self._store_for(key).engine.key_history(key)

    def history_between(self, key: Key, start: int, end: int) -> List[RecordView]:
        return self._store_for(key).engine.history_between(key, start, end)

    def has_version_at(self, key: Key, timestamp: int) -> bool:
        return self._store_for(key).engine.has_version_at(key, timestamp)

    # ------------------------------------------------------------------
    # Clock / accounting
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """The newest commit any shard holds: every stamp is drawn past it."""
        return max(store.now for store in self.stores)

    def space_summary(self) -> Dict[str, float]:
        return merge_space_summaries(
            self._gather(
                [lambda store=store: store.space_summary() for store in self.stores]
            )
        )

    def io_summary(self) -> Dict[str, IOStats]:
        """Aggregated per-tier counters, summed across shards.

        Unlike a single store's ``io_summary`` (live, mutating counter
        objects), the aggregate is a snapshot computed per call; diff two
        calls to measure a query's cost.
        """
        return merge_io_summaries(
            self._gather(
                [lambda store=store: store.io_summary() for store in self.stores]
            )
        )

    def tree_counters(self) -> TreeCounters:
        """Structural-event counters rolled up across TSB-tree shards."""
        return merge_tree_counters(
            store.backend.counters
            for store in self.stores
            if isinstance(store.backend, TSBTree)
        )

    def drop_cache(self, capacity: Optional[int] = None) -> None:
        """Drop every shard's cache.

        ``None`` preserves each shard's configured
        :attr:`~repro.api.store.StoreConfig.cache_pages` capacity (the old
        hard-coded default silently shrank every shard to 8 frames); pass an
        explicit capacity to resize, as the cold-cache studies do.
        """
        for store in self.stores:
            store.engine.drop_cache(capacity)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        self.require(Capability.FLUSH)
        for store in self.stores:
            store.flush()

    def checkpoint(self) -> None:
        self.require(Capability.CHECKPOINT)
        for store in self.stores:
            store.checkpoint()

    # ------------------------------------------------------------------
    # Shard splitting
    # ------------------------------------------------------------------
    def utilization(self, index: int) -> float:
        """Shard ``index``'s current-device pages over its page budget."""
        return self._current_device_pages(self.stores[index]) / self.spec.shard_page_budget

    @staticmethod
    def _current_device_pages(store: VersionStore) -> int:
        backend = store.backend
        if isinstance(backend, TSBTree):
            return backend.magnetic.allocated_pages
        if hasattr(backend, "tree"):  # naive index wraps a magnetic B+-tree
            return backend.tree.magnetic.allocated_pages
        # WOBT: everything is "current" on the write-once device.  One node
        # extent spans node_sectors sectors; count extents so the page
        # budget means roughly the same data volume on every engine.
        sectors = getattr(backend.worm, "sectors_burned", 0)
        return sectors // max(1, backend.node_sectors)

    def maybe_split(self) -> int:
        """Split any written-to shard whose utilization crossed the threshold.

        Returns how many splits were performed.  Newly created halves are
        re-checked, so one call converges even when a batch landed entirely
        in one range (bounded by ``ShardSpec.max_shards``).
        """
        worklist = sorted(self._dirty)
        self._dirty.clear()
        performed = 0
        while worklist:
            index = worklist.pop()
            if len(self.stores) >= self.spec.max_shards:
                break
            if self.utilization(index) < self.spec.split_utilization:
                continue
            if self._split_shard(index):
                performed += 1
                # Shifted positions: everything right of `index` moved by
                # one; re-examine both halves of the split.
                worklist = [i if i < index else i + 1 for i in worklist]
                worklist.extend([index, index + 1])
                worklist.sort()
        return performed

    def _split_shard(self, index: int) -> bool:
        """Export the shard, land each half in a fresh store through the one
        write path — under a WAL each half's log then holds its whole
        history, from LSN 1."""
        old = self.stores[index]
        keys = old.engine.keys()
        if len(keys) < 2:
            return False  # nothing to partition
        median = keys[len(keys) // 2]
        low, high = self.shard_range(index)
        if (low is not None and not low < median) or (
            high is not None and not median < high
        ):
            return False
        left = VersionStore.open(self.inner_config)
        right = VersionStore.open(self.inner_config)
        events = self.export_events(index)
        left.import_events([event for event in events if event[1] < median])
        right.import_events([event for event in events if not event[1] < median])
        if self.inner_config.wal:
            left.checkpoint()
            right.checkpoint()
        old.close()
        self.stores[index : index + 1] = [left, right]
        self.boundaries.insert(index, median)
        self.splits_performed += 1
        return True

    def export_events(
        self, index: int, low: Optional[Key] = None, high: Optional[Key] = None
    ) -> List[VersionEvent]:
        """Every committed version shard ``index`` holds of the keys in
        ``[low, high)``, as time-ordered ``(timestamp, key, tombstone, value)``.

        The one way a key range's history leaves a store (a shard split, an
        online migration); :meth:`VersionStore.import_events` is the one way
        it arrives.  One walk of the shard's structure — the engine's
        :meth:`~repro.api.engine.VersionedEngine.export_range`: tombstones
        are kept, provisional versions are not.  The caller holds the
        store's latch.
        """
        return self.stores[index].engine.export_range(low, high)


class ShardedVersionStore(VersionStore):
    """A :class:`VersionStore` whose engine scatter-gathers over key ranges.

    Inherits the whole façade surface — normalized reads, read views, the
    one-version-per-(key, timestamp) guard, space/I-O accounting, the
    reader-writer latch — and adds batched :meth:`put_many`, automatic shard
    splitting after writes (inline by default, or on the opt-in background
    maintenance thread when ``ShardSpec.maintenance_interval > 0``), and
    shard introspection.  Cross-shard transactions are not coordinated:
    :meth:`begin` raises :exc:`~repro.api.engine.CapabilityError` like any
    other unsupported capability.
    """

    def __init__(self, engine: ShardedEngine, config: StoreConfig) -> None:
        super().__init__(engine, config)
        engine.metrics = self.metrics  # fan-out/merge metrics land on the façade
        self._maintenance_stop = threading.Event()
        self._maintenance_thread: Optional[threading.Thread] = None
        #: Once maintenance is opted into, split checks never return to the
        #: write hot path — a stopped thread leaves them to run_maintenance().
        self._splits_deferred = engine.spec.maintenance_interval > 0
        if engine.spec.maintenance_interval > 0:
            self.start_maintenance(engine.spec.maintenance_interval)

    @classmethod
    def open_sharded(cls, config: StoreConfig) -> "ShardedVersionStore":
        """Open one inner store per shard range described by ``config``."""
        spec = config.shards
        if spec is None:
            raise VersionStoreError("StoreConfig.shards is required for a sharded store")
        inner_config = replace(config, shards=None)
        boundaries = list(spec.boundaries or ())
        stores = [VersionStore.open(inner_config) for _ in range(len(boundaries) + 1)]
        return cls(ShardedEngine(stores, boundaries, spec, inner_config), config)

    @classmethod
    def resume_sharded(
        cls,
        config: StoreConfig,
        *,
        shard_devices: Sequence[Tuple[object, object, Optional[LogDevice]]],
        boundaries: Sequence[Key],
    ) -> "ShardedVersionStore":
        """Reopen a previously closed sharded store on its own devices.

        ``shard_devices`` is one ``(magnetic, historical, log device or
        None)`` triple per shard — what a closed store's shards left behind,
        each pair holding a checkpointed TSB-tree image (only the ``tsb``
        inner engine persists a resumable root, so only it can be resumed)
        and each log the WAL that shard goes on writing.  ``boundaries`` is
        the key-range layout *at close time* (splits may have grown it past
        the original :class:`~repro.api.store.ShardSpec`).  That is all a
        sharded store is: a shard's keys are what its tree holds.  The
        server's tenant registry snapshots both when it closes a tenant,
        precisely so a reopen reuses the tenant's devices instead of
        formatting fresh ones.
        """
        spec = config.shards
        if spec is None:
            raise VersionStoreError("StoreConfig.shards is required for a sharded store")
        inner_config = replace(config, shards=None)
        if inner_config.engine != "tsb":
            raise VersionStoreError(
                f"engine {inner_config.engine!r} cannot be resumed from devices; "
                "only the TSB-tree persists a checkpointed root"
            )
        if len(shard_devices) != len(boundaries) + 1:
            raise VersionStoreError(
                f"{len(shard_devices)} shards' devices need exactly "
                f"{len(shard_devices) - 1} boundaries"
            )
        stores = [
            VersionStore.open(
                inner_config, magnetic=magnetic, historical=historical, log_device=log_device
            )
            for magnetic, historical, log_device in shard_devices
        ]
        return cls(ShardedEngine(stores, list(boundaries), spec, inner_config), config)

    # ------------------------------------------------------------------
    # Shard introspection
    # ------------------------------------------------------------------
    @property
    def sharded_engine(self) -> ShardedEngine:
        return self._engine  # type: ignore[return-value]

    @property
    def shard_count(self) -> int:
        return len(self.sharded_engine.stores)

    @property
    def shard_stores(self) -> List[VersionStore]:
        """The inner stores, ordered by key range."""
        return list(self.sharded_engine.stores)

    def shard_for(self, key: Key) -> int:
        return self.sharded_engine.shard_index(key)

    def tree_counters(self) -> TreeCounters:
        """Merged :class:`TreeCounters` across all TSB-tree shards."""
        return self.sharded_engine.tree_counters()

    def durable_lsns(self) -> List[int]:
        """Per-shard durable LSNs (``0`` for shards without a WAL).

        Each shard logs independently, so a replication subscriber resumes
        per shard — ``SUBSCRIBE(shard, from_lsn=durable_lsns()[shard])``.
        """
        return [store.durable_lsn() for store in self.sharded_engine.stores]

    def durable_lsn(self) -> int:
        """The *replicated-prefix* durable LSN: the minimum across shards.

        Every shard has forced at least this LSN, so a subscriber set that
        has acknowledged it holds a durable prefix of every shard's log.
        """
        lsns = self.durable_lsns()
        return min(lsns) if lsns else 0

    def watermark(self) -> Tuple[int, int]:
        """``(durable_lsn, timestamp)``: the replicated-prefix LSN and the
        store clock.  Every commit is applied locally the instant it is
        stamped, so the primary's watermark timestamp is simply ``now`` —
        a shard that has seen no writes imposes no bound (there is nothing
        of it to wait for)."""
        return self.durable_lsn(), self.now

    def describe_shards(self) -> List[Dict[str, object]]:
        """One row per shard: key range, keys ever written (tombstoned keys
        included — they still occupy history), pages, local clock."""
        with self._latch.read():
            self._ensure_open()
            return self._describe_shards_locked()

    def _describe_shards_locked(self) -> List[Dict[str, object]]:
        engine = self.sharded_engine
        rows: List[Dict[str, object]] = []
        for index, store in enumerate(engine.stores):
            low, high = engine.shard_range(index)
            low_text = "-inf" if low is None else repr(low)
            high_text = "+inf" if high is None else repr(high)
            rows.append(
                {
                    "shard": index,
                    "range": f"[{low_text}, {high_text})",
                    "keys_written": len(store.engine.keys()),
                    "current_pages": engine._current_device_pages(store),
                    "utilization": round(engine.utilization(index), 4),
                    "now": store.now,
                    "durable_lsn": store.durable_lsn(),
                }
            )
        return rows

    def metrics_snapshot(self) -> Dict[str, object]:
        """Aggregated observability across the façade and every shard.

        ``metrics`` merges the façade registry (op timers, scatter fan-out
        and merge times, latch contention) with every shard's registry;
        ``per_shard`` keeps each shard's own op/scatter latency percentiles
        so skew between shards stays visible; ``locks`` lists each
        transactional shard's lock-manager state.
        """
        with self._latch.read():
            self._ensure_open()
            engine = self.sharded_engine
            stores = engine.stores
            aggregate = MetricsRegistry.aggregate(
                [self.metrics] + [store.metrics for store in stores],
                name=self._engine.name,
            )
            snapshot: Dict[str, object] = {
                "engine": self._engine.name,
                "shards": len(stores),
                "metrics": aggregate.snapshot(),
                "io": {
                    tier: stats.as_dict()
                    for tier, stats in engine.io_summary().items()
                },
            }
            hits = misses = evictions = flushes = 0
            cached = False
            for store in stores:
                cache = store._page_cache()
                if cache is None:
                    continue
                cached = True
                stats = cache.stats
                hits += stats.hits
                misses += stats.misses
                evictions += stats.evictions
                flushes += stats.flushes
            if cached:
                accesses = hits + misses
                snapshot["cache"] = {
                    "hits": hits,
                    "misses": misses,
                    "evictions": evictions,
                    "flushes": flushes,
                    "accesses": accesses,
                    "hit_ratio": round(hits / accesses, 4) if accesses else 1.0,
                }
            locks = [
                {"shard": index, **store.txns.locks.debug_state()}
                for index, store in enumerate(stores)
                if store.txns is not None
            ]
            if locks:
                snapshot["locks"] = locks
            per_shard: List[Dict[str, object]] = []
            for index, store in enumerate(stores):
                low, high = engine.shard_range(index)
                low_text = "-inf" if low is None else repr(low)
                high_text = "+inf" if high is None else repr(high)
                ops: Dict[str, Dict[str, float]] = {}
                for name, histogram in sorted(store.metrics.histograms().items()):
                    if not name.startswith(("op.", "shard.")):
                        continue
                    hist = histogram.snapshot()
                    if hist["count"]:
                        ops[name] = {
                            "count": hist["count"],
                            "p50": hist["p50"],
                            "p95": hist["p95"],
                            "p99": hist["p99"],
                        }
                per_shard.append(
                    {
                        "shard": index,
                        "range": f"[{low_text}, {high_text})",
                        "now": store.now,
                        "durable_lsn": store.durable_lsn(),
                        "ops": ops,
                    }
                )
            snapshot["per_shard"] = per_shard
            return snapshot

    # ------------------------------------------------------------------
    # Writes (split check after every write, unless maintenance owns it)
    # ------------------------------------------------------------------
    def _split_check(self) -> None:
        if not self._splits_deferred:
            self.sharded_engine.maybe_split()

    def _write(self, writes, timestamp=None):
        """``insert`` and ``delete``: the façade's write path over the
        sharded engine, which hands the write to its shard's own."""
        with self._latch.write():
            result = super()._write(writes, timestamp)
            self._split_check()
        return result

    def import_events(self, events: Sequence[VersionEvent]) -> int:
        with self._latch.write():
            self._ensure_open()
            imported = self.sharded_engine.import_events(events)
            self._split_check()
        return imported

    def put_many(self, items: Sequence[Tuple[Key, bytes]]) -> List[int]:
        return self.put_many_detailed(items).timestamps

    def put_many_detailed(self, items: Sequence[Tuple[Key, bytes]]) -> PutManyReport:
        """Like :meth:`put_many` but returns the per-shard batch report."""
        with self.metrics.timer("op.put_many"), trace.span(
            "store.put_many", items=len(items)
        ), self._latch.write():
            self._ensure_open()
            report = self.sharded_engine.put_many(items)
            self._split_check()
        return report

    # ------------------------------------------------------------------
    # Background maintenance (opt-in: ShardSpec.maintenance_interval > 0)
    # ------------------------------------------------------------------
    def start_maintenance(self, interval: float) -> None:
        """Move shard-split checks to a daemon thread waking every ``interval`` s."""
        if interval <= 0:
            raise VersionStoreError("maintenance interval must be positive")
        self._splits_deferred = True
        if self._maintenance_thread is not None:
            return
        self._maintenance_stop.clear()

        def loop() -> None:
            while not self._maintenance_stop.wait(interval):
                if self._closed:
                    return
                self.run_maintenance()

        self._maintenance_thread = threading.Thread(
            target=loop, name="shard-maintenance", daemon=True
        )
        self._maintenance_thread.start()

    def stop_maintenance(self) -> None:
        """Stop the maintenance thread.

        Split checks do *not* return to the write path: a store that opted
        into background maintenance keeps its hot path split-free, and an
        operator who stopped the thread drives splits via
        :meth:`run_maintenance`.
        """
        thread = self._maintenance_thread
        if thread is None:
            return
        self._maintenance_stop.set()
        thread.join(timeout=5.0)
        self._maintenance_thread = None

    def run_maintenance(self) -> int:
        """One split pass, under the write latch; returns splits performed.

        The maintenance thread calls this on its schedule; tests and
        operators can call it directly for a deterministic pass.
        """
        if self._closed:
            return 0
        with self._latch.write():
            if self._closed:
                return 0
            return self.sharded_engine.maybe_split()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        self._ensure_open()
        with self._latch.write():
            self.sharded_engine.checkpoint()

    def close(self) -> None:
        """Close every shard (each flushes/checkpoints per its own config)."""
        if self._closed:
            return
        self.stop_maintenance()
        with self._latch.write():
            for store in self.sharded_engine.stores:
                store.close()
            self.metrics.retire()
            self._closed = True
        self.sharded_engine.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"now={self._engine.now}"
        return (
            f"ShardedVersionStore(engine={self._engine.name!r}, "
            f"shards={self.shard_count}, {state})"
        )
