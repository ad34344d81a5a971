"""The :class:`VersionStore` façade: one front door for every engine.

A store is described declaratively by :class:`StoreConfig` (engine name,
split policy, page size, device tier, cache size, WAL on/off) and opened
with :meth:`VersionStore.open`.  The façade wires together the storage
devices, the chosen engine and — for the TSB-tree — the transaction and log
managers, and exposes:

* the uniform read/write surface of :class:`~repro.api.engine.VersionedEngine`
  (normalized :class:`~repro.api.engine.RecordView` answers);
* context-manager transactions (:meth:`VersionStore.begin`);
* immutable :class:`ReadView` handles pinned to a timestamp;
* an ``open()/close()`` lifecycle that subsumes the old
  ``TSBTree.checkpoint()/TSBTree.open()`` dance: closing checkpoints the
  engine, and opening over previously-written devices resumes from the last
  checkpoint.

Example::

    from repro import StoreConfig, VersionStore

    with VersionStore.open(StoreConfig(engine="tsb", page_size=1024)) as store:
        store.insert("alice", b"balance=50", timestamp=1)
        store.insert("alice", b"balance=90", timestamp=5)
        store.get("alice").value                  # b"balance=90"
        store.get_as_of("alice", 3).value         # b"balance=50"

Swapping ``engine="tsb"`` for ``"wobt"`` or ``"naive"`` runs the same code
against a different access method.

The write path
--------------
Every façade mutation — ``insert`` and ``delete`` (auto-stamped or at the
caller's timestamp), each distinct-key run of ``put_many``, each group of
same-timestamp events of ``import_events``, and through those a sharded
store's writes, a shard split and a migrated range — reaches the engine
through one function, :meth:`VersionStore._write`: ``(key, value)`` pairs
over distinct keys (``None`` a tombstone) committed together, at an explicit
stamp or the clock's next.  Whether the store has a log picks its branch:

* **with a log**, one logged transaction (:meth:`TransactionManager.
  run_transaction <repro.txn.manager.TransactionManager.run_transaction>`):
  record locks, then one exclusive latch hold in which the stamp is drawn
  and each key is logged and written as a *committed* version at it — one
  descent per key, because a writer that knows its commit stamp has no use
  for the paper's provisional versions (section 4 gives them to the
  interactive ``begin()``/``write()``/``commit()``, which does not know it)
  — then the commit record.  Acknowledged means the commit record is in the
  log, forced per ``group_commit_size``; restart recovery, followers and a
  promoted replica replay it the same way, at the logged stamp
  (:mod:`repro.recovery.replay`).
* **without one**, the engine is written directly under the store's
  exclusive latch — one descent per write, not two — durable at the next
  ``checkpoint()``.

*One clock.*  A TSB store's commit clock is its transaction manager's
:class:`~repro.txn.clock.TimestampOracle`: the logged branch draws from it
(or moves it up to the explicit stamp) and the direct branch moves it up to
what the engine stamped, so transactions and façade writes share a timeline.
*Locks before the latch.*  The logged branch takes the latch only once it
holds every record lock, and the checks that need a quiescent store (still
open; one version per ``(key, timestamp)``) run inside that latch hold, not
around it — a façade write to a key an open transaction holds waits for the
commit without holding the tree hostage.

The read path
-------------
Every read is the paper's one search rule — ignore what was stamped after
``T``, take the last entry before it — over a rectangle of the key x time
plane, under the latch held shared.  A point read is one descent.  Every
multi-key read of a TSB store is one of two walks of the tree
(:mod:`repro.core.tsb_tree`): the *as-of walk* (``range_search``,
``snapshot``, ``keys``; each node answers for the keys it owns at that time,
nothing is de-duplicated) and the *history gather* (``key_history``,
``history_between``, ``time_slice``, ``export_range``; a version a time split
copied is de-duplicated by identity).  Above the backends one adapter base
(:mod:`repro.api.adapters`) states the reads once and normalizes records to
:class:`~repro.api.engine.RecordView`; a sharded store asks only the shards
a bounded read overlaps.  :class:`ReadView` is the one pinned-read handle:
``read_view(as_of)`` pins any engine at any time, ``begin_readonly()`` pins a
TSB store at its commit clock — the paper's read-only transaction (section
4.1), which takes no record lock because a reader in the past conflicts with
nothing.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.api.adapters import (
    ENGINE_NAMES,
    NaiveEngine,
    TSBEngine,
    VersionedEngine,
    WOBTEngine,
)
from repro.api.engine import Capability, RecordView, VersionEvent, VersionStoreError
from repro.baselines.naive_multiversion import NaiveMultiversionIndex
from repro.core.policy import (
    AlwaysKeySplitPolicy,
    AlwaysTimeSplitPolicy,
    CostDrivenPolicy,
    SplitPolicy,
    ThresholdPolicy,
    WOBTEmulationPolicy,
)
from repro.core.tsb_tree import _SUPERBLOCK_MAGIC, TSBTree
from repro.obs import trace
from repro.obs.registry import MetricsRegistry
from repro.recovery.log_manager import LogManager
from repro.recovery.recovery_manager import RecoveryManager
from repro.recovery.replay import LogReplayer
from repro.storage.device import Address, StorageError
from repro.storage.iostats import IOStats
from repro.storage.latches import ReadWriteLatch
from repro.storage.logdevice import LogDevice
from repro.storage.magnetic import MagneticDisk
from repro.storage.optical_library import OpticalLibrary
from repro.storage.serialization import ByteReader, Key
from repro.storage.worm import WormDisk
from repro.wobt.wobt_tree import WOBT
from repro.txn.clock import TimestampOracle
from repro.txn.manager import Transaction, TransactionManager


class StoreClosedError(VersionStoreError):
    """An operation was attempted on a closed :class:`VersionStore`."""


def resolve_policy(spec: Union[None, str, SplitPolicy]) -> Optional[SplitPolicy]:
    """Turn a declarative policy spec into a :class:`SplitPolicy`.

    Accepts ``None`` (engine default), an already-built policy object, or a
    string of the form ``"name"`` / ``"name:arg"``: ``threshold:0.5``,
    ``always-key``, ``always-time:last_update``, ``cost``, ``wobt``.
    """
    if spec is None or isinstance(spec, SplitPolicy):
        return spec
    name, _, argument = str(spec).partition(":")
    name = name.strip().lower()
    argument = argument.strip()
    if name == "threshold":
        return ThresholdPolicy(float(argument)) if argument else ThresholdPolicy()
    if name in {"always-key", "key"}:
        return AlwaysKeySplitPolicy()
    if name in {"always-time", "time"}:
        return AlwaysTimeSplitPolicy(argument or "current")
    if name in {"cost", "cost-driven"}:
        return CostDrivenPolicy()
    if name in {"wobt", "wobt-emulation"}:
        return WOBTEmulationPolicy()
    raise ValueError(f"unknown split policy spec {spec!r}")


def distinct_key_run_end(items: Sequence, start: int, key_of=lambda item: item[0]) -> int:
    """End (exclusive) of the longest run from ``start`` with no repeated key.

    The transactional batching rule shared by ``VersionStore.put_many`` and
    the sharded store's per-shard groups: a transaction's write set keeps
    one value per key, so a batch must start a new transaction at the first
    repeated key or earlier duplicate-key versions would silently collapse.
    """
    seen = set()
    end = start
    while end < len(items):
        key = key_of(items[end])
        if key in seen:
            break
        seen.add(key)
        end += 1
    return end


@dataclass(frozen=True)
class ShardSpec:
    """Declarative description of a key-range partitioning.

    A :class:`StoreConfig` carrying a ``ShardSpec`` opens as a
    :class:`~repro.api.sharded.ShardedVersionStore`: ``len(boundaries) + 1``
    inner stores, shard ``i`` owning the half-open key range
    ``[boundaries[i-1], boundaries[i])`` (the first and last ranges are
    unbounded below and above).  Boundaries must be strictly increasing and
    mutually comparable with every key the store will ever see.

    Parameters
    ----------
    boundaries:
        The split keys.  ``None`` (with ``shards == 1``) means a single
        shard owning the whole key space; it can still grow by splitting.
    shards:
        Initial shard count; redundant when ``boundaries`` is given (it is
        validated against ``len(boundaries) + 1``).
    split_utilization:
        When a shard's current-device utilization (allocated pages over
        ``shard_page_budget``) crosses this fraction, the shard is split at
        its median key into two shards — the scale-out analogue of the
        TSB-tree's own node splits.
    shard_page_budget:
        Current-device pages one shard is budgeted to hold; the denominator
        of the utilization test.
    max_shards:
        Hard ceiling on automatic splitting.
    scatter_threads:
        Size of the :class:`~concurrent.futures.ThreadPoolExecutor` the
        sharded engine fans scatter-gather queries and ``put_many`` groups
        out on.  ``1`` (the default) keeps every fan-out sequential.
    maintenance_interval:
        Seconds between background shard-split checks.  ``0.0`` (the
        default) keeps splits inline after each write; a positive value
        moves them to an opt-in maintenance thread so the write hot path
        never pays for a split.
    """

    boundaries: Optional[Tuple[Key, ...]] = None
    shards: int = 1
    split_utilization: float = 0.85
    shard_page_budget: int = 4096
    max_shards: int = 64
    scatter_threads: int = 1
    maintenance_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.boundaries is not None:
            boundaries = tuple(self.boundaries)
            object.__setattr__(self, "boundaries", boundaries)
            for left, right in zip(boundaries, boundaries[1:]):
                if not left < right:
                    raise ValueError("shard boundaries must be strictly increasing")
            expected = len(boundaries) + 1
            if self.shards not in (1, expected):
                raise ValueError(
                    f"shards={self.shards} disagrees with {len(boundaries)} "
                    f"boundaries (which imply {expected} shards)"
                )
            object.__setattr__(self, "shards", expected)
        elif self.shards != 1:
            raise ValueError(
                "shards > 1 needs explicit boundaries; build them with "
                "ShardSpec.for_int_keys / ShardSpec.for_string_keys"
            )
        if self.shards < 1:
            raise ValueError("a sharded store needs at least one shard")
        if not 0.0 < self.split_utilization <= 1.0:
            raise ValueError("split_utilization must lie in (0, 1]")
        if self.shard_page_budget < 1:
            raise ValueError("shard_page_budget must be positive")
        if self.max_shards < self.shards:
            raise ValueError("max_shards must be at least the initial shard count")
        if self.scatter_threads < 1:
            raise ValueError("scatter_threads must be at least 1")
        if self.maintenance_interval < 0:
            raise ValueError("maintenance_interval cannot be negative")

    @classmethod
    def for_int_keys(cls, shards: int, key_space: int, **overrides) -> "ShardSpec":
        """Evenly partition the integer key domain ``[0, key_space)``."""
        if shards < 1:
            raise ValueError("shards must be positive")
        if shards == 1:
            return cls(**overrides)
        if key_space < shards:
            raise ValueError("key_space must be at least the shard count")
        boundaries = tuple(
            sorted({(index * key_space) // shards for index in range(1, shards)})
        )
        return cls(boundaries=boundaries, **overrides)

    @classmethod
    def for_string_keys(cls, shards: int, **overrides) -> "ShardSpec":
        """Evenly partition lowercase string keys by first letter."""
        if shards < 1:
            raise ValueError("shards must be positive")
        if shards == 1:
            return cls(**overrides)
        if shards > 26:
            raise ValueError("for_string_keys supports at most 26 shards")
        boundaries = tuple(
            sorted({chr(ord("a") + (index * 26) // shards) for index in range(1, shards)})
        )
        return cls(boundaries=boundaries, **overrides)


@dataclass(frozen=True)
class StoreConfig:
    """Declarative description of a :class:`VersionStore`.

    Parameters
    ----------
    engine:
        ``"tsb"`` (the Time-Split B-tree), ``"wobt"`` (Easton's Write-Once
        B-tree) or ``"naive"`` (every version in one magnetic B+-tree).
    page_size:
        Magnetic page / WORM sector size in bytes.
    split_policy:
        TSB-tree split policy: a :class:`~repro.core.policy.SplitPolicy`,
        a spec string (``"threshold:0.5"``), or ``None`` for the default.
        Only meaningful for the TSB-tree.
    node_sectors:
        Sectors reserved per WOBT node extent (WOBT only).
    cache_pages:
        Buffer-pool capacity over the magnetic device (tsb/naive).
    historical:
        Historical device tier for the TSB-tree: ``"worm"`` (single
        write-once platter) or ``"jukebox"`` (robot-served optical library).
    platter_capacity_sectors:
        Platter size when ``historical="jukebox"``.
    wal:
        Attach a write-ahead log and group commit (tsb only): transactions
        opened with :meth:`VersionStore.begin` are then logged before they
        touch the tree, and :meth:`VersionStore.close` takes a logged
        checkpoint.
    group_commit_size:
        Commit records per log force when ``wal=True``.
    group_commit_interval:
        ``0.0`` (the default) keeps group commit synchronous: the committer
        that fills a batch forces the log inline.  A positive value starts
        the :class:`~repro.recovery.log_manager.LogManager`'s background
        flusher thread with that batching window, so concurrent committers
        are batched by arrival rather than by any one caller; requires
        ``wal=True``.
    shards:
        A :class:`ShardSpec` to key-range-partition the store across several
        independent inner stores (each with its own devices, cache and WAL);
        ``VersionStore.open`` then returns a
        :class:`~repro.api.sharded.ShardedVersionStore`.
    """

    engine: str = "tsb"
    page_size: int = 1024
    split_policy: Union[None, str, SplitPolicy] = None
    node_sectors: int = 8
    cache_pages: int = 128
    historical: str = "worm"
    platter_capacity_sectors: int = 4096
    wal: bool = False
    group_commit_size: int = 1
    group_commit_interval: float = 0.0
    shards: Optional[ShardSpec] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose one of {', '.join(ENGINE_NAMES)}"
            )
        if self.page_size < 128:
            raise ValueError("page_size must be at least 128 bytes")
        if self.node_sectors < 2:
            raise ValueError("node_sectors must be at least 2")
        if self.cache_pages < 1:
            raise ValueError("cache_pages must be positive")
        if self.historical not in {"worm", "jukebox"}:
            raise ValueError("historical must be 'worm' or 'jukebox'")
        if self.group_commit_size < 1:
            raise ValueError("group_commit_size must be positive")
        if self.group_commit_interval < 0:
            raise ValueError("group_commit_interval cannot be negative")
        if self.group_commit_interval > 0 and not self.wal:
            raise ValueError("group_commit_interval requires wal=True")
        if self.wal and self.engine != "tsb":
            raise ValueError("wal=True requires the 'tsb' engine")
        if self.split_policy is not None and self.engine != "tsb":
            raise ValueError("split_policy only applies to the 'tsb' engine")
        # Engine-specific knobs left at their defaults are fine on any
        # engine; setting one the engine cannot honour is an error, not a
        # silently dropped wish.
        if self.engine != "tsb":
            if self.historical != "worm":
                raise ValueError("the historical tier only applies to the 'tsb' engine")
            if self.platter_capacity_sectors != 4096:
                raise ValueError("platter_capacity_sectors only applies to the 'tsb' engine")
        if self.engine != "wobt" and self.node_sectors != 8:
            raise ValueError("node_sectors only applies to the 'wobt' engine")
        if self.engine == "wobt" and self.cache_pages != 128:
            raise ValueError("cache_pages does not apply to the 'wobt' engine")
        if self.shards is not None and not isinstance(self.shards, ShardSpec):
            raise ValueError("shards must be a ShardSpec (or None)")
        resolve_policy(self.split_policy)  # fail fast on malformed specs

    def with_engine(self, engine: str) -> "StoreConfig":
        """This configuration pointed at a different engine.

        Drops the engine-specific knobs that do not transfer (split policy,
        WAL, device tier, sector/cache sizing), so one base config can fan
        out across the engine matrix.
        """
        if engine == self.engine:
            return self
        updates: dict = {"engine": engine}
        if engine != "tsb":
            updates.update(
                split_policy=None,
                wal=False,
                group_commit_interval=0.0,
                historical="worm",
                platter_capacity_sectors=4096,
            )
        if engine != "wobt":
            updates["node_sectors"] = 8
        else:
            updates["cache_pages"] = 128
        return replace(self, **updates)


@dataclass(frozen=True)
class ReadView:
    """An immutable read handle pinned to one timestamp.

    Every query through the view answers as of :attr:`timestamp`, no matter
    how many versions commit after the view was taken — the lock-free
    stable-snapshot guarantee of paper section 4, available on every engine
    because it only needs as-of reads.  A view taken from a
    :class:`VersionStore` dies with it: queries after ``store.close()``
    raise :exc:`StoreClosedError`, like every other read surface.
    """

    engine: VersionedEngine
    timestamp: int
    store: Optional["VersionStore"] = field(default=None, repr=False, compare=False)

    def _ensure_usable(self) -> None:
        if self.store is not None:
            self.store._ensure_open()

    def _shared(self):
        # Queries through a store-attached view hold the store's latch in
        # read mode, like every other read surface.
        return nullcontext() if self.store is None else self.store.read_latched()

    def get(self, key: Key) -> Optional[RecordView]:
        with self._shared():
            self._ensure_usable()
            return self.engine.get_as_of(key, self.timestamp)

    def range(
        self, low: Optional[Key] = None, high: Optional[Key] = None
    ) -> Iterator[RecordView]:
        with self._shared():
            self._ensure_usable()
            return iter(self.engine.range_search(low, high, as_of=self.timestamp))

    def snapshot(self) -> Dict[Key, RecordView]:
        with self._shared():
            self._ensure_usable()
            return self.engine.snapshot(self.timestamp)

    def history_between(self, key: Key, start: int) -> List[RecordView]:
        """Versions of ``key`` valid between ``start`` and this view's time."""
        with self._shared():
            self._ensure_usable()
            return self.engine.history_between(key, start, self.timestamp + 1)


class VersionStore:
    """Engine-agnostic façade over one versioned database.

    Construct with :meth:`open`; use as a context manager so :meth:`close`
    (flush + checkpoint, where the engine supports them) always runs.
    """

    def __init__(
        self,
        engine: VersionedEngine,
        config: StoreConfig,
        txns: Optional[TransactionManager] = None,
        log_manager: Optional[object] = None,
        log_device: Optional[LogDevice] = None,
        latch: Optional[ReadWriteLatch] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._engine = engine
        self._config = config
        self._txns = txns
        self._log = log_manager
        self._log_device = log_device
        self._closed = False
        #: What restart recovery found and did, when :meth:`open` was handed
        #: a log device to recover from; ``None`` otherwise.
        self.recovery_report = None
        #: Per-store metrics registry: every façade operation times itself
        #: into an ``op.<name>`` histogram here, and the latch / lock / WAL
        #: layers below record their contention into the same registry.
        self.metrics = metrics or MetricsRegistry(name=engine.name)
        #: The store's reader-writer latch: every query holds it shared,
        #: every write exclusive, so any number of client threads can read
        #: concurrently while writers are serialized.  The TSB transaction
        #: manager shares this very latch, so transactional writes and
        #: façade reads coordinate too.
        self._latch = latch or ReadWriteLatch(metrics=self.metrics)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        config: Optional[StoreConfig] = None,
        *,
        magnetic: Optional[MagneticDisk] = None,
        historical: Optional[object] = None,
        log_device: Optional[LogDevice] = None,
        **overrides,
    ) -> "VersionStore":
        """Open a store described by ``config`` (or keyword overrides).

        ``VersionStore.open(engine="wobt")`` is shorthand for
        ``VersionStore.open(StoreConfig(engine="wobt"))``.  For the TSB-tree,
        passing the ``magnetic`` and ``historical`` devices of a previously
        closed store resumes from its last checkpoint instead of formatting
        a fresh database.  A ``wal=True`` store handed back its
        ``log_device`` as well — closed *or crashed* — runs restart recovery
        first (:attr:`recovery_report` says what it did) and goes on writing
        that very log: LSNs, commit timestamps and transaction ids continue
        from what the durable log says.
        """
        if config is None:
            config = StoreConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)

        if config.shards is not None:
            from repro.api.sharded import ShardedVersionStore

            if magnetic is not None or historical is not None or log_device is not None:
                raise VersionStoreError(
                    "a sharded store owns one device pair (and log) per shard "
                    "and cannot be reopened from a single one"
                )
            return ShardedVersionStore.open_sharded(config)
        if log_device is not None and not config.wal:
            raise VersionStoreError("a log device needs wal=True to be written to")
        if config.engine == "tsb":
            return cls._open_tsb(config, magnetic, historical, log_device)
        if magnetic is not None or historical is not None:
            raise VersionStoreError(
                f"engine {config.engine!r} cannot be reopened from devices; "
                "only the TSB-tree persists a checkpointed root"
            )
        if config.engine == "wobt":
            wobt = WOBT(
                worm=WormDisk(sector_size=min(1024, config.page_size)),
                node_sectors=config.node_sectors,
            )
            return cls(WOBTEngine(wobt), config)
        index = NaiveMultiversionIndex(
            page_size=config.page_size, cache_pages=config.cache_pages
        )
        return cls(NaiveEngine(index), config)

    @classmethod
    def _open_tsb(
        cls,
        config: StoreConfig,
        magnetic: Optional[MagneticDisk],
        historical: Optional[object],
        log_device: Optional[LogDevice],
    ) -> "VersionStore":
        policy = resolve_policy(config.split_policy)
        resuming = magnetic is not None and cls._has_superblock(magnetic)
        if resuming and historical is None:
            # The checkpointed tree may hold pointers into its historical
            # tier; pairing it with a fabricated blank device would only
            # crash later, on the first query that follows such a pointer.
            raise VersionStoreError(
                "reopening from a checkpointed magnetic device requires the "
                "matching historical device"
            )
        if historical is None:
            historical = (
                OpticalLibrary(
                    sector_size=min(1024, config.page_size),
                    platter_capacity_sectors=config.platter_capacity_sectors,
                )
                if config.historical == "jukebox"
                else WormDisk(sector_size=min(1024, config.page_size))
            )
        recovered = None
        if resuming and log_device is not None:
            recovered = RecoveryManager(
                magnetic, historical, log_device, policy=policy, cache_pages=config.cache_pages
            ).recover()
            tree = recovered.tree
        elif resuming:
            tree = TSBTree.open(
                magnetic, historical, policy=policy, cache_pages=config.cache_pages
            )
        elif magnetic is not None and magnetic.allocated_pages:
            # The device holds data but no superblock on page 0: formatting a
            # fresh tree over it would silently discard whatever is there.
            raise VersionStoreError(
                "magnetic device holds data but no TSB-tree superblock on "
                "page 0; refusing to format over it"
            )
        elif log_device is not None and log_device.appended_bytes:
            raise VersionStoreError(
                "log device holds records but no checkpointed tree came with "
                "it; refusing to start a second history on the same log"
            )
        else:
            tree = TSBTree(
                page_size=config.page_size,
                policy=policy,
                magnetic=magnetic,
                historical=historical,
                cache_pages=config.cache_pages,
            )
        store = cls.over_tree(
            config, tree, log_device, replayed=recovered and recovered.replayer
        )
        store.recovery_report = recovered and recovered.report
        return store

    @classmethod
    def over_tree(
        cls,
        config: StoreConfig,
        tree: TSBTree,
        log_device: Optional[LogDevice] = None,
        *,
        replayed: Optional[LogReplayer] = None,
        latch: Optional[ReadWriteLatch] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "VersionStore":
        """Wire a live TSB-tree to its WAL and transaction manager.

        The one composition root of the transactional stack: a freshly
        formatted tree, one restart recovery just rebuilt, and a follower
        tree a promoting replica has finished applying all become a store
        here.  ``replayed`` is the log replayer that brought the tree to its
        state, if one did: LSNs, commit timestamps and transaction ids then
        continue from where that log stopped.  Without one, LSNs continue
        after the tree's last checkpoint (the superblock anchor; 0 on a fresh
        tree) so they stay monotone across a close and a reopen on a fresh
        log — restarting at 1 would hand out LSNs the previous incarnation
        already made durable, and a replication subscriber resuming at
        ``from_lsn`` would silently skip the reopened store's records.  With
        ``config.wal`` the store's first act is a full checkpoint on
        ``log_device`` (a fresh one by default).
        """
        metrics = metrics or MetricsRegistry(name="tsb")
        latch = latch or ReadWriteLatch(metrics=metrics)
        log_manager = None
        if config.wal:
            log_device = log_device or LogDevice()
            log_manager = LogManager(
                log_device,
                group_commit_size=config.group_commit_size,
                next_lsn=(replayed.applied_lsn if replayed else tree.log_anchor) + 1,
                flush_interval=(
                    config.group_commit_interval
                    if config.group_commit_interval > 0
                    else None
                ),
                metrics=metrics,
            )
        txns = TransactionManager(
            tree,
            clock=TimestampOracle(
                start=max(replayed.high_water if replayed else 0, tree.now)
            ),
            log=log_manager,
            next_txn_id=replayed.next_txn_id if replayed else 1,
            latch=latch,
            metrics=metrics,
        )
        if log_manager is not None:
            log_manager.checkpoint(tree, txns)
        return cls(
            TSBEngine(tree),
            config,
            txns=txns,
            log_manager=log_manager,
            log_device=log_device,
            latch=latch,
            metrics=metrics,
        )

    @staticmethod
    def _has_superblock(magnetic: MagneticDisk) -> bool:
        """Whether magnetic page 0 holds a TSB-tree superblock to resume from."""
        try:
            image = magnetic.read(Address.magnetic(0))
        except StorageError:
            return False  # blank device: page 0 was never allocated/written
        if len(image) < 4:
            return False
        return ByteReader(image).get_u32() == _SUPERBLOCK_MAGIC

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> StoreConfig:
        return self._config

    @property
    def engine(self) -> VersionedEngine:
        """The engine adapter (protocol surface)."""
        return self._engine

    @property
    def backend(self):
        """The raw underlying structure (TSBTree, WOBT or naive index)."""
        return self._engine.backend  # type: ignore[attr-defined]

    @property
    def txns(self) -> Optional[TransactionManager]:
        return self._txns

    @property
    def devices(self) -> Optional[Tuple[MagneticDisk, object]]:
        """The ``(magnetic, historical)`` device pair, for engines that can
        be reopened from one (the TSB-tree); ``None`` otherwise.

        The pair stays valid after :meth:`close` — closing checkpoints the
        tree onto these very devices, so ``VersionStore.open(config,
        magnetic=..., historical=...)`` over them resumes the same database.
        The server's tenant registry uses this to reopen a tenant on its
        existing devices instead of formatting fresh (empty) ones.
        """
        try:
            backend = self._engine.backend  # type: ignore[attr-defined]
        except (VersionStoreError, AttributeError):
            return None  # sharded stores own one pair per shard
        if isinstance(backend, TSBTree):
            return backend.magnetic, backend.historical
        return None

    @property
    def log(self):
        """The attached :class:`~repro.recovery.log_manager.LogManager`, if any."""
        return self._log

    @property
    def log_device(self):
        """The WAL's :class:`~repro.storage.logdevice.LogDevice`, if any.

        This is the device a :class:`~repro.replication.ReplicationPrimary`
        tails: its durable byte range is exactly the record prefix a
        subscriber may ship.
        """
        return self._log_device

    def durable_lsn(self) -> int:
        """The highest LSN whose record is durable (forced to the log).

        ``0`` for stores without a WAL.  This is the resume point a
        replication subscriber presents in ``SUBSCRIBE(from_lsn)`` and the
        per-tenant high-water mark ``repro stats`` reports.
        """
        return self._log.flushed_lsn if self._log is not None else 0

    def watermark(self) -> Tuple[int, int]:
        """``(durable_lsn, timestamp)`` — the store's replication watermark.

        The timestamp is the commit clock's high-water mark: every commit
        at or below it is present, so a follower serving reads at its own
        watermark answers a consistent prefix of the primary's history.
        """
        return self.durable_lsn(), self.now

    @property
    def now(self) -> int:
        return self._engine.now

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError("this VersionStore has been closed")

    # ------------------------------------------------------------------
    # Latching
    # ------------------------------------------------------------------
    @property
    def latch(self) -> ReadWriteLatch:
        """The store's reader-writer latch (shared reads, exclusive writes)."""
        return self._latch

    def read_latched(self):
        """Context manager: hold the latch shared for a compound read."""
        return self._latch.read()

    def write_latched(self):
        """Context manager: hold the latch exclusive for a compound write."""
        return self._latch.write()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _write(
        self,
        writes: Sequence[Tuple[Key, Optional[bytes]]],
        timestamp: Optional[int] = None,
    ) -> Tuple[List[int], Optional[bool]]:
        """The write path (module docstring).  Returns each write's stamp
        and, under a log, whether the commit record is already forced."""

        def admit() -> None:
            # Under the exclusive latch: a thread that blocked on it while
            # close() ran must observe _closed.  One version per (key,
            # timestamp), uniformly: the backends disagree on equal-timestamp
            # re-inserts (the TSB-tree keeps the first version, the WOBT and
            # the naive index overwrite), which would break the
            # identical-answers guarantee and mutate pinned ReadViews.  Only
            # a backdated-or-equal stamp can conflict, so the common
            # increasing path pays nothing.
            self._ensure_open()
            engine = self._engine
            if timestamp is not None and timestamp <= engine.now:
                for key, _ in writes:
                    if engine.has_version_at(key, timestamp):
                        raise VersionStoreError(
                            f"key {key!r} already has a version at timestamp "
                            f"{timestamp}"
                        )

        if self._log is not None:
            txn = self._txns.run_transaction(writes, timestamp, admit)
            stamps = [txn.commit_timestamp] * len(writes)
            return stamps, self._log.is_durable(txn.commit_lsn)
        with self._latch.write():
            admit()
            engine = self._engine
            stamps = [
                engine.delete(key, timestamp=timestamp)
                if value is None
                else engine.insert(key, value, timestamp=timestamp)
                for key, value in writes
            ]
            if self._txns is not None:
                self._txns.observe_commit(stamps[-1])
        return stamps, None

    def insert(self, key: Key, value: bytes, timestamp: Optional[int] = None) -> int:
        with self.metrics.timer("op.insert"):
            return self._write([(key, value)], timestamp)[0][0]

    def delete(self, key: Key, timestamp: Optional[int] = None) -> int:
        with self.metrics.timer("op.delete"):
            return self._write([(key, None)], timestamp)[0][0]

    def put_many(self, items: Sequence[Tuple[Key, bytes]]) -> List[int]:
        """Write a batch of ``(key, value)`` pairs; return their timestamps.

        Each distinct-key run (:func:`distinct_key_run_end`) is one call of
        the write path: without a WAL, sequential auto-stamped inserts under
        one latch hold (each item its own timestamp); with one, a logged
        transaction riding group commit whose items share the commit
        timestamp — a repeated key starts a new transaction so every version
        survives.  The sharded store overrides this with a per-shard grouped
        implementation with the same two modes.
        """
        self._ensure_open()
        items = list(items)
        timestamps: List[int] = []
        if not items:
            return timestamps
        with self.metrics.timer("op.put_many"), trace.span(
            "store.put_many", items=len(items)
        ):
            start = 0
            while start < len(items):
                end = distinct_key_run_end(items, start)
                timestamps.extend(self._write(items[start:end])[0])
                start = end
        return timestamps

    def import_events(self, events: Sequence[VersionEvent]) -> int:
        """Re-insert exported versions at their original timestamps.

        The receiving end of :meth:`ShardedEngine.export_events
        <repro.api.sharded.ShardedEngine.export_events>`: a shard split fills
        its halves and a migration target takes delivery through here.  The
        events (time-ordered) that share a timestamp are one call of the
        write path — what was one transaction where it came from is one
        here, in this store's log when it has one.  An event whose version
        is already present (a retried chunk, a range coming home to a node
        that kept its history) is skipped, and *only* that: one the engine
        refuses for any other reason — above all, one backdated against this
        store's commit clock — raises, so a range is never reported moved
        while its history fell on the floor.  Returns how many events were
        written.
        """
        imported = 0
        for timestamp, group in groupby(events, key=itemgetter(0)):
            with self._latch.read():
                self._ensure_open()
                engine = self._engine
                present = timestamp <= engine.now
                # Keyed by key: the last word a transaction had on a key wins.
                writes = {
                    key: None if is_tombstone else value
                    for _, key, is_tombstone, value in group
                    if not (present and engine.has_version_at(key, timestamp))
                }
            if writes:
                self._write(list(writes.items()), timestamp)
                imported += len(writes)
        return imported

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: Key) -> Optional[RecordView]:
        with self.metrics.timer("op.get"), self._latch.read():
            self._ensure_open()
            return self._engine.get(key)

    def get_as_of(self, key: Key, timestamp: int) -> Optional[RecordView]:
        with self.metrics.timer("op.get_as_of"), self._latch.read():
            self._ensure_open()
            return self._engine.get_as_of(key, timestamp)

    def range_search(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        as_of: Optional[int] = None,
    ) -> List[RecordView]:
        with self.metrics.timer("op.range_search"), trace.span(
            "store.range_search"
        ), self._latch.read():
            self._ensure_open()
            return self._engine.range_search(low, high, as_of=as_of)

    def snapshot(self, timestamp: int) -> Dict[Key, RecordView]:
        with self.metrics.timer("op.snapshot"), trace.span(
            "store.snapshot"
        ), self._latch.read():
            self._ensure_open()
            return self._engine.snapshot(timestamp)

    def key_history(self, key: Key) -> List[RecordView]:
        with self.metrics.timer("op.key_history"), self._latch.read():
            self._ensure_open()
            return self._engine.key_history(key)

    def history_between(self, key: Key, start: int, end: int) -> List[RecordView]:
        with self.metrics.timer("op.history_between"), self._latch.read():
            self._ensure_open()
            return self._engine.history_between(key, start, end)

    def time_slice(
        self,
        start: int,
        end: int,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
    ) -> Dict[Key, List[RecordView]]:
        """Every key in ``[low, high)`` with its versions valid in
        ``[start, end)`` (:meth:`VersionedEngine.time_slice`)."""
        with self.metrics.timer("op.time_slice"), trace.span(
            "store.time_slice"
        ), self._latch.read():
            self._ensure_open()
            return self._engine.time_slice(start, end, low, high)

    def read_view(self, as_of: Optional[int] = None) -> ReadView:
        """An immutable view pinned at ``as_of`` (default: the current time)."""
        self._ensure_open()
        timestamp = self._engine.now if as_of is None else as_of
        return ReadView(engine=self._engine, timestamp=timestamp, store=self)

    # ------------------------------------------------------------------
    # Transactions (tsb only)
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        """Start an updating transaction (context manager: commit/abort on exit)."""
        self._ensure_open()
        self._engine.require(Capability.TRANSACTIONS)
        assert self._txns is not None
        return self._txns.begin()

    def begin_readonly(self) -> ReadView:
        """The paper's read-only transaction (section 4.1): a view pinned at
        the commit clock's read timestamp — it takes no record locks, never
        sees a provisional version and no later commit can precede it."""
        self._ensure_open()
        self._engine.require(Capability.TRANSACTIONS)
        assert self._txns is not None
        return self.read_view(self._txns.clock.read_timestamp())

    def commit_is_durable(self, txn: Transaction) -> bool:
        """Whether ``txn``'s commit record is in the forced log prefix (WAL only)."""
        self._ensure_open()
        if self._log is None:
            raise VersionStoreError("commit durability requires wal=True")
        return txn.commit_lsn is not None and self._log.is_durable(txn.commit_lsn)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def space_summary(self) -> Dict[str, float]:
        with self._latch.read():
            self._ensure_open()
            return self._engine.space_summary()

    def io_summary(self) -> Dict[str, IOStats]:
        with self._latch.read():
            self._ensure_open()
            return self._engine.io_summary()

    def metrics_snapshot(self) -> Dict[str, object]:
        """One nested, JSON-serialisable dict of everything observable.

        ``metrics`` is the registry snapshot (op latency histograms with
        percentiles, latch/lock/txn/WAL counters); ``io`` the per-tier device
        counters including simulated service time; ``cache`` the buffer-pool
        hit statistics (engines with a page cache); ``locks`` the lock
        manager's holders and wait-for graph (transactional stores); ``wal``
        the log manager's LSN watermarks (WAL stores).
        """
        with self._latch.read():
            self._ensure_open()
            return self._metrics_snapshot_locked()

    def _page_cache(self):
        """The engine's page cache, however deep it hides (None without one)."""
        try:
            backend = self.backend
        except (VersionStoreError, AttributeError):
            return None
        cache = getattr(backend, "cache", None)
        if cache is None:
            cache = getattr(getattr(backend, "tree", None), "cache", None)
        return cache

    def _metrics_snapshot_locked(self) -> Dict[str, object]:
        snapshot: Dict[str, object] = {
            "engine": self._engine.name,
            "metrics": self.metrics.snapshot(),
            "io": {
                tier: stats.as_dict()
                for tier, stats in self._engine.io_summary().items()
            },
        }
        cache = self._page_cache()
        if cache is not None:
            stats = cache.stats
            snapshot["cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "flushes": stats.flushes,
                "accesses": stats.accesses,
                "hit_ratio": round(stats.hit_ratio, 4),
            }
        if self._txns is not None:
            snapshot["locks"] = self._txns.locks.debug_state()
        if self._log is not None:
            snapshot["wal"] = {
                "last_lsn": self._log.last_lsn,
                "flushed_lsn": self._log.flushed_lsn,
                "durable_lsn": self.durable_lsn(),
                "pending_commits": self._log.pending_commits,
                "group_commit_size": self._log.group_commit_size,
            }
        return snapshot

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write dirty pages to the device.  Under a WAL a page may only
        move at a checkpoint, so there a flush *is* a checkpoint."""
        if self._log is not None:
            return self.checkpoint()
        with self.metrics.timer("op.flush"), self._latch.write():
            self._ensure_open()
            self._engine.flush()

    def checkpoint(self) -> None:
        """Checkpoint through the WAL when attached, else the bare engine."""
        with self.metrics.timer("op.checkpoint"), trace.span(
            "store.checkpoint"
        ), self._latch.write():
            self._ensure_open()
            if self._log is not None and self._txns is not None:
                self._log.checkpoint(self.backend, self._txns)
            else:
                self._engine.checkpoint()

    def close(self) -> None:
        """Flush and checkpoint (where supported), then refuse further use.

        Closing a TSB-tree store leaves its devices holding a complete
        checkpointed image: ``VersionStore.open(config, magnetic=...,
        historical=...)`` resumes exactly where this store left off.
        """
        if self._closed:
            return
        if self._engine.supports(Capability.CHECKPOINT):
            self.checkpoint()
        elif self._engine.supports(Capability.FLUSH):
            with self._latch.write():
                self._engine.flush()
        if self._log is not None and hasattr(self._log, "close"):
            self._log.close()  # stop the background flusher after a final force
        self.metrics.retire()  # fold this store's histograms into the session
        self._closed = True

    def __enter__(self) -> "VersionStore":
        self._ensure_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"now={self._engine.now}"
        return f"VersionStore(engine={self._engine.name!r}, {state})"
