"""repro — a reproduction of "Access Methods for Multiversion Data".

Lomet & Salzberg, SIGMOD 1989: the Time-Split B-tree (TSB-tree), a single
integrated index over a versioned, timestamped, non-deleting database whose
current data lives on an erasable magnetic disk and whose historical data is
incrementally migrated to a cheaper (possibly write-once) device.

The public face of the library is the :class:`VersionStore` façade: declare
a store with :class:`StoreConfig` (engine, split policy, page size, device
tier, WAL) and every engine — the TSB-tree, Easton's Write-Once B-tree and
the naive all-magnetic baseline — answers the same queries through the same
API with normalized :class:`~repro.api.RecordView` results.

Quick start::

    from repro import StoreConfig, VersionStore

    with VersionStore.open(StoreConfig(engine="tsb")) as store:
        store.insert("alice", b"balance=50", timestamp=1)
        store.insert("alice", b"balance=90", timestamp=5)

        store.get("alice").value               # b"balance=90"
        store.get_as_of("alice", 3).value      # b"balance=50"
        store.snapshot(2)                      # whole database as of T=2
        store.key_history("alice")             # every version, oldest first

        with store.begin() as txn:             # section 4 transactions
            txn.write("bob", b"balance=200")

    # Swap engine="tsb" for "wobt" or "naive": same workload, same answers,
    # different storage behaviour — that is the comparison the paper makes.

Sub-packages:

* :mod:`repro.api` — the :class:`VersionStore` façade, the
  :class:`~repro.api.VersionedEngine` protocol and the engine adapters.
* :mod:`repro.core` — the TSB-tree, splitting policies, secondary indexes,
  space statistics and the structural invariant checker.
* :mod:`repro.storage` — the two-tier storage substrate (magnetic disk,
  WORM optical disk, optical jukebox, buffer pool, cost model).
* :mod:`repro.wobt` — Easton's Write-Once B-tree, the baseline the paper
  starts from.
* :mod:`repro.baselines` — single-version B+-tree and a naive multiversion
  B-tree used as comparison points.
* :mod:`repro.txn` — transaction support (section 4).
* :mod:`repro.recovery` — write-ahead logging, group commit and restart
  recovery.
* :mod:`repro.workload` — stepwise-constant workload generators.
* :mod:`repro.analysis` — the experiment harness that regenerates every
  figure and study listed in DESIGN.md / EXPERIMENTS.md.
* :mod:`repro.server` / :mod:`repro.client` — the network service layer:
  a thread-per-connection TCP server (struct-framed CRC-checked protocol,
  per-tenant store registry, bursts answered in request order, admission
  control) and the pooled synchronous wire client mirroring the façade
  surface.
"""

from repro.api import (
    Capability,
    CapabilityError,
    ENGINE_NAMES,
    ReadView,
    RecordView,
    ShardSpec,
    ShardedVersionStore,
    StoreConfig,
    VersionStore,
    VersionedEngine,
)
from repro.core import (
    AlwaysKeySplitPolicy,
    AlwaysTimeSplitPolicy,
    CostDrivenPolicy,
    SecondaryIndex,
    SpaceStats,
    SplitPolicy,
    ThresholdPolicy,
    TSBTree,
    Version,
    WOBTEmulationPolicy,
    assert_tree_valid,
    check_tree,
    collect_space_stats,
    make_policy,
)
from repro.recovery import (
    LogManager,
    RecoveryManager,
    RecoveryReport,
)
from repro.storage import Address, CostModel, MagneticDisk, OpticalLibrary, WormDisk
from repro.storage.latches import ReadWriteLatch
from repro.txn import (
    LockConflictError,
    LockManager,
    TimestampOracle,
    Transaction,
    TransactionManager,
)
from repro.client import ReproClient
from repro.server import ReproServer, StoreRegistry
from repro.workload.concurrent import ConcurrentRunResult, run_concurrent

__version__ = "1.1.0"

__all__ = [
    "Address",
    "AlwaysKeySplitPolicy",
    "AlwaysTimeSplitPolicy",
    "Capability",
    "CapabilityError",
    "ConcurrentRunResult",
    "CostDrivenPolicy",
    "CostModel",
    "ENGINE_NAMES",
    "LockConflictError",
    "LockManager",
    "LogManager",
    "MagneticDisk",
    "OpticalLibrary",
    "ReadWriteLatch",
    "ReadView",
    "RecordView",
    "RecoveryManager",
    "RecoveryReport",
    "ReproClient",
    "ReproServer",
    "SecondaryIndex",
    "ShardSpec",
    "ShardedVersionStore",
    "SpaceStats",
    "SplitPolicy",
    "StoreConfig",
    "StoreRegistry",
    "ThresholdPolicy",
    "TimestampOracle",
    "TSBTree",
    "Transaction",
    "TransactionManager",
    "Version",
    "VersionStore",
    "VersionedEngine",
    "WOBTEmulationPolicy",
    "WormDisk",
    "__version__",
    "assert_tree_valid",
    "check_tree",
    "collect_space_stats",
    "make_policy",
    "run_concurrent",
]
