"""A crashable durable store: the fixture the crash harnesses drive.

:class:`RecoverableSystem` is a ``wal=True`` :class:`~repro.api.store.VersionStore`
over devices it keeps hold of, opened — the first time and after every
crash — through the façade's own front door, so what the crash tests
exercise is the restart path a user gets.  It adds the disciplines a crash
test needs:

* it keeps hold of the devices: under a log the tree's buffer pool is
  no-steal at any size (:mod:`repro.storage.pagecache`), so the magnetic
  device always holds exactly the last full checkpoint's image — the durable
  base recovery starts from;
* :meth:`crash` models the failure honestly: the in-memory tree, cache,
  lock table and transaction state vanish wholesale, the log loses its
  unforced tail, and the store is reopened from the surviving devices —
  restart recovery, then a fresh full checkpoint so the next crash replays
  only post-recovery work.

After a crash the system object is live again: ``tree``, ``log`` and
``txns`` are the reopened store's, with LSNs, commit timestamps and
transaction ids continuing from what the durable log says.
"""

from __future__ import annotations

from typing import Optional

from repro.api.store import StoreConfig, VersionStore
from repro.core.policy import SplitPolicy
from repro.recovery.recovery_manager import RecoveryReport
from repro.storage.logdevice import LogDevice
from repro.storage.magnetic import MagneticDisk
from repro.storage.worm import WormDisk
from repro.txn.manager import Transaction, TransactionState


class RecoverableSystem:
    """The durable configuration of the reproduction, as one object.

    Parameters
    ----------
    page_size:
        Magnetic/tree page size in bytes.
    policy:
        Split policy for the tree (tree default when omitted).
    group_commit_size:
        Commit records per log force (see
        :class:`~repro.recovery.log_manager.LogManager`).
    magnetic / historical / log_device:
        Devices to build on; fresh unbounded ones by default.  Passing a
        bounded device is how the failure-injection tests crash the system
        mid-split.
    cache_pages:
        The store's buffer-pool size.  Recovery must not depend on it; the
        crash tests run at a single page to hold the pool to that.
    """

    def __init__(
        self,
        page_size: int = 512,
        policy: Optional[SplitPolicy] = None,
        group_commit_size: int = 1,
        magnetic: Optional[MagneticDisk] = None,
        historical: Optional[object] = None,
        log_device: Optional[LogDevice] = None,
        cache_pages: int = 128,
    ) -> None:
        self.page_size = page_size
        self.policy = policy
        self.group_commit_size = group_commit_size
        self.magnetic = magnetic or MagneticDisk(page_size=page_size)
        self.historical = historical or WormDisk(sector_size=min(1024, page_size))
        self.log_device = log_device or LogDevice()
        self._config = StoreConfig(
            engine="tsb",
            page_size=page_size,
            split_policy=policy,
            cache_pages=cache_pages,
            wal=True,
            group_commit_size=group_commit_size,
        )
        self._open()

    def _open(self) -> None:
        """(Re)open the store from the devices: fresh ones format a new
        database, used ones run restart recovery."""
        self.store = VersionStore.open(
            self._config,
            magnetic=self.magnetic,
            historical=self.historical,
            log_device=self.log_device,
        )
        self.tree = self.store.backend
        self.log = self.store.log
        self.txns = self.store.txns
        self.last_report: Optional[RecoveryReport] = self.store.recovery_report

    # ------------------------------------------------------------------
    # Transactional surface (delegates)
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        return self.txns.begin()

    def checkpoint(self, fuzzy: bool = False) -> int:
        """Take a checkpoint through the log manager; return its LSN."""
        return self.log.checkpoint(self.tree, self.txns, fuzzy=fuzzy)

    def commit_is_durable(self, txn: Transaction) -> bool:
        """Whether ``txn``'s commit record would survive a crash right now."""
        return txn.commit_lsn is not None and self.log.is_durable(txn.commit_lsn)

    # ------------------------------------------------------------------
    # Crash and restart
    # ------------------------------------------------------------------
    def crash(self) -> RecoveryReport:
        """Crash the system and restart it from the surviving devices.

        Everything volatile dies: the buffer pool's dirty pages, the lock
        table, in-flight transactions, and the unforced log tail.  What
        survives is what real hardware keeps — the magnetic pages as of the
        last full checkpoint (no-steal), the write-once historical regions,
        and the forced log prefix.  The reopen verifies the rebuilt tree
        against every structural invariant and raises
        :class:`~repro.recovery.recovery_manager.RecoveryError` on any
        violation.  Returns the recovery report; the system is ready for new
        transactions afterwards.

        Transaction handles from before the crash are dead: their
        transactions are marked aborted and their manager is detached from
        the log, so a stale ``commit()`` raises instead of silently writing
        into the post-crash log.
        """
        for txn in self.txns.active_transactions():
            txn.state = TransactionState.ABORTED
        self.txns.log = None
        self.log_device.lose_volatile_tail()
        self._open()
        return self.last_report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecoverableSystem(page_size={self.page_size}, "
            f"group_commit_size={self.group_commit_size}, tree={self.tree!r})"
        )
