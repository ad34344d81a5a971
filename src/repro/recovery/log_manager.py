"""Write-ahead-log manager: LSN assignment, group commit, checkpoints.

The manager owns one :class:`~repro.storage.logdevice.LogDevice` and is the
only writer to it.  It enforces the two WAL disciplines the transaction
layer relies on:

**One record per transaction, before anyone can see it.**  A transaction
appends exactly one record, its ``COMMIT`` (:meth:`log_commit`), carrying
every write; nothing is logged before it, and an abort logs nothing.  The
record is appended under the exclusive latch: by a writer that knows its
stamp after its tree writes, in the same latch hold; by an interactive
transaction before it stamps its provisional versions.  The tree's pages
only reach the magnetic device at a checkpoint — which takes that latch and
forces the log first — so no durable page can describe a committed change
the log lacks, and an uncommitted one reaches the disk only inside a
checkpoint whose record names it (:mod:`repro.recovery.replay`).

**Group commit.**  Every acknowledged commit is forced, and committers
that wait together share one force.  :meth:`log_commit` only appends; once
the committer has left the store latch it calls :meth:`force_through` with
its record's LSN, which returns at once if an earlier force already covered
the record and otherwise forces everything appended so far — so every
committer that appended while another was forcing finds its record covered
when it gets the log's lock: the classic leader/follower group commit,
batched by **arrival**, on the committers' own threads, with no option,
timer or thread.  A commit is therefore visible to readers once appended
and acknowledged once forced; a crash in between loses only a commit nobody
was told about.  The repo benchmark's ``txn_recovery`` workload measures
the batching (``recovery.wal_forces``, ``recovery.commits_per_force``).
LSN assignment, appends and forces are serialized by one internal lock.

**Checkpoints.**  :meth:`checkpoint` writes a CHECKPOINT record carrying the
timestamp-oracle high-water mark, the next transaction id and the
active-transaction table, then forces the log.  A *full* checkpoint
additionally flushes the tree and stamps the superblock with the record's
LSN — recovery replays the log from that anchor.  A *fuzzy* checkpoint
(``fuzzy=True``) skips the page flush entirely: it costs one log force, does
not move the replay anchor, and exists so long-running systems can bound the
analysis pass without stalling on a full buffer-pool flush.

**The checkpoint rule.**  Besides ``close()`` and an explicit ``checkpoint()``,
a full checkpoint is taken whenever the log holds
:data:`CHECKPOINT_EVERY_BYTES` (352 KiB) or more past the tree's anchor:
every logged commit asks :meth:`LogManager.checkpoint_due` once it has left
the latch (``TransactionManager._settle``).  The trigger counts log bytes —
no timer, no thread, no option — so checkpoints land at the same place in the
operation stream on every run, and a restart replays at most N bytes plus the
transaction that crossed the line, however long the store has been up.  A
background checkpointer would stall the next writer just as long under the
store-wide latch, and would make the anchor LSN depend on timing.

The WAL protocol needs a **no-steal** buffer pool — dirty tree pages must
not reach the magnetic device between checkpoints — and gets one: the first
full checkpoint stamps the tree with its anchor, and from then on the tree's
pool (:mod:`repro.storage.pagecache`) writes pages back only when a
checkpoint flushes them, whatever its size.  The magnetic device therefore
always holds exactly the last checkpoint's image, the durable base restart
recovery rebuilds from.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Optional, Sequence

from repro.obs.registry import COUNT_BUCKETS
from repro.obs.registry import enabled as metrics_enabled
from repro.recovery.log_records import (
    ActiveTransaction,
    LogRecord,
    encode_commit,
    encode_record,
)
from repro.storage.logdevice import LogDevice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tsb_tree import TSBTree
    from repro.obs.registry import MetricsRegistry
    from repro.txn.manager import TransactionManager

#: The checkpoint rule's N: a full checkpoint is due once the log holds this
#: many bytes past the tree's anchor (see "The checkpoint rule" above).
#: Sized by measurement: N trades restart time (the log a restart replays)
#: against writer throughput (how often a writer pays for a checkpoint).
#: 352 KiB of one-record log holds about as many writes as the 512 KiB the
#: rule was sized at when every operation was its own record.  In
#: ``BENCH_one_record.json``'s ``n_sweep_shifted`` (256, 352 and 512 KiB at
#: three run lengths, so crashes land at different points between
#: checkpoints) restart time follows the log replayed, 0.47-0.67 ms per KiB,
#: and the median restart at 352 KiB was 9-10 % below 512 KiB's on both
#: workloads swept, for about 3 % of ``txn_recovery``'s throughput.
CHECKPOINT_EVERY_BYTES = 352 * 1024


class RecoveryRequiredError(Exception):
    """A full checkpoint was refused because the tree may be damaged.

    Raised when the transaction manager flagged a failed structure
    modification (``requires_recovery``): flushing now would anchor a
    possibly-inconsistent image and silently lose committed data that only
    the log still describes.  The cure is restart recovery
    (:class:`~repro.recovery.recovery_manager.RecoveryManager`, which a
    reopen through ``VersionStore.open(..., log_device=)`` runs): it rebuilds
    from the last good checkpoint plus the log.
    """


class LogManager:
    """Appends WAL records, assigns LSNs and forces commits by group.

    Parameters
    ----------
    device:
        The append-only log device; a fresh :class:`LogDevice` by default.
    next_lsn:
        First LSN to assign.  After restart recovery, a new manager on the
        same device continues the sequence so LSNs stay unique log-wide.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  When given,
        every force counts ``wal.forces``, times the device force into
        ``wal.fsync`` and records the commits it covered in the
        ``wal.batch_size`` histogram — group commit made visible.
    """

    def __init__(
        self,
        device: Optional[LogDevice] = None,
        next_lsn: int = 1,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if next_lsn <= 0:
            raise ValueError("LSNs start at 1")
        self.device = device or LogDevice()
        self.metrics = metrics
        self._next_lsn = next_lsn
        self._last_lsn = next_lsn - 1
        self._flushed_lsn = next_lsn - 1
        self._last_append_offset = 0
        self._pending_commits = 0
        self._cond = threading.Condition()

    # ------------------------------------------------------------------
    # LSN bookkeeping
    # ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 if none)."""
        return self._last_lsn

    @property
    def flushed_lsn(self) -> int:
        """LSN of the last record that is durable on the log device."""
        return self._flushed_lsn

    @property
    def pending_commits(self) -> int:
        """Commit records appended but not yet forced."""
        return self._pending_commits

    def is_durable(self, lsn: int) -> bool:
        """Whether the record at ``lsn`` has been forced to stable storage."""
        return 0 < lsn <= self._flushed_lsn

    # ------------------------------------------------------------------
    # Record appends and forces
    # ------------------------------------------------------------------
    def log_commit(
        self,
        txn_id: int,
        commit_timestamp: int,
        writes: Sequence[bytes] = (),
    ) -> int:
        """Append a transaction's one record, its ``COMMIT`` carrying
        ``writes``.  Each write comes encoded
        (:func:`~repro.storage.serialization.encode_write`), so a key the log
        cannot hold was refused before the tree took it.

        Returns the record's LSN.  The record is not forced here: the
        committer calls :meth:`force_through` with it once it has released
        the latches readers need.
        """
        with self._cond:
            lsn = self._take_lsn()
            self._append(lsn, encode_commit(lsn, txn_id, commit_timestamp, writes))
            self._pending_commits += 1
        return lsn

    def force_through(self, lsn: int) -> None:
        """Make the record at ``lsn`` durable: at once if an earlier force
        covered it, else by forcing everything appended so far — which
        covers every committer that appended meanwhile, so those find their
        record durable when they get here (group commit by arrival)."""
        with self._cond:  # re-entrant: force() takes it again
            if self._flushed_lsn < lsn:
                self.force()

    def force(self) -> None:
        """Force the log synchronously: every appended record becomes durable."""
        with self._cond:
            self._force_locked()

    def _force_locked(self) -> None:
        record = self.metrics is not None and metrics_enabled()
        batch = self._pending_commits
        if record:
            forced_from = time.perf_counter()
        self.device.force()
        if record:
            self.metrics.inc("wal.forces")
            self.metrics.observe("wal.fsync", time.perf_counter() - forced_from)
            if batch > 0:
                self.metrics.observe("wal.batch_size", batch, bounds=COUNT_BUCKETS)
        self._flushed_lsn = self._last_lsn
        self._pending_commits = 0
        self._cond.notify_all()

    def wait_durable(self, lsn: int, timeout: Optional[float] = None) -> bool:
        """Block until the record at ``lsn`` is durable (or ``timeout``
        expires); every force wakes the waiters.  A log shipper's wait."""
        with self._cond:
            return self._cond.wait_for(lambda: self._flushed_lsn >= lsn, timeout)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint_due(self, tree: "TSBTree") -> bool:
        """The checkpoint rule: whether the log holds
        :data:`CHECKPOINT_EVERY_BYTES` or more past ``tree``'s anchor."""
        return self.device.appended_bytes - tree.log_anchor_offset >= CHECKPOINT_EVERY_BYTES

    def checkpoint(
        self,
        tree: "TSBTree",
        txn_manager: Optional["TransactionManager"] = None,
        fuzzy: bool = False,
    ) -> int:
        """Write a checkpoint record (and, unless fuzzy, flush the tree).

        Order matters: the record is appended and the log forced *before*
        the tree flushes its pages, so the durable page image can never be
        ahead of the durable log.  A crash between the force and the
        superblock stamp simply leaves the previous anchor in place — the
        new record is then ignored, which is safe because redo starts only
        from the anchored LSN.

        A full checkpoint refuses (:class:`RecoveryRequiredError`) while the
        transaction manager reports a possibly-damaged tree; anchoring a
        broken image would make the damage durable.  Fuzzy checkpoints are
        log-only and stay allowed.
        """
        if (
            not fuzzy
            and txn_manager is not None
            and getattr(txn_manager, "requires_recovery", False)
        ):
            raise RecoveryRequiredError(
                "a failed structure modification left the tree suspect; run "
                "restart recovery before taking a full checkpoint"
            )
        active = ()
        high_water = tree.now
        next_txn_id = 1
        if txn_manager is not None:
            active = tuple(
                ActiveTransaction(
                    txn_id=txn.txn_id, keys=tuple(sorted(txn.write_set))
                )
                for txn in txn_manager.active_transactions()
            )
            high_water = max(high_water, txn_manager.clock.latest)
            next_txn_id = txn_manager.next_txn_id
        with self._cond:
            lsn = self._take_lsn()
            record = LogRecord.checkpoint(
                lsn, high_water=high_water, next_txn_id=next_txn_id, active=active, fuzzy=fuzzy
            )
            self._append(lsn, encode_record(record))
            anchor_offset = self._last_append_offset
        self.force()
        if not fuzzy:
            tree.checkpoint(log_anchor=lsn, log_anchor_offset=anchor_offset)
        return lsn

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _take_lsn(self) -> int:
        lsn = self._next_lsn
        self._next_lsn += 1
        return lsn

    def _append(self, lsn: int, frame: bytes) -> None:
        self._last_append_offset = self.device.append(frame)
        self._last_lsn = lsn

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LogManager(last_lsn={self._last_lsn}, flushed_lsn={self._flushed_lsn})"
