"""Write-ahead-log manager: LSN assignment, group commit, checkpoints.

The manager owns one :class:`~repro.storage.logdevice.LogDevice` and is the
only writer to it.  It enforces the two WAL disciplines the transaction
layer relies on:

**Log-before-stamp.**  Every operation record is appended before the tree is
touched, and a transaction's commit record is appended before its versions
are stamped.  Because the tree's pages only reach the magnetic device at a
checkpoint — which forces the log first — no durable page can ever describe
an unlogged change.

**Group commit.**  Forcing the log is the expensive, per-commit device
access; batching amortises it.  With ``group_commit_size = N``, commit
records accumulate in the device's volatile tail and a single force makes
the whole batch durable, so commit throughput scales with ``N`` at the cost
of the last ``< N`` commits being vulnerable until the next force.  This is
the classic throughput lever the repo benchmark's ``txn_recovery`` workload
measures (``recovery.wal_forces``, ``recovery.commits_per_force``).

With ``flush_interval`` set, group commit additionally runs a *background
flusher thread*: committers append their commit record, wake the flusher
and return; the flusher forces once per batching window, covering every
commit that arrived meanwhile — so concurrent committers are batched by
**arrival**, not by any single caller filling a batch.  ``force()`` stays
synchronous (an explicit force always makes everything durable before it
returns), and with ``group_commit_size == 1`` a committer still waits for
its record to become durable, preserving the strict-durability contract at
the cost of one batching-window latency.  The manager's public surface is
thread-safe in both modes: LSN assignment, appends and forces are
serialized by one internal lock.

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
:data:`CHECKPOINT_EVERY_BYTES` (512 KiB) or more past the tree's anchor:
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
from typing import TYPE_CHECKING, Optional

from repro.obs.registry import COUNT_BUCKETS
from repro.obs.registry import enabled as metrics_enabled
from repro.recovery.log_records import (
    ActiveTransaction,
    LogRecord,
    encode_record,
)
from repro.storage.logdevice import LogDevice
from repro.storage.serialization import Key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tsb_tree import TSBTree
    from repro.obs.registry import MetricsRegistry
    from repro.txn.manager import TransactionManager

#: The checkpoint rule's N: a full checkpoint is due once the log holds this
#: many bytes past the tree's anchor (see "The checkpoint rule" above).
#: Sized by measurement (``BENCH_checkpoint_rule.json``, ``n_sweep``): at
#: 256 KiB writers lost throughput for no faster restart, at 1 MiB restart
#: took about twice as long.
CHECKPOINT_EVERY_BYTES = 512 * 1024


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
    """Appends WAL records, assigns LSNs and batches commit forces.

    Parameters
    ----------
    device:
        The append-only log device; a fresh :class:`LogDevice` by default.
    group_commit_size:
        Number of commit records that triggers a force.  ``1`` forces on
        every commit (strict durability); larger values trade the tail of
        unforced commits for throughput.
    next_lsn:
        First LSN to assign.  After restart recovery, a new manager on the
        same device continues the sequence so LSNs stay unique log-wide.
    flush_interval:
        ``None`` (the default) keeps the original synchronous policy: the
        committer that fills a batch forces inline.  A non-negative float
        starts a daemon flusher thread instead; the value is the batching
        window in seconds (how long the flusher lingers after being woken,
        letting concurrent committers pile into the same force).  ``0.0``
        forces as soon as the flusher wakes.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  When given,
        every force counts ``wal.forces``, times the device force into
        ``wal.fsync`` and records the commit batch it covered in the
        ``wal.batch_size`` histogram — the group-commit lever made visible.
    """

    def __init__(
        self,
        device: Optional[LogDevice] = None,
        group_commit_size: int = 1,
        next_lsn: int = 1,
        flush_interval: Optional[float] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if group_commit_size <= 0:
            raise ValueError("group_commit_size must be positive")
        if next_lsn <= 0:
            raise ValueError("LSNs start at 1")
        if flush_interval is not None and flush_interval < 0:
            raise ValueError("flush_interval cannot be negative")
        self.device = device or LogDevice()
        self.group_commit_size = group_commit_size
        self.flush_interval = flush_interval
        self.metrics = metrics
        self._next_lsn = next_lsn
        self._last_lsn = next_lsn - 1
        self._flushed_lsn = next_lsn - 1
        self._last_append_offset = 0
        self._pending_commits = 0
        self._cond = threading.Condition()
        self._stop_flusher = False
        self._flusher: Optional[threading.Thread] = None
        if flush_interval is not None:
            self._flusher = threading.Thread(
                target=self._flush_loop, name="wal-group-commit", daemon=True
            )
            self._flusher.start()

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
    # Record appends
    # ------------------------------------------------------------------
    def log_begin(self, txn_id: int) -> int:
        with self._cond:
            return self._append(LogRecord.begin(self._take_lsn(), txn_id))

    def log_insert(self, txn_id: int, key: Key, value: bytes) -> int:
        with self._cond:
            return self._append(LogRecord.insert(self._take_lsn(), txn_id, key, value))

    def log_delete(self, txn_id: int, key: Key) -> int:
        with self._cond:
            return self._append(LogRecord.delete(self._take_lsn(), txn_id, key))

    def log_abort(self, txn_id: int) -> int:
        with self._cond:
            return self._append(LogRecord.abort(self._take_lsn(), txn_id))

    def log_commit(
        self, txn_id: int, commit_timestamp: int, wait_for_durability: bool = True
    ) -> int:
        """Append a commit record; force when the group-commit batch is full.

        Returns the commit record's LSN.  The commit is durable once
        ``flushed_lsn`` reaches that LSN — immediately when
        ``group_commit_size == 1``, at the batch-filling (or next explicit)
        force otherwise.  With a background flusher the batch-filling force
        happens on the flusher thread; a strict-durability committer
        (``group_commit_size == 1``) waits for it instead of forcing inline,
        so simultaneous committers still share one force.  Callers that
        hold latches readers need (the transaction manager) pass
        ``wait_for_durability=False`` and do the strict-durability wait via
        :meth:`wait_durable` after releasing them.
        """
        with self._cond:
            lsn = self._append(LogRecord.commit(self._take_lsn(), txn_id, commit_timestamp))
            self._pending_commits += 1
            if self._flusher is None:
                if self._pending_commits >= self.group_commit_size:
                    self._force_locked()
            else:
                self._cond.notify_all()  # wake the flusher (and any waiters)
                if self.group_commit_size == 1 and wait_for_durability:
                    while self._flushed_lsn < lsn and self._flusher_alive():
                        self._cond.wait(0.05)
                    if self._flushed_lsn < lsn:  # flusher died: force inline
                        self._force_locked()
        return lsn

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
        """Block until the record at ``lsn`` is durable (or ``timeout`` expires).

        Loops to the deadline: appends notify this condition too (to wake
        the flusher), so a single wait could be woken early and give up
        with most of its budget unspent.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._flushed_lsn < lsn:
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    self._cond.wait(remaining)
            return True

    # ------------------------------------------------------------------
    # Background flusher
    # ------------------------------------------------------------------
    def _flusher_alive(self) -> bool:
        return self._flusher is not None and self._flusher.is_alive()

    def _flush_loop(self) -> None:
        with self._cond:
            while True:
                while not self._stop_flusher and self._pending_commits == 0:
                    self._cond.wait()
                if self._stop_flusher and self._pending_commits == 0:
                    return
                if self.flush_interval and not self._stop_flusher:
                    # The batching window: sleep with the lock released so
                    # concurrent committers append into this very batch.
                    # Skipped once stop is signalled — drain immediately.
                    self._cond.wait(self.flush_interval)
                self._force_locked()

    def close(self) -> None:
        """Stop the background flusher (if any) after a final force."""
        flusher = self._flusher
        if flusher is None:
            self.force()
            return
        with self._cond:
            self._stop_flusher = True
            self._cond.notify_all()
        flusher.join(timeout=5.0)
        self._flusher = None
        self.force()  # anything appended after the flusher drained

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
            lsn = self._append(
                LogRecord.checkpoint(
                    self._take_lsn(),
                    high_water=high_water,
                    next_txn_id=next_txn_id,
                    active=active,
                    fuzzy=fuzzy,
                )
            )
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

    def _append(self, record: LogRecord) -> int:
        self._last_append_offset = self.device.append(encode_record(record))
        self._last_lsn = record.lsn
        return record.lsn

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LogManager(last_lsn={self._last_lsn}, flushed_lsn={self._flushed_lsn}, "
            f"group_commit_size={self.group_commit_size})"
        )
