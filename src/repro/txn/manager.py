"""Transaction manager over a TSB-tree (paper section 4).

The manager implements the versioning-based concurrency scheme the paper
describes:

* **Interactive updaters** (:meth:`TransactionManager.begin`, then
  ``write``/``delete`` and ``commit``) write *provisional* versions — no
  timestamp yet, because the commit time is not known when they write —
  into the current database under exclusive record locks.  Provisional
  versions are never migrated to the historical database during a time
  split, so they can always be erased if the transaction aborts.
* **Commit** obtains a commit timestamp from the
  :class:`~repro.txn.clock.TimestampOracle` and stamps every provisional
  version with it where it lies, making the versions visible to readers:
  each write kept the leaf its version landed in, and the commit stamps the
  slot there, descending from the root only for a leaf a split has since
  replaced (:meth:`TSBTree.commit_provisional
  <repro.core.tsb_tree.TSBTree.commit_provisional>`).  Abort finds its
  versions the same way.
* **Abort** erases the provisional versions and releases the locks; nothing
  of the transaction remains in either database.
* **A writer that knows its stamp** (:meth:`TransactionManager.
  run_transaction`, the logged branch of the store's write path) needs none
  of that: it draws the stamp under the same exclusive latch hold as its
  writes, so nobody could observe a provisional state, and it writes each
  key as a committed version at that stamp — one descent per key.  A record
  too large for a page is refused before anything is written.
* **Read-only transactions** need nothing from this manager but its clock:
  a reader pinned at :meth:`TimestampOracle.read_timestamp
  <repro.txn.clock.TimestampOracle.read_timestamp>` reads the tree without
  any locks (:meth:`VersionStore.begin_readonly
  <repro.api.store.VersionStore.begin_readonly>` hands out the one handle).

When a :class:`~repro.recovery.log_manager.LogManager` is attached, a
transaction appends exactly one record: its ``COMMIT``, which carries the
last word of every key it wrote.  ``begin``, ``write``, ``delete`` and
``abort`` log nothing (a :class:`Transaction` keeps its writes in
``write_set`` until then).  A writer that knows its stamp appends the record
after its tree writes and before it releases the latch; an interactive
commit appends it *before* the versions are stamped.  A transaction is
durably committed exactly when its record lies inside the forced log
prefix, which is what restart recovery (:mod:`repro.recovery`)
reconstructs after a crash.  Every logged commit, of either kind, is forced
through its record once it has left the latch — sharing the force of any
committer that appended beside it — before it is acknowledged, and then
applies the log's checkpoint rule: a full checkpoint when the log holds
``CHECKPOINT_EVERY_BYTES`` past the tree's anchor, so what a restart
replays stays bounded however long the store runs.

The manager is safe for concurrent clients, with three coordination layers
that mirror a real system's:

* **record locks** (:class:`~repro.txn.locks.LockManager`) resolve logical
  write-write conflicts — blocking, with timeout and deadlock detection;
  they are always requested *before* the structure latch so a blocked
  transaction never holds the tree hostage;
* a **reader-writer latch** (shared with the owning
  :class:`~repro.api.store.VersionStore`, when there is one) protects the
  tree structure itself: every mutation runs exclusive, lock-free reads run
  shared — so read-only transactions still never wait on record locks, per
  section 4.1;
* a small registry mutex makes transaction-id assignment and the
  active-transaction table safe.
"""

from __future__ import annotations

import enum
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from time import perf_counter

from repro.core.tsb_tree import RecordTooLargeError, TimestampOrderError, TSBTree
from repro.storage.latches import ReadWriteLatch
from repro.storage.serialization import Key, encode_write
from repro.txn.clock import TimestampOracle
from repro.txn.locks import LockManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.nodes import DataNode
    from repro.obs.registry import MetricsRegistry
    from repro.recovery.log_manager import LogManager


class TransactionError(Exception):
    """Raised on invalid transaction usage (wrong state, unknown id, ...)."""


class TransactionState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    """Handle for one updating transaction."""

    txn_id: int
    manager: "TransactionManager"
    state: TransactionState = TransactionState.ACTIVE
    #: The keys holding this transaction's provisional versions (what a
    #: checkpoint lists as active), each with its last word encoded as the
    #: ``COMMIT`` record carries it (``None`` without a log).  Always empty
    #: for ``run_transaction``.
    write_set: Dict[Key, Optional[bytes]] = field(default_factory=dict)
    #: Beside each ``write_set`` key, the leaf its provisional version landed
    #: in: where commit and abort look first.  Dropped as the transaction
    #: finishes, so the tree holds no per-transaction state.
    leaves: Dict[Key, "DataNode"] = field(default_factory=dict)
    commit_timestamp: Optional[int] = None
    #: LSN of this transaction's commit record (None until commit, or when
    #: the manager runs without a write-ahead log).
    commit_lsn: Optional[int] = None

    # -- convenience pass-throughs ----------------------------------------
    def _live_manager(self) -> "TransactionManager":
        # The manager forgets a finished transaction; its handle still knows.
        if self.state is not TransactionState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}, not active"
            )
        return self.manager

    def write(self, key: Key, value: bytes) -> None:
        self._live_manager().write(self.txn_id, key, value)

    def delete(self, key: Key) -> None:
        self._live_manager().delete(self.txn_id, key)

    def read(self, key: Key) -> Optional[bytes]:
        return self._live_manager().read(self.txn_id, key)

    def commit(self) -> int:
        return self._live_manager().commit(self.txn_id)

    def abort(self) -> None:
        self._live_manager().abort(self.txn_id)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state is TransactionState.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()


class TransactionManager:
    """Coordinates updaters, read-only readers and the commit clock."""

    def __init__(
        self,
        tree: TSBTree,
        clock: Optional[TimestampOracle] = None,
        log: Optional["LogManager"] = None,
        next_txn_id: int = 1,
        latch: Optional[ReadWriteLatch] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if next_txn_id <= 0:
            raise ValueError("transaction ids start at 1")
        self.tree = tree
        self.clock = clock or TimestampOracle(start=tree.now)
        self.metrics = metrics
        self.locks = LockManager(metrics=metrics)
        self.log = log
        #: The structure latch: exclusive around every tree mutation, shared
        #: around reads.  A VersionStore passes its own latch in so façade
        #: queries and transactional writes coordinate on one latch.
        self.latch = latch or ReadWriteLatch()
        #: Set when a logged operation died mid-structure-modification and
        #: may have left the in-memory tree inconsistent.  Durability
        #: operations (full checkpoints) refuse while this is set; the cure
        #: is restart recovery, which rebuilds from the last good image.
        self.requires_recovery = False
        self._next_txn_id = next_txn_id
        #: The active transactions only: one is forgotten as it finishes.
        self._transactions: Dict[int, Transaction] = {}
        self._registry_lock = threading.Lock()

    @property
    def next_txn_id(self) -> int:
        """The id the next :meth:`begin` will assign (checkpointed to the WAL)."""
        return self._next_txn_id

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        """Start an updating transaction."""
        with self._registry_lock:
            txn = Transaction(txn_id=self._next_txn_id, manager=self)
            self._next_txn_id += 1
            self._transactions[txn.txn_id] = txn
        if self.metrics is not None:
            self.metrics.inc("txn.begins")
        return txn

    def commit(self, txn_id: int) -> int:
        """Stamp the transaction's versions with a fresh commit timestamp.

        With a write-ahead log attached, the ``COMMIT`` record, carrying the
        transaction's writes, is appended *before* any version is stamped
        and forced before this returns, so a crash can never leave stamped
        versions whose commit is not in the log, nor lose an acknowledged
        commit.
        """
        txn = self._active(txn_id)
        commit_started = perf_counter()
        with self.latch.write():
            self._stamp(txn)
        self._settle(txn, commit_started)
        return txn.commit_timestamp

    def run_transaction(
        self,
        writes: Sequence[Tuple[Key, Optional[bytes]]],
        commit_timestamp: Optional[int] = None,
        admit: Optional[Callable[[], None]] = None,
    ) -> Transaction:
        """Apply ``writes`` (distinct keys; a ``None`` value deletes) and
        commit, as one transaction — the logged branch of the store's write
        path (:mod:`repro.api.store`).

        Logs what an interactive transaction with these writes logs — one
        ``COMMIT`` record carrying them — under the same lock discipline
        (every record lock is acquired before the latch), but everything
        after the locks happens under a *single* exclusive latch hold:
        ``admit`` (whatever it raises, like a version already at the stamp,
        aborts the transaction cleanly), the stamp order check, the size of
        every record and its log encoding, then the stamp — ``commit_timestamp`` when the
        caller has chosen it (the clock moves up to it), else the clock's
        next — then each write as a committed version at that stamp, then the
        ``COMMIT`` record.  Nobody can see the tree between the first write
        and the record, so no write needs to be provisional.  A batch refused
        by those checks logs nothing and moves neither the clock nor the
        tree; a tree write (or the append) that fails after a write landed
        logs nothing and flags the manager as requiring recovery
        (:meth:`_fail`), because the keys before it are already committed
        versions that only a restart removes.

        Returns the committed transaction — ``commit_timestamp`` carries the
        shared stamp, ``commit_lsn`` feeds durability checks.
        """
        txn = self.begin()
        commit_started = perf_counter()
        try:
            for key, _value in writes:
                self.locks.acquire_exclusive(txn.txn_id, key)
        except Exception:
            self.abort(txn.txn_id)
            raise
        tree = self.tree
        with self.latch.write():
            try:
                if admit is not None:
                    admit()
                if commit_timestamp is not None and commit_timestamp < tree.now:
                    raise TimestampOrderError(
                        f"commit timestamp {commit_timestamp} precedes the latest "
                        f"committed timestamp {tree.now}"
                    )
                tree.refuse_oversized(writes)
                encoded = (
                    () if self.log is None else [encode_write(key, value) for key, value in writes]
                )
            except Exception:
                self.abort(txn.txn_id)
                raise
            stamp = self._draw(commit_timestamp)
            written = 0
            try:
                for key, value in writes:
                    if value is None:
                        tree.delete(key, stamp)
                    else:
                        tree.insert(key, value, stamp)
                    written += 1
                self._log_commit(txn, stamp, encoded)
            except Exception as exc:
                self._fail(txn, exc, landed=written > 0)
                raise
            self._finish(txn, TransactionState.COMMITTED)
            txn.commit_timestamp = stamp
        self._settle(txn, commit_started)
        return txn

    def _draw(self, commit_timestamp: Optional[int]) -> int:
        """The commit stamp, drawn inside the exclusive latch hold so that
        stamping order equals timestamp order: a later stamp can never reach
        the tree before an earlier one."""
        if commit_timestamp is None:
            return self.clock.next_commit_timestamp()
        self.clock.advance_to(commit_timestamp)
        return commit_timestamp

    def _log_commit(
        self,
        txn: Transaction,
        commit_timestamp: int,
        writes: Sequence[bytes],
    ) -> None:
        if self.log is not None:
            txn.commit_lsn = self.log.log_commit(txn.txn_id, commit_timestamp, writes)

    def _stamp(self, txn: Transaction) -> None:
        """An interactive commit under the exclusive latch: draw the stamp,
        log the commit with the transaction's writes, then stamp the
        provisional versions."""
        commit_timestamp = self._draw(None)
        self._log_commit(txn, commit_timestamp, tuple(txn.write_set.values()))
        if txn.write_set:
            try:
                self.tree.commit_provisional(
                    txn.txn_id, sorted(txn.write_set), commit_timestamp, txn.leaves
                )
            except Exception:
                if self.log is not None:
                    # The commit record is authoritative once forced: the
                    # transaction *is* committed even though in-memory
                    # stamping failed.  Marking it committed here blocks a
                    # contradictory abort(); restart recovery will replay
                    # the stamping from the log.
                    self.log.force_through(txn.commit_lsn)
                    self._finish(txn, TransactionState.COMMITTED)
                    txn.commit_timestamp = commit_timestamp
                    self.locks.release_all(txn.txn_id)
                    self.requires_recovery = True
                raise
        self._finish(txn, TransactionState.COMMITTED)
        txn.commit_timestamp = commit_timestamp

    def _settle(self, txn: Transaction, commit_started: float) -> None:
        """The commit tail once the latch is released: drop the record locks,
        force the log through the commit record — readers are never stalled
        on log I/O, and a committer that appended while another forced
        shares that force — and take the checkpoint the log's rule calls
        for.  Every logged commit ends here, the write path's and an
        interactive one alike."""
        self.locks.release_all(txn.txn_id)
        if self.log is not None:
            self.log.force_through(txn.commit_lsn)
        if self.metrics is not None:
            self.metrics.inc("txn.commits")
            self.metrics.observe("txn.commit", perf_counter() - commit_started)
        if self.log is not None:
            self._checkpoint_if_due()

    def _checkpoint_if_due(self) -> None:
        """The log's checkpoint rule (:mod:`repro.recovery.log_manager`): a
        full checkpoint once the log holds ``CHECKPOINT_EVERY_BYTES`` past the
        tree's anchor, timed as ``op.checkpoint`` like an explicit one.  The
        test is repeated under the exclusive latch, so of the committers that
        crossed the line together one checkpoints; a suspect tree is not
        checkpointed, so a commit that succeeded never turns into a
        ``RecoveryRequiredError``.  A device error from the checkpoint still
        reaches the committer, whose commit is durable by then: restart
        recovery replays it."""
        log, tree = self.log, self.tree
        if self.requires_recovery or not log.checkpoint_due(tree):
            return
        with self.latch.write():
            if self.requires_recovery or not log.checkpoint_due(tree):
                return
            metrics = self.metrics
            with metrics.timer("op.checkpoint") if metrics is not None else nullcontext():
                log.checkpoint(tree, self)

    def observe_commit(self, timestamp: int) -> None:
        """The tree took a commit at ``timestamp`` without this manager (the
        direct branch of the store's write path): the clock moves up to it."""
        self.clock.advance_to(timestamp)

    def abort(self, txn_id: int) -> None:
        """Erase every provisional version the transaction wrote.  Nothing is
        logged: a transaction without a ``COMMIT`` record never happened."""
        txn = self._active(txn_id)
        with self.latch.write():
            if txn.write_set:
                self.tree.abort_provisional(txn_id, sorted(txn.write_set), txn.leaves)
            self._finish(txn, TransactionState.ABORTED)
        self.locks.release_all(txn_id)
        if self.metrics is not None:
            self.metrics.inc("txn.aborts")

    # ------------------------------------------------------------------
    # Operations inside a transaction
    # ------------------------------------------------------------------
    def write(self, txn_id: int, key: Key, value: bytes) -> None:
        self._write(txn_id, key, bytes(value))

    def delete(self, txn_id: int, key: Key) -> None:
        self._write(txn_id, key, None)

    def _write(self, txn_id: int, key: Key, value: Optional[bytes]) -> None:
        txn = self._active(txn_id)
        # Record lock first, latch second, always: a transaction blocked on
        # a record lock holds no latch, so readers and other writers keep
        # flowing while it waits (and latches stay deadlock-free).
        self.locks.acquire_exclusive(txn_id, key)
        with self.latch.write():
            self._apply(txn, key, value)

    def _apply(self, txn: Transaction, key: Key, value: Optional[bytes]) -> None:
        """One provisional write (``None``: a tombstone), remembered as the
        key's last word for the ``COMMIT`` record; nothing is logged.  The
        caller holds the key's record lock and the latch."""
        encoded = None if self.log is None else encode_write(key, value)
        try:
            if value is None:
                leaf = self.tree.delete_provisional(key, txn.txn_id)
            else:
                leaf = self.tree.insert_provisional(key, value, txn.txn_id)
        except Exception as exc:
            self._fail(txn, exc)
            raise
        txn.write_set[key] = encoded
        txn.leaves[key] = leaf

    def _fail(self, txn: Transaction, exc: Exception, landed: bool = False) -> None:
        """Doom a logged transaction whose tree write blew up mid-operation.

        Nothing of it is in the log, and nothing will be: it is aborted.  A
        clean rejection (a record too large for a page, alone or beside its
        key's versions, is refused before the tree is touched) leaves the
        tree intact, so the transaction's earlier provisional versions are
        erased immediately like any abort.  Any other failure may have broken
        the tree mid-structure-modification — erasing from it could make
        things worse — so the versions are left for restart recovery to undo
        and the manager is flagged as requiring recovery: full checkpoints
        refuse until a restart rebuilds from the last good image and the
        log, where the transaction is at most a loser a checkpoint carried.
        A ``run_transaction`` batch fails the second way whenever its earlier
        writes ``landed``: those keys are committed versions only that
        restart removes.  Without a log the old contract stands: the error
        propagates and the transaction stays active.
        """
        if self.log is None:
            return
        leaves = txn.leaves
        self._finish(txn, TransactionState.ABORTED)
        if isinstance(exc, RecordTooLargeError) and not landed:
            if txn.write_set:
                self.tree.abort_provisional(txn.txn_id, sorted(txn.write_set), leaves)
        else:
            self.requires_recovery = True
        self.locks.release_all(txn.txn_id)

    def read(self, txn_id: int, key: Key) -> Optional[bytes]:
        """Read inside an updating transaction (sees its own provisional writes)."""
        self._active(txn_id)
        with self.latch.read():
            version = self.tree.search_current(key, txn_id=txn_id)
        return None if version is None else version.value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def transaction(self, txn_id: int) -> Transaction:
        """The handle of an active transaction."""
        with self._registry_lock:
            try:
                return self._transactions[txn_id]
            except KeyError as exc:
                raise TransactionError(
                    f"transaction {txn_id} is not active (finished or never begun)"
                ) from exc

    def active_transactions(self) -> List[Transaction]:
        with self._registry_lock:
            return [
                txn
                for txn in self._transactions.values()
                if txn.state is TransactionState.ACTIVE
            ]

    def _finish(self, txn: Transaction, state: TransactionState) -> None:
        txn.state = state
        txn.leaves = {}
        with self._registry_lock:
            self._transactions.pop(txn.txn_id, None)

    def _active(self, txn_id: int) -> Transaction:
        txn = self.transaction(txn_id)
        if txn.state is not TransactionState.ACTIVE:
            raise TransactionError(
                f"transaction {txn_id} is {txn.state.value}, not active"
            )
        return txn
