"""Transaction manager over a versioned backend (paper section 4).

Every store's writes commit here, whatever its engine: the manager needs of
its backend only ``insert(key, value, timestamp)``, ``now``, and — for what
only the TSB-tree offers — ``delete``, ``refuse_oversized`` and the
provisional versions of interactive transactions.  It implements the
versioning-based concurrency scheme the paper describes:

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
  run_transaction`, the store's one write path, with a log or without)
  needs none of that: one call takes its record locks in one total order,
  draws each commit's stamp under one exclusive latch hold with its writes,
  so nobody could observe a provisional state, and writes each key as a
  committed version at that stamp — one descent per key.  Every check runs
  before anything is written.
* **Read-only transactions** need nothing from this manager but its clock:
  a reader pinned at :meth:`TimestampOracle.read_timestamp
  <repro.txn.clock.TimestampOracle.read_timestamp>` reads the tree without
  any locks (:meth:`VersionStore.begin_readonly
  <repro.api.store.VersionStore.begin_readonly>` hands out the one handle).

When a :class:`~repro.recovery.log_manager.LogManager` is attached, a
commit appends exactly one record: its ``COMMIT``, which carries the
last word of every key it wrote.  ``begin``, ``write``, ``delete`` and
``abort`` log nothing (a :class:`Transaction` keeps its writes in
``write_set`` until then).  A writer that knows its stamp appends each
commit's record after that commit's tree writes and before it releases the
latch; an interactive commit appends it *before* the versions are stamped.
A transaction is durably committed exactly when its record lies inside the
forced log prefix, which is what restart recovery (:mod:`repro.recovery`)
reconstructs after a crash.  Every logged commit, of either kind, is forced
through its record once it has left the latch — one force for all the
commits of a write-path call, shared with any committer that appended
beside it — before it is acknowledged, and then applies the log's
checkpoint rule: a full checkpoint when the log holds
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
  active-transaction table safe.  A write-path call is never in that table:
  it holds no provisional version, and no checkpoint can run inside its
  latch hold.
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
from repro.storage.serialization import Key, check_key, encode_write
from repro.txn.clock import TimestampOracle
from repro.txn.locks import LockManager

#: One commit of the write path: its writes over distinct keys (a ``None``
#: value a tombstone) and the caller's stamp, or ``None`` for the clock's next.
Commit = Tuple[Sequence[Tuple[Key, Optional[bytes]]], Optional[int]]

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
    #: ``COMMIT`` record carries it — encoded with or without a log, so a key
    #: the codec cannot hold is refused before the tree takes it.  The write
    #: path (``run_transaction``) makes no Transaction.
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
        txn = Transaction(txn_id=self._reserve(1), manager=self)
        with self._registry_lock:
            self._transactions[txn.txn_id] = txn
        return txn

    def _reserve(self, count: int) -> int:
        """The first of ``count`` fresh transaction ids, each counted as a
        begin."""
        with self._registry_lock:
            first = self._next_txn_id
            self._next_txn_id += count
        if self.metrics is not None:
            self.metrics.inc("txn.begins", count)
        return first

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
        self._settle(txn_id, txn.commit_lsn, started=commit_started)
        return txn.commit_timestamp

    def run_transaction(
        self,
        commits: Sequence[Commit],
        admit: Optional[Callable[[Sequence[Commit]], None]] = None,
    ) -> List[int]:
        """Apply and commit ``commits`` — each ``(writes, stamp)``: writes
        over distinct keys (a ``None`` value deletes) and the caller's stamp,
        or ``None`` for the clock's next — in one call: the store's write
        path (:mod:`repro.api.store`).  Returns each write's stamp.

        The call takes the record locks of every key it writes, in one
        call and one total order (:meth:`LockManager.acquire_all
        <repro.txn.locks.LockManager.acquire_all>`), then one exclusive
        latch hold.  In it, before anything is written: ``admit`` (whatever
        it raises, like a version already at a stamp, refuses the call), a
        caller's stamp that precedes the clock, a key the log codec cannot
        hold, and a record too large for a page among a commit's several
        writes (the tree refuses a lone one before it touches a node) are
        refused.  Then each commit in turn is written as committed versions
        at its stamp — one descent per key: nobody can see the tree before
        the latch is released, so no write needs to be provisional — and,
        with a log, appends its ``COMMIT`` record.  The call settles once
        (:meth:`_settle`).

        A commit that fails leaves the ones before it committed, and forced
        before the error reaches the caller.  With a log, one that failed
        after a write of it landed (or for any reason but a record too
        large) flags the manager as requiring recovery (:meth:`_fail`): its
        landed keys are committed versions only a restart removes.
        """
        owner = self._reserve(len(commits))
        stamps: List[int] = []
        lsn = committed = 0
        try:
            self.locks.acquire_all(owner, [key for writes, _ in commits for key, _ in writes])
            self.latch.acquire_write()
            try:
                if admit is not None:
                    admit(commits)
                encoded = self._refuse(commits)
                tree, clock = self.tree, self.clock
                for (writes, stamp), records in zip(commits, encoded):
                    if stamp is None:
                        stamp = clock.latest + 1
                    written = 0
                    try:
                        for key, value in writes:
                            if value is None:
                                tree.delete(key, stamp)
                            else:
                                tree.insert(key, value, stamp)
                            written += 1
                        lsn = self._log_commit(owner + committed, stamp, records)
                    except Exception as exc:
                        self._fail(exc, landed=written > 0)
                        raise
                    finally:
                        if written:
                            clock.advance_to(stamp)
                    stamps.extend([stamp] * written)
                    committed += 1
            finally:
                self.latch.release_write()
        finally:
            self._settle(owner, lsn, committed)
            if committed < len(commits) and self.metrics is not None:
                self.metrics.inc("txn.aborts", len(commits) - committed)
        return stamps

    def _refuse(self, commits: Sequence[Commit]) -> List[Sequence[bytes]]:
        """The write path's checks that need the latch, for every commit
        before any is written: a stamp before the clock (or before an earlier
        commit's), a record too large among several writes, a key the log
        codec cannot hold.  Returns each commit's writes encoded as its
        ``COMMIT`` record carries them; without a log, where no record is
        appended, only the keys are checked."""
        floor = self.clock.latest
        encoded: List[Sequence[bytes]] = []
        for writes, stamp in commits:
            if stamp is not None:
                if stamp < floor:
                    raise TimestampOrderError(
                        f"commit timestamp {stamp} precedes the latest committed "
                        f"timestamp {floor}"
                    )
                floor = stamp
            if len(writes) > 1:
                self.tree.refuse_oversized(writes)
            if self.log is None:
                for key, _ in writes:
                    check_key(key)
                encoded.append(())
            else:
                encoded.append([encode_write(key, value) for key, value in writes])
        return encoded

    def _log_commit(
        self, txn_id: int, commit_timestamp: int, writes: Sequence[bytes]
    ) -> Optional[int]:
        """Append a commit's one ``COMMIT`` record; its LSN (``None``
        without a log)."""
        return None if self.log is None else self.log.log_commit(txn_id, commit_timestamp, writes)

    def _stamp(self, txn: Transaction) -> None:
        """An interactive commit under the exclusive latch: draw the stamp,
        log the commit with the transaction's writes, then stamp the
        provisional versions."""
        commit_timestamp = self.clock.next_commit_timestamp()
        txn.commit_lsn = self._log_commit(
            txn.txn_id, commit_timestamp, tuple(txn.write_set.values())
        )
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

    def _settle(
        self, owner: int, lsn: int, committed: int = 1, started: Optional[float] = None
    ) -> None:
        """The commit tail once the latch is released: drop ``owner``'s
        record locks, force the log through ``lsn`` — readers are never
        stalled on log I/O, and a committer that appended while another
        forced shares that force — count the ``committed`` commits, and take
        the checkpoint the log's rule calls for.  Every call of the write
        path ends here, failed or not, and so does every interactive commit,
        which also times itself from ``started`` (a write-path call is timed
        once, by the store's ``op.*`` timer)."""
        self.locks.release_all(owner)
        log = self.log
        if log is not None:
            log.force_through(lsn)
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("txn.commits", committed)
            if started is not None:
                metrics.observe("txn.commit", perf_counter() - started)
        if log is not None:
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
        encoded = encode_write(key, value)
        try:
            if value is None:
                leaf = self.tree.delete_provisional(key, txn.txn_id)
            else:
                leaf = self.tree.insert_provisional(key, value, txn.txn_id)
        except Exception as exc:
            self._fail(exc, txn=txn)
            raise
        txn.write_set[key] = encoded
        txn.leaves[key] = leaf

    def _fail(
        self, exc: Exception, landed: bool = False, txn: Optional[Transaction] = None
    ) -> None:
        """Doom a logged commit whose tree write blew up mid-operation.

        Nothing of it is in the log, and nothing will be.  A clean rejection
        (a record too large for a page, alone or beside its key's versions,
        is refused before the tree is touched) leaves the tree intact: an
        interactive ``txn``'s earlier provisional versions are erased at once
        like any abort.  Any other failure may have broken the tree
        mid-structure-modification — erasing from it could make things
        worse — so the manager is flagged as requiring recovery: full
        checkpoints refuse until a restart rebuilds from the last good image
        and the log, where the transaction is at most a loser a checkpoint
        carried.  A write-path commit fails the second way whenever its
        earlier writes ``landed``: those keys are committed versions only
        that restart removes.  Without a log the old contract stands: the
        error propagates, what landed stays, and an interactive transaction
        stays active.
        """
        if self.log is None:
            return
        clean = isinstance(exc, RecordTooLargeError) and not landed
        if not clean:
            self.requires_recovery = True
        if txn is not None:
            leaves = txn.leaves
            self._finish(txn, TransactionState.ABORTED)
            if clean and txn.write_set:
                self.tree.abort_provisional(txn.txn_id, sorted(txn.write_set), leaves)
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
