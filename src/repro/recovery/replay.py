"""One way to apply a log: replay WAL records into a TSB-tree.

The forward path (:mod:`repro.txn.manager`) is the only writer of a store
under a log (the write path, :mod:`repro.api.store`), so the log determines
the run.  :class:`LogReplayer` is the only other code that turns WAL records
into tree writes.  A transaction is one ``COMMIT`` record carrying its
writes and its stamp, so replay is a writer that knows its commit stamp: it
writes each key's last word (a value or a tombstone) as a committed version
at the logged timestamp — one descent per key, the forward path's
known-stamp writes over again.  The paper's provisional versions appear in
replay only where a checkpoint image already holds them (below).  Because the
primary logs every record under its write latch, log order *is* the
serialization order, so replay is deterministic: the many serial orders
concurrent transactions admit collapse to the one the log wrote down — the
log as the *determination* of the run.

Why one record per transaction is enough:

* A WAL tree is **no-steal**: its pages reach the magnetic device only when
  a checkpoint flushes them.
* A checkpoint **forces the log before it flushes**, and its record names
  every active transaction's keys.
* So a page can hold an uncommitted version only through a checkpoint, and
  that checkpoint's active table is the undo information.  Everything else a
  restart or a follower needs — what committed, when, and with which writes —
  is in the commits.  An abort, a begin or a write that no ``COMMIT`` follows
  left nothing to redo and nothing outside such a table to undo.

Restart recovery, a follower's apply loop, a promoted replica and the
promotion oracle are all this one replayer; they differ only in the tree
they start from:

* an **empty tree** (follower, :func:`replay_device`): every version comes
  from the log, and a transaction that never committed leaves no trace;
* a **checkpoint image** (restart): the tree already holds provisional
  versions of the transactions that were active at the checkpoint.  The
  replayer reads the image's anchor LSN off the tree, skips everything below
  it, and seeds itself from the anchored ``CHECKPOINT`` record's
  active-transaction table; such a transaction's carried keys are rewritten
  in place with their last word and stamped at its ``COMMIT``, so each stays
  one version.  A carried transaction that aborted left no record, but
  record locks leave a proof: a ``COMMIT`` of another transaction that
  writes one of its keys could only take that key's lock after it ended
  without committing.  So that ``COMMIT`` first erases the carried keys,
  where the forward run's abort had erased them before it, and
  :meth:`LogReplayer.discard_in_flight` erases those of every carried
  transaction still undecided once the log is finished.

Key properties:

* **Prefix consistency.**  After applying any record prefix, the tree holds
  exactly the transactions whose ``COMMIT`` lies in that prefix.
* **Idempotence.**  Records at or below :attr:`LogReplayer.applied_lsn` are
  skipped, so re-delivery after a resubscribe cannot double-apply.
* **Watermark.**  :attr:`LogReplayer.watermark` is the largest commit
  timestamp applied; a follower read at or below it sees a committed prefix
  of the primary's history.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.tsb_tree import TSBTree
from repro.recovery.log_records import LogRecord, LogRecordType, decode_stream
from repro.storage.serialization import Key


class LogReplayer:
    """Apply one log's records incrementally to a TSB-tree.

    The caller owns ordering and latching: records must arrive in LSN order
    (the wire protocol guarantees it per shard) and :meth:`apply` must run
    under the store's write latch when reads are concurrently served from
    the same tree.
    """

    def __init__(self, tree, metrics=None, shard: int = 0) -> None:
        self.tree = tree
        # What is applied here exists, durably, only as this log on top of
        # the image the devices hold now: the pool may not move a page until
        # a checkpoint anchors a newer image.
        tree.cache.no_steal = True
        self.shard = shard
        self._metrics = metrics
        #: Provisional versions already inside the tree image, per
        #: transaction active at the anchored checkpoint: ``txn_id -> keys``.
        self._carried: Dict[int, Tuple[Key, ...]] = {}
        #: The same, inverted: ``key -> txn_id`` of the carrier holding it.
        self._carrier_of: Dict[Key, int] = {}
        self._anchor = tree.log_anchor
        #: Whether the image's own checkpoint record has been seen; nothing
        #: is applied before it (trivially true for a never-checkpointed tree).
        self.anchored = self._anchor == 0
        #: Highest LSN applied (records at or below it are skipped).  The
        #: image already contains everything below its anchor.
        self.applied_lsn = max(self._anchor - 1, 0)
        #: Largest commit timestamp applied — the follower-read watermark.
        self.watermark = 0
        #: Where the commit clock stood: every commit timestamp seen
        #: (write-less commits included) and every checkpoint's high water.
        self.high_water = 0
        #: Above every transaction id the log holds a trace of: a ``COMMIT``
        #: or a checkpoint's active table (and its next id).
        self.next_txn_id = 1
        self.records_applied = 0
        self.commits_applied = 0
        self.operations_applied = 0
        #: Carried transactions erased because no ``COMMIT`` decided them.
        self.losers_discarded = 0

    def apply(self, record: LogRecord) -> None:
        """Consume one record; commits become visible atomically."""
        if record.lsn <= self.applied_lsn:
            return  # duplicate delivery (resubscribe overlap): already applied
        if record.kind is LogRecordType.CHECKPOINT:
            self._note_checkpoint(record)
        if not self.anchored:
            return  # not this image's log (yet): touch nothing
        if record.kind is LogRecordType.COMMIT:
            self._commit(record)
        self.applied_lsn = record.lsn
        self.records_applied += 1

    def _note_checkpoint(self, record: LogRecord) -> None:
        """Checkpoints carry recovery anchors, not data.  The anchored one
        names the provisional versions inside the image; a later (fuzzy, or
        never-anchored full) one only tightens the recovered bounds."""
        if record.lsn == self._anchor:
            self._carried = {entry.txn_id: entry.keys for entry in record.active}
            self._carrier_of = {
                key: entry.txn_id for entry in record.active for key in entry.keys
            }
            self.anchored = True
        self.high_water = max(self.high_water, record.high_water)
        self.next_txn_id = max(self.next_txn_id, record.next_txn_id)

    def _commit(self, record: LogRecord) -> None:
        """Write the transaction's writes as committed versions at its
        logged stamp, in log order (one word per key: the writer kept the
        last).  A key the checkpoint image carried as this transaction's
        provisional version is rewritten in place and stamped instead, so it
        too ends up as one version.  A key another carried transaction held
        proves that one aborted: its carried versions go first."""
        tree = self.tree
        txn_id, commit_timestamp, writes = record.txn_id, record.commit_timestamp, record.writes
        carried = self._carried.pop(txn_id, ())
        carrier_of = self._carrier_of
        for key in carried:
            del carrier_of[key]
        if carrier_of:
            for key, _value in writes:
                loser = carrier_of.get(key)
                if loser is not None:
                    self._discard(loser)
        in_image = frozenset(carried)
        for key, value in writes:
            if key in in_image:
                if value is None:
                    tree.delete_provisional(key, txn_id)
                else:
                    tree.insert_provisional(key, value, txn_id)
            elif value is None:
                tree.delete(key, commit_timestamp)
            else:
                tree.insert(key, value, commit_timestamp)
        if carried:
            tree.commit_provisional(txn_id, carried, commit_timestamp)
        if writes:  # else committed but wrote nothing: only the clock moved
            self.watermark = max(self.watermark, commit_timestamp)
        self.high_water = max(self.high_water, commit_timestamp)
        self.next_txn_id = max(self.next_txn_id, txn_id + 1)
        self.commits_applied += 1
        self.operations_applied += len(writes)
        if self._metrics is not None:
            self._metrics.inc(f"repl.shard{self.shard}.commits_applied")
            self._metrics.observe(f"repl.shard{self.shard}.commit_keys", len(writes))

    def _discard(self, txn_id: int) -> None:
        """Erase a carried transaction's provisional versions from the image."""
        keys = self._carried.pop(txn_id)
        for key in keys:
            del self._carrier_of[key]
        if keys:
            self.tree.abort_provisional(txn_id, keys)
        self.losers_discarded += 1

    def discard_in_flight(self) -> int:
        """The log is finished: whoever has not committed by now never will.

        Erases from the image the provisional versions of every transaction
        the anchored checkpoint carried and nothing has decided since, and
        returns :attr:`losers_discarded`: those, plus the carriers a later
        commit of one of their keys proved aborted.
        """
        for txn_id in list(self._carried):
            self._discard(txn_id)
        return self.losers_discarded

    def replay(self, data: bytes) -> int:
        """Apply every intact record in ``data``; return the count applied."""
        before = self.records_applied
        for record in decode_stream(data):
            self.apply(record)
        return self.records_applied - before

    def visible_state(self) -> Dict[Key, bytes]:
        """Latest non-tombstone value per key — the oracle surface
        crash-convergence tests compare against ``expected_visible``."""
        return {version.key: version.value for version in self.tree.range_search()}


def replay_device(device, tree=None, metrics=None, shard: int = 0) -> LogReplayer:
    """Replay a log device's durable contents into ``tree`` (fresh by default).

    The promotion digest check and the crash harnesses both use this: the
    durable bytes of a log device, replayed through a fresh
    :class:`LogReplayer`, are the ground truth a promoted or recovered store
    must match.
    """
    if tree is None:
        tree = TSBTree()
    replayer = LogReplayer(tree, metrics=metrics, shard=shard)
    replayer.replay(device.durable_contents())
    return replayer
