"""One way to apply a log: replay WAL records into a TSB-tree.

The forward path (:mod:`repro.txn.manager`) is the only writer of a store
under a log (the write path, :mod:`repro.api.store`), so the log determines
the run.  :class:`LogReplayer` is the only other code that turns WAL records
into tree writes.  Records arrive one at a time, in log order; each
transaction's operations are buffered until its ``COMMIT`` arrives.  That
record carries the stamp, so replay is a writer that knows its commit stamp:
it writes each key's last logged value (or tombstone) as a committed version
at the logged timestamp — one descent per key, the forward path's
known-stamp writes over again.  The paper's provisional versions appear in
replay only where a checkpoint image already holds them (below).  Because the
primary logs every record under its write latch, log order *is* the
serialization order, so replay is deterministic: the many serial orders
concurrent transactions admit collapse to the one the log wrote down — the
log as the *determination* of the run.

Restart recovery, a follower's apply loop, a promoted replica and the
promotion oracle are all this one replayer; they differ only in the tree
they start from:

* an **empty tree** (follower, :func:`replay_device`): every version comes
  from the log, and aborted or in-flight transactions leave no trace — their
  buffered operations are dropped or still pending, so no undo ever runs;
* a **checkpoint image** (restart): the tree already holds provisional
  versions of the transactions that were active at the checkpoint.  The
  replayer reads the image's anchor LSN off the tree, skips everything below
  it, and seeds itself from the anchored ``CHECKPOINT`` record's
  active-transaction table; such a transaction's carried keys are stamped
  in place at its ``COMMIT`` (a carried key it rewrote after the checkpoint
  is rewritten in place first, so it stays one version), erased at its
  ``ABORT``, and erased by :meth:`LogReplayer.discard_in_flight` when the
  log is finished and the transaction never decided.

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

from typing import Dict, List, Optional, Tuple

from repro.core.tsb_tree import TSBTree
from repro.recovery.log_records import LogRecord, LogRecordType, decode_stream
from repro.storage.serialization import Key

#: One buffered write: ``(is_delete, key, value)``.
Operation = Tuple[bool, Key, bytes]


class TransactionBuffer:
    """Holds each transaction's logged operations until its fate is logged."""

    def __init__(self) -> None:
        #: ``txn_id -> operations`` of the transactions still undecided.
        self.pending: Dict[int, List[Operation]] = {}

    def feed(self, record: LogRecord) -> Optional[List[Operation]]:
        """Consume one record.

        Returns the transaction's operations, in log order, when ``record``
        is its ``COMMIT`` (an empty list for a transaction that wrote
        nothing) and ``None`` for every other record; an ``ABORT`` drops
        what was buffered.
        """
        kind = record.kind
        if kind is LogRecordType.INSERT:
            self.pending.setdefault(record.txn_id, []).append(
                (False, record.key, record.value)
            )
        elif kind is LogRecordType.DELETE:
            self.pending.setdefault(record.txn_id, []).append((True, record.key, b""))
        elif kind is LogRecordType.BEGIN:
            self.pending[record.txn_id] = []
        elif kind is LogRecordType.COMMIT:
            return self.pending.pop(record.txn_id, [])
        elif kind is LogRecordType.ABORT:
            self.pending.pop(record.txn_id, None)
        return None


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
        self._buffer = TransactionBuffer()
        #: Provisional versions already inside the tree image, per
        #: transaction active at the anchored checkpoint: ``txn_id -> keys``.
        self._carried: Dict[int, Tuple[Key, ...]] = {}
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
        #: The transaction id the log's writer would have assigned next.
        self.next_txn_id = 1
        self.records_applied = 0
        self.commits_applied = 0
        self.aborts_applied = 0
        self.operations_applied = 0

    def apply(self, record: LogRecord) -> None:
        """Consume one record; commits become visible atomically."""
        if record.lsn <= self.applied_lsn:
            return  # duplicate delivery (resubscribe overlap): already applied
        kind = record.kind
        if kind is LogRecordType.CHECKPOINT:
            self._note_checkpoint(record)
        if not self.anchored:
            return  # not this image's log (yet): touch nothing
        operations = self._buffer.feed(record)
        if operations is not None:
            self._commit(record.txn_id, record.commit_timestamp, operations)
        elif kind is LogRecordType.ABORT:
            self._erase_carried(record.txn_id)
            self.aborts_applied += 1
        elif kind is LogRecordType.BEGIN and record.txn_id >= self.next_txn_id:
            self.next_txn_id = record.txn_id + 1
        self.applied_lsn = record.lsn
        self.records_applied += 1

    def _note_checkpoint(self, record: LogRecord) -> None:
        """Checkpoints carry recovery anchors, not data.  The anchored one
        names the provisional versions inside the image; a later (fuzzy, or
        never-anchored full) one only tightens the recovered bounds."""
        if record.lsn == self._anchor:
            self._carried = {entry.txn_id: entry.keys for entry in record.active}
            self.anchored = True
        self.high_water = max(self.high_water, record.high_water)
        self.next_txn_id = max(self.next_txn_id, record.next_txn_id)

    def _commit(
        self, txn_id: int, commit_timestamp: int, operations: List[Operation]
    ) -> None:
        """Write the transaction's operations as committed versions at its
        logged stamp, the last word per key only: the tree keeps the *first*
        of two versions of a key at one stamp, and the writer kept the last.
        A key the checkpoint image carried as this transaction's provisional
        version is rewritten in place and stamped instead, so it too ends up
        as one version."""
        tree = self.tree
        carried = self._carried.pop(txn_id, ())
        final = {key: (is_delete, value) for is_delete, key, value in operations}
        for key, (is_delete, value) in final.items():
            if key in carried:
                if is_delete:
                    tree.delete_provisional(key, txn_id)
                else:
                    tree.insert_provisional(key, value, txn_id)
            elif is_delete:
                tree.delete(key, commit_timestamp)
            else:
                tree.insert(key, value, commit_timestamp)
        if carried:
            tree.commit_provisional(txn_id, carried, commit_timestamp)
        keys = final.keys() | carried
        if keys:  # else committed but wrote nothing: only the clock moved
            self.watermark = max(self.watermark, commit_timestamp)
        self.high_water = max(self.high_water, commit_timestamp)
        self.commits_applied += 1
        self.operations_applied += len(operations)
        if self._metrics is not None:
            self._metrics.inc(f"repl.shard{self.shard}.commits_applied")
            self._metrics.observe(f"repl.shard{self.shard}.commit_keys", len(keys))

    def _erase_carried(self, txn_id: int) -> None:
        keys = self._carried.pop(txn_id, ())
        if keys:
            self.tree.abort_provisional(txn_id, keys)

    def discard_in_flight(self) -> int:
        """The log is finished: whoever has not decided by now never will.

        Erases the provisional versions such transactions left inside the
        image (operations logged past the anchor were only ever buffered)
        and returns how many transactions were in flight.
        """
        in_flight = set(self._buffer.pending).union(self._carried)
        for txn_id in list(self._carried):
            self._erase_carried(txn_id)
        self._buffer.pending.clear()
        return len(in_flight)

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
