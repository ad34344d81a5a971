"""Binary write-ahead-log record format.

Every record the :class:`~repro.recovery.log_manager.LogManager` appends is
one framed, checksummed unit::

    [u32 body length][u32 crc32(body)][body]
    body = [u64 lsn][u8 kind][kind-specific fields]

There are two record kinds:

``COMMIT``
    One transaction, whole: ``[u64 txn id][u64 commit stamp][u32 n]``, then
    per write ``[u8 delete][key][value unless delete]`` in the page codecs'
    key and value encodings (:mod:`repro.storage.serialization`).  It is the
    only record a transaction appends: nothing is logged before it, and a
    transaction that aborts or never finishes logs nothing at all
    (:mod:`repro.recovery.replay` says why that is enough).  A transaction
    is durably committed exactly when its record is inside the forced log
    prefix.  Each write is encoded once, by
    :func:`~repro.storage.serialization.encode_write`, as its writer makes it.
``CHECKPOINT``
    A recovery anchor: the timestamp-oracle high-water mark, the next
    transaction id, and the active-transaction table — each in-flight
    transaction with the keys it has written so far, whose provisional
    versions a full checkpoint's image holds.  Full checkpoints also flush
    the tree and stamp the superblock with this record's LSN; fuzzy
    checkpoints write only the record (see
    :meth:`~repro.recovery.log_manager.LogManager.checkpoint`).

The CRC plus length framing lets a reader stop cleanly at a torn tail
instead of replaying garbage: a crash may lose the unforced suffix of the
log, never corrupt its durable prefix silently.  :func:`iter_frames` is the
one walk of that framing: :func:`decode_stream` (restart recovery, log
replay) decodes each body it yields, and the replication tier's
``iter_wal_records`` (:mod:`repro.server.protocol`) reads only each body's
LSN.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.storage.serialization import (
    ByteReader,
    ByteWriter,
    Key,
    SerializationError,
    encode_write,
    read_key,
    read_write,
    write_key,
)


class LogRecordError(Exception):
    """Raised when a log record cannot be encoded or decoded."""


class LogRecordType(enum.IntEnum):
    """Discriminator byte stored in every record body."""

    COMMIT = 4
    CHECKPOINT = 6


#: One write of a transaction: ``(key, value)``, a ``None`` value a tombstone.
Write = Tuple[Key, Optional[bytes]]

_FRAME = struct.Struct(">II")
#: Every body starts with its u64 LSN: a shorter frame is no record.
_LSN_SIZE = 8
_COMMIT_HEAD = struct.Struct(">QBQQI")


@dataclass(frozen=True)
class ActiveTransaction:
    """One row of a checkpoint record's active-transaction table."""

    txn_id: int
    keys: Tuple[Key, ...]


@dataclass(frozen=True)
class LogRecord:
    """A decoded write-ahead-log record.

    Only the fields relevant to ``kind`` are meaningful; the rest keep their
    defaults (one flat struct, a kind tag, and per-kind fields).
    """

    lsn: int
    kind: LogRecordType
    # commit-only fields
    txn_id: int = 0
    commit_timestamp: int = 0
    writes: Tuple[Write, ...] = ()
    # checkpoint-only fields
    high_water: int = 0
    next_txn_id: int = 0
    fuzzy: bool = False
    active: Tuple[ActiveTransaction, ...] = ()

    @staticmethod
    def commit(
        lsn: int, txn_id: int, commit_timestamp: int, writes: Tuple[Write, ...] = ()
    ) -> "LogRecord":
        return LogRecord(
            lsn=lsn,
            kind=LogRecordType.COMMIT,
            txn_id=txn_id,
            commit_timestamp=commit_timestamp,
            writes=tuple(writes),
        )

    @staticmethod
    def checkpoint(
        lsn: int,
        high_water: int,
        next_txn_id: int,
        active: Tuple[ActiveTransaction, ...] = (),
        fuzzy: bool = False,
    ) -> "LogRecord":
        return LogRecord(
            lsn=lsn,
            kind=LogRecordType.CHECKPOINT,
            high_water=high_water,
            next_txn_id=next_txn_id,
            fuzzy=fuzzy,
            active=active,
        )


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_commit(
    lsn: int, txn_id: int, commit_timestamp: int, writes: Sequence[bytes]
) -> bytes:
    """Frame a ``COMMIT`` of ``writes``, each already encoded by
    :func:`~repro.storage.serialization.encode_write`."""
    payload = b"".join(writes)
    head = _COMMIT_HEAD.pack(
        lsn, LogRecordType.COMMIT, txn_id, commit_timestamp, len(writes)
    )
    crc = zlib.crc32(payload, zlib.crc32(head))
    return _FRAME.pack(len(head) + len(payload), crc) + head + payload


def encode_record(record: LogRecord) -> bytes:
    """Frame ``record`` as length + crc32 + body."""
    if record.kind is LogRecordType.COMMIT:
        return encode_commit(
            record.lsn,
            record.txn_id,
            record.commit_timestamp,
            [encode_write(key, value) for key, value in record.writes],
        )
    writer = ByteWriter()
    writer.put_u64(record.lsn)
    writer.put_u8(LogRecordType.CHECKPOINT)
    writer.put_u64(record.high_water)
    writer.put_u64(record.next_txn_id)
    writer.put_u8(1 if record.fuzzy else 0)
    writer.put_u32(len(record.active))
    for entry in record.active:
        writer.put_u64(entry.txn_id)
        writer.put_u32(len(entry.keys))
        for key in entry.keys:
            write_key(writer, key)
    body = writer.getvalue()
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def decode_body(body: bytes) -> LogRecord:
    """Decode one record body (the framed part after length and CRC), in
    one pass."""
    reader = ByteReader(body)
    lsn = reader.get_u64()
    try:
        kind = LogRecordType(reader.get_u8())
    except ValueError as exc:
        raise LogRecordError(f"unknown log record kind in record {lsn}") from exc
    if kind is LogRecordType.COMMIT:
        txn_id = reader.get_u64()
        commit_timestamp = reader.get_u64()
        writes = tuple(read_write(reader) for _ in range(reader.get_u32()))
        return LogRecord(
            lsn=lsn,
            kind=kind,
            txn_id=txn_id,
            commit_timestamp=commit_timestamp,
            writes=writes,
        )
    high_water = reader.get_u64()
    next_txn_id = reader.get_u64()
    fuzzy = reader.get_u8() != 0
    active: List[ActiveTransaction] = []
    for _ in range(reader.get_u32()):
        txn_id = reader.get_u64()
        keys = tuple(read_key(reader) for _ in range(reader.get_u32()))
        active.append(ActiveTransaction(txn_id=txn_id, keys=keys))
    return LogRecord.checkpoint(
        lsn, high_water, next_txn_id, active=tuple(active), fuzzy=fuzzy
    )


def iter_frames(data: bytes) -> Iterator[Tuple[int, bytes, int]]:
    """Walk the record frames of ``data``: ``(start, body, end)`` of each
    intact one, in order, as offsets into ``data``.

    The walk stops at the first frame that is torn (its header or body runs
    past the data: the final frame never fully reached the disk), too short
    to hold an LSN, or fails its CRC (a corrupt tail record) — the end of
    the usable log.  Everything before it is trusted, everything from it on
    is discarded.
    """
    position, limit = 0, len(data)
    while position + _FRAME.size <= limit:
        length, crc = _FRAME.unpack_from(data, position)
        start = position + _FRAME.size
        end = start + length
        if length < _LSN_SIZE or end > limit:
            return
        body = data[start:end]
        if zlib.crc32(body) != crc:
            return
        yield position, body, end
        position = end


def decode_stream(data: bytes) -> Iterator[LogRecord]:
    """Yield every intact record from ``data``, stopping at a torn tail
    (:func:`iter_frames`) or at the first body that does not decode.  This
    is exactly how restart recovery finds the end of the log after a crash
    mid-force."""
    for _, body, _ in iter_frames(data):
        try:
            yield decode_body(body)
        except (LogRecordError, SerializationError):
            return
