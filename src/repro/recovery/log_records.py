"""Binary write-ahead-log record format.

Every record the :class:`~repro.recovery.log_manager.LogManager` appends is
one framed, checksummed unit built with the same
:class:`~repro.storage.serialization.ByteWriter` codecs the page images use::

    [u32 body length][u32 crc32(body)][body]
    body = [u64 lsn][u8 kind][kind-specific fields]

Record kinds (paper section 4 vocabulary):

``BEGIN``
    A transaction started.
``INSERT`` / ``DELETE``
    The transaction wrote a version (value or tombstone) of a key: a
    provisional one in an interactive transaction, a committed one at its
    stamp in a transaction that knows it (the write path's); replay writes
    it at the ``COMMIT`` record's stamp either way.  Logged *before* the
    tree is touched, so the log is always at least as new as any page that
    could reach the disk.
``COMMIT``
    The transaction received its commit timestamp from the
    :class:`~repro.txn.clock.TimestampOracle`.  A transaction is durably
    committed exactly when this record is inside the forced log prefix.
``ABORT``
    The transaction's provisional versions were (or, after a crash, must be)
    erased.
``CHECKPOINT``
    A recovery anchor: the timestamp-oracle high-water mark, the next
    transaction id, and the active-transaction table — each in-flight
    transaction with the keys it has written so far.  Full checkpoints also
    flush the tree and stamp the superblock with this record's LSN; fuzzy
    checkpoints write only the record (see
    :meth:`~repro.recovery.log_manager.LogManager.checkpoint`).

The CRC plus length framing lets :func:`decode_stream` stop cleanly at a
torn tail instead of replaying garbage: a crash may lose the unforced suffix
of the log, never corrupt its durable prefix silently.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.storage.serialization import (
    ByteReader,
    ByteWriter,
    Key,
    SerializationError,
    read_key,
    read_value,
    write_key,
    write_value,
)


class LogRecordError(Exception):
    """Raised when a log record cannot be encoded or decoded."""


class LogRecordType(enum.IntEnum):
    """Discriminator byte stored in every record body."""

    BEGIN = 1
    INSERT = 2
    DELETE = 3
    COMMIT = 4
    ABORT = 5
    CHECKPOINT = 6


@dataclass(frozen=True)
class ActiveTransaction:
    """One row of a checkpoint record's active-transaction table."""

    txn_id: int
    keys: Tuple[Key, ...]


@dataclass(frozen=True)
class LogRecord:
    """A decoded write-ahead-log record.

    Only the fields relevant to ``kind`` are meaningful; the rest keep their
    defaults (this mirrors how variant records are usually modelled in log
    implementations — one flat struct, a kind tag, and per-kind fields).
    """

    lsn: int
    kind: LogRecordType
    txn_id: int = 0
    key: Optional[Key] = None
    value: bytes = b""
    commit_timestamp: int = 0
    # checkpoint-only fields
    high_water: int = 0
    next_txn_id: int = 0
    fuzzy: bool = False
    active: Tuple[ActiveTransaction, ...] = ()

    @staticmethod
    def begin(lsn: int, txn_id: int) -> "LogRecord":
        return LogRecord(lsn=lsn, kind=LogRecordType.BEGIN, txn_id=txn_id)

    @staticmethod
    def insert(lsn: int, txn_id: int, key: Key, value: bytes) -> "LogRecord":
        return LogRecord(
            lsn=lsn, kind=LogRecordType.INSERT, txn_id=txn_id, key=key, value=bytes(value)
        )

    @staticmethod
    def delete(lsn: int, txn_id: int, key: Key) -> "LogRecord":
        return LogRecord(lsn=lsn, kind=LogRecordType.DELETE, txn_id=txn_id, key=key)

    @staticmethod
    def commit(lsn: int, txn_id: int, commit_timestamp: int) -> "LogRecord":
        return LogRecord(
            lsn=lsn,
            kind=LogRecordType.COMMIT,
            txn_id=txn_id,
            commit_timestamp=commit_timestamp,
        )

    @staticmethod
    def abort(lsn: int, txn_id: int) -> "LogRecord":
        return LogRecord(lsn=lsn, kind=LogRecordType.ABORT, txn_id=txn_id)

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
def encode_record(record: LogRecord) -> bytes:
    """Frame ``record`` as length + crc32 + body."""
    body = _encode_body(record)
    frame = ByteWriter()
    frame.put_u32(len(body))
    frame.put_u32(zlib.crc32(body) & 0xFFFFFFFF)
    frame.put_raw(body)
    return frame.getvalue()


def _encode_body(record: LogRecord) -> bytes:
    writer = ByteWriter()
    writer.put_u64(record.lsn)
    writer.put_u8(int(record.kind))
    kind = record.kind
    if kind in (LogRecordType.BEGIN, LogRecordType.ABORT):
        writer.put_u64(record.txn_id)
    elif kind is LogRecordType.INSERT:
        writer.put_u64(record.txn_id)
        if record.key is None:
            raise LogRecordError("INSERT records need a key")
        write_key(writer, record.key)
        write_value(writer, record.value)
    elif kind is LogRecordType.DELETE:
        writer.put_u64(record.txn_id)
        if record.key is None:
            raise LogRecordError("DELETE records need a key")
        write_key(writer, record.key)
    elif kind is LogRecordType.COMMIT:
        writer.put_u64(record.txn_id)
        writer.put_u64(record.commit_timestamp)
    elif kind is LogRecordType.CHECKPOINT:
        writer.put_u64(record.high_water)
        writer.put_u64(record.next_txn_id)
        writer.put_u8(1 if record.fuzzy else 0)
        writer.put_u32(len(record.active))
        for entry in record.active:
            writer.put_u64(entry.txn_id)
            writer.put_u32(len(entry.keys))
            for key in entry.keys:
                write_key(writer, key)
    else:  # pragma: no cover - enum is exhaustive
        raise LogRecordError(f"unknown record kind {kind!r}")
    return writer.getvalue()


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def decode_body(body: bytes) -> LogRecord:
    """Decode one record body (the framed part after length and CRC)."""
    reader = ByteReader(body)
    lsn = reader.get_u64()
    try:
        kind = LogRecordType(reader.get_u8())
    except ValueError as exc:
        raise LogRecordError(f"unknown log record kind in record {lsn}") from exc
    if kind in (LogRecordType.BEGIN, LogRecordType.ABORT):
        return LogRecord(lsn=lsn, kind=kind, txn_id=reader.get_u64())
    if kind is LogRecordType.INSERT:
        txn_id = reader.get_u64()
        key = read_key(reader)
        value = read_value(reader)
        return LogRecord.insert(lsn, txn_id, key, value)
    if kind is LogRecordType.DELETE:
        txn_id = reader.get_u64()
        return LogRecord.delete(lsn, txn_id, read_key(reader))
    if kind is LogRecordType.COMMIT:
        txn_id = reader.get_u64()
        return LogRecord.commit(lsn, txn_id, reader.get_u64())
    # CHECKPOINT
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


def decode_stream(data: bytes) -> Iterator[LogRecord]:
    """Yield every intact record from ``data``, stopping at a torn tail.

    A record whose frame is truncated or whose CRC does not match marks the
    end of the usable log — everything before it is trusted, everything from
    it on is discarded.  This is exactly how restart recovery finds the end
    of the log after a crash mid-force.
    """
    reader = ByteReader(data)
    while reader.remaining >= 8:
        length = reader.get_u32()
        crc = reader.get_u32()
        if reader.remaining < length:
            return  # torn tail: the final frame never fully reached the disk
        body = reader.get_raw(length)
        if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
            return  # corrupt tail record: stop replay here
        try:
            yield decode_body(body)
        except (LogRecordError, SerializationError):
            return
