"""The wire protocol: struct-framed, CRC-checked request/response units.

The server speaks a length-prefixed binary protocol over TCP, built from the
same :class:`~repro.storage.serialization.ByteWriter` codecs as the page
images and framed exactly like the write-ahead log
(:mod:`repro.recovery.log_records`)::

    frame    = [u32 body length][u32 crc32(body)][body]
    request  = [u64 request id][u8 opcode][tenant: len-prefixed utf-8][payload]
    response = [u64 request id][u8 status][payload]

The CRC plus length framing gives the server the WAL's torn-tail property
on the wire: a connection that dies mid-frame is detected at the frame
boundary (:exc:`TruncatedFrameError`), and a corrupted body never decodes
silently (:exc:`ChecksumError`).  A body length above
:data:`MAX_BODY_BYTES` is rejected *before* the body is read, so a
malformed (or hostile) length prefix cannot make either side buffer
gigabytes (:exc:`FrameTooLargeError`).

Payload codecs are symmetric pack/unpack pairs shared by
:class:`~repro.server.service.ReproServer` and
:class:`~repro.client.ReproClient`, reusing the key/value/timestamp codecs
of :mod:`repro.storage.serialization` — so a key that round-trips through a
page image round-trips through the wire identically, and the differential
oracles compare byte-equal answers across the in-process and served paths.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.engine import RecordView
from repro.api.store import VersionEvent
from repro.storage.serialization import (
    ByteReader,
    ByteWriter,
    Key,
    SerializationError,
    read_key,
    read_timestamp,
    read_value,
    write_key,
    write_timestamp,
    write_value,
)

#: [u32 body length][u32 crc32(body)] — identical to the WAL record framing.
FRAME_HEADER = struct.Struct(">II")

#: Hard per-frame payload bound.  Large batches fit comfortably (a 4 MiB
#: frame holds tens of thousands of typical records); anything bigger is a
#: framing error, not a workload.  Results too large for one frame do not
#: fail: the streaming ops (``RANGE``/``SNAPSHOT``/``KEY_HISTORY``/
#: ``TIME_SLICE``) travel as a run of bounded ``PARTIAL`` chunks instead.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Target payload size of one streamed chunk.  Large scan answers are cut
#: into self-contained chunks of at most roughly this many bytes (a chunk
#: holding a single record may exceed it; it can never exceed
#: :data:`MAX_BODY_BYTES`), so a 100 MiB snapshot never materializes as one
#: frame on either side and the first chunk reaches the client while the
#: rest are still being written.
STREAM_CHUNK_BYTES = 256 * 1024

#: ``[u64 request id][u8 opcode][u32 tenant length]`` — the request
#: envelope prefix, as one precompiled struct.
_REQUEST_HEAD = struct.Struct(">QBI")
#: ``[u64 request id][u8 status]`` — the response envelope prefix.
_RESPONSE_HEAD = struct.Struct(">QB")
_U32 = struct.Struct(">I")


class ProtocolError(Exception):
    """Base class for wire-format violations."""


class TruncatedFrameError(ProtocolError):
    """The stream ended inside a frame header or body."""


class ChecksumError(ProtocolError):
    """A frame body did not match its CRC."""


class FrameTooLargeError(ProtocolError):
    """A frame header announced a body above :data:`MAX_BODY_BYTES`."""


class UnknownOpcodeError(ProtocolError):
    """A well-framed request named an opcode this server does not speak.

    Unlike the framing errors, the byte stream is still trustworthy — the
    frame decoded cleanly — so the server answers ``BAD_REQUEST`` on the
    carried ``request_id`` instead of dropping the connection.
    """

    def __init__(self, request_id: int, opcode: int) -> None:
        super().__init__(f"unknown opcode {opcode}")
        self.request_id = request_id


class WrongShardError(Exception):
    """A keyed operation reached a node that does not own the key's range.

    Not a framing error: the frame decoded cleanly, the *routing* was
    stale.  Server-side the node raises it with its current routing table;
    the wire answer is :data:`Status.WRONG_SHARD` with a ``pack_routing``
    payload, and the client re-raises it carrying the decoded routes so
    callers (``ClusterClient``) can install the fresh table and retry.

    ``routes`` is a list of ``(low, high, node, epoch)`` tuples — the same
    shape :func:`pack_routing` / :func:`unpack_routing` speak.
    """

    def __init__(self, routes: Sequence[Tuple[Optional[Key], Optional[Key], str, int]]) -> None:
        super().__init__("key range is owned by another node")
        self.routes = list(routes)


class Opcode(enum.IntEnum):
    """Request discriminator: one opcode per façade surface."""

    PING = 1
    INSERT = 2
    PUT_MANY = 3
    DELETE = 4
    GET = 5
    GET_AS_OF = 6
    RANGE = 7
    SNAPSHOT = 8
    KEY_HISTORY = 9
    HISTORY_BETWEEN = 10
    TIME_SLICE = 11
    NOW = 12
    STATS = 13
    # -- replication tier (PR 10) ------------------------------------
    #: Start a WAL subscription: ``(shard, from_lsn)``.  Answered by an
    #: unbounded run of ``PARTIAL`` frames whose payloads are LOG_BATCH
    #: bodies; the stream ends only when either side disconnects.
    SUBSCRIBE = 20
    #: One shipped slice of a shard's WAL (self-contained record frames).
    LOG_BATCH = 21
    #: Replica → primary durability acknowledgement: ``(shard, lsn)``.
    ACK = 22
    #: One chunk of a migration snapshot (raw version events).
    SNAPSHOT_CHUNK = 23
    #: Migration cutover control: prepare (freeze the range) / commit
    #: (transfer ownership at a bumped epoch).
    CUTOVER = 24
    #: Replication watermark probe: ``(durable_lsn, watermark_ts)``.
    WATERMARK = 25
    #: Fetch the node's routing table (ranges → owner, per-range epoch).
    ROUTE = 26
    #: Fetch the primary's shard topology (boundaries, page size, WAL).
    TOPOLOGY = 27
    #: Migration snapshot / delta read of a key range (streamed).
    SNAPSHOT_READ = 28


class Status(enum.IntEnum):
    """Response discriminator."""

    OK = 0
    #: The operation failed server-side; payload carries the error text.
    ERROR = 1
    #: Admission control rejected the request (too many in flight, or this
    #: connection exceeded its pipelining allowance).  The request was NOT
    #: executed; the client may retry after backing off.
    SERVER_BUSY = 2
    #: The request could not be decoded (unknown opcode, malformed payload).
    BAD_REQUEST = 3
    #: One chunk of a streamed response.  A large scan answer travels as
    #: ``[PARTIAL]* [OK]`` frames under the same request id: every
    #: ``PARTIAL`` payload is a self-contained chunk in the op's own list
    #: format, and the terminating ``OK`` frame carries the final chunk.
    #: The client concatenates the decoded chunks; a stream that ends
    #: without its ``OK`` frame is a truncated response (the torn-tail
    #: discipline, per request instead of per frame).
    PARTIAL = 4
    #: The keyed operation landed on a node that does not own the key's
    #: range (the range migrated, or a cutover is in flight).  The payload
    #: is a ``pack_routing`` table: the client installs it and retries
    #: against the named owner.  The request was NOT executed.
    WRONG_SHARD = 5


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(body: bytes) -> bytes:
    """Wrap ``body`` in the ``[length][crc][body]`` frame."""
    if len(body) > MAX_BODY_BYTES:
        raise FrameTooLargeError(
            f"frame body of {len(body)} bytes exceeds the {MAX_BODY_BYTES}-byte bound"
        )
    return FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_frame(buffer: bytes) -> Tuple[bytes, int]:
    """Decode one frame from the head of ``buffer``.

    Returns ``(body, consumed_bytes)``.  Raises :exc:`TruncatedFrameError`
    when the buffer holds less than a whole frame — the caller reads more
    bytes and retries (the stream analogue of the WAL's clean torn-tail
    stop).
    """
    if len(buffer) < FRAME_HEADER.size:
        raise TruncatedFrameError("incomplete frame header")
    length, crc = FRAME_HEADER.unpack_from(buffer)
    if length > MAX_BODY_BYTES:
        raise FrameTooLargeError(
            f"frame header announces {length} bytes; the bound is {MAX_BODY_BYTES}"
        )
    end = FRAME_HEADER.size + length
    if len(buffer) < end:
        raise TruncatedFrameError("incomplete frame body")
    body = bytes(buffer[FRAME_HEADER.size : end])
    if zlib.crc32(body) != crc:
        raise ChecksumError("frame CRC mismatch")
    return body, end


def check_frame_header(header: bytes) -> Tuple[int, int]:
    """Validate a raw 8-byte header; return ``(body_length, crc)``.

    Stream readers (asyncio / socket) use this to reject an oversized
    length prefix before allocating the body buffer.
    """
    if len(header) < FRAME_HEADER.size:
        raise TruncatedFrameError("incomplete frame header")
    length, crc = FRAME_HEADER.unpack(header)
    if length > MAX_BODY_BYTES:
        raise FrameTooLargeError(
            f"frame header announces {length} bytes; the bound is {MAX_BODY_BYTES}"
        )
    return length, crc


def check_frame_body(body: bytes, crc: int) -> bytes:
    """Verify ``body`` against the header's CRC; return it unchanged."""
    if zlib.crc32(body) != crc:
        raise ChecksumError("frame CRC mismatch")
    return body


# ----------------------------------------------------------------------
# Requests and responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One decoded request: id, opcode, tenant, and its payload reader."""

    request_id: int
    opcode: Opcode
    tenant: str
    payload: ByteReader


@lru_cache(maxsize=1024)
def _encode_tenant(tenant: str) -> bytes:
    return tenant.encode("utf-8")


@lru_cache(maxsize=1024)
def _decode_tenant(raw: bytes) -> str:
    return raw.decode("utf-8")


def encode_request(
    request_id: int, opcode: Opcode, tenant: str, payload: bytes = b""
) -> bytes:
    """One request frame, ready to write to the socket.

    Assembled from precompiled structs in two concatenations (envelope,
    then frame) — no intermediate writer objects on the client hot path.
    """
    tenant_raw = _encode_tenant(tenant)
    body = _REQUEST_HEAD.pack(request_id, int(opcode), len(tenant_raw)) + tenant_raw + payload
    if len(body) > MAX_BODY_BYTES:
        raise FrameTooLargeError(
            f"frame body of {len(body)} bytes exceeds the {MAX_BODY_BYTES}-byte bound"
        )
    return FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_request(body: bytes) -> Request:
    """Decode a request frame body (raises :exc:`ProtocolError` if malformed).

    The envelope is unpacked in place with precompiled structs and the
    payload reader starts at the envelope's end on the *same* buffer — no
    per-request slice copies.  Tenant names repeat on every request, so
    their UTF-8 decode is memoized.
    """
    try:
        request_id, opcode_raw, tenant_length = _REQUEST_HEAD.unpack_from(body, 0)
    except struct.error as exc:
        raise ProtocolError(f"malformed request envelope: {exc}") from exc
    payload_start = _REQUEST_HEAD.size + tenant_length
    if payload_start > len(body):
        raise ProtocolError("malformed request envelope: truncated tenant name")
    try:
        tenant = _decode_tenant(bytes(body[_REQUEST_HEAD.size : payload_start]))
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"malformed request envelope: {exc}") from exc
    try:
        opcode = Opcode(opcode_raw)
    except ValueError as exc:
        raise UnknownOpcodeError(request_id, opcode_raw) from exc
    return Request(
        request_id=request_id,
        opcode=opcode,
        tenant=tenant,
        payload=ByteReader(body, offset=payload_start),
    )


def encode_response(request_id: int, status: Status, payload: bytes = b"") -> bytes:
    """One response frame, ready to write to the socket."""
    body = _RESPONSE_HEAD.pack(request_id, int(status)) + payload
    if len(body) > MAX_BODY_BYTES:
        raise FrameTooLargeError(
            f"frame body of {len(body)} bytes exceeds the {MAX_BODY_BYTES}-byte bound"
        )
    return FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_response(body: bytes) -> Tuple[int, Status, ByteReader]:
    """Decode a response frame body into ``(request_id, status, payload)``."""
    reader = ByteReader(body)
    try:
        request_id = reader.get_u64()
        status = Status(reader.get_u8())
    except (SerializationError, ValueError) as exc:
        raise ProtocolError(f"malformed response envelope: {exc}") from exc
    return request_id, status, reader


def pack_error(message: str) -> bytes:
    """ERROR / BAD_REQUEST payload: the error text."""
    writer = ByteWriter()
    writer.put_bytes(message.encode("utf-8"))
    return writer.getvalue()


def unpack_error(reader: ByteReader) -> str:
    try:
        return reader.get_bytes().decode("utf-8")
    except (SerializationError, UnicodeDecodeError):  # pragma: no cover - defensive
        return "<unreadable error payload>"


# ----------------------------------------------------------------------
# Shared value codecs
# ----------------------------------------------------------------------
def _write_optional_key(writer: ByteWriter, key: Optional[Key]) -> None:
    if key is None:
        writer.put_u8(0)
    else:
        writer.put_u8(1)
        write_key(writer, key)


def _read_optional_key(reader: ByteReader) -> Optional[Key]:
    return read_key(reader) if reader.get_u8() else None


def _write_record(writer: ByteWriter, record: RecordView) -> None:
    write_key(writer, record.key)
    writer.put_u64(record.timestamp)
    write_value(writer, record.value)


def _read_record(reader: ByteReader) -> RecordView:
    key = read_key(reader)
    timestamp = reader.get_u64()
    value = read_value(reader)
    return RecordView(key=key, timestamp=timestamp, value=value)


def pack_records(records: Sequence[RecordView]) -> bytes:
    writer = ByteWriter()
    writer.put_u32(len(records))
    for record in records:
        _write_record(writer, record)
    return writer.getvalue()


def unpack_records(reader: ByteReader) -> List[RecordView]:
    return [_read_record(reader) for _ in range(reader.get_u32())]


def pack_optional_record(record: Optional[RecordView]) -> bytes:
    writer = ByteWriter()
    if record is None:
        writer.put_u8(0)
    else:
        writer.put_u8(1)
        _write_record(writer, record)
    return writer.getvalue()


def unpack_optional_record(reader: ByteReader) -> Optional[RecordView]:
    return _read_record(reader) if reader.get_u8() else None


# ----------------------------------------------------------------------
# Per-opcode payload codecs (request side)
# ----------------------------------------------------------------------
def pack_insert(key: Key, value: bytes, timestamp: Optional[int]) -> bytes:
    writer = ByteWriter()
    write_key(writer, key)
    write_value(writer, value)
    write_timestamp(writer, timestamp)
    return writer.getvalue()


def unpack_insert(reader: ByteReader) -> Tuple[Key, bytes, Optional[int]]:
    return read_key(reader), read_value(reader), read_timestamp(reader)


def pack_delete(key: Key, timestamp: Optional[int]) -> bytes:
    writer = ByteWriter()
    write_key(writer, key)
    write_timestamp(writer, timestamp)
    return writer.getvalue()


def unpack_delete(reader: ByteReader) -> Tuple[Key, Optional[int]]:
    return read_key(reader), read_timestamp(reader)


def pack_items(items: Sequence[Tuple[Key, bytes]]) -> bytes:
    writer = ByteWriter()
    writer.put_u32(len(items))
    for key, value in items:
        write_key(writer, key)
        write_value(writer, value)
    return writer.getvalue()


def unpack_items(reader: ByteReader) -> List[Tuple[Key, bytes]]:
    return [
        (read_key(reader), read_value(reader)) for _ in range(reader.get_u32())
    ]


def pack_key(key: Key) -> bytes:
    writer = ByteWriter()
    write_key(writer, key)
    return writer.getvalue()


def unpack_key(reader: ByteReader) -> Key:
    return read_key(reader)


def pack_key_at(key: Key, timestamp: int) -> bytes:
    writer = ByteWriter()
    write_key(writer, key)
    writer.put_u64(timestamp)
    return writer.getvalue()


def unpack_key_at(reader: ByteReader) -> Tuple[Key, int]:
    return read_key(reader), reader.get_u64()


def pack_range(
    low: Optional[Key], high: Optional[Key], as_of: Optional[int]
) -> bytes:
    writer = ByteWriter()
    _write_optional_key(writer, low)
    _write_optional_key(writer, high)
    write_timestamp(writer, as_of)
    return writer.getvalue()


def unpack_range(reader: ByteReader) -> Tuple[Optional[Key], Optional[Key], Optional[int]]:
    return (
        _read_optional_key(reader),
        _read_optional_key(reader),
        read_timestamp(reader),
    )


def pack_window(key: Key, start: int, end: int) -> bytes:
    writer = ByteWriter()
    write_key(writer, key)
    writer.put_u64(start)
    writer.put_u64(end)
    return writer.getvalue()


def unpack_window(reader: ByteReader) -> Tuple[Key, int, int]:
    return read_key(reader), reader.get_u64(), reader.get_u64()


def pack_time_slice(
    start: int, end: int, low: Optional[Key], high: Optional[Key]
) -> bytes:
    writer = ByteWriter()
    writer.put_u64(start)
    writer.put_u64(end)
    _write_optional_key(writer, low)
    _write_optional_key(writer, high)
    return writer.getvalue()


def unpack_time_slice(
    reader: ByteReader,
) -> Tuple[int, int, Optional[Key], Optional[Key]]:
    return (
        reader.get_u64(),
        reader.get_u64(),
        _read_optional_key(reader),
        _read_optional_key(reader),
    )


def pack_timestamp_u64(timestamp: int) -> bytes:
    writer = ByteWriter()
    writer.put_u64(timestamp)
    return writer.getvalue()


def unpack_timestamp_u64(reader: ByteReader) -> int:
    return reader.get_u64()


def pack_timestamps(timestamps: Sequence[int]) -> bytes:
    writer = ByteWriter()
    writer.put_u32(len(timestamps))
    for timestamp in timestamps:
        writer.put_u64(timestamp)
    return writer.getvalue()


def unpack_timestamps(reader: ByteReader) -> List[int]:
    return [reader.get_u64() for _ in range(reader.get_u32())]


def _sorted_keys(keys) -> list:
    """Deterministic key order even when int and str keys coexist."""
    return sorted(keys, key=lambda key: (isinstance(key, str), key))


def pack_record_map(snapshot: Dict[Key, RecordView]) -> bytes:
    """SNAPSHOT answer: the records, key order (keys ride inside records)."""
    writer = ByteWriter()
    records = [snapshot[key] for key in _sorted_keys(snapshot)]
    writer.put_u32(len(records))
    for record in records:
        _write_record(writer, record)
    return writer.getvalue()


def unpack_record_map(reader: ByteReader) -> Dict[Key, RecordView]:
    return {record.key: record for record in unpack_records(reader)}


def pack_history_map(histories: Dict[Key, List[RecordView]]) -> bytes:
    """TIME_SLICE answer: per-key version lists, key order."""
    writer = ByteWriter()
    writer.put_u32(len(histories))
    for key in _sorted_keys(histories):
        write_key(writer, key)
        records = histories[key]
        writer.put_u32(len(records))
        for record in records:
            _write_record(writer, record)
    return writer.getvalue()


def unpack_history_map(reader: ByteReader) -> Dict[Key, List[RecordView]]:
    result: Dict[Key, List[RecordView]] = {}
    for _ in range(reader.get_u32()):
        key = read_key(reader)
        result[key] = [_read_record(reader) for _ in range(reader.get_u32())]
    return result


# ----------------------------------------------------------------------
# Streamed-response chunking
#
# Each chunk is a *self-contained* payload in the op's own list format
# (``pack_records`` / ``pack_history_map`` shape), so a one-chunk answer is
# byte-identical to the unstreamed response and the client merges chunks by
# simple concatenation.  A history-map key may span chunks; the merge
# extends that key's version list, preserving order.
# ----------------------------------------------------------------------
def _encode_record(record: RecordView) -> bytes:
    writer = ByteWriter()
    _write_record(writer, record)
    return writer.getvalue()


def chunk_records(
    records: Sequence[RecordView], chunk_bytes: int = STREAM_CHUNK_BYTES
) -> List[bytes]:
    """Cut ``records`` into one or more ``pack_records``-format payloads.

    Always returns at least one chunk (an empty answer is one empty-list
    chunk); every chunk except possibly a single-record one stays at or
    under ``chunk_bytes``.
    """
    chunks: List[bytes] = []
    parts: List[bytes] = []
    size = 0
    for record in records:
        encoded = _encode_record(record)
        if parts and size + len(encoded) > chunk_bytes:
            chunks.append(_U32.pack(len(parts)) + b"".join(parts))
            parts, size = [], 0
        parts.append(encoded)
        size += len(encoded)
    chunks.append(_U32.pack(len(parts)) + b"".join(parts))
    return chunks


def chunk_record_map(
    snapshot: Dict[Key, RecordView], chunk_bytes: int = STREAM_CHUNK_BYTES
) -> List[bytes]:
    """SNAPSHOT chunks: the records in key order, cut like :func:`chunk_records`."""
    return chunk_records(
        [snapshot[key] for key in _sorted_keys(snapshot)], chunk_bytes
    )


def chunk_history_map(
    histories: Dict[Key, List[RecordView]], chunk_bytes: int = STREAM_CHUNK_BYTES
) -> List[bytes]:
    """TIME_SLICE chunks: ``pack_history_map``-format payloads in key order.

    A key whose version list does not fit one chunk is continued in the
    next chunk under the same key; :func:`merge_history_chunks` extends the
    list, so the reassembled map is identical to the unstreamed answer.
    """
    flat: List[Tuple[Key, Optional[RecordView]]] = []
    for key in _sorted_keys(histories):
        records = histories[key]
        if records:
            flat.extend((key, record) for record in records)
        else:
            flat.append((key, None))
    if not flat:
        return [pack_history_map({})]
    chunks: List[bytes] = []
    index = 0
    while index < len(flat):
        entries: List[Tuple[Key, bytes, List[bytes]]] = []  # (key, key_enc, records)
        size = 4  # the entry-count prefix
        while index < len(flat):
            key, record = flat[index]
            encoded = _encode_record(record) if record is not None else b""
            opens_entry = not entries or entries[-1][0] != key
            cost = len(encoded)
            if opens_entry:
                key_writer = ByteWriter()
                write_key(key_writer, key)
                key_enc = key_writer.getvalue()
                cost += len(key_enc) + 4  # the per-key record-count prefix
            if entries and size + cost > chunk_bytes:
                break
            if opens_entry:
                entries.append((key, key_enc, []))
            if record is not None:
                entries[-1][2].append(encoded)
            size += cost
            index += 1
        writer = ByteWriter()
        writer.put_u32(len(entries))
        for _, key_enc, encoded_records in entries:
            writer.put_raw(key_enc)
            writer.put_u32(len(encoded_records))
            for encoded in encoded_records:
                writer.put_raw(encoded)
        chunks.append(writer.getvalue())
    return chunks


def merge_record_chunks(readers: Sequence[ByteReader]) -> List[RecordView]:
    """Reassemble a streamed record list (one reader per chunk, in order)."""
    records: List[RecordView] = []
    for reader in readers:
        records.extend(unpack_records(reader))
    return records


def merge_history_chunks(
    readers: Sequence[ByteReader],
) -> Dict[Key, List[RecordView]]:
    """Reassemble a streamed history map; a key spanning chunks extends."""
    result: Dict[Key, List[RecordView]] = {}
    for reader in readers:
        for _ in range(reader.get_u32()):
            key = read_key(reader)
            records = [_read_record(reader) for _ in range(reader.get_u32())]
            result.setdefault(key, []).extend(records)
    return result


def pack_stats_request(fmt: str) -> bytes:
    writer = ByteWriter()
    writer.put_bytes(fmt.encode("utf-8"))
    return writer.getvalue()


def unpack_stats_request(reader: ByteReader) -> str:
    return reader.get_bytes().decode("utf-8")


def pack_blob(data: bytes) -> bytes:
    writer = ByteWriter()
    writer.put_bytes(data)
    return writer.getvalue()


def unpack_blob(reader: ByteReader) -> bytes:
    return reader.get_bytes()


# ----------------------------------------------------------------------
# Replication codecs (SUBSCRIBE / LOG_BATCH / ACK / WATERMARK / TOPOLOGY)
#
# LOG_BATCH payloads carry a raw slice of a shard's WAL — whole
# ``[len][crc][body]`` record frames, byte-identical to what the primary's
# LogDevice holds — so a replica can append them verbatim to its mirror
# device and replay them through the ordinary redo path.  The batch is
# validated on decode: every contained frame must check out (length, CRC)
# and the final record's LSN must equal the declared ``last_lsn``; a torn
# or corrupted batch raises before any byte reaches the mirror.
# ----------------------------------------------------------------------
_U64 = struct.Struct(">Q")


def iter_wal_records(data: bytes, base: int = 0):
    """Walk WAL record frames in ``data``; yield ``(offset, lsn, end)``.

    Offsets are absolute (``base`` + position in ``data``).  Stops cleanly
    at a torn or corrupt tail, exactly like the recovery scan — the caller
    decides whether a short walk is an error (wire) or normal (crash).
    """
    position = 0
    limit = len(data)
    while position + FRAME_HEADER.size <= limit:
        length, crc = FRAME_HEADER.unpack_from(data, position)
        body_start = position + FRAME_HEADER.size
        end = body_start + length
        if length < _U64.size or end > limit:
            return
        body = data[body_start:end]
        if zlib.crc32(body) != crc:
            return
        (lsn,) = _U64.unpack_from(body, 0)
        yield base + position, lsn, base + end
        position = end


def wal_batch_end(data: bytes) -> Tuple[int, int]:
    """``(bytes_consumed, last_lsn)`` of the well-formed prefix of ``data``."""
    consumed, last_lsn = 0, 0
    for _, lsn, end in iter_wal_records(data):
        consumed, last_lsn = end, lsn
    return consumed, last_lsn


def pack_subscribe(shard: int, from_lsn: int) -> bytes:
    writer = ByteWriter()
    writer.put_u32(shard)
    writer.put_u64(from_lsn)
    return writer.getvalue()


def unpack_subscribe(reader: ByteReader) -> Tuple[int, int]:
    return reader.get_u32(), reader.get_u64()


def pack_log_batch(shard: int, last_lsn: int, records: bytes) -> bytes:
    writer = ByteWriter()
    writer.put_u32(shard)
    writer.put_u64(last_lsn)
    writer.put_bytes(records)
    return writer.getvalue()


def unpack_log_batch(reader: ByteReader) -> Tuple[int, int, bytes]:
    """Decode and *validate* one LOG_BATCH: ``(shard, last_lsn, records)``.

    Raises :exc:`ChecksumError` when the contained record frames do not
    decode cleanly end-to-end (torn tail, CRC mismatch, trailing garbage)
    and :exc:`ProtocolError` when the declared ``last_lsn`` disagrees with
    the records — a batch that fails here must not touch the mirror log.
    """
    shard = reader.get_u32()
    last_lsn = reader.get_u64()
    records = reader.get_bytes()
    consumed, walked_lsn = wal_batch_end(records)
    if consumed != len(records):
        raise ChecksumError(
            f"LOG_BATCH records truncated or corrupt: {consumed} of "
            f"{len(records)} bytes decode cleanly"
        )
    if walked_lsn != last_lsn:
        raise ProtocolError(
            f"LOG_BATCH declares last_lsn={last_lsn} but its records end at "
            f"LSN {walked_lsn}"
        )
    return shard, last_lsn, records


def pack_ack(shard: int, lsn: int) -> bytes:
    writer = ByteWriter()
    writer.put_u32(shard)
    writer.put_u64(lsn)
    return writer.getvalue()


def unpack_ack(reader: ByteReader) -> Tuple[int, int]:
    return reader.get_u32(), reader.get_u64()


def pack_watermark(durable_lsn: int, watermark: int) -> bytes:
    writer = ByteWriter()
    writer.put_u64(durable_lsn)
    writer.put_u64(watermark)
    return writer.getvalue()


def unpack_watermark(reader: ByteReader) -> Tuple[int, int]:
    return reader.get_u64(), reader.get_u64()


def pack_topology(
    sharded: bool,
    boundaries: Sequence[Key],
    page_size: int,
    group_commit_size: int,
) -> bytes:
    writer = ByteWriter()
    writer.put_u8(1 if sharded else 0)
    writer.put_u32(len(boundaries))
    for key in boundaries:
        write_key(writer, key)
    writer.put_u32(page_size)
    writer.put_u32(group_commit_size)
    return writer.getvalue()


def unpack_topology(reader: ByteReader) -> Tuple[bool, List[Key], int, int]:
    sharded = bool(reader.get_u8())
    boundaries = [read_key(reader) for _ in range(reader.get_u32())]
    return sharded, boundaries, reader.get_u32(), reader.get_u32()


# ----------------------------------------------------------------------
# Migration codecs (SNAPSHOT_READ / SNAPSHOT_CHUNK / CUTOVER / ROUTE)
#
# A migration snapshot travels as raw version *events* — ``(timestamp,
# key, tombstone, value)`` in global timestamp order — because events are
# the representation that replays identically into an empty target shard:
# inserts and deletes land at their original commit timestamps, so every
# as-of answer over the moved range is byte-identical on the target.
# ----------------------------------------------------------------------
#: One migration event: the store's ``(timestamp, key, is_tombstone, value)``.
Event = VersionEvent

#: Cutover phases.
CUTOVER_PREPARE = 1
CUTOVER_COMMIT = 2


def _write_event(writer: ByteWriter, event: Event) -> None:
    timestamp, key, tombstone, value = event
    writer.put_u64(timestamp)
    write_key(writer, key)
    writer.put_u8(1 if tombstone else 0)
    write_value(writer, value)


def _read_event(reader: ByteReader) -> Event:
    timestamp = reader.get_u64()
    key = read_key(reader)
    tombstone = bool(reader.get_u8())
    return timestamp, key, tombstone, read_value(reader)


def pack_events(events: Sequence[Event]) -> bytes:
    writer = ByteWriter()
    writer.put_u32(len(events))
    for event in events:
        _write_event(writer, event)
    return writer.getvalue()


def unpack_events(reader: ByteReader) -> List[Event]:
    return [_read_event(reader) for _ in range(reader.get_u32())]


def chunk_events(
    events: Sequence[Event], chunk_bytes: int = STREAM_CHUNK_BYTES
) -> List[bytes]:
    """Cut ``events`` into one or more ``pack_events``-format payloads."""
    chunks: List[bytes] = []
    parts: List[bytes] = []
    size = 0
    for event in events:
        writer = ByteWriter()
        _write_event(writer, event)
        encoded = writer.getvalue()
        if parts and size + len(encoded) > chunk_bytes:
            chunks.append(_U32.pack(len(parts)) + b"".join(parts))
            parts, size = [], 0
        parts.append(encoded)
        size += len(encoded)
    chunks.append(_U32.pack(len(parts)) + b"".join(parts))
    return chunks


def merge_event_chunks(readers: Sequence[ByteReader]) -> List[Event]:
    events: List[Event] = []
    for reader in readers:
        events.extend(unpack_events(reader))
    return events


def pack_copy_state(offsets: Sequence[Tuple[int, int]]) -> bytes:
    """Per-shard WAL copy positions: ``[(shard, byte_offset), ...]``."""
    writer = ByteWriter()
    writer.put_u32(len(offsets))
    for shard, offset in offsets:
        writer.put_u32(shard)
        writer.put_u64(offset)
    return writer.getvalue()


def unpack_copy_state(reader: ByteReader) -> List[Tuple[int, int]]:
    return [(reader.get_u32(), reader.get_u64()) for _ in range(reader.get_u32())]


def pack_migrate_read(
    low: Optional[Key],
    high: Optional[Key],
    offsets: Sequence[Tuple[int, int]] = (),
) -> bytes:
    """SNAPSHOT_READ request: a range, plus per-shard WAL offsets.

    An empty ``offsets`` list asks for the full consistent snapshot of the
    range; a non-empty list asks for the *delta* — committed events logged
    at or past each shard's offset — enabling log catch-up from the copy
    point.
    """
    writer = ByteWriter()
    _write_optional_key(writer, low)
    _write_optional_key(writer, high)
    writer.put_u32(len(offsets))
    for shard, offset in offsets:
        writer.put_u32(shard)
        writer.put_u64(offset)
    return writer.getvalue()


def unpack_migrate_read(
    reader: ByteReader,
) -> Tuple[Optional[Key], Optional[Key], List[Tuple[int, int]]]:
    low = _read_optional_key(reader)
    high = _read_optional_key(reader)
    offsets = [(reader.get_u32(), reader.get_u64()) for _ in range(reader.get_u32())]
    return low, high, offsets


def pack_cutover(
    phase: int,
    low: Optional[Key],
    high: Optional[Key],
    epoch: int,
    target: str,
) -> bytes:
    writer = ByteWriter()
    writer.put_u8(phase)
    _write_optional_key(writer, low)
    _write_optional_key(writer, high)
    writer.put_u32(epoch)
    writer.put_bytes(target.encode("utf-8"))
    return writer.getvalue()


def unpack_cutover(
    reader: ByteReader,
) -> Tuple[int, Optional[Key], Optional[Key], int, str]:
    phase = reader.get_u8()
    low = _read_optional_key(reader)
    high = _read_optional_key(reader)
    epoch = reader.get_u32()
    target = reader.get_bytes().decode("utf-8")
    return phase, low, high, epoch, target


def pack_routing(
    routes: Sequence[Tuple[Optional[Key], Optional[Key], str, int]]
) -> bytes:
    """Routing table: ``[(low, high, owner_node, epoch), ...]``."""
    writer = ByteWriter()
    writer.put_u32(len(routes))
    for low, high, node, epoch in routes:
        _write_optional_key(writer, low)
        _write_optional_key(writer, high)
        writer.put_bytes(node.encode("utf-8"))
        writer.put_u32(epoch)
    return writer.getvalue()


def unpack_routing(
    reader: ByteReader,
) -> List[Tuple[Optional[Key], Optional[Key], str, int]]:
    routes: List[Tuple[Optional[Key], Optional[Key], str, int]] = []
    for _ in range(reader.get_u32()):
        low = _read_optional_key(reader)
        high = _read_optional_key(reader)
        node = reader.get_bytes().decode("utf-8")
        epoch = reader.get_u32()
        routes.append((low, high, node, epoch))
    return routes
