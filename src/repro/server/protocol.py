"""The wire protocol: struct-framed, CRC-checked request/response units.

The server speaks a length-prefixed binary protocol over TCP, built from the
same :class:`~repro.storage.serialization.ByteWriter` codecs as the page
images and framed exactly like the write-ahead log
(:mod:`repro.recovery.log_records`)::

    frame    = [u32 body length][u32 crc32(body)][body]
    request  = [u64 request id][u8 opcode][tenant: len-prefixed utf-8][payload]
    response = [u64 request id][u8 status][payload]

The CRC plus length framing gives the wire the WAL's torn-tail property.
:func:`encode_frame` writes a frame and :func:`slice_frames` is the one
function that reads them — its docstring is the rule for a torn tail
(:exc:`TruncatedFrameError`), a corrupted body (:exc:`ChecksumError`) and a
hostile length prefix (:exc:`FrameTooLargeError`); every socket end reaches
it through :mod:`repro.server.transport`.

The request/response surface is stated **once**, as the operation table
:data:`OPS` at the bottom of this module: one :class:`Op` row per opcode
(façade method, argument fields, answer shape, write/read/admin, keyed or
spans-keys, the timestamp a follower read waits on, store or cluster node).
The codecs enter through :func:`encode_args` / :func:`decode_args` /
:func:`encode_answer` / :func:`decode_answer`; server dispatch and the
three clients' routing, retry and merge are derived from the same rows.
The replication listener's four :data:`STREAM_OPCODES` are not
request/response and keep hand-written codecs.

Every value codec reuses the key/value/timestamp codecs of
:mod:`repro.storage.serialization` — so a key that round-trips through a
page image round-trips through the wire identically, and the differential
oracles compare byte-equal answers across the in-process and served paths.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.engine import RecordView, make_view
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
_U64 = struct.Struct(">Q")
#: ``[u32 shard][u64 lsn]`` — the SUBSCRIBE / ACK payload and LOG_BATCH prefix.
_SHARD_LSN = struct.Struct(">IQ")


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


#: One routing-table entry: ``(low, high, owner_node, epoch)``.
Route = Tuple[Optional[Key], Optional[Key], str, int]


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

    def __init__(self, routes: Sequence[Route]) -> None:
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


def slice_frames(
    buffer: bytes, at_eof: bool = False
) -> Tuple[List[bytes], int, Optional[ProtocolError]]:
    """Slice every complete frame off ``buffer``'s head — the one reader of
    the frame format (every socket end reaches it through
    :meth:`repro.server.transport.Connection.read_frames`).

    Returns ``(bodies, consumed_bytes, fault)``.  ``fault`` says the stream
    cannot be read past ``consumed_bytes``: a length prefix above
    :data:`MAX_BODY_BYTES` (:exc:`FrameTooLargeError`, refused before any
    body is buffered) or a body that fails its CRC (:exc:`ChecksumError`)
    **poisons** the stream — the frame boundary is lost, so the bodies
    before the fault stand and nothing after it can be trusted.  Bytes short
    of a whole frame are left unconsumed for the caller to prepend to its
    next read; when there is no next read (``at_eof``) they are a **torn
    tail** (:exc:`TruncatedFrameError`, the wire's analogue of the WAL's),
    and a buffer that ends exactly on a frame boundary is a **clean end**
    (no fault).
    """
    bodies: List[bytes] = []
    offset = 0
    fault: Optional[ProtocolError] = None
    header_size = FRAME_HEADER.size
    while len(buffer) - offset >= header_size:
        length, crc = FRAME_HEADER.unpack_from(buffer, offset)
        if length > MAX_BODY_BYTES:
            fault = FrameTooLargeError(
                f"frame header announces {length} bytes; the bound is {MAX_BODY_BYTES}"
            )
            break
        end = offset + header_size + length
        if len(buffer) < end:
            break
        body = buffer[offset + header_size : end]  # the one copy
        if zlib.crc32(body) != crc:
            fault = ChecksumError("frame CRC mismatch")
            break
        bodies.append(body)
        offset = end
    if at_eof and fault is None and offset < len(buffer):
        fault = TruncatedFrameError("the stream ended inside a frame")
    return bodies, offset, fault


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
    return encode_frame(
        _REQUEST_HEAD.pack(request_id, int(opcode), len(tenant_raw)) + tenant_raw + payload
    )


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
    return encode_frame(_RESPONSE_HEAD.pack(request_id, int(status)) + payload)


def decode_response(body: bytes) -> Tuple[int, Status, ByteReader]:
    """Decode a response frame body into ``(request_id, status, payload)``."""
    reader = ByteReader(body)
    try:
        request_id = reader.get_u64()
        status = Status(reader.get_u8())
    except (SerializationError, ValueError) as exc:
        raise ProtocolError(f"malformed response envelope: {exc}") from exc
    return request_id, status, reader


def encode_refusal(request_id: int, status: Status, message: str) -> bytes:
    """One refusal / failure response frame carrying ``message``."""
    return encode_response(request_id, status, pack_error(message))


def pack_error(message: str) -> bytes:
    """ERROR / BAD_REQUEST payload: the error text."""
    return _pack(_write_text, message)


def unpack_error(reader: ByteReader) -> str:
    try:
        return _read_text(reader)
    except (SerializationError, ProtocolError):  # pragma: no cover - defensive
        return "<unreadable error payload>"


# ----------------------------------------------------------------------
# Value codecs: how one value travels.  The operation table names one per
# argument; the ``pack_*`` / ``unpack_*`` payload codecs wrap the same pairs.
# ----------------------------------------------------------------------
class Codec(NamedTuple):
    write: Callable[[ByteWriter, Any], None]
    read: Callable[[ByteReader], Any]


def _pack(write: Callable[[ByteWriter, Any], None], value) -> bytes:
    writer = ByteWriter()
    write(writer, value)
    return writer.getvalue()


def _list_of(write_item: Callable, read_item: Callable) -> Codec:
    """A ``u32``-counted list of items."""

    def write(writer: ByteWriter, items: Sequence) -> None:
        writer.put_u32(len(items))
        for item in items:
            write_item(writer, item)

    def read(reader: ByteReader) -> list:
        return [read_item(reader) for _ in range(reader.get_u32())]

    return Codec(write, read)


def _optional(write_value_: Callable, read_value_: Callable) -> Codec:
    """A presence byte, then the value unless it is ``None``."""

    def write(writer: ByteWriter, value) -> None:
        if value is None:
            writer.put_u8(0)
        else:
            writer.put_u8(1)
            write_value_(writer, value)

    def read(reader: ByteReader):
        return read_value_(reader) if reader.get_u8() else None

    return Codec(write, read)


def _write_text(writer: ByteWriter, text: str) -> None:
    writer.put_bytes(text.encode("utf-8"))


def _read_text(reader: ByteReader) -> str:
    try:
        return reader.get_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"malformed UTF-8 text: {exc}") from exc


def _write_items(writer: ByteWriter, items: Sequence[Tuple[Key, bytes]]) -> None:
    writer.put_u32(len(items))
    for key, value in items:
        write_key(writer, key)
        write_value(writer, value)


def _read_items(reader: ByteReader) -> List[Tuple[Key, bytes]]:
    return [(read_key(reader), read_value(reader)) for _ in range(reader.get_u32())]


#: The fixed head of an int-keyed record as one struct — ``[u8 key tag]
#: [i64 key][u64 timestamp][u32 value length]``, byte for byte what
#: ``write_key`` + ``put_u64`` + the value's length prefix write.  Scan
#: answers are lists of these, so they are packed and read in one call each.
_INT_RECORD = struct.Struct(">BqQI")
_INT_KEY_TAG = _pack(write_key, 0)[0]


def _encode_record(record: RecordView) -> bytes:
    """One record's wire bytes: ``[key][u64 timestamp][value]``."""
    key, value = record.key, record.value
    if type(key) is int and type(value) is bytes:
        try:
            return (
                _INT_RECORD.pack(_INT_KEY_TAG, key, record.timestamp, len(value))
                + value
            )
        except struct.error:
            pass  # an int outside its field: the generic codec reports it
    writer = ByteWriter()
    write_key(writer, key)
    writer.put_u64(record.timestamp)
    write_value(writer, value)
    return writer.getvalue()


def _write_record(writer: ByteWriter, record: RecordView) -> None:
    writer.put_raw(_encode_record(record))


def _read_record(reader: ByteReader) -> RecordView:
    if reader.peek_u8() == _INT_KEY_TAG:
        _, key, timestamp, length = reader.get_struct(_INT_RECORD)
        return make_view(key, timestamp, reader.get_raw(length))
    key = read_key(reader)
    timestamp = reader.get_u64()
    return make_view(key, timestamp, read_value(reader))


#: One migration event: the store's ``(timestamp, key, is_tombstone, value)``.
#: A migration snapshot travels as raw version *events* in global timestamp
#: order because events replay identically into an empty target shard:
#: inserts and deletes land at their original commit timestamps, so every
#: as-of answer over the moved range is byte-identical on the target.
Event = VersionEvent


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


def _write_offset(writer: ByteWriter, position: Tuple[int, int]) -> None:
    writer.put_raw(_SHARD_LSN.pack(*position))


def _read_offset(reader: ByteReader) -> Tuple[int, int]:
    return reader.get_u32(), reader.get_u64()


def _write_route(writer: ByteWriter, route: Route) -> None:
    low, high, node, epoch = route
    OPT_KEY.write(writer, low)
    OPT_KEY.write(writer, high)
    _write_text(writer, node)
    writer.put_u32(epoch)


def _read_route(reader: ByteReader) -> Route:
    return OPT_KEY.read(reader), OPT_KEY.read(reader), _read_text(reader), reader.get_u32()


KEY = Codec(write_key, read_key)
OPT_KEY = _optional(write_key, read_key)
VALUE = Codec(write_value, read_value)
#: An optional commit timestamp (``None`` = let the store stamp it / current).
OPT_TS = Codec(write_timestamp, read_timestamp)
U8 = Codec(ByteWriter.put_u8, ByteReader.get_u8)
U32 = Codec(ByteWriter.put_u32, ByteReader.get_u32)
U64 = Codec(ByteWriter.put_u64, ByteReader.get_u64)
TEXT = Codec(_write_text, _read_text)
ITEMS = Codec(_write_items, _read_items)
#: Per-shard WAL copy positions: ``[(shard, byte_offset), ...]``.
OFFSETS = _list_of(_write_offset, _read_offset)
EVENTS = _list_of(_write_event, _read_event)
_RECORDS = _list_of(_write_record, _read_record)
_MAYBE_RECORD = _optional(_write_record, _read_record)
_STAMPS = _list_of(ByteWriter.put_u64, ByteReader.get_u64)
#: Routing table: ``[(low, high, owner_node, epoch), ...]``.
_ROUTES = _list_of(_write_route, _read_route)


# ----------------------------------------------------------------------
# Whole-payload codecs (one per answer shape, shared by server and client)
# ----------------------------------------------------------------------
def _payload(codec: Codec) -> Tuple[Callable[[Any], bytes], Callable[[ByteReader], Any]]:
    """``(pack, unpack)``: one value of ``codec`` to and from a payload."""

    def pack(value) -> bytes:
        return _pack(codec.write, value)

    return pack, codec.read


pack_records, unpack_records = _payload(_RECORDS)
pack_optional_record, unpack_optional_record = _payload(_MAYBE_RECORD)
pack_timestamp_u64, unpack_timestamp_u64 = _payload(U64)
pack_timestamps, unpack_timestamps = _payload(_STAMPS)
pack_blob, unpack_blob = _payload(Codec(ByteWriter.put_bytes, ByteReader.get_bytes))
pack_routing, unpack_routing = _payload(_ROUTES)
pack_events, unpack_events = _payload(EVENTS)
pack_copy_state, unpack_copy_state = _payload(OFFSETS)


def pack_watermark(durable_lsn: int, watermark: int) -> bytes:
    return _U64.pack(durable_lsn) + _U64.pack(watermark)


def unpack_watermark(reader: ByteReader) -> Tuple[int, int]:
    return reader.get_u64(), reader.get_u64()


# ----------------------------------------------------------------------
# Streamed-response chunking
#
# Each chunk is a *self-contained* payload in the op's own list format
# (``pack_records`` / history-map shape), so a one-chunk answer is
# byte-identical to the unstreamed response and the client merges chunks by
# simple concatenation.  A history-map key may span chunks; the merge
# extends that key's version list, preserving order.
# ----------------------------------------------------------------------
def _sorted_keys(keys) -> list:
    """Deterministic key order even when int and str keys coexist."""
    return sorted(keys, key=lambda key: (isinstance(key, str), key))


def _chunk_list(
    items: Sequence, encode_item: Callable[[Any], bytes], chunk_bytes: int
) -> List[bytes]:
    """Cut ``items`` into one or more ``u32``-counted list payloads.

    Always returns at least one chunk (an empty answer is one empty-list
    chunk); every chunk except possibly a single-item one stays at or
    under ``chunk_bytes``.
    """
    chunks: List[bytes] = []
    parts: List[bytes] = []
    size = 0
    for item in items:
        encoded = encode_item(item)
        if parts and size + len(encoded) > chunk_bytes:
            chunks.append(_U32.pack(len(parts)) + b"".join(parts))
            parts, size = [], 0
        parts.append(encoded)
        size += len(encoded)
    chunks.append(_U32.pack(len(parts)) + b"".join(parts))
    return chunks


def chunk_records(
    records: Sequence[RecordView], chunk_bytes: int = STREAM_CHUNK_BYTES
) -> List[bytes]:
    """Cut ``records`` into one or more ``pack_records``-format payloads."""
    return _chunk_list(records, _encode_record, chunk_bytes)


def chunk_record_map(
    snapshot: Dict[Key, RecordView], chunk_bytes: int = STREAM_CHUNK_BYTES
) -> List[bytes]:
    """SNAPSHOT chunks: the records in key order, cut like :func:`chunk_records`."""
    return chunk_records(
        [snapshot[key] for key in _sorted_keys(snapshot)], chunk_bytes
    )


def chunk_events(
    events: Sequence[Event], chunk_bytes: int = STREAM_CHUNK_BYTES
) -> List[bytes]:
    """Cut ``events`` into one or more ``pack_events``-format payloads."""
    return _chunk_list(events, lambda event: _pack(_write_event, event), chunk_bytes)


def chunk_history_map(
    histories: Dict[Key, List[RecordView]], chunk_bytes: int = STREAM_CHUNK_BYTES
) -> List[bytes]:
    """TIME_SLICE chunks: ``[u32 keys]([key][u32 n][record]*n)*`` in key order.

    A key whose version list does not fit one chunk is continued in the
    next chunk under the same key; :func:`merge_history_chunks` extends the
    list, so the reassembled map is identical to the unstreamed answer.
    """
    chunks: List[bytes] = []
    entries: List[Tuple[bytes, List[bytes]]] = []  # (encoded key, its records)
    size = 4  # the entry-count prefix

    def cut() -> None:
        chunks.append(
            _U32.pack(len(entries))
            + b"".join(
                key_enc + _U32.pack(len(records)) + b"".join(records)
                for key_enc, records in entries
            )
        )

    for key in _sorted_keys(histories):
        key_enc = _pack(write_key, key)
        opened = False  # does the current chunk already hold an entry for key?
        for record in histories[key] or [None]:
            encoded = b"" if record is None else _encode_record(record)
            opening = len(key_enc) + 4  # the key and its record-count prefix
            if entries and size + len(encoded) + (0 if opened else opening) > chunk_bytes:
                cut()
                entries, size, opened = [], 4, False
            if not opened:
                entries.append((key_enc, []))
                size += opening
                opened = True
            if record is not None:
                entries[-1][1].append(encoded)
                size += len(encoded)
    cut()
    return chunks


def merge_record_chunks(readers: Sequence[ByteReader]) -> List[RecordView]:
    """Reassemble a streamed record list (one reader per chunk, in order)."""
    return [record for reader in readers for record in unpack_records(reader)]


def merge_history_chunks(
    readers: Sequence[ByteReader],
) -> Dict[Key, List[RecordView]]:
    """Reassemble a streamed history map; a key spanning chunks extends."""
    result: Dict[Key, List[RecordView]] = {}
    for reader in readers:
        for _ in range(reader.get_u32()):
            key = read_key(reader)
            result.setdefault(key, []).extend(_RECORDS.read(reader))
    return result


def merge_event_chunks(readers: Sequence[ByteReader]) -> List[Event]:
    return [event for reader in readers for event in unpack_events(reader)]


# ----------------------------------------------------------------------
# Replication stream codecs (SUBSCRIBE / LOG_BATCH / ACK / TOPOLOGY)
#
# Not request/response, so not rows of the operation table: dispatched in
# :mod:`repro.replication.primary` / :mod:`repro.replication.replica`.
#
# LOG_BATCH payloads carry a raw slice of a shard's WAL — whole
# ``[len][crc][body]`` record frames, byte-identical to what the primary's
# LogDevice holds — so a replica can append them verbatim to its mirror
# device and replay them through the ordinary redo path.  The batch is
# validated on decode: every contained frame must check out (length, CRC)
# and the final record's LSN must equal the declared ``last_lsn``; a torn
# or corrupted batch raises before any byte reaches the mirror.
# ----------------------------------------------------------------------
STREAM_OPCODES = frozenset(
    {Opcode.SUBSCRIBE, Opcode.LOG_BATCH, Opcode.ACK, Opcode.TOPOLOGY}
)


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
    return _SHARD_LSN.pack(shard, from_lsn)


def unpack_subscribe(reader: ByteReader) -> Tuple[int, int]:
    return reader.get_u32(), reader.get_u64()


def pack_log_batch(shard: int, last_lsn: int, records: bytes) -> bytes:
    return _SHARD_LSN.pack(shard, last_lsn) + _U32.pack(len(records)) + records


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


#: An ACK is ``(shard, lsn)`` — the SUBSCRIBE payload shape.
pack_ack, unpack_ack = pack_subscribe, unpack_subscribe


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
# The operation table: one row per request/response operation.  The module
# docstring lists what is derived from it.
# ----------------------------------------------------------------------
class Answer(NamedTuple):
    """One answer shape: its codec, and how a cluster treats it.

    Unstreamed: ``pack(value) -> bytes``, ``unpack(reader) -> value``.
    Streamed: ``pack(value)`` returns the self-contained chunks that travel
    as ``[PARTIAL]* [OK]`` and ``unpack(readers)`` reassembles them.
    ``clip(value, owns)`` keeps the part of a spans-keys answer this node
    owns; ``merge(answers)`` unions the per-node clipped answers.
    """

    pack: Callable[[Any], Union[bytes, List[bytes]]]
    unpack: Callable[[Any], Any]
    streamed: bool = False
    clip: Optional[Callable[[Any, Callable[[Key], bool]], Any]] = None
    merge: Optional[Callable[[Sequence], Any]] = None


def _merge_record_map(readers: Sequence[ByteReader]) -> Dict[Key, RecordView]:
    return {record.key: record for record in merge_record_chunks(readers)}


def _chunk_migration(answer: Tuple[Sequence[Event], Sequence]) -> List[bytes]:
    """SNAPSHOT_READ: event chunks, then the copy state as the final frame."""
    return chunk_events(answer[0]) + [pack_copy_state(answer[1])]


def _merge_migration(readers: Sequence[ByteReader]):
    return merge_event_chunks(readers[:-1]), unpack_copy_state(readers[-1])


def _clip_records(records: Sequence[RecordView], owns) -> List[RecordView]:
    return [record for record in records if owns(record.key)]


def _clip_map(mapping: Dict[Key, Any], owns) -> Dict[Key, Any]:
    return {key: value for key, value in mapping.items() if owns(key)}


def _union_records(answers: Sequence[Sequence[RecordView]]) -> List[RecordView]:
    return sorted(
        (record for records in answers for record in records),
        key=lambda record: record.key,
    )


def _union_maps(answers: Sequence[Dict[Key, Any]]) -> Dict[Key, Any]:
    return {key: value for answer in answers for key, value in answer.items()}


NOTHING = Answer(lambda value: b"", lambda reader: None)
STAMP = Answer(pack_timestamp_u64, unpack_timestamp_u64)
STAMPS = Answer(pack_timestamps, unpack_timestamps)
MAYBE_RECORD = Answer(pack_optional_record, unpack_optional_record)
RECORD_LIST = Answer(chunk_records, merge_record_chunks, True, _clip_records, _union_records)
RECORD_MAP = Answer(chunk_record_map, _merge_record_map, True, _clip_map, _union_maps)
HISTORY_MAP = Answer(chunk_history_map, merge_history_chunks, True, _clip_map, _union_maps)
BLOB = Answer(pack_blob, unpack_blob)
LSN_AND_STAMP = Answer(lambda pair: pack_watermark(*pair), unpack_watermark)
ROUTES = Answer(pack_routing, unpack_routing)
EVENTS_AND_OFFSETS = Answer(_chunk_migration, _merge_migration, True)

#: Kinds: ``write`` needs a writable tenant; ``read`` may be answered by a
#: follower; ``admin`` asks the addressed server about itself.
WRITE, READ, ADMIN = "write", "read", "admin"
#: Targets: the tenant's store (``method`` is a façade method), the cluster
#: ``NodeRole`` (a method taking the store first), or the server itself.
STORE, NODE, SERVER = "store", "node", "server"
#: Cutover phases.
CUTOVER_PREPARE = 1
CUTOVER_COMMIT = 2


def _compile_args(fields: Dict[str, Codec]) -> Tuple[Callable[..., bytes], Callable]:
    """``(pack, unpack)`` for one row's argument fields, generated once: the
    straight-line codecs one would write by hand (``pack(key, timestamp)``
    writes each field in order, ``unpack(reader)`` reads them into a tuple),
    so a request pays no per-field dispatch loop for the table."""
    if not fields:
        return (lambda: b""), (lambda reader: ())
    scope: Dict[str, Any] = {"ByteWriter": ByteWriter}
    for i, codec in enumerate(fields.values()):
        scope[f"write{i}"], scope[f"read{i}"] = codec
    writes = "".join(f"    write{i}(writer, {name})\n" for i, name in enumerate(fields))
    reads = "".join(f"read{i}(reader), " for i in range(len(fields)))
    exec(  # noqa: S102 - the source is built from the table's own field names
        f"def pack({', '.join(fields)}):\n"
        f"    writer = ByteWriter()\n{writes}    return writer.getvalue()\n"
        f"def unpack(reader):\n    return ({reads})\n",
        scope,
    )
    return scope["pack"], scope["unpack"]


class Op:
    """One row of the operation table: what the operation is, declaratively."""

    def __init__(
        self,
        opcode: Opcode,
        method: Optional[str],
        fields: Dict[str, Codec],
        answer: Answer,
        kind: str,
        *,
        keyed: bool = False,
        wait_on: Optional[str] = None,
        target: str = STORE,
    ) -> None:
        self.opcode = opcode
        #: The façade (or ``NodeRole``) method called with the decoded
        #: arguments; every client class exposes ``read`` / ``write`` rows
        #: under this name with the field names as parameters.
        self.method = method
        #: ``{parameter name: Codec}`` in wire order — the argument payload.
        self.fields = fields
        self.answer = answer
        self.kind = kind  # WRITE, READ or ADMIN
        self.target = target  # STORE, NODE or SERVER
        #: The first argument is the key the operation lives on: the server
        #: ownership-checks it and ``ClusterClient`` routes to its owner.
        self.keyed = keyed
        #: A ``read`` that is not keyed *spans keys*: each node clips the
        #: answer to what it owns; ``ClusterClient`` merges every node's.
        self.spans_keys = kind == READ and not keyed
        #: Position of the timestamp argument (``wait_on``) a follower read
        #: waits for the replication watermark to reach; ``None`` = no wait.
        self.wait_index = None if wait_on is None else list(fields).index(wait_on)
        self.pack_args, self.unpack_args = _compile_args(fields)


_RANGE = dict(low=OPT_KEY, high=OPT_KEY)
# fmt: off
OPS: Dict[Opcode, Op] = {
    op.opcode: op
    for op in (
        Op(Opcode.PING, None, {}, NOTHING, ADMIN, target=SERVER),
        Op(Opcode.INSERT, "insert", dict(key=KEY, value=VALUE, timestamp=OPT_TS), STAMP, WRITE, keyed=True),
        Op(Opcode.PUT_MANY, "put_many", dict(items=ITEMS), STAMPS, WRITE),
        Op(Opcode.DELETE, "delete", dict(key=KEY, timestamp=OPT_TS), STAMP, WRITE, keyed=True),
        Op(Opcode.GET, "get", dict(key=KEY), MAYBE_RECORD, READ, keyed=True),
        Op(Opcode.GET_AS_OF, "get_as_of", dict(key=KEY, timestamp=U64), MAYBE_RECORD, READ, keyed=True, wait_on="timestamp"),
        Op(Opcode.RANGE, "range_search", dict(_RANGE, as_of=OPT_TS), RECORD_LIST, READ, wait_on="as_of"),
        Op(Opcode.SNAPSHOT, "snapshot", dict(timestamp=U64), RECORD_MAP, READ, wait_on="timestamp"),
        Op(Opcode.KEY_HISTORY, "key_history", dict(key=KEY), RECORD_LIST, READ, keyed=True),
        # No watermark wait on the two windowed reads: ``end`` is routinely
        # an open upper bound (now + 1), which a follower's watermark may
        # never reach while writes are idle.
        Op(Opcode.HISTORY_BETWEEN, "history_between", dict(key=KEY, start=U64, end=U64), RECORD_LIST, READ, keyed=True),
        Op(Opcode.TIME_SLICE, "time_slice", dict(start=U64, end=U64, **_RANGE), HISTORY_MAP, READ),
        Op(Opcode.NOW, "now", {}, STAMP, ADMIN),
        Op(Opcode.STATS, None, dict(fmt=TEXT), BLOB, ADMIN, target=SERVER),
        Op(Opcode.SNAPSHOT_CHUNK, "apply_chunk", dict(events=EVENTS), NOTHING, ADMIN, target=NODE),
        Op(Opcode.CUTOVER, "cutover", dict(phase=U8, **_RANGE, epoch=U32, target=TEXT), ROUTES, ADMIN, target=NODE),
        Op(Opcode.WATERMARK, "watermark", {}, LSN_AND_STAMP, ADMIN),
        Op(Opcode.ROUTE, "routes", {}, ROUTES, ADMIN, target=NODE),
        # Empty ``offsets`` asks for the full consistent snapshot of the
        # range; a non-empty list asks for the *delta* — committed events
        # logged at or past each shard's offset (log catch-up).
        Op(Opcode.SNAPSHOT_READ, "snapshot_read", dict(_RANGE, offsets=OFFSETS), EVENTS_AND_OFFSETS, ADMIN, target=NODE),
    )
}
# fmt: on


def encode_args(op: Op, args: Sequence) -> bytes:
    """The request payload of ``op`` for positional ``args`` (field order)."""
    return op.pack_args(*args)


def decode_args(op: Op, reader: ByteReader) -> tuple:
    """The one request-argument decoder: the row's fields, then nothing.

    Truncation raises :exc:`SerializationError`; malformed UTF-8 text or
    bytes left over raise :exc:`ProtocolError` — all answered
    ``BAD_REQUEST`` on the request's own id, connection kept.
    """
    args = op.unpack_args(reader)
    if reader.remaining:
        raise ProtocolError(
            f"{op.opcode.name} payload carries {reader.remaining} bytes past "
            "its arguments"
        )
    return args


def encode_answer(op: Op, value) -> Union[bytes, List[bytes]]:
    """``op``'s OK payload — or its list of chunk payloads when streamed
    (length 1 when the answer fits one chunk)."""
    return op.answer.pack(value)


def decode_answer(op: Op, chunks: Sequence[ByteReader], final: ByteReader):
    """``op``'s answer from its ``PARTIAL`` chunk readers and final frame."""
    answer = op.answer
    return answer.unpack([*chunks, final]) if answer.streamed else answer.unpack(final)
