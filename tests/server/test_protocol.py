"""Wire-protocol unit tests: framing edges and codec round trips.

The framing layer must have the WAL's torn-tail discipline on the wire:
truncated frames are detected (never half-decoded), corrupted bodies never
pass the CRC, and a hostile length prefix is rejected before any body is
buffered.  The payload codecs must be exactly symmetric — every
``pack_x``/``unpack_x`` pair round-trips the in-process answer shape, and
every row of the operation table round-trips its arguments and its answer
(``TestOperationTable``), byte-identical to the hand-written codecs the
table replaced.
"""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api.engine import RecordView
from repro.server import protocol
from repro.server.protocol import (
    FRAME_HEADER,
    MAX_BODY_BYTES,
    OPS,
    ChecksumError,
    FrameTooLargeError,
    Opcode,
    ProtocolError,
    Status,
    TruncatedFrameError,
)
from repro.storage.serialization import (
    ByteReader,
    ByteWriter,
    SerializationError,
    read_key,
    read_value,
    write_key,
    write_value,
)


def _only_body(frame: bytes) -> bytes:
    """The body of a buffer that is exactly one frame."""
    bodies, consumed, fault = protocol.slice_frames(frame)
    assert (len(bodies), consumed, fault) == (1, len(frame), None)
    return bodies[0]


class TestFraming:
    """``slice_frames`` is the one reader of the frame format; the matrix of
    stream faults over it and its four users is ``test_transport.py``."""

    def test_round_trip(self):
        body = b"the payload"
        frame = protocol.encode_frame(body)
        assert protocol.slice_frames(frame) == ([body], len(frame), None)

    def test_empty_body_round_trip(self):
        frame = protocol.encode_frame(b"")
        assert protocol.slice_frames(frame) == ([b""], FRAME_HEADER.size, None)

    def test_frame_boundaries_are_respected(self):
        first = protocol.encode_frame(b"one")
        second = protocol.encode_frame(b"two")
        both = first + second
        assert protocol.slice_frames(both) == ([b"one", b"two"], len(both), None)
        # A complete frame is sliced off; the head of the next stays put.
        assert protocol.slice_frames(both[:-1]) == ([b"one"], len(first), None)

    @pytest.mark.parametrize("cut", [1, 7, 8, 10])
    def test_truncated_frame_detected(self, cut):
        frame = protocol.encode_frame(b"truncate me please")
        # More bytes may follow: nothing is consumed, nothing half-decoded.
        assert protocol.slice_frames(frame[:cut]) == ([], 0, None)
        # None will: a torn tail.
        bodies, consumed, fault = protocol.slice_frames(frame[:cut], at_eof=True)
        assert (bodies, consumed) == ([], 0)
        assert isinstance(fault, TruncatedFrameError)

    def test_end_of_stream_between_frames_is_clean(self):
        frame = protocol.encode_frame(b"whole")
        assert protocol.slice_frames(b"", at_eof=True) == ([], 0, None)
        assert protocol.slice_frames(frame, at_eof=True) == ([b"whole"], len(frame), None)

    def test_corrupt_body_fails_crc(self):
        frame = bytearray(protocol.encode_frame(b"pristine bytes"))
        frame[-1] ^= 0xFF
        bodies, _, fault = protocol.slice_frames(bytes(frame))
        assert bodies == [] and isinstance(fault, ChecksumError)

    def test_corrupt_crc_field_fails(self):
        frame = bytearray(protocol.encode_frame(b"pristine bytes"))
        frame[5] ^= 0x01  # inside the CRC word
        bodies, _, fault = protocol.slice_frames(bytes(frame))
        assert bodies == [] and isinstance(fault, ChecksumError)

    def test_a_fault_keeps_the_frames_before_it(self):
        good = protocol.encode_frame(b"good")
        bad = bytearray(protocol.encode_frame(b"bad"))
        bad[-1] ^= 0xFF
        bodies, consumed, fault = protocol.slice_frames(good + bytes(bad) + good)
        assert (bodies, consumed) == ([b"good"], len(good))
        assert isinstance(fault, ChecksumError)

    def test_oversized_length_rejected_before_body(self):
        header = FRAME_HEADER.pack(MAX_BODY_BYTES + 1, 0)
        # Refused even though no body bytes follow at all, and before the
        # stream has ended: the length prefix alone is the violation.
        bodies, consumed, fault = protocol.slice_frames(header)
        assert (bodies, consumed) == ([], 0)
        assert isinstance(fault, FrameTooLargeError)

    def test_oversized_body_refused_on_encode(self):
        with pytest.raises(FrameTooLargeError):
            protocol.encode_frame(b"\0" * (MAX_BODY_BYTES + 1))


class TestEnvelopes:
    def test_request_round_trip(self):
        frame = protocol.encode_request(42, Opcode.GET, "tenant-a", b"payload")
        body = _only_body(frame)
        request = protocol.decode_request(body)
        assert request.request_id == 42
        assert request.opcode is Opcode.GET
        assert request.tenant == "tenant-a"
        assert request.payload.get_raw(7) == b"payload"

    def test_unknown_opcode_is_protocol_error(self):
        frame = protocol.encode_request(1, Opcode.PING, "t")
        body = _only_body(frame)
        corrupted = body[:8] + bytes([200]) + body[9:]
        with pytest.raises(ProtocolError, match="unknown opcode"):
            protocol.decode_request(corrupted)

    def test_truncated_envelope_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="malformed request"):
            protocol.decode_request(b"\x00\x01")

    def test_response_round_trip(self):
        frame = protocol.encode_response(7, Status.SERVER_BUSY, protocol.pack_error("full"))
        body = _only_body(frame)
        request_id, status, reader = protocol.decode_response(body)
        assert (request_id, status) == (7, Status.SERVER_BUSY)
        assert protocol.unpack_error(reader) == "full"


def _reader(data: bytes) -> ByteReader:
    return ByteReader(data)


def _args_round_trip(opcode: Opcode, *args):
    """``args`` through the row's argument codec and back."""
    op = OPS[opcode]
    return protocol.decode_args(op, _reader(protocol.encode_args(op, args)))


class TestPayloadCodecs:
    RECORDS = [
        RecordView(key=1, timestamp=3, value=b"one"),
        RecordView(key="str-key", timestamp=9, value=b""),
        RecordView(key=2**40, timestamp=2**40, value=b"\x00" * 64),
    ]

    def test_records_round_trip(self):
        assert protocol.unpack_records(_reader(protocol.pack_records(self.RECORDS))) == self.RECORDS

    def test_optional_record(self):
        assert protocol.unpack_optional_record(_reader(protocol.pack_optional_record(None))) is None
        packed = protocol.pack_optional_record(self.RECORDS[0])
        assert protocol.unpack_optional_record(_reader(packed)) == self.RECORDS[0]

    @pytest.mark.parametrize("timestamp", [None, 0, 17])
    def test_insert(self, timestamp):
        assert _args_round_trip(Opcode.INSERT, "k", b"v", timestamp) == ("k", b"v", timestamp)

    @pytest.mark.parametrize("timestamp", [None, 12])
    def test_delete(self, timestamp):
        assert _args_round_trip(Opcode.DELETE, 5, timestamp) == (5, timestamp)

    def test_items(self):
        items = [(1, b"a"), ("two", b"b"), (3, b"")]
        assert _args_round_trip(Opcode.PUT_MANY, items) == (items,)

    @pytest.mark.parametrize(
        "low,high,as_of",
        [(None, None, None), (1, 100, 50), ("a", None, None), (None, "z", 3)],
    )
    def test_range(self, low, high, as_of):
        assert _args_round_trip(Opcode.RANGE, low, high, as_of) == (low, high, as_of)

    def test_time_slice_args(self):
        assert _args_round_trip(Opcode.TIME_SLICE, 2, 9, None, "mid") == (2, 9, None, "mid")

    def test_timestamps(self):
        stamps = [1, 2, 2, 2**50]
        assert protocol.unpack_timestamps(_reader(protocol.pack_timestamps(stamps))) == stamps

    def test_stats_and_blob(self):
        assert _args_round_trip(Opcode.STATS, "json") == ("json",)
        assert protocol.unpack_blob(_reader(protocol.pack_blob(b"\x01\x02"))) == b"\x01\x02"


def _generic_record_bytes(key, timestamp, value) -> bytes:
    """A record field by field through the shared value codecs — what the
    one-struct fast path for int keys must reproduce byte for byte."""
    writer = ByteWriter()
    write_key(writer, key)
    writer.put_u64(timestamp)
    write_value(writer, value)
    return writer.getvalue()


def _generic_read_record(reader: ByteReader) -> RecordView:
    key = read_key(reader)
    timestamp = reader.get_u64()
    return RecordView(key=key, timestamp=timestamp, value=read_value(reader))


class TestRecordFastPath:
    KEYS = st.one_of(
        st.integers(min_value=-(2**63), max_value=2**63 - 1), st.text(max_size=12)
    )
    STAMPS = st.integers(min_value=0, max_value=2**64 - 1)
    VALUES = st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(bytearray))

    @given(st.lists(st.tuples(KEYS, STAMPS, VALUES), max_size=6))
    def test_int_keyed_records_match_the_generic_codec_both_ways(self, rows):
        records = [RecordView(key=k, timestamp=t, value=v) for k, t, v in rows]
        generic = b"".join(_generic_record_bytes(*row) for row in rows)
        count = len(rows).to_bytes(4, "big")
        assert protocol.pack_records(records) == count + generic
        assert protocol.chunk_records(records) == [count + generic]
        decoded = protocol.unpack_records(_reader(count + generic))
        reference = _reader(generic)
        assert decoded == [_generic_read_record(reference) for _ in rows]
        assert all(type(record.value) is bytes for record in decoded)
        assert protocol.merge_history_chunks(
            [_reader(chunk) for chunk in protocol.chunk_history_map({"k": records})]
        ) == {"k": decoded}

    EDGE_KEYS = st.one_of(st.sampled_from([-(2**63), 2**63 - 1, -1, 0]), KEYS)

    @given(st.lists(st.tuples(EDGE_KEYS, STAMPS, VALUES), max_size=10))
    def test_every_chunking_merges_in_one_pass_like_the_reference_decoder(self, rows):
        records = [RecordView(key=k, timestamp=t, value=v) for k, t, v in rows]
        encoded = [_generic_record_bytes(*row) for row in rows]
        reference = _reader(b"".join(encoded))
        expected = [_generic_read_record(reference) for _ in rows]
        # The chunking changes only where a chunk budget equals the size of a
        # run of consecutive records: trying each such budget tries every cut.
        sizes = list(map(len, encoded))
        runs = [(i, j) for i in range(len(sizes)) for j in range(i + 1, len(sizes) + 1)]
        budgets = {0} | {sum(sizes[i:j]) for i, j in runs}
        for budget in sorted(budgets):
            chunks = protocol.chunk_records(records, budget)
            merged = protocol.merge_record_chunks([_reader(chunk) for chunk in chunks])
            assert merged == expected
            assert all(type(row) is RecordView and type(row.value) is bytes for row in merged)
        empty = protocol.chunk_records([])
        assert protocol.merge_record_chunks([_reader(chunk) for chunk in empty * 3]) == []

    @given(KEYS, STAMPS, st.binary(max_size=16), st.data())
    def test_every_truncation_raises(self, key, timestamp, value, data):
        packed = protocol.pack_optional_record(RecordView(key, timestamp, value))
        cut = data.draw(st.integers(min_value=0, max_value=len(packed) - 1))
        with pytest.raises(SerializationError):
            protocol.unpack_optional_record(_reader(packed[:cut]))

    @pytest.mark.parametrize(
        "key,timestamp", [(2**63, 1), (-(2**63) - 1, 1), (1, 2**64), (1, -1)]
    )
    def test_out_of_range_ints_fail_as_the_generic_codec_does(self, key, timestamp):
        with pytest.raises(struct.error):
            _generic_record_bytes(key, timestamp, b"v")
        with pytest.raises(struct.error):
            protocol.pack_records([RecordView(key, timestamp, b"v")])

    def test_a_bool_key_is_still_refused(self):
        with pytest.raises(SerializationError, match="unsupported key type"):
            protocol.pack_records([RecordView(True, 1, b"v")])


# ----------------------------------------------------------------------
# The operation table
# ----------------------------------------------------------------------
_R1 = RecordView(key=1, timestamp=3, value=b"one")
_R2 = RecordView(key="k", timestamp=4, value=b"")
_EVENTS = [(3, 1, False, b"one"), (4, "k", True, b"")]
_ROUTES = [(None, "m", "A", 0), ("m", None, "B", 2)]

#: ``opcode name: (sample args, sample answer, args hex, one-chunk answer
#: hex)``.  The hex literals were captured from the hand-written
#: ``pack_*`` / ``chunk_*`` codecs of the commit before the table existed
#: (a streamed answer's chunks are joined with ``|``): the table must
#: reproduce them byte for byte.
_SAMPLES = {
    "PING": ((), None, "", ""),
    "INSERT": (("k", b"v", None), 7, "01000000016b000000017600", "0000000000000007"),
    "PUT_MANY": (
        ([(1, b"a"), ("k", b"")],),
        [5, 6],
        "00000002000000000000000001000000016101000000016b00000000",
        "0000000200000000000000050000000000000006",
    ),
    "DELETE": ((5, 12), 12, "00000000000000000501000000000000000c", "000000000000000c"),
    "GET": (("k",), _R1, "01000000016b", "010000000000000000010000000000000003000000036f6e65"),
    "GET_AS_OF": ((1, 9), None, "0000000000000000010000000000000009", "00"),
    "RANGE": (
        (None, "z", 3),
        [_R1, _R2],
        "000101000000017a010000000000000003",
        "000000020000000000000000010000000000000003000000036f6e65"
        "01000000016b000000000000000400000000",
    ),
    "SNAPSHOT": (
        (9,),
        {"k": _R2, 1: _R1},
        "0000000000000009",
        "000000020000000000000000010000000000000003000000036f6e65"
        "01000000016b000000000000000400000000",
    ),
    "KEY_HISTORY": (
        (1,),
        [_R1],
        "000000000000000001",
        "000000010000000000000000010000000000000003000000036f6e65",
    ),
    "HISTORY_BETWEEN": (("k", 2, 9), [], "01000000016b00000000000000020000000000000009", "00000000"),
    "TIME_SLICE": (
        (2, 9, None, "mid"),
        {"k": [_R2], 1: [_R1, _R1], 2: []},
        "00000000000000020000000000000009000101000000036d6964",
        "0000000300000000000000000100000002"
        "0000000000000000010000000000000003000000036f6e65"
        "0000000000000000010000000000000003000000036f6e65"
        "00000000000000000200000000"
        "01000000016b0000000101000000016b000000000000000400000000",
    ),
    "NOW": ((), 41, "", "0000000000000029"),
    "STATS": (("json",), b"\x01\x02", "000000046a736f6e", "000000020102"),
    "SNAPSHOT_CHUNK": (
        (_EVENTS,),
        None,
        "00000002000000000000000300000000000000000100000000036f6e65"
        "000000000000000401000000016b0100000000",
        "",
    ),
    "CUTOVER": (
        (protocol.CUTOVER_PREPARE, "m", None, 3, "node-b"),
        _ROUTES,
        "010101000000016d0000000003000000066e6f64652d62",
        "00000002000101000000016d0000000141000000000101000000016d00000000014200000002",
    ),
    "WATERMARK": ((), (17, 4), "", "00000000000000110000000000000004"),
    "ROUTE": (
        (),
        _ROUTES,
        "",
        "00000002000101000000016d0000000141000000000101000000016d00000000014200000002",
    ),
    "SNAPSHOT_READ": (
        ("low", None, [(0, 64), (1, 128)]),
        (_EVENTS, [(0, 64), (1, 1 << 40)]),
        "0101000000036c6f770000000002000000000000000000000040000000010000000000000080",
        "00000002000000000000000300000000000000000100000000036f6e65"
        "000000000000000401000000016b0100000000"
        "7c"
        "00000002000000000000000000000040000000010000010000000000",
    ),
}

_BIG = b"x" * 100_000
#: One answer per streamed shape that cannot fit a single chunk.
_MANY_CHUNKS = {
    protocol.RECORD_LIST: [RecordView(key=k, timestamp=k + 1, value=_BIG) for k in range(7)],
    protocol.RECORD_MAP: {k: RecordView(key=k, timestamp=9, value=_BIG) for k in range(7)},
    protocol.HISTORY_MAP: {
        "hot": [RecordView(key="hot", timestamp=t, value=_BIG) for t in range(1, 7)],
        "idle": [],
    },
    protocol.EVENTS_AND_OFFSETS: ([(t, t, False, _BIG) for t in range(1, 8)], [(0, 7)]),
}


def _decode(op, payload):
    """An ``encode_answer`` result back through ``decode_answer``."""
    chunks = payload if isinstance(payload, list) else [payload]
    readers = [ByteReader(chunk) for chunk in chunks]
    return protocol.decode_answer(op, readers[:-1], readers[-1])


class TestOperationTable:
    @pytest.mark.parametrize("opcode", list(OPS), ids=lambda opcode: opcode.name)
    def test_row_round_trips_byte_identical_to_the_old_codecs(self, opcode):
        op = OPS[opcode]
        args, answer, args_hex, answer_hex = _SAMPLES[opcode.name]
        assert len(args) == len(op.fields)

        payload = protocol.encode_args(op, args)
        assert payload.hex() == args_hex
        assert protocol.decode_args(op, ByteReader(payload)) == args
        with pytest.raises(ProtocolError, match="past its arguments"):
            protocol.decode_args(op, ByteReader(payload + b"\x00"))

        packed = protocol.encode_answer(op, answer)
        assert isinstance(packed, list) == op.answer.streamed
        joined = b"|".join(packed) if op.answer.streamed else packed
        assert joined.hex() == answer_hex
        assert _decode(op, packed) == answer

        if op.answer.streamed:
            large = _MANY_CHUNKS[op.answer]
            chunks = protocol.encode_answer(op, large)
            assert len(chunks) > 2
            assert all(len(chunk) <= protocol.STREAM_CHUNK_BYTES for chunk in chunks)
            assert _decode(op, chunks) == large

    def test_every_opcode_is_a_row_or_a_stream_opcode(self):
        """An opcode added without a row (or a stream exemption) fails here."""
        assert set(OPS) | protocol.STREAM_OPCODES == set(Opcode)
        assert not set(OPS) & protocol.STREAM_OPCODES
        assert {opcode.name for opcode in protocol.STREAM_OPCODES} == {
            "SUBSCRIBE", "LOG_BATCH", "ACK", "TOPOLOGY",
        }
        assert set(_SAMPLES) == {opcode.name for opcode in OPS}

    def test_rows_are_self_consistent(self):
        for opcode, op in OPS.items():
            assert op.opcode is opcode
            assert op.kind in (protocol.WRITE, protocol.READ, protocol.ADMIN)
            assert op.target in (protocol.STORE, protocol.NODE, protocol.SERVER)
            assert (op.method is None) == (op.target == protocol.SERVER)
            if op.keyed:
                assert next(iter(op.fields)) == "key"
            if op.spans_keys:
                assert op.answer.clip is not None and op.answer.merge is not None
            if op.wait_index is not None:
                assert op.kind == protocol.READ

    def test_malformed_utf8_text_is_a_protocol_error(self):
        op = OPS[Opcode.CUTOVER]
        payload = protocol.encode_args(op, (1, None, None, 1, "B"))[:-1] + b"\xff"
        with pytest.raises(ProtocolError, match="UTF-8"):
            protocol.decode_args(op, ByteReader(payload))

    def test_the_tracer_can_see_every_entry_point(self):
        """``benchmarks/e2e/spans.py`` wraps only functions found in
        ``vars()`` of a client class and module-level ``encode_*`` /
        ``decode_*`` / ``pack_*`` / ``unpack_*`` / ``chunk_*`` functions of
        the protocol module: an inherited method or a codec method on a row
        object would vanish from the per-layer ladder."""
        import inspect

        from repro.client import Pipeline, ReproClient
        from repro.replication import ClusterClient

        for op in OPS.values():
            if op.kind != protocol.ADMIN:
                for cls in (ReproClient, Pipeline, ClusterClient):
                    assert inspect.isfunction(vars(cls).get(op.method)), (cls, op)
        for name in ("ping", "stats", "watermark", "route",
                     "migrate_read", "migrate_apply", "cutover", "pipeline"):
            assert inspect.isfunction(vars(ReproClient).get(name)), name
        for name in ("now", "ping", "gather"):
            assert inspect.isfunction(vars(Pipeline).get(name)), name
        for name in ("encode_args", "decode_args", "encode_answer", "decode_answer"):
            function = vars(protocol)[name]
            assert inspect.isfunction(function)
            assert function.__module__ == protocol.__name__
            assert name.startswith(("encode_", "decode_"))

    def test_readme_wire_protocol_block_names_every_opcode_and_status(self):
        import pathlib
        import re

        readme = (pathlib.Path(__file__).parents[2] / "README.md").read_text()
        block = readme[readme.index("**Wire protocol.**") :]
        block = block[: block.index("**Streaming.**")]
        names = set(re.findall(r"\b[A-Z][A-Z_]+\b", block))
        assert {member.name for member in Opcode} <= names
        assert {member.name for member in Status} <= names
