"""What the client answers when there is nothing to ask or nothing sane came
back: a read before time zero answers as the in-process façade does, with
no round trip, and an answer payload that is not one fails as a
:exc:`ClientProtocolError`."""

import pytest

from repro.api.engine import RecordView
from repro.api.store import ShardSpec, StoreConfig, VersionStore
from repro.client import ClientProtocolError, ReproClient
from repro.server import protocol
from repro.server.protocol import Opcode, Status
from repro.server.service import ReproServer
from repro.storage.serialization import ByteReader
from tests.wire import ScriptedPeer

CATALOG = {
    "single": StoreConfig(engine="tsb", page_size=512),
    "sharded": StoreConfig(
        engine="tsb", page_size=512, shards=ShardSpec.for_int_keys(2, key_space=8)
    ),
}

#: ``(method, args)`` of the five reads that take a stamp, each at or across
#: time zero.
BEFORE_TIME_ZERO = [
    ("get_as_of", (3, -1)),
    ("range_search", (None, None, -1)),
    ("range_search", (0, 8, -7)),
    ("snapshot", (-1,)),
    ("history_between", (3, -5, 7)),
    ("history_between", (3, -5, -1)),
    ("history_between", (3, -5, 0)),
    ("time_slice", (-5, 7)),
    ("time_slice", (-5, -1)),
    ("time_slice", (-5, 0, 2, 6)),
]


def _write(store) -> None:
    for stamp, key in enumerate([3, 1, 3, 6, 2, 3, 7], start=1):
        store.insert(key, f"v{stamp}".encode(), timestamp=stamp)
    store.delete(6)


@pytest.mark.parametrize("tenant", sorted(CATALOG))
def test_a_read_before_time_zero_answers_what_the_facade_answers(tenant):
    with ReproServer(CATALOG, port=0) as server, ReproClient(
        server.host, server.port, tenant=tenant
    ) as client, VersionStore.open(CATALOG[tenant]) as local:
        _write(client)
        _write(local)
        for method, args in BEFORE_TIME_ZERO:
            expected = getattr(local, method)(*args)
            assert getattr(client, method)(*args) == expected, (method, args)
            with client.pipeline() as pipe:
                pending = getattr(pipe, method)(*args)
                assert pipe.gather() == [expected]
                assert pending.result() == expected
        assert client.time_slice(-5, 7) != {}  # a clamped window still asks


def test_an_empty_read_before_time_zero_sends_nothing():
    with ReproServer(CATALOG, port=0) as server, ReproClient(
        server.host, server.port, tenant="single"
    ) as client:
        client.insert(1, b"v")
        sent = client.counters["client.requests"]
        assert client.get_as_of(1, -1) is None
        assert client.range_search(as_of=-1) == []
        assert client.snapshot(-1) == {}
        assert client.history_between(1, -5, -1) == []
        assert client.time_slice(-5, -1) == {}
        with client.pipeline() as pipe:
            assert pipe.snapshot(-1).result() == {}
        assert client.counters["client.requests"] == sent


def _answering(payload: bytes):
    """A server that answers every request OK with ``payload``."""

    def script(wire):
        while True:
            request = wire.request()
            if request is None:
                return
            wire.send(protocol.encode_response(request.request_id, Status.OK, payload))

    return script


@pytest.mark.parametrize(
    "payload,fault",
    [
        (b"\0\0\0\x02" + protocol.pack_records([RecordView(1, 2, b"abc")])[4:-1], "truncated"),
        (b"\0\0\0\0junk", "bytes past"),
        (protocol.pack_records([RecordView(1, 2, b"abc"), RecordView("k", 3, b"")]) + b"!", "past"),
    ],
    ids=["cut-inside-a-value", "junk-after-an-empty-list", "a-byte-after-the-records"],
)
def test_a_malformed_record_list_is_a_protocol_error(payload, fault):
    with ScriptedPeer(_answering(payload)) as peer, ReproClient(
        peer.host, peer.port, pool_size=1
    ) as client:
        with pytest.raises(ClientProtocolError, match=fault):
            client.range_search()
        with client.pipeline() as pipe:
            pending = pipe.range_search()
            with pytest.raises(ClientProtocolError, match=fault):
                pending.result()


def test_a_point_answer_with_bytes_left_over_is_a_protocol_error():
    payload = protocol.pack_optional_record(RecordView(1, 2, b"abc")) + b"x"
    with ScriptedPeer(_answering(payload)) as peer, ReproClient(
        peer.host, peer.port, pool_size=1
    ) as client:
        with pytest.raises(ClientProtocolError, match="GET answer carries bytes past"):
            client.get(1)


def test_the_codec_reports_leftover_bytes_as_the_argument_decoder_does():
    with pytest.raises(protocol.ProtocolError, match="bytes past"):
        protocol.decode_answer(
            protocol.OPS[Opcode.RANGE], [], ByteReader(b"\0\0\0\0junk")
        )
