"""The served answers' bytes, pinned.

Every read that answers records — ``RANGE``, ``SNAPSHOT``, ``KEY_HISTORY``,
``HISTORY_BETWEEN``, ``TIME_SLICE`` and ``GET_AS_OF`` — is asked of a real
server over a raw connection, and the SHA-256 of each answer's response
frames is compared with ``captured_frames.json``.  The stores are seeded: a
4-shard int-keyed store with deletes (tombstones in every history), keys
written at equal stamps and a scan answer that streams as more than one
chunk, and a one-shard str-keyed store.  A change to how rows are built,
encoded or chunked must leave every digest as it is.

The fixture is regenerated with
``PYTHONPATH=src python -m tests.server.test_captured_frames --write``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from typing import Dict, List, Tuple

from repro.api.store import ShardSpec, StoreConfig
from repro.client import ReproClient
from repro.server import protocol
from repro.server.protocol import OPS, Opcode, Status
from repro.server.service import ReproServer
from tests.wire import Wire

FIXTURE = os.path.join(os.path.dirname(__file__), "captured_frames.json")

CATALOG = {
    "ints": StoreConfig(
        engine="tsb", page_size=1024, shards=ShardSpec.for_int_keys(4, key_space=4096)
    ),
    "strs": StoreConfig(engine="tsb", page_size=512),
}


def _key(tenant: str, number: int):
    return number if tenant == "ints" else f"key-{number:05d}"


def _load(client: ReproClient, tenant: str, rng: random.Random) -> None:
    """Versions, deletes and keys sharing a stamp; values large enough that
    the whole-store scan of ``ints`` streams as two chunks."""
    keys = range(0, 4000, 4) if tenant == "ints" else range(300)
    size = 300 if tenant == "ints" else 40
    client.put_many([(_key(tenant, n), rng.randbytes(size)) for n in keys])
    for _round in range(3):
        chosen = rng.sample(list(keys), len(keys) // 5)
        client.put_many([(_key(tenant, n), rng.randbytes(rng.randrange(size))) for n in chosen])
        for n in rng.sample(chosen, len(chosen) // 8):
            client.delete(_key(tenant, n))
        stamp = client.now + 3
        for n in rng.sample(list(keys), 6):  # six keys at one stamp
            client.insert(_key(tenant, n), b"same stamp", timestamp=stamp)


def _reads(tenant: str, now: int, rng: random.Random) -> List[Tuple[Opcode, tuple]]:
    top = 4000 if tenant == "ints" else 300
    probes = [_key(tenant, n) for n in rng.sample(range(top), 8)]
    stamps = sorted(rng.sample(range(1, now + 1), 4)) + [now]
    reads: List[Tuple[Opcode, tuple]] = [
        (Opcode.RANGE, (None, None, None)),
        (Opcode.RANGE, (_key(tenant, top // 4), _key(tenant, top // 2), None)),
    ]
    for stamp in stamps:
        reads.append((Opcode.RANGE, (None, None, stamp)))
        reads.append((Opcode.RANGE, (probes[0], None, stamp)))
        reads.append((Opcode.SNAPSHOT, (stamp,)))
        reads.append((Opcode.TIME_SLICE, (stamp // 2, stamp, None, None)))
        reads.append((Opcode.TIME_SLICE, (0, stamp + 1, probes[1], probes[2])))
    for key in probes:
        reads.append((Opcode.KEY_HISTORY, (key,)))
        reads.append((Opcode.HISTORY_BETWEEN, (key, stamps[0], stamps[2])))
        for stamp in stamps:
            reads.append((Opcode.GET_AS_OF, (key, stamp)))
    return reads


def _answer_frames(wire: Wire, request_id: int, tenant: str, opcode: Opcode, args) -> List[bytes]:
    payload = protocol.encode_args(OPS[opcode], args)
    wire.send(protocol.encode_request(request_id, opcode, tenant, payload))
    bodies = []
    while True:
        body = wire.body()
        assert body is not None, "the server closed the connection"
        bodies.append(body)
        response_id, status, _reader = protocol.decode_response(body)
        assert response_id == request_id
        if status is not Status.PARTIAL:
            assert status is Status.OK, body
            return bodies


def capture() -> Dict[str, Dict[str, object]]:
    """``{"tenant OPCODE args": {"frames": n, "sha256": hex}}`` of every read."""
    captured: Dict[str, Dict[str, object]] = {}
    with ReproServer(CATALOG, port=0) as server, Wire.connect(server.host, server.port) as wire:
        request_id = 0
        for tenant in CATALOG:
            rng = random.Random(f"captured frames {tenant}")
            with ReproClient(server.host, server.port, tenant=tenant) as client:
                _load(client, tenant, rng)
                now = client.now
            for opcode, args in _reads(tenant, now, rng):
                request_id += 1
                bodies = _answer_frames(wire, request_id, tenant, opcode, args)
                digest = hashlib.sha256()
                for body in bodies:
                    digest.update(len(body).to_bytes(4, "big") + body)
                name = f"{tenant} {opcode.name} {args!r}"
                captured[name] = {"frames": len(bodies), "sha256": digest.hexdigest()}
    return captured


def test_every_served_answer_is_byte_identical_to_the_captured_one():
    with open(FIXTURE, encoding="utf-8") as handle:
        expected = json.load(handle)
    captured = capture()
    assert max(entry["frames"] for entry in expected.values()) > 1  # a streamed answer
    assert {name.split()[1] for name in expected} == {
        "RANGE", "SNAPSHOT", "KEY_HISTORY", "HISTORY_BETWEEN", "TIME_SLICE", "GET_AS_OF"
    }  # fmt: skip
    assert captured == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.server.test_captured_frames --write")
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(capture(), handle, indent=1, sort_keys=True)
        handle.write("\n")
