"""The four workloads: sizes, store shapes and seeded operation streams.

``--seed`` drives only the generators in this file; the system under test
receives the generated keys and values, never the seed.  Operation *counts*
are fixed by ``--seconds`` (``ops = ops_per_second × seconds``, with the
per-workload ``ops_per_second`` frozen from a calibration on the reference
box), not by a deadline, so every count metric repeats exactly from run to
run and a faster commit does the same work in less time.

Keys are 8-byte ints drawn ``int(K·u³)`` — a hot head that builds deep
version histories over a long cold tail — and values are 48 bytes, unique per
write so a wrong version can never pass for the right one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

PAGE_SIZE = 1024
VALUE_BYTES = 48
SHARDS = 4
TENANT = "bench"
#: WAL stores keep every dirty page in memory between checkpoints (no-steal),
#: which is what makes restart recovery from the devices alone sound.
NO_STEAL_CACHE_PAGES = 1_000_000
#: Flush policy, fixed: an acknowledgement means the commit record was forced.
GROUP_COMMIT_SIZE = 1
GROUP_COMMIT_INTERVAL = 0.0
FLUSH_POLICY = (
    f"group_commit_size={GROUP_COMMIT_SIZE}, "
    f"group_commit_interval={GROUP_COMMIT_INTERVAL}: every ack follows a log force"
)

# Operation codes of the generated streams.
INSERT, GET, AS_OF_RECENT, AS_OF_PAST, RANGE, HISTORY, PUT_MANY, RYW, RYW_RANGE, TXN, CHECKPOINT = range(11)

_FILL = b"." * VALUE_BYTES


def value_for(sequence: int) -> bytes:
    """The 48-byte value of the ``sequence``-th generated write."""
    return (b"v%011d" % sequence + _FILL)[:VALUE_BYTES]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    served: bool
    replicated: bool
    wal: bool
    cache_pages: int
    key_space: int
    preload_versions: int
    #: Calibrated so ``ops_per_second × seconds`` operations take ≈ ``seconds``.
    ops_per_second: int
    range_span: int
    #: What one slice of the speed reference costs amid this workload on the
    #: reference box at its usual speed (see ``speed.py``), in microseconds.
    nominal_slice_us: float

    def op_count(self, seconds: float, scale: float) -> int:
        return max(40, int(self.ops_per_second * seconds * scale))

    def preload_count(self, scale: float) -> int:
        return max(64, int(self.preload_versions * scale))

    def keys(self, scale: float) -> int:
        return max(256, int(self.key_space * scale))


WORKLOADS: Dict[str, Workload] = {
    spec.name: spec
    for spec in (
        Workload(
            name="served_mixed",
            why=(
                "the path a user calls: pipelined client, server and 4-shard WAL "
                "store; scans share a window of 8 with point ops"
            ),
            served=True,
            replicated=False,
            wal=True,
            cache_pages=NO_STEAL_CACHE_PAGES,
            key_space=8192,
            preload_versions=8000,
            ops_per_second=2400,
            range_span=1024,
            nominal_slice_us=93.0,
        ),
        Workload(
            name="replicated_rw",
            why=(
                "only here does replication work: WAL shipping, follower apply "
                "and read-your-write waits on the follower watermark"
            ),
            served=True,
            replicated=True,
            wal=True,
            cache_pages=NO_STEAL_CACHE_PAGES,
            key_space=8192,
            preload_versions=6000,
            ops_per_second=260,
            range_span=256,
            nominal_slice_us=97.0,
        ),
        Workload(
            name="embedded_history",
            why=(
                "the paper's own traffic, larger than cache: as-of reads and "
                "time-slice scans over a TSB-tree with no wire, WAL or replica"
            ),
            served=False,
            replicated=False,
            wal=False,
            cache_pages=128,
            key_space=8192,
            preload_versions=16000,
            ops_per_second=3600,
            range_span=200,
            nominal_slice_us=72.0,
        ),
        Workload(
            name="txn_recovery",
            why=(
                "transactions, WAL forces, checkpoints and crash recovery on a "
                "store that fits in cache; durability checked from flushed bytes"
            ),
            served=False,
            replicated=False,
            wal=True,
            cache_pages=NO_STEAL_CACHE_PAGES,
            key_space=8192,
            preload_versions=4000,
            ops_per_second=10000,
            range_span=200,
            nominal_slice_us=87.0,
        ),
    )
}

#: How much of the operation stream the traced run replays.
TRACE_FRACTION = 0.25


def _key(rng: random.Random, key_space: int) -> int:
    return int(key_space * rng.random() ** 3)


def preload_keys(spec: Workload, seed: int, scale: float) -> List[int]:
    rng = random.Random(f"{spec.name}/preload/{seed}")
    key_space = spec.keys(scale)
    return [_key(rng, key_space) for _ in range(spec.preload_count(scale))]


def operations(spec: Workload, seed: int, seconds: float, scale: float) -> List[Tuple]:
    """The measured operation stream of ``spec`` for this seed."""
    rng = random.Random(f"{spec.name}/ops/{seed}")
    count = spec.op_count(seconds, scale)
    key_space = spec.keys(scale)
    return _STREAMS[spec.name](rng, count, key_space, spec)


def _served_mixed(rng, count, key_space, spec) -> List[Tuple]:
    # 50 % insert, 33 % get, 13 % get_as_of (half at the stamp of a recent
    # acknowledged write, half at a uniform past stamp), 2 % as-of range
    # scans, 2 % key histories.
    ops: List[Tuple] = []
    span = min(spec.range_span, key_space // 2)
    for _ in range(count):
        draw = rng.random()
        if draw < 0.50:
            ops.append((INSERT, _key(rng, key_space)))
        elif draw < 0.83:
            ops.append((GET, _key(rng, key_space)))
        elif draw < 0.895:
            ops.append((AS_OF_RECENT, rng.random()))
        elif draw < 0.96:
            ops.append((AS_OF_PAST, _key(rng, key_space), rng.random()))
        elif draw < 0.98:
            ops.append((RANGE, rng.randrange(key_space - span), span, rng.random()))
        else:
            ops.append((HISTORY, _key(rng, key_space)))
    return ops


def _replicated_rw(rng, count, key_space, spec) -> List[Tuple]:
    # Requests, not logical ops: each put_many of 16 distinct keys is followed
    # by one follower read of what it just wrote — which waits for the
    # follower's watermark — and, every other time, by an as-of range scan
    # around it (40 % put_many, 40 % get_as_of, 20 % range_search).  A second
    # point read would find the follower already caught up and make read
    # latency a coin toss between two modes.
    ops: List[Tuple] = []
    while len(ops) < count:
        keys: List[int] = []
        while len(keys) < 16:
            key = _key(rng, key_space)
            if key not in keys:
                keys.append(key)
        ops.append((PUT_MANY, tuple(keys)))
        ops.append((RYW, rng.random()))
        if rng.random() < 0.5:
            ops.append((RYW_RANGE, rng.random()))
    return ops[:count]


def _embedded_history(rng, count, key_space, spec) -> List[Tuple]:
    # 55 % get_as_of at a uniform past stamp, 20 % get, 10 % as-of range
    # scans, 5 % key histories, 10 % insert.
    ops: List[Tuple] = []
    span = min(spec.range_span, key_space // 2)
    for _ in range(count):
        draw = rng.random()
        if draw < 0.55:
            ops.append((AS_OF_PAST, _key(rng, key_space), rng.random()))
        elif draw < 0.75:
            ops.append((GET, _key(rng, key_space)))
        elif draw < 0.85:
            ops.append((RANGE, rng.randrange(key_space - span), span, rng.random()))
        elif draw < 0.90:
            ops.append((HISTORY, _key(rng, key_space)))
        else:
            ops.append((INSERT, _key(rng, key_space)))
    return ops


def _txn_recovery(rng, count, key_space, spec) -> List[Tuple]:
    # ``count`` logical ops in transactions of 4 writes + 2 reads (5 % abort),
    # an as-of range scan every 16th transaction, and a checkpoint after 1/8,
    # 3/8, 5/8 and 6/8 of the transactions: the first falls inside the traced
    # prefix, and recovery redoes the final quarter of the run.
    ops: List[Tuple] = []
    span = min(spec.range_span, key_space // 2)
    transactions = max(8, count // 6)
    checkpoints = {transactions * eighth // 8 for eighth in (1, 3, 5, 6)}
    for index in range(transactions):
        keys: List[int] = []
        while len(keys) < 4:
            key = _key(rng, key_space)
            if key not in keys:
                keys.append(key)
        reads = (_key(rng, key_space), _key(rng, key_space))
        ops.append((TXN, tuple(keys), rng.random() < 0.05, reads))
        if index % 16 == 15:
            ops.append((RANGE, rng.randrange(key_space - span), span, rng.random()))
        if index + 1 in checkpoints:
            ops.append((CHECKPOINT,))
    return ops


_STREAMS = {
    "served_mixed": _served_mixed,
    "replicated_rw": _replicated_rw,
    "embedded_history": _embedded_history,
    "txn_recovery": _txn_recovery,
}


def traced_prefix(ops: List[Tuple]) -> List[Tuple]:
    """The first quarter of ``ops`` — what the traced run replays."""
    return ops[: max(10, int(len(ops) * TRACE_FRACTION))]
