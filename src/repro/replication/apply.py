"""Follower apply: the replication tier's view of the one log replayer.

A replica replays a log that never finishes; restart recovery replays one
that has.  Both are :class:`~repro.recovery.replay.LogReplayer` — the body
lives under :mod:`repro.recovery` so recovery does not import the wire
protocol — and this module re-exports the very same class, plus the one
helper that is about shipping rather than applying: finding where in a raw
WAL byte range a subscriber's resume LSN falls.
"""

from __future__ import annotations

from repro.recovery.replay import LogReplayer, replay_device
from repro.server.protocol import iter_wal_records

__all__ = ["LogReplayer", "replay_device", "scan_offset"]


def scan_offset(data: bytes, from_lsn: int) -> int:
    """Byte offset in ``data`` of the first record with LSN > ``from_lsn``.

    Walks the raw WAL frames (length + CRC + leading u64 LSN) without fully
    decoding bodies.  Returns ``len(data)``'s clean-prefix end when every
    record is at or below ``from_lsn`` — i.e. the append point for new work.
    """
    offset = 0
    for start, lsn, end in iter_wal_records(data):
        if lsn > from_lsn:
            return start
        offset = end
    return offset
