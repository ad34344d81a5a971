"""Record versions, key ranges and time ranges.

The paper models *stepwise constant* data (section 1, Figure 1): each record
version is stamped with the commit time of the transaction that created it and
remains valid until the next version of the same key is created.  A record
version is therefore a point in key space and a half-open interval in time;
TSB-tree nodes and index entries are rectangles in the same key x time plane.

This module defines the value types everything else is built from:

* :class:`Version` — one committed (or provisional) record version.
* :class:`RecordView` — the ``(key, timestamp, value)`` row a read answers.
* :class:`KeyRange` — a half-open interval of keys, possibly unbounded.
* :class:`TimeRange` — a half-open interval of commit times, possibly open
  ended (``end=None`` means "still current").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.storage.serialization import Key, key_size, timestamp_size, value_size


class RecordError(Exception):
    """Raised on malformed record versions or ranges."""


@dataclass(frozen=True)
class Version:
    """A single version of a record.

    Parameters
    ----------
    key:
        The record's primary key (int or str; one kind per tree).
    timestamp:
        Commit time of the transaction that wrote this version, or ``None``
        for a provisional (uncommitted) version — section 4 of the paper:
        uncommitted versions carry no timestamp, are never migrated to the
        historical database and can be erased on abort.
    value:
        Opaque payload bytes.
    txn_id:
        Identifier of the writing transaction while the version is
        provisional (``None`` once committed).
    is_tombstone:
        True when this version records the logical deletion of the key (used
        by secondary indexes when an attribute value stops applying, and by
        the optional logical-delete extension).  The tombstone itself is never
        deleted — the non-deletion policy applies to history, not to the
        logical current state.
    """

    key: Key
    timestamp: Optional[int]
    value: bytes = b""
    txn_id: Optional[int] = None
    is_tombstone: bool = False

    def __post_init__(self) -> None:
        if self.timestamp is not None and self.timestamp < 0:
            raise RecordError("commit timestamps must be non-negative")
        if self.timestamp is None and self.txn_id is None:
            raise RecordError("a provisional version must carry its txn_id")
        if not isinstance(self.value, (bytes, bytearray)):
            raise RecordError("record values must be bytes")

    @property
    def is_committed(self) -> bool:
        return self.timestamp is not None

    @property
    def is_provisional(self) -> bool:
        return self.timestamp is None

    def committed(self, commit_timestamp: int) -> "Version":
        """Return the committed form of a provisional version (section 4)."""
        if self.is_committed:
            raise RecordError("version is already committed")
        return replace(self, timestamp=commit_timestamp, txn_id=None)

    def serialized_size(self) -> int:
        """Bytes this version occupies inside a data-node page image."""
        # Versions are immutable and sized constantly (page-fit tests, split
        # evaluation, node content accounting), so the size is memoized.
        cached = self.__dict__.get("_cached_size")
        if cached is not None:
            return cached
        # key + timestamp + flags byte + optional txn id + value
        txn_bytes = 9 if self.txn_id is not None else 1
        size = (
            key_size(self.key)
            + timestamp_size(self.timestamp)
            + 1
            + txn_bytes
            + value_size(self.value)
        )
        object.__setattr__(self, "_cached_size", size)
        return size

    def identity(self) -> Tuple[Key, Optional[int], Optional[int]]:
        """Identity used to recognise redundant copies made by time splits."""
        return (self.key, self.timestamp, self.txn_id)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        stamp = "uncommitted" if self.timestamp is None else f"T={self.timestamp}"
        suffix = " (tombstone)" if self.is_tombstone else ""
        return f"<{self.key} {stamp}{suffix}>"


class RecordView(NamedTuple):
    """One committed record version as a read answers it, normalized across
    engines: an immutable ``(key, timestamp, value)`` tuple, so two engines
    agree on a query exactly when their answers are equal, and a row equals
    the plain triple.  Every layer hands the same row on; the builders on
    the read path make one with ``tuple.__new__(RecordView, (k, t, v))``."""

    key: Key
    timestamp: int
    value: bytes


@dataclass(frozen=True)
class KeyRange:
    """Half-open key interval ``[low, high)``.

    ``low=None`` means negative infinity and ``high=None`` positive infinity,
    so the initial root node covers ``KeyRange(None, None)``.
    """

    low: Optional[Key] = None
    high: Optional[Key] = None

    def __post_init__(self) -> None:
        if self.low is not None and self.high is not None and not self.low < self.high:
            raise RecordError(f"empty key range [{self.low!r}, {self.high!r})")

    @staticmethod
    def full() -> "KeyRange":
        """The whole key space (the root's key range)."""
        return KeyRange(None, None)

    def contains(self, key: Key) -> bool:
        if self.low is not None and key < self.low:
            return False
        if self.high is not None and not key < self.high:
            return False
        return True

    def contains_range(self, other: "KeyRange") -> bool:
        """True when ``other`` lies entirely inside this range."""
        low_ok = self.low is None or (other.low is not None and not other.low < self.low)
        high_ok = self.high is None or (
            other.high is not None and not self.high < other.high
        )
        return low_ok and high_ok

    def strictly_contains_key(self, key: Key) -> bool:
        """True when ``key`` is inside the range but equal to neither bound.

        This is the test of the Index Node Keyspace Split Rule (section 3.5):
        child entries whose key range *strictly* contains the split value are
        copied into both halves.
        """
        low_ok = self.low is None or self.low < key
        high_ok = self.high is None or key < self.high
        return low_ok and high_ok

    def overlaps(self, other: "KeyRange") -> bool:
        if self.high is not None and other.low is not None and not other.low < self.high:
            return False
        if other.high is not None and self.low is not None and not self.low < other.high:
            return False
        return True

    def intersect(self, other: "KeyRange") -> Optional["KeyRange"]:
        """Return the overlap of the two ranges, or ``None`` if disjoint."""
        if not self.overlaps(other):
            return None
        low = self.low
        if other.low is not None and (low is None or low < other.low):
            low = other.low
        high = self.high
        if other.high is not None and (high is None or other.high < high):
            high = other.high
        return KeyRange(low, high)

    def split_at(self, key: Key) -> Tuple["KeyRange", "KeyRange"]:
        """Split into ``[low, key)`` and ``[key, high)``."""
        if not self.strictly_contains_key(key) and not (
            self.low is not None and key == self.low
        ):
            if not self.contains(key):
                raise RecordError(f"split key {key!r} outside range {self}")
        if self.low is not None and not self.low < key:
            raise RecordError(f"split key {key!r} must exceed range low {self.low!r}")
        if self.high is not None and not key < self.high:
            raise RecordError(f"split key {key!r} must be below range high {self.high!r}")
        return KeyRange(self.low, key), KeyRange(key, self.high)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        low = "-inf" if self.low is None else repr(self.low)
        high = "+inf" if self.high is None else repr(self.high)
        return f"[{low}, {high})"


@dataclass(frozen=True)
class TimeRange:
    """Half-open commit-time interval ``[start, end)``.

    ``end=None`` denotes a *current* region that extends to "now and beyond";
    every region referring to a node in the current database is open ended,
    and every region referring to a historical node is closed on the right by
    the time-split value that created it.
    """

    start: int = 0
    end: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise RecordError("time ranges start at or after time zero")
        if self.end is not None and not self.start < self.end:
            raise RecordError(f"empty time range [{self.start}, {self.end})")

    @staticmethod
    def current(start: int = 0) -> "TimeRange":
        return TimeRange(start, None)

    @property
    def is_current(self) -> bool:
        return self.end is None

    def contains(self, timestamp: int) -> bool:
        if timestamp < self.start:
            return False
        if self.end is not None and timestamp >= self.end:
            return False
        return True

    def contains_range(self, other: "TimeRange") -> bool:
        if other.start < self.start:
            return False
        if self.end is None:
            return True
        if other.end is None:
            return False
        return other.end <= self.end

    def overlaps(self, other: "TimeRange") -> bool:
        if self.end is not None and other.start >= self.end:
            return False
        if other.end is not None and self.start >= other.end:
            return False
        return True

    def intersect(self, other: "TimeRange") -> Optional["TimeRange"]:
        if not self.overlaps(other):
            return None
        start = max(self.start, other.start)
        if self.end is None:
            end = other.end
        elif other.end is None:
            end = self.end
        else:
            end = min(self.end, other.end)
        return TimeRange(start, end)

    def split_at(self, timestamp: int) -> Tuple["TimeRange", "TimeRange"]:
        """Split into ``[start, timestamp)`` and ``[timestamp, end)``."""
        if timestamp <= self.start:
            raise RecordError(
                f"split time {timestamp} must exceed range start {self.start}"
            )
        if self.end is not None and timestamp >= self.end:
            raise RecordError(f"split time {timestamp} must precede range end {self.end}")
        return TimeRange(self.start, timestamp), TimeRange(timestamp, self.end)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        end = "now" if self.end is None else str(self.end)
        return f"[{self.start}, {end})"


@dataclass(frozen=True)
class Rectangle:
    """A region of the key x time plane: the responsibility of one node."""

    keys: KeyRange = field(default_factory=KeyRange.full)
    times: TimeRange = field(default_factory=TimeRange.current)

    @staticmethod
    def full() -> "Rectangle":
        return Rectangle(KeyRange.full(), TimeRange.current(0))

    def contains_point(self, key: Key, timestamp: int) -> bool:
        return self.keys.contains(key) and self.times.contains(timestamp)

    def contains(self, other: "Rectangle") -> bool:
        return self.keys.contains_range(other.keys) and self.times.contains_range(
            other.times
        )

    def overlaps(self, other: "Rectangle") -> bool:
        return self.keys.overlaps(other.keys) and self.times.overlaps(other.times)

    def intersect(self, other: "Rectangle") -> Optional["Rectangle"]:
        keys = self.keys.intersect(other.keys)
        times = self.times.intersect(other.times)
        if keys is None or times is None:
            return None
        return Rectangle(keys, times)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.keys} x {self.times}"


# ----------------------------------------------------------------------
# Trusted fast constructors for the page-decode path
#
# Page images are produced by our own encoder, so re-validating every field
# while decoding only burns time: these bypass the dataclass __init__ and
# __post_init__ checks.  They must never be fed unvalidated user input.
# ----------------------------------------------------------------------
def decoded_version(
    key: Key,
    timestamp: Optional[int],
    value: bytes,
    txn_id: Optional[int],
    is_tombstone: bool,
) -> Version:
    version = Version.__new__(Version)
    fields_dict = version.__dict__
    fields_dict["key"] = key
    fields_dict["timestamp"] = timestamp
    fields_dict["value"] = value
    fields_dict["txn_id"] = txn_id
    fields_dict["is_tombstone"] = is_tombstone
    return version


def decoded_rectangle(
    low: Optional[Key], high: Optional[Key], start: int, end: Optional[int]
) -> Rectangle:
    keys = KeyRange.__new__(KeyRange)
    keys.__dict__["low"] = low
    keys.__dict__["high"] = high
    times = TimeRange.__new__(TimeRange)
    times.__dict__["start"] = start
    times.__dict__["end"] = end
    rect = Rectangle.__new__(Rectangle)
    rect.__dict__["keys"] = keys
    rect.__dict__["times"] = times
    return rect


# ----------------------------------------------------------------------
# Helpers over collections of versions
# ----------------------------------------------------------------------
def latest_committed(versions: Iterable[Version]) -> Optional[Version]:
    """Return the committed version with the greatest timestamp, if any."""
    best: Optional[Version] = None
    for version in versions:
        if version.timestamp is None:
            continue
        if best is None or version.timestamp > best.timestamp:
            best = version
    return best


def version_as_of(versions: Iterable[Version], timestamp: int) -> Optional[Version]:
    """Return the version valid at ``timestamp`` (stepwise-constant rule).

    The valid version is the committed one with the greatest commit time not
    exceeding ``timestamp`` — "look at the last entry made before T"
    (section 1, Figure 1).  Returns ``None`` when no such version exists or
    when the valid version is a tombstone.
    """
    best: Optional[Version] = None
    for version in versions:
        if version.timestamp is None or version.timestamp > timestamp:
            continue
        if best is None or version.timestamp > best.timestamp:
            best = version
    if best is not None and best.is_tombstone:
        return None
    return best


def records_valid_between(records: Sequence, start: int, end: int) -> List:
    """Select the records of one key valid at some point in ``[start, end)``.

    ``records`` is that key's full committed history, oldest first; each
    record carries a ``timestamp`` and is valid from it until the next
    record's timestamp (the stepwise-constant rule of section 1).  Works on
    any record type with a ``timestamp`` attribute, so every engine's
    time-slice query shares this one definition.
    """
    if end <= start:
        return []
    selected: List = []
    for position, record in enumerate(records):
        next_start = (
            records[position + 1].timestamp
            if position + 1 < len(records)
            else None
        )
        # Valid interval of this record: [timestamp, next_start).
        if record.timestamp >= end:
            continue
        if next_start is not None and next_start <= start:
            continue
        selected.append(record)
    return selected


def distinct_keys(versions: Iterable[Version]) -> List[Key]:
    """Return the sorted distinct keys appearing in ``versions``."""
    return sorted({version.key for version in versions})


def group_by_key(versions: Sequence[Version]) -> "dict[Key, List[Version]]":
    """Group versions by key, each group sorted by commit time.

    Provisional versions sort after every committed one (they are newer than
    anything committed so far).
    """
    grouped: "dict[Key, List[Version]]" = {}
    for version in versions:
        grouped.setdefault(version.key, []).append(version)
    for group in grouped.values():
        group.sort(key=_version_order)
    return grouped


def _version_order(version: Version) -> Tuple[int, int]:
    if version.timestamp is None:
        return (1, version.txn_id or 0)
    return (0, version.timestamp)
