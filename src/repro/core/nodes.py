"""TSB-tree nodes: data nodes, index entries and index nodes.

Every node is responsible for a rectangle of the key x time plane
(:class:`~repro.core.records.Rectangle`):

* A **data node** holds record versions.  Its rectangle is the set of
  ``(key, time)`` query points it must be able to answer; because versions
  created *before* the rectangle's start time may still be valid inside it
  (the redundancy introduced by the time-split rule), the node may contain
  versions whose timestamps precede its time range.
* An **index node** holds :class:`IndexEntry` values, each describing the
  rectangle and device address of one child.  Within a parent's rectangle the
  children's rectangles tile the space: every query point is covered by
  exactly one child entry.

Unlike the original WOBT — which keeps entries strictly in insertion order
because a write-once sector can never be rewritten — TSB-tree nodes live on
an erasable device while current, so we are free to store them in a
convenient normalised form.  The WOBT baseline in :mod:`repro.wobt` keeps the
literal insertion-ordered layout.

Page layout
-----------
A page image is *column-packed*: every field of every record sits in one
packed run per field, so opening a page is a handful of
``struct.unpack_from`` calls and a point lookup is a ``bisect`` over one
unpacked run.  All integers are big-endian.  A page holds keys of one kind
(``int``: one ``i64`` each; ``str``: a run of ``u32`` end offsets followed by
the UTF-8 bytes), an open time bound is the all-ones ``u64``, and an image
is exactly as long as its header says — anything shorter is rejected as
truncated when the page is opened.

Data page, ``n`` versions::

    tag 0xD1 | key kind u8 | n u32 | t u32 | image length u32
    keys          n keys, sorted by (key, committed first, stamp)
    stamps        n x u64  commit stamp; the txn id of a provisional version
    flags         n x u8   1 tombstone, 2 provisional, 4 stamp *and* txn id
    order         n x u16  position of each slot in the node's version list
    value ends    n x u32  end offset of each value in the value heap
    txn ids       t x u64  for the versions flagged 4, in slot order
    value heap
    region        u8 (1 low, 2 high present) | keys | start u64 | end u64

Slots are sorted (ties in list order), so the versions of one key are one
contiguous run, oldest first, and ``version_as_of`` is two bisects over the
keys and one over that run's stamps; ``order`` gives the list order back.  A
key *range* is one contiguous run too: the two range lookups a scan asks a
data node — ``versions_as_of`` (the version valid at ``t`` of every key in
``[low, high)``) and ``committed_versions`` (every committed version of those
keys) — clip the key run with two bisects, read the clipped stamps and flags
once, and build a ``Version`` only for the slots they return.

Index page, ``n`` entries over ``m`` distinct key bounds::

    tag 0xD2 | key kind u8 | level u16 | n u32 | m u32
             | region: low ref u16, high ref u16, start u64, end u64
    key table     m keys, sorted; every bound on the page is a reference
    low refs      n x u16  0 = unbounded, else 1 + position in the table
    high refs     n x u16  0xFFFF = unbounded, else 1 + position
    starts, ends  n x u64 each
    child pages   n x u64  page number or historical region id
    child tiers   n x u8   0 magnetic, 1 historical
    historical    (sector start u64, length u64, platter u32) per tier-1 child

A search key is bisected into the key table once; containment is then a
comparison of small integers per entry (``low ref <= r < high ref``).

Both layouts stay within the ``serialized_size()`` budget the split tests
use (which over-charges a tag byte per field), so split decisions do not
depend on the codec.

One representation
------------------
A node's only state is its page's slot columns — a data node's keys, stamp
words, flags, list order, values and txn ids; an index node's key table, low
and high refs, starts, ends and children — and every query is written once,
over them.  A node opened from an image keeps it: values and children are
read from it in place, and ``encode()`` hands it back while the node is
unmodified.  The first mutation turns the columns into lists in place and
drops the image.  The mutators then insert, delete or patch slots — a data
node keeps its order column and content size current, an index node enters
a new bound into its key table — and ``encode()`` packs the columns (an
index node re-derives its key table, so the page holds just the bounds in
use).

A per-slot memo builds a ``Version`` / :class:`IndexEntry` the first time a
caller gets one and shares it after that, so a caller can remove or replace
the object it was handed by identity.  ``versions`` and ``entries`` are
read-only tuples in list order; assigning them is the one way to replace a
node's contents.  Readers under a shared latch may race on a memo slot, a
region read on first use or an index node's current-entry table: each is a
pure function of the columns, published by one store, so a race at worst
builds it twice.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.records import Rectangle, Version, decoded_rectangle, decoded_version
from repro.storage.device import Address
from repro.storage.serialization import (
    Key,
    SerializationError,
    address_size,
    decode_str_key,
    encode_str_key,
    key_size,
)

_NODE_TAG_DATA = 0xD1
_NODE_TAG_INDEX = 0xD2

#: fixed per-node header charge (tag, counts, range bounds bookkeeping)
_NODE_HEADER_SIZE = 32
#: fixed per-index-entry overhead besides key/address payload
_INDEX_ENTRY_OVERHEAD = 20

_KIND_INT = 0
_KIND_STR = 1

# Per-version flag bits of a data page.
_TOMBSTONE = 1
_PROVISIONAL = 2  # no commit stamp: the stamp slot holds the transaction id
_STAMP_AND_TXN = 4  # committed but still carrying a txn id (kept in the sparse run)

#: an open time bound ("still current") as stored
_U64_MAX = (1 << 64) - 1
#: index pages: the key reference of an unbounded high key
_NO_HIGH = 0xFFFF

_U64_PAIR = struct.Struct(">QQ")
_HISTORICAL_CHILD = struct.Struct(">QQI")  # sector start, length, platter
_DATA_HEADER = struct.Struct(">BBIII")
_INDEX_HEADER = struct.Struct(">BBHIIHHQQ")

#: ``address_size`` of a magnetic and of a historical child, by tier byte
_CHILD_SIZES = (address_size(Address.magnetic(0)), address_size(Address.historical(0, 0, 0)))

#: what a malformed image can make the column readers raise
_MALFORMED = (struct.error, IndexError, ValueError, StopIteration)


class NodeError(Exception):
    """Raised on structurally invalid node operations."""


# ----------------------------------------------------------------------
# Column codec helpers
# ----------------------------------------------------------------------
@lru_cache(maxsize=4096)
def _run(code: str, count: int) -> struct.Struct:
    """Codec of a run of ``count`` packed values of struct type ``code``."""
    return struct.Struct(f">{count}{code}")


def _key_kind(keys: Iterable[Optional[Key]]) -> int:
    """The one key kind of a page (``None`` bounds aside)."""
    kinds = set(map(type, keys))
    kinds.discard(type(None))
    if kinds <= {int}:
        return _KIND_INT
    if kinds == {str}:
        return _KIND_STR
    names = ", ".join(sorted(kind.__name__ for kind in kinds))
    raise SerializationError(f"unsupported or mixed key types: {names}")


def _append_keys(buf: bytearray, keys: Sequence[Key], kind: int) -> None:
    if kind == _KIND_INT:
        buf += _run("q", len(keys)).pack(*keys)
    else:
        encoded = [encode_str_key(key) for key in keys]
        buf += _run("I", len(keys)).pack(*accumulate(map(len, encoded)))
        buf += b"".join(encoded)


def _keys_at(data: bytes, offset: int, count: int, kind: int) -> Tuple[Tuple[Key, ...], int]:
    """The run of ``count`` keys at ``offset`` and the offset just past it."""
    if kind == _KIND_INT:
        return _run("q", count).unpack_from(data, offset), offset + 8 * count
    if kind != _KIND_STR:
        raise SerializationError(f"unknown key kind {kind}")
    ends = _run("I", count).unpack_from(data, offset)
    heap = offset + 4 * count
    keys = tuple(
        decode_str_key(data[heap + start : heap + end])
        for start, end in zip((0,) + ends, ends)
    )
    return keys, heap + (ends[-1] if ends else 0)


def _end_word(end: Optional[int]) -> int:
    """A time range's end as stored."""
    if end is None:
        return _U64_MAX
    if end >= _U64_MAX:
        raise SerializationError(f"time bound {end} out of range")
    return end


def _append_region(buf: bytearray, region: Rectangle, kind: int) -> None:
    low, high = region.keys.low, region.keys.high
    buf.append((low is not None) | (high is not None) << 1)
    _append_keys(buf, [key for key in (low, high) if key is not None], kind)
    buf += _U64_PAIR.pack(region.times.start, _end_word(region.times.end))


def _region_at(data: bytes, offset: int, kind: int) -> Rectangle:
    present = data[offset]
    bounds, offset = _keys_at(data, offset + 1, (present & 1) + (present >> 1 & 1), kind)
    start, end = _U64_PAIR.unpack_from(data, offset)
    low, high = bounds[0] if present & 1 else None, bounds[-1] if present & 2 else None
    return decoded_rectangle(low, high, start, None if end == _U64_MAX else end)


def _flag_of(version: Version) -> int:
    """A version's flag byte on a data page."""
    if version.timestamp is None:
        return _PROVISIONAL | version.is_tombstone
    return (0 if version.txn_id is None else _STAMP_AND_TXN) | version.is_tombstone


# ----------------------------------------------------------------------
# Data nodes
# ----------------------------------------------------------------------
class DataNode:
    """A leaf node holding record versions for one key x time rectangle."""

    __slots__ = ("address", "_region", "_image", "_heap", "_keys", "_words", "_flags", "_order",
                 "_values", "_txns", "_made", "_content")  # fmt: skip

    def __init__(self, address: Address, region: Rectangle, versions: Iterable[Version] = ()):
        self.address = address
        self._region = region
        self._image = None
        self.versions = versions

    @staticmethod
    def decode(address: Address, data: bytes) -> "DataNode":
        """Open a data-page image: its columns, answering from the image."""
        image = data if type(data) is bytes else bytes(data)
        try:
            tag, kind, count, txn_count, length = _DATA_HEADER.unpack_from(image)
        except struct.error as exc:
            raise SerializationError("truncated page image") from exc
        if tag != _NODE_TAG_DATA:
            raise SerializationError(f"not a data-node image (tag {tag:#x})")
        if length != len(image):
            raise SerializationError("truncated page image")
        node = DataNode.__new__(DataNode)
        try:
            keys, at = _keys_at(image, _DATA_HEADER.size, count, kind)
            key_bytes = 9 * count if kind == _KIND_INT else count + at - _DATA_HEADER.size
            node._words = _run("Q", count).unpack_from(image, at)
            node._flags = flags = image[at + 8 * count : at + 9 * count]
            node._order = _run("H", count).unpack_from(image, at + 9 * count)
            node._values = ends = _run("I", count).unpack_from(image, at + 11 * count)
            at += 15 * count
            txns = [None] * count
            if txn_count:
                sparse = iter(_run("Q", txn_count).unpack_from(image, at))
                txns = [next(sparse) if flag & _STAMP_AND_TXN else None for flag in flags]
            node._heap = at + 8 * txn_count
            heap_bytes = ends[-1] if count else 0
        except _MALFORMED as exc:
            raise SerializationError("malformed data-page image") from exc
        node.address = address
        node._region = None  # read on first use
        node._image = image
        node._keys = keys
        node._txns = txns
        node._made = [None] * count
        # The versions' serialized_size(): per version a key, a 9-byte stamp or 1-byte
        # "none", a flag byte, a 9- or 1-byte txn id and a length-prefixed value.
        node._content = key_bytes + 15 * count + 8 * txn_count + heap_bytes
        return node

    # -- the columns --------------------------------------------------------
    @property
    def versions(self) -> Tuple[Version, ...]:
        """The node's versions in list order (assign to replace them)."""
        listed: List[Optional[Version]] = [None] * len(self._keys)
        for slot, position in enumerate(self._order):
            listed[position] = self._version(slot)
        return tuple(listed)

    @versions.setter
    def versions(self, versions: Iterable[Version]) -> None:
        self._region = self.region  # read from the image before it goes
        listed = list(versions)
        rows = sorted(
            (v.key, v.timestamp is None, v.txn_id if v.timestamp is None else v.timestamp, at)
            for at, v in enumerate(listed)
        )
        self._made = made = [listed[row[3]] for row in rows]
        self._keys = [row[0] for row in rows]
        self._words = [row[2] for row in rows]
        self._flags = bytearray(map(_flag_of, made))
        self._order = [row[3] for row in rows]
        self._values = [version.value for version in made]
        self._txns = [None if v.timestamp is None else v.txn_id for v in made]
        self._content = sum(version.serialized_size() for version in made)
        self._image = None

    @property
    def region(self) -> Rectangle:
        region = self._region
        if region is None:
            at = self._heap + (self._values[-1] if self._values else 0)
            try:
                region = _region_at(self._image, at, self._image[1])
            except _MALFORMED as exc:
                raise SerializationError("malformed data-page image") from exc
            self._region = region
        return region

    @region.setter
    def region(self, region: Rectangle) -> None:
        self._own()
        self._region = region

    def _own(self) -> None:
        """Turn image columns into lists (the first mutation): the image goes."""
        if self._image is not None:
            self._region = self.region
            self._values = [self._value(slot) for slot in range(len(self._keys))]
            self._keys = list(self._keys)
            self._words = list(self._words)
            self._flags = bytearray(self._flags)
            self._order = list(self._order)
            self._image = None

    def _columns(self) -> tuple:
        """Every per-slot column, for a slot insert or delete."""
        return (
            self._keys, self._words, self._flags, self._order,
            self._values, self._txns, self._made,
        )  # fmt: skip

    def _value(self, slot: int) -> bytes:
        image = self._image
        if image is None:
            return self._values[slot]
        ends, heap = self._values, self._heap
        return image[heap + (ends[slot - 1] if slot else 0) : heap + ends[slot]]

    def _txn_id(self, slot: int) -> Optional[int]:
        return self._words[slot] if self._flags[slot] & _PROVISIONAL else self._txns[slot]

    def _version(self, slot: int) -> Version:
        """The version in ``slot``, built on first use and then shared."""
        version = self._made[slot]
        if version is None:
            flag = self._flags[slot]
            version = self._made[slot] = decoded_version(
                self._keys[slot],
                None if flag & _PROVISIONAL else self._words[slot],
                self._value(slot),
                self._txn_id(slot),
                bool(flag & _TOMBSTONE),
            )
        return version

    def _run_of(self, key: Key) -> Tuple[int, int, int]:
        """``(first, committed_end, end)`` of the slots holding ``key``'s versions."""
        keys, flags = self._keys, self._flags
        first = bisect_left(keys, key)
        end = bisect_right(keys, key, first)
        committed = end
        while committed > first and flags[committed - 1] & _PROVISIONAL:
            committed -= 1
        return first, committed, end

    def _clip(self, low: Optional[Key], high: Optional[Key]) -> Tuple[int, int]:
        """``(first, end)`` of the slots whose keys lie in ``[low, high)``."""
        keys = self._keys
        first = 0 if low is None else bisect_left(keys, low)
        return first, len(keys) if high is None else bisect_left(keys, high, first)

    # -- content queries -------------------------------------------------
    def keys(self) -> List[Key]:
        """The distinct keys stored in this node, sorted."""
        return list(dict.fromkeys(self._keys))

    def versions_for_key(self, key: Key) -> List[Version]:
        """All versions of ``key`` stored in this node, oldest first."""
        first, _committed, end = self._run_of(key)
        return [self._version(slot) for slot in range(first, end)]

    def latest_for_key(self, key: Key) -> Optional[Version]:
        first, committed, _end = self._run_of(key)
        if first == committed:
            return None
        words = self._words
        # Equal stamps: the first in list order wins, as in a scan of the list.
        return self._version(bisect_left(words, words[committed - 1], first, committed))

    def version_as_of(self, key: Key, timestamp: int) -> Optional[Version]:
        first, committed, _end = self._run_of(key)
        words = self._words
        newest = bisect_right(words, timestamp, first, committed) - 1
        if newest < first:
            return None
        slot = bisect_left(words, words[newest], first, newest)
        if self._flags[slot] & _TOMBSTONE:
            return None
        return self._version(slot)

    def provisional_for_key(self, key: Key, txn_id: int) -> Optional[Version]:
        first, _committed, end = self._run_of(key)
        for slot in range(end - 1, first - 1, -1):
            if self._txn_id(slot) == txn_id:
                return self._version(slot)
        return None

    def versions_as_of(
        self, low: Optional[Key], high: Optional[Key], timestamp: int, tombstones: bool = False
    ) -> List[Version]:
        """The version valid at ``timestamp`` of each key in ``[low, high)``,
        key-sorted: ``version_as_of`` over a key range.  ``tombstones`` keeps
        the keys whose valid version is a logical delete."""
        first, end = self._clip(low, high)
        keys = self._keys[first:end]
        stamps = self._words[first:end]
        flags = self._flags[first:end]
        committed = [
            at
            for at, (stamp, flag) in enumerate(zip(stamps, flags))
            if stamp <= timestamp and not flag & _PROVISIONAL
        ]
        # A key's committed slots are in stamp order, so the last one that
        # qualifies is its newest; a dict keeps the last value per key, and
        # its keys in slot order, which is key order.
        found = []
        for key, at in dict(zip(map(keys.__getitem__, committed), committed)).items():
            # Equal stamps: the first in slot order wins, as in a scan of the list.
            while at and stamps[at - 1] == stamps[at] and keys[at - 1] == key:
                at -= 1
            if tombstones or not flags[at] & _TOMBSTONE:
                found.append(self._version(first + at))
        return found

    def committed_versions(self, low: Optional[Key], high: Optional[Key]) -> List[Version]:
        """Every committed version (tombstones included) of every key in
        ``[low, high)``, key-sorted, each key's oldest first."""
        first, end = self._clip(low, high)
        return [
            self._version(slot)
            for slot, flag in enumerate(self._flags[first:end], first)
            if not flag & _PROVISIONAL
        ]

    def columns(self) -> Tuple[Tuple[Key, ...], Tuple[int, ...], bytes]:
        """The key, stamp-word and flag runs of the node's page image: one
        entry per version, in slot order (see the page layout)."""
        return tuple(self._keys), tuple(self._words), bytes(self._flags)

    # -- mutation ---------------------------------------------------------
    def _put(self, version: Version, position: int) -> None:
        """Insert the slot of ``version``, at list ``position``, in slot order."""
        provisional = version.timestamp is None
        word = version.txn_id if provisional else version.timestamp
        first, committed, end = self._run_of(version.key)
        low, high = (committed, end) if provisional else (first, committed)
        words, order = self._words, self._order
        slot = bisect_left(words, word, low, high)
        while slot < high and words[slot] == word and order[slot] < position:
            slot += 1
        txn_id = None if provisional else version.txn_id
        row = (version.key, word, _flag_of(version), position, version.value, txn_id, version)
        for column, value in zip(self._columns(), row):
            column.insert(slot, value)

    def _take(self, slot: int) -> int:
        """Delete ``slot`` from every column; its list position."""
        position = self._order[slot]
        for column in self._columns():
            del column[slot]
        return position

    def add_version(self, version: Version) -> None:
        if not self.region.keys.contains(version.key):
            raise NodeError(
                f"key {version.key!r} outside node key range {self.region.keys}"
            )
        self._own()
        self._put(version, len(self._keys))
        self._content += version.serialized_size()

    def remove_version(self, version: Version) -> None:
        first, _committed, end = self._run_of(version.key)
        slots = range(first, end)
        # The caller's own object first: no `__eq__` on the versions around it.
        found = [slot for slot in slots if self._made[slot] is version]
        found = found or [slot for slot in slots if self._version(slot) == version]
        if not found:
            raise NodeError(f"version {version} not present in node")
        self._own()
        position = self._take(found[0])
        self._order = [at - (at > position) for at in self._order]
        self._content -= version.serialized_size()

    def stamp_provisional(self, key: Key, txn_id: int, commit_timestamp: int) -> bool:
        """Swap ``txn_id``'s provisional version of ``key`` for its committed
        twin at ``commit_timestamp``, in the provisional version's list
        position; ``False`` when there is none.  The twin is as large as the
        version it replaces (a stamp for a txn id), so sizes do not move."""
        _first, committed, end = self._run_of(key)
        slot = next((at for at in range(committed, end) if self._words[at] == txn_id), None)
        if slot is None:
            return False
        twin = self._version(slot).committed(commit_timestamp)
        self._own()
        self._put(twin, self._take(slot))
        return True

    def serialized_size(self) -> int:
        low, high = self.region.keys.low, self.region.keys.high
        bounds = (0 if low is None else key_size(low)) + (0 if high is None else key_size(high))
        return _NODE_HEADER_SIZE + 19 + bounds + self._content

    def fits(self, page_size: int, extra: Optional[Version] = None) -> bool:
        return self.serialized_size() + (extra.serialized_size() if extra else 0) <= page_size

    def encode(self) -> bytes:
        """The page image: the one opened while unmodified, else packed."""
        if self._image is not None:
            return self._image
        keys, region = self._keys, self._region
        count = len(keys)
        kind = _key_kind([*keys, region.keys.low, region.keys.high])
        values = self._values
        txn_ids = [txn_id for txn_id in self._txns if txn_id is not None]
        try:
            buf = bytearray(_DATA_HEADER.size)
            _append_keys(buf, keys, kind)
            buf += _run("Q", count).pack(*self._words)
            buf += self._flags
            buf += _run("H", count).pack(*self._order)
            buf += _run("I", count).pack(*accumulate(map(len, values)))
            buf += _run("Q", len(txn_ids)).pack(*txn_ids)
            buf += b"".join(values)
            _append_region(buf, region, kind)
            _DATA_HEADER.pack_into(
                buf, 0, _NODE_TAG_DATA, kind, count, len(txn_ids), len(buf)
            )
        except struct.error as exc:
            raise SerializationError(f"data node {self.address} cannot be packed: {exc}") from exc
        return bytes(buf)

    def __eq__(self, other) -> bool:
        if type(other) is not DataNode:
            return NotImplemented
        return self.address == other.address and self.encode() == other.encode()


# ----------------------------------------------------------------------
# Index entries and index nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IndexEntry:
    """One child reference inside an index node.

    The paper stores ``(key, timestamp, pointer)`` triples in insertion order
    and reconstructs each child's key/time extent from the node's history; we
    store the extent explicitly as a rectangle, which is the information the
    search rule derives (see DESIGN.md section 5).  ``child`` carries the
    device tier, so "does this entry reference the historical database?" is
    simply :attr:`is_historical`.
    """

    child: Address
    region: Rectangle

    @property
    def is_historical(self) -> bool:
        return self.child.is_historical

    @property
    def is_current(self) -> bool:
        return self.child.is_magnetic

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"IndexEntry({self.region} -> {self.child})"


def _referenced_rectangle(table: Sequence, low: int, high: int, start: int, end: int) -> Rectangle:
    """The rectangle an index page describes by key references and time words."""
    low_key = table[low - 1] if low else None
    high_key = None if high == _NO_HIGH else table[high - 1]
    return decoded_rectangle(low_key, high_key, start, None if end == _U64_MAX else end)


class IndexNode:
    """An internal node mapping key x time rectangles to child addresses."""

    __slots__ = ("address", "_level", "_region", "_image", "_table", "_lows", "_highs", "_starts",
                 "_ends", "_tiers", "_pages", "_made", "_current", "_content")  # fmt: skip

    def __init__(self, address: Address, region: Rectangle, entries=(), level: int = 1):
        self.address = address
        self._level = level
        self._region = region
        self._image = None
        self.entries = entries

    @staticmethod
    def decode(address: Address, data: bytes) -> "IndexNode":
        """Open an index-page image: its columns, children read in place."""
        image = data if type(data) is bytes else bytes(data)
        try:
            tag, kind, level, count, distinct = _INDEX_HEADER.unpack_from(image)[:5]
            if tag != _NODE_TAG_INDEX:
                raise SerializationError(f"not an index-node image (tag {tag:#x})")
            table, at = _keys_at(image, _INDEX_HEADER.size, distinct, kind)
            tiers = image[at + 28 * count : at + 29 * count]
            length = at + 29 * count + 20 * tiers.count(1)
        except _MALFORMED as exc:
            raise SerializationError("truncated page image") from exc
        if length != len(image):
            raise SerializationError("truncated page image")
        node = IndexNode.__new__(IndexNode)
        refs, words = _run("H", count), _run("Q", count)
        node.address = address
        node._level = level
        node._region = None  # read on first use
        node._image = image
        node._table = table
        node._lows = refs.unpack_from(image, at)
        node._highs = refs.unpack_from(image, at + 2 * count)
        node._starts = words.unpack_from(image, at + 4 * count)
        node._ends = words.unpack_from(image, at + 12 * count)
        node._tiers = tiers
        node._pages = words.unpack_from(image, at + 20 * count)
        node._made = [None] * count
        node._current = node._content = None
        return node

    # -- the columns --------------------------------------------------------
    @property
    def entries(self) -> Tuple[IndexEntry, ...]:
        """The node's entries in list order (assign to replace them)."""
        return tuple(map(self._entry, range(len(self._lows))))

    @entries.setter
    def entries(self, entries: Iterable[IndexEntry]) -> None:
        entries = list(entries)
        region = self._region = self.region  # read from the image before it goes
        bounds = {bound for e in entries for bound in (e.region.keys.low, e.region.keys.high)}
        self._table = sorted(bounds.union((region.keys.low, region.keys.high)) - {None})
        self._lows, self._highs, self._starts, self._ends, self._made = [], [], [], [], []
        self._tiers = bytearray()
        self._image = None
        for slot, entry in enumerate(entries):
            self._put(slot, entry)
        self._current = self._content = None

    @property
    def region(self) -> Rectangle:
        region = self._region
        if region is None:
            refs = _INDEX_HEADER.unpack_from(self._image)[5:]
            try:
                region = _referenced_rectangle(self._table, *refs)
            except IndexError as exc:
                raise SerializationError("malformed index-page image") from exc
            self._region = region
        return region

    @region.setter
    def region(self, region: Rectangle) -> None:
        self._own()
        self._region = region

    @property
    def level(self) -> int:
        return self._level

    def _own(self) -> None:
        """Turn image columns into lists (the first mutation): the image goes."""
        if self._image is not None:
            self._region = self.region
            self._made = list(self.entries)
            self._table, self._lows = list(self._table), list(self._lows)
            self._highs, self._starts = list(self._highs), list(self._starts)
            self._ends, self._tiers = list(self._ends), bytearray(self._tiers)
            self._image = None

    def _columns(self) -> tuple:
        """Every per-slot column, for a slot insert or delete."""
        return self._lows, self._highs, self._starts, self._ends, self._tiers, self._made

    def _ref(self, key: Key) -> int:
        """The table reference of ``key``; a key new to the table joins it,
        and the references above it move up."""
        table = self._table
        at = bisect_left(table, key)
        if at == len(table) or table[at] != key:
            table.insert(at, key)
            self._lows = [ref + (ref > at) for ref in self._lows]
            self._highs = [ref + (at < ref < _NO_HIGH) for ref in self._highs]
        return at + 1

    def _put(self, slot: int, entry: IndexEntry) -> None:
        keys, times = entry.region.keys, entry.region.times
        low = 0 if keys.low is None else self._ref(keys.low)
        high = _NO_HIGH if keys.high is None else self._ref(keys.high)
        row = (low, high, times.start, _end_word(times.end), entry.child.is_historical, entry)
        for column, value in zip(self._columns(), row):
            column.insert(slot, value)

    def _child(self, slot: int) -> Address:
        entry = self._made[slot]
        if entry is not None:
            return entry.child
        page, tiers = self._pages[slot], self._tiers
        if not tiers[slot]:
            return Address.magnetic(page)
        # The historical triples end the image, in slot order.
        at = len(self._image) - 20 * tiers.count(1, slot)
        return Address.historical(page, *_HISTORICAL_CHILD.unpack_from(self._image, at))

    def _entry(self, slot: int) -> IndexEntry:
        """The entry in ``slot``, built on first use and then shared."""
        entry = self._made[slot]
        if entry is None:
            bounds = self._lows[slot], self._highs[slot], self._starts[slot], self._ends[slot]
            region = _referenced_rectangle(self._table, *bounds)
            entry = self._made[slot] = IndexEntry(child=self._child(slot), region=region)
        return entry

    # -- search -----------------------------------------------------------
    def find_child(self, key: Key, timestamp: int) -> IndexEntry:
        """The unique entry whose rectangle contains ``(key, timestamp)``: the
        rectangle form of the paper's search rule (section 2.2 / 2.5)."""
        reach = bisect_right(self._table, key)
        # The all-ones end word is "still current", whatever the search time.
        before = timestamp if timestamp < _U64_MAX else _U64_MAX - 1
        matches = [
            slot
            for slot, (low, high, start, end) in enumerate(
                zip(self._lows, self._highs, self._starts, self._ends)
            )
            if low <= reach < high and start <= timestamp and before < end
        ]
        if not matches:
            raise NodeError(f"no child covers ({key!r}, {timestamp}) in index node {self.address}")
        if len(matches) > 1:
            raise NodeError(
                f"{len(matches)} children cover ({key!r}, {timestamp}) in index "
                f"node {self.address}: regions overlap"
            )
        return self._entry(matches[0])

    def find_current_child(self, key: Key) -> IndexEntry:
        """The unique *current* child whose key range contains ``key``: the
        current entry with the greatest low bound not above it, one bisect in
        the current entries sorted by low bound (built on first use).  The one
        below is checked for double coverage, and anything but a plain tiling
        is counted as a scan would, so a corrupt node still fails loudly."""
        lows, highs = self._lows, self._highs
        current = self._current
        if current is None:
            slots = sorted(
                (slot for slot, end in enumerate(self._ends) if end == _U64_MAX),
                key=lows.__getitem__,
            )
            current = self._current = ([lows[slot] for slot in slots], slots)
        sorted_lows, slots = current
        reach = bisect_right(self._table, key)
        at = bisect_right(sorted_lows, reach) - 1
        if at >= 0 and reach < highs[slots[at]]:
            if not (at and reach < highs[slots[at - 1]]):
                return self._entry(slots[at])
        matches = [slot for slot in slots if lows[slot] <= reach < highs[slot]]
        if len(matches) != 1:
            raise NodeError(
                f"expected exactly one current child for key {key!r} in "
                f"{self.address}, found {len(matches)}"
            )
        return self._entry(matches[0])

    def children_overlapping(self, region: Rectangle) -> List[Address]:
        """The child of every entry whose rectangle intersects ``region``, in
        entry order (for range scans, which only want to visit them)."""
        table = self._table
        keys, times = region.keys, region.times
        above = 0 if keys.low is None else bisect_right(table, keys.low)
        below = len(table) if keys.high is None else bisect_left(table, keys.high)
        first = min(times.start, _U64_MAX - 1)
        last = float("inf") if times.end is None else times.end
        return [
            self._child(slot)
            for slot, (low, high, start, end) in enumerate(
                zip(self._lows, self._highs, self._starts, self._ends)
            )
            if low <= below and above < high and first < end and start < last
        ]

    # -- mutation ----------------------------------------------------------
    def replace_entry(self, old: IndexEntry, new_entries: Sequence[IndexEntry]) -> None:
        """Replace one child entry by the entries produced by its split."""
        self._own()
        # The caller's own object first: no `__eq__` on the entries around it.
        found = [at for at, entry in enumerate(self._made) if entry is old]
        found = found or [at for at, entry in enumerate(self._made) if entry == old]
        if not found:
            raise NodeError(f"entry {old} not present in index node")
        for column in self._columns():
            del column[found[0]]
        for slot, entry in enumerate(new_entries, found[0]):
            self._put(slot, entry)
        self._current = self._content = None

    def serialized_size(self) -> int:
        content = self._content
        if content is None:
            sizes = [0, *map(key_size, self._table)]
            content = self._content = sum(
                _INDEX_ENTRY_OVERHEAD + sizes[low] + (0 if high == _NO_HIGH else sizes[high])
                + _CHILD_SIZES[tier]
                for low, high, tier in zip(self._lows, self._highs, self._tiers)
            )  # fmt: skip
        return _NODE_HEADER_SIZE + content

    def fits(self, page_size: int) -> bool:
        return self.serialized_size() <= page_size

    def encode(self) -> bytes:
        """The page image: the one opened while unmodified, else packed."""
        if self._image is not None:
            return self._image
        # A fresh build's key table holds just the bounds in use, as the page does.
        node = IndexNode(self.address, self._region, self._made, self._level)
        table, keys, times = node._table, self._region.keys, self._region.times
        kind, count = _key_kind(table), len(node._lows)
        if len(table) >= _NO_HIGH:
            raise SerializationError(f"index node {self.address} has too many distinct keys")
        low = 0 if keys.low is None else bisect_left(table, keys.low) + 1
        high = _NO_HIGH if keys.high is None else bisect_left(table, keys.high) + 1
        children = [entry.child for entry in self._made]
        try:
            header = (_NODE_TAG_INDEX, kind, self._level, count, len(table), low, high)
            buf = bytearray(_INDEX_HEADER.pack(*header, times.start, _end_word(times.end)))
            _append_keys(buf, table, kind)
            buf += _run("H", count).pack(*node._lows)
            buf += _run("H", count).pack(*node._highs)
            buf += _run("Q", count).pack(*node._starts)
            buf += _run("Q", count).pack(*node._ends)
            buf += _run("Q", count).pack(*[child.page_id for child in children])
            buf += node._tiers
            for child in children:
                if not child.is_magnetic:
                    buf += _HISTORICAL_CHILD.pack(
                        child.sector_start or 0, child.length or 0, child.platter or 0
                    )
        except struct.error as exc:
            raise SerializationError(f"index node {self.address} cannot be packed: {exc}") from exc
        return bytes(buf)

    def __eq__(self, other) -> bool:
        if type(other) is not IndexNode:
            return NotImplemented
        return self.address == other.address and self.encode() == other.encode()


# ----------------------------------------------------------------------
# Node image dispatch
# ----------------------------------------------------------------------
def decode_node(address: Address, data: bytes):
    """Open a page image as a :class:`DataNode` or :class:`IndexNode`."""
    if not data:
        raise SerializationError("empty page image")
    tag = data[0]
    if tag == _NODE_TAG_DATA:
        return DataNode.decode(address, data)
    if tag == _NODE_TAG_INDEX:
        return IndexNode.decode(address, data)
    raise SerializationError(f"unknown node tag {tag:#x}")


def is_data_node_image(data: bytes) -> bool:
    return bool(data) and data[0] == _NODE_TAG_DATA
