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
keys) — clip the key run with two bisects and read the clipped stamps and
flags once.  ``versions_as_of`` answers each row as the ``RecordView`` a read
returns, built from the key, the stamp word and the value's slice of the
image; ``committed_versions`` builds a ``Version`` only for the slots it
returns.

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
index node keeps only the table keys its refs use, so the page holds just
the bounds in use).  A split reads the full node's columns, and ``carve``
builds each half from the slots a split rule selects (:mod:`repro.core.split`).

A data node's per-slot memo builds a ``Version`` the first time a caller
gets one and shares it after that, so a caller can remove the object it was
handed by identity.  An index node is addressed by slot: its searches return
one, ``child(slot)`` is that slot's ``Address`` (built on first use and
kept), and ``replace(slot, rows)`` splices in the ``(child, region)`` rows of
the child's split.  ``versions`` and ``entries`` are read-only tuples in list
order, ``entries`` built on demand; assigning them is the one way to replace
a node's contents.  Readers under a shared latch may race on a memo slot, a
region read on first use or an index node's current-entry table: each is a
pure function of the columns, published by one store, so a race at worst
builds it twice.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.records import Rectangle, RecordView, Version, decoded_rectangle, decoded_version
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

#: ``_row(RecordView, (key, stamp, value))``: a read's answer row, built by
#: the C tuple constructor with no Python-level ``__new__``
_row = tuple.__new__


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


def _bounds_at(data: bytes, offset: int, kind: int) -> tuple:
    """The region stored at ``offset`` as ``(low, high, start, end)``."""
    present = data[offset]
    bounds, offset = _keys_at(data, offset + 1, (present & 1) + (present >> 1 & 1), kind)
    start, end = _U64_PAIR.unpack_from(data, offset)
    low, high = bounds[0] if present & 1 else None, bounds[-1] if present & 2 else None
    return low, high, start, None if end == _U64_MAX else end


def _slot_sizes(keys: Iterable[Key], txns: Iterable[Optional[int]], lengths: Iterable[int]):
    """Per slot, ``Version.serialized_size()``: a key, a 9-byte stamp or 1-byte
    "none", a flag byte, a 9- or 1-byte txn id and a length-prefixed value."""
    return (
        (9 if type(key) is int else key_size(key)) + (15 if txn_id is None else 23) + length
        for key, txn_id, length in zip(keys, txns, lengths)
    )


def _flag_of(version: Version) -> int:
    """A version's flag byte on a data page."""
    if version.timestamp is None:
        return _PROVISIONAL | version.is_tombstone
    return (0 if version.txn_id is None else _STAMP_AND_TXN) | version.is_tombstone


def _refuse_write_once(node) -> None:
    """Raise for a node opened from an image at a historical address: that
    region is write-once, and the tree keeps the node it opened from it, so a
    change would outlive every reader's view of the device."""
    if node.address.is_historical:
        raise NodeError(f"historical node {node.address} is write-once")


# ----------------------------------------------------------------------
# Data nodes
# ----------------------------------------------------------------------
class DataNode:
    """A leaf node holding record versions for one key x time rectangle."""

    __slots__ = ("address", "_region", "_bound_bytes", "_image", "_heap", "_keys", "_words",
                 "_flags", "_order", "_values", "_txns", "_made", "_content")  # fmt: skip

    def __init__(self, address: Address, region: Rectangle, versions: Iterable[Version] = ()):
        self.address = address
        self._region = region
        self._bound_bytes = None
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
        node._region = node._bound_bytes = None  # read on first use
        node._image = image
        node._keys = keys
        node._txns = txns
        # A node opened at a historical address is never mutated, so it keeps
        # no memo: the tree keeps the node itself (``TSBTree._load_node``).
        node._made = [None] * count if address.is_magnetic else None
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
            region = self._region = decoded_rectangle(*self.bounds())
        return region

    def bounds(self) -> tuple:
        """The region as ``(low key, high key, start, end)`` (``None``:
        unbounded, or still open), read from the image without building it."""
        region = self._region
        if region is not None:
            return region.keys.low, region.keys.high, region.times.start, region.times.end
        at = self._heap + (self._values[-1] if self._values else 0)
        try:
            return _bounds_at(self._image, at, self._image[1])
        except _MALFORMED as exc:
            raise SerializationError("malformed data-page image") from exc

    @region.setter
    def region(self, region: Rectangle) -> None:
        self._own()
        self._region = region
        self._bound_bytes = None

    def _own(self) -> None:
        """Turn image columns into lists (the first mutation): the image goes.
        A node opened at a historical address refuses (:func:`_refuse_write_once`)."""
        if self._image is not None:
            _refuse_write_once(self)
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
        """The version in ``slot``, built on first use and then shared (built
        per call on a node opened at a historical address, which has no memo)."""
        made = self._made
        version = None if made is None else made[slot]
        if version is None:
            flag = self._flags[slot]
            version = decoded_version(
                self._keys[slot],
                None if flag & _PROVISIONAL else self._words[slot],
                self._value(slot),
                self._txn_id(slot),
                bool(flag & _TOMBSTONE),
            )
            if made is not None:
                made[slot] = version
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
        self, low: Optional[Key], high: Optional[Key], timestamp: int
    ) -> List[RecordView]:
        """The live version valid at ``timestamp`` of each key in ``[low,
        high)``, key-sorted: ``version_as_of`` over a key range, each answered
        as the :class:`RecordView` row a read returns — built from the key,
        stamp and value columns, with no ``Version``."""
        first, end = self._clip(low, high)
        keys, words, flags = self._keys, self._words, self._flags
        stamped = compress(range(first, end), map(timestamp.__ge__, words[first:end]))
        slots = [slot for slot in stamped if not flags[slot] & _PROVISIONAL]
        # A key's committed slots are in stamp order, so the last one that
        # qualifies is its newest; a dict keeps the last value per key, and
        # its keys in slot order, which is key order.
        rows = []
        for key, slot in dict(zip(map(keys.__getitem__, slots), slots)).items():
            stamp = words[slot]
            # Equal stamps: the first in slot order wins, as in a scan of the list.
            while slot > first and words[slot - 1] == stamp and keys[slot - 1] == key:
                slot -= 1
            if not flags[slot] & _TOMBSTONE:
                rows.append(_row(RecordView, (key, stamp, self._value(slot))))
        return rows

    def committed_keys(self, low: Optional[Key], high: Optional[Key]) -> List[Key]:
        """The distinct keys in ``[low, high)`` with a committed version
        (logically deleted ones included), sorted."""
        first, end = self._clip(low, high)
        committed = [not flag & _PROVISIONAL for flag in self._flags[first:end]]
        return list(dict.fromkeys(compress(self._keys[first:end], committed)))

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

    def slot_order(self) -> Tuple[int, ...]:
        """The order run: each slot's position in the node's version list."""
        return tuple(self._order)

    def slot_sizes(self) -> List[int]:
        """Each slot's ``Version.serialized_size()``, in slot order."""
        if self._image is None:
            lengths = map(len, self._values)
        else:
            ends = self._values
            lengths = map(int.__sub__, ends, (0, *ends))
        return list(_slot_sizes(self._keys, self._txns, lengths))

    def carve(
        self, listed: Sequence[int], region: Rectangle, sizes: Optional[Sequence[int]] = None
    ) -> "DataNode":
        """A node at this node's address and ``region`` holding the slots
        ``listed``, given in the new node's list order: the columns are
        sliced, values are read from the image in place, and no ``Version``
        is built.  The slots keep their relative order, so the new node's
        slot order is this node's restricted to them.  ``sizes`` is this
        node's :meth:`slot_sizes`, when the caller has it."""
        slots = sorted(listed)
        position = dict(zip(listed, range(len(listed))))
        keys, words, flags, txns, made = self._keys, self._words, self._flags, self._txns, self._made
        node = DataNode.__new__(DataNode)
        node.address = self.address
        node._region = region
        node._bound_bytes = None
        node._image = None
        node._keys = [keys[slot] for slot in slots]
        node._words = [words[slot] for slot in slots]
        node._flags = bytearray([flags[slot] for slot in slots])
        node._order = [position[slot] for slot in slots]
        node._values = values = [self._value(slot) for slot in slots]
        node._txns = [txns[slot] for slot in slots]
        node._made = [made[slot] for slot in slots]
        if sizes is None:
            node._content = sum(_slot_sizes(node._keys, node._txns, map(len, values)))
        else:
            node._content = sum([sizes[slot] for slot in slots])
        return node

    def without(self, version: Version) -> "DataNode":
        """A carve of this node without ``version`` (an untouched node to
        split, where :meth:`remove_version` would change this one)."""
        gone = self._slot_of(version)
        listed = sorted(range(len(self._keys)), key=self._order.__getitem__)
        return self.carve([slot for slot in listed if slot != gone], self.region)

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

    def _slot_of(self, version: Version) -> int:
        first, _committed, end = self._run_of(version.key)
        slots = range(first, end)
        # The caller's own object first: no `__eq__` on the versions around it.
        found = [slot for slot in slots if self._made[slot] is version]
        found = found or [slot for slot in slots if self._version(slot) == version]
        if not found:
            raise NodeError(f"version {version} not present in node")
        return found[0]

    def remove_version(self, version: Version) -> None:
        self._own()
        slot = self._slot_of(version)
        position = self._take(slot)
        self._order = [at - (at > position) for at in self._order]
        self._content -= version.serialized_size()

    def stamp_provisional(self, key: Key, txn_id: int, commit_timestamp: int) -> bool:
        """Commit ``txn_id``'s provisional version of ``key`` at
        ``commit_timestamp`` where it lies; ``False`` when there is none.

        The slot's word becomes the stamp and its flag loses the provisional
        bit (a provisional slot's txn id is its word, so its txn-id cell is
        already empty), and the committed twin is memoized.  The slot keeps
        its index and its list position when it is the key's first
        provisional slot and the stamp sorts after every committed slot of
        the key — always, for a stamp the commit clock draws.  Otherwise
        (another provisional slot of the key before it, or an explicit stamp
        older than a committed one, or equal to one listed after it) the
        twin is moved to where slot order puts it.  The twin is as large
        as the version it replaces (a stamp for a txn id), so sizes do not
        move."""
        first, committed, end = self._run_of(key)
        slot = next((at for at in range(committed, end) if self._words[at] == txn_id), None)
        if slot is None:
            return False
        self._own()
        words, flags, order = self._words, self._flags, self._order
        flag = flags[slot] & _TOMBSTONE
        twin = decoded_version(key, commit_timestamp, self._values[slot], None, bool(flag))
        newest = words[committed - 1] if committed > first else -1
        if slot == committed and (
            newest < commit_timestamp
            or newest == commit_timestamp and order[committed - 1] < order[slot]
        ):
            words[slot] = commit_timestamp
            flags[slot] = flag
            self._made[slot] = twin
        else:
            self._put(twin, self._take(slot))
        return True

    def serialized_size(self) -> int:
        bound_bytes = self._bound_bytes
        if bound_bytes is None:  # the region's two key bounds, sized once per region
            low, high = self.bounds()[:2]
            bound_bytes = (0 if low is None else key_size(low)) + (0 if high is None else key_size(high))
            self._bound_bytes = bound_bytes
        return _NODE_HEADER_SIZE + 19 + bound_bytes + self._content

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
    simply :attr:`is_historical`.  An entry unpacks as the ``(child, region)``
    row an index node is built from.
    """

    child: Address
    region: Rectangle

    @property
    def is_historical(self) -> bool:
        return self.child.is_historical

    @property
    def is_current(self) -> bool:
        return self.child.is_magnetic

    def __iter__(self):
        return iter((self.child, self.region))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"IndexEntry({self.region} -> {self.child})"


#: One child of an index node as a caller hands it in: ``(child, region)``.
Row = Tuple[Address, Rectangle]


def _referenced_bounds(table: Sequence, low: int, high: int, start: int, end: int) -> tuple:
    """``(low, high, start, end)`` of a region an index page describes by key
    references and time words."""
    low_key = table[low - 1] if low else None
    high_key = None if high == _NO_HIGH else table[high - 1]
    return low_key, high_key, start, None if end == _U64_MAX else end


class IndexNode:
    """An internal node mapping key x time rectangles to child addresses."""

    __slots__ = ("address", "_level", "_region", "_image", "_table", "_sizes", "_lows", "_highs",
                 "_starts", "_ends", "_tiers", "_pages", "_children", "_current",
                 "_content")  # fmt: skip

    def __init__(
        self, address: Address, region: Rectangle, entries: Iterable[Row] = (), level: int = 1
    ):
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
        node._sizes = None
        node._lows = refs.unpack_from(image, at)
        node._highs = refs.unpack_from(image, at + 2 * count)
        node._starts = words.unpack_from(image, at + 4 * count)
        node._ends = words.unpack_from(image, at + 12 * count)
        node._tiers = tiers
        node._pages = words.unpack_from(image, at + 20 * count)
        node._children = [None] * count
        node._current = node._content = None
        return node

    # -- the columns --------------------------------------------------------
    @property
    def entries(self) -> Tuple[IndexEntry, ...]:
        """The node's entries in list order, built on demand (assign rows to
        replace them)."""
        return tuple(map(self.entry, range(len(self._lows))))

    @entries.setter
    def entries(self, rows: Iterable[Row]) -> None:
        rows = list(rows)
        region = self._region = self.region  # read from the image before it goes
        bounds = {
            key for _child, rectangle in rows for key in (rectangle.keys.low, rectangle.keys.high)
        }
        self._table = sorted(bounds.union((region.keys.low, region.keys.high)) - {None})
        self._sizes = None
        self._lows, self._highs, self._starts, self._ends, self._children = [], [], [], [], []
        self._tiers = bytearray()
        self._image = None
        for slot, (child, rectangle) in enumerate(rows):
            self._put(slot, child, rectangle)
        self._current = self._content = None

    @property
    def region(self) -> Rectangle:
        region = self._region
        if region is None:
            region = self._region = decoded_rectangle(*self.bounds())
        return region

    def bounds(self) -> tuple:
        """The region as ``(low key, high key, start, end)`` (``None``:
        unbounded, or still open), read from the image without building it."""
        region = self._region
        if region is not None:
            return region.keys.low, region.keys.high, region.times.start, region.times.end
        try:
            return _referenced_bounds(self._table, *self.region_refs())
        except IndexError as exc:
            raise SerializationError("malformed index-page image") from exc

    @region.setter
    def region(self, region: Rectangle) -> None:
        self._own()
        self._region = region
        # The key table holds the node's own bounds, as the page does.
        for key in (region.keys.low, region.keys.high):
            if key is not None:
                self._ref(key)
        self._current = None

    @property
    def level(self) -> int:
        return self._level

    def _own(self) -> None:
        """Turn image columns into lists (the first mutation): the image goes.
        A node opened at a historical address refuses (:func:`_refuse_write_once`)."""
        if self._image is not None:
            _refuse_write_once(self)
            self._region = self.region
            self._children = self.children()
            self._table, self._lows = list(self._table), list(self._lows)
            self._highs, self._starts = list(self._highs), list(self._starts)
            self._ends, self._tiers = list(self._ends), bytearray(self._tiers)
            self._image = None

    def _columns(self) -> tuple:
        """Every per-slot column, for a slot insert or delete."""
        return self._lows, self._highs, self._starts, self._ends, self._tiers, self._children

    def _ref(self, key: Key) -> int:
        """The table reference of ``key``; a key new to the table joins it
        (with its size, once sizes are kept), and the references above it
        move up."""
        table = self._table
        at = bisect_left(table, key)
        if at == len(table) or table[at] != key:
            table.insert(at, key)
            if self._sizes is not None:
                self._sizes.insert(at + 1, key_size(key))
            self._lows = [ref + (ref > at) for ref in self._lows]
            self._highs = [ref + (at < ref < _NO_HIGH) for ref in self._highs]
        return at + 1

    def _put(self, slot: int, child: Address, region: Rectangle) -> None:
        keys, times = region.keys, region.times
        low = 0 if keys.low is None else self._ref(keys.low)
        high = _NO_HIGH if keys.high is None else self._ref(keys.high)
        row = (low, high, times.start, _end_word(times.end), child.is_historical, child)
        for column, value in zip(self._columns(), row):
            column.insert(slot, value)

    def child(self, slot: int) -> Address:
        """The child in ``slot``, built on first use and then kept."""
        child = self._children[slot]
        if child is None:
            page, tiers = self._pages[slot], self._tiers
            if tiers[slot]:
                # The historical triples end the image, in slot order.
                at = len(self._image) - 20 * tiers.count(1, slot)
                child = Address.historical(page, *_HISTORICAL_CHILD.unpack_from(self._image, at))
            else:
                child = Address.magnetic(page)
            self._children[slot] = child
        return child

    def children(self) -> List[Address]:
        """Every slot's child, in slot order."""
        return list(map(self.child, range(len(self._lows))))

    def entry(self, slot: int) -> IndexEntry:
        """The entry in ``slot``, built on demand: searches and splits read
        the columns, so this is for tests, figures and violation messages."""
        refs = self._lows[slot], self._highs[slot], self._starts[slot], self._ends[slot]
        region = decoded_rectangle(*_referenced_bounds(self._table, *refs))
        return IndexEntry(child=self.child(slot), region=region)

    def child_ids(self) -> list:
        """Each slot's child as plain ints, in slot order, building no
        ``Address``: its :attr:`~repro.storage.device.Address.identity`, the
        page number of a magnetic child or the ``(region id, sector start,
        length, platter)`` of a historical one."""
        if self._image is None:
            return [child.identity for child in self._children]
        pages, tiers = self._pages, self._tiers
        historical = tiers.count(1)
        if not historical:
            return list(pages)
        # The historical triples end the image, in slot order.
        triples = _HISTORICAL_CHILD.iter_unpack(self._image[-20 * historical :])
        return [(page, *next(triples)) if tier else page for page, tier in zip(pages, tiers)]

    def columns(self) -> tuple:
        """The key table and the low ref, high ref, start word, end word and
        tier runs of the node's page image: one entry per child, in slot
        order (see the page layout).  Refs keep key order: 0 is an unbounded
        low and ``_NO_HIGH`` an unbounded high."""
        return (
            tuple(self._table), tuple(self._lows), tuple(self._highs),
            tuple(self._starts), tuple(self._ends), bytes(self._tiers),
        )  # fmt: skip

    def region_refs(self) -> Tuple[int, int, int, int]:
        """The node's own region as its page header holds it: low and high
        refs into the key table, start and end words."""
        if self._image is not None:
            return _INDEX_HEADER.unpack_from(self._image)[5:]
        table, keys, times = self._table, self._region.keys, self._region.times
        low = 0 if keys.low is None else bisect_left(table, keys.low) + 1
        high = _NO_HIGH if keys.high is None else bisect_left(table, keys.high) + 1
        return low, high, times.start, _end_word(times.end)

    # -- search -----------------------------------------------------------
    def find_child(self, key: Key, timestamp: int) -> int:
        """The unique slot whose rectangle contains ``(key, timestamp)``: the
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
        return matches[0]

    def find_current_child(self, key: Key) -> int:
        """The unique slot of a *current* child whose key range contains
        ``key``: the current slot with the greatest low bound not above it,
        one bisect in the current slots sorted by low bound (built on first
        use).  The one below is checked for double coverage, and anything but
        a plain tiling is counted as a scan would, so a corrupt node still
        fails loudly."""
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
                return slots[at]
        matches = [slot for slot in slots if lows[slot] <= reach < highs[slot]]
        if len(matches) != 1:
            raise NodeError(
                f"expected exactly one current child for key {key!r} in "
                f"{self.address}, found {len(matches)}"
            )
        return matches[0]

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
            self.child(slot)
            for slot, (low, high, start, end) in enumerate(
                zip(self._lows, self._highs, self._starts, self._ends)
            )
            if low <= below and above < high and first < end and start < last
        ]

    # -- mutation ----------------------------------------------------------
    def replace(self, slot: int, rows: Iterable[Row]) -> None:
        """Replace the child in ``slot`` by the rows its split produced."""
        self._own()
        for column in self._columns():
            del column[slot]
        for at, (child, region) in enumerate(rows, slot):
            self._put(at, child, region)
        self._current = self._content = None

    def carve(self, slots: Sequence[int], region: Rectangle) -> "IndexNode":
        """A node at this node's address and level over ``region`` holding
        ``slots``, ascending: the columns are sliced, the key table copied
        and no entry is built."""
        lows, highs, starts, ends = self._lows, self._highs, self._starts, self._ends
        node = IndexNode.__new__(IndexNode)
        node.address, node._level, node._image = self.address, self._level, None
        node._table = list(self._table)
        node._sizes = None if self._sizes is None else list(self._sizes)
        node._lows = [lows[slot] for slot in slots]
        node._highs = [highs[slot] for slot in slots]
        node._starts = [starts[slot] for slot in slots]
        node._ends = [ends[slot] for slot in slots]
        node._tiers = bytearray([self._tiers[slot] for slot in slots])
        node._children = [self.child(slot) for slot in slots]
        node._content = None
        node.region = region  # its bounds join the key table
        return node

    def serialized_size(self) -> int:
        content = self._content
        if content is None:
            # Each table key's size, by reference (0: an unbounded low),
            # kept beside the table so an edit sizes only the keys it adds.
            sizes = self._sizes
            if sizes is None:
                sizes = self._sizes = [0, *map(key_size, self._table)]
            content = self._content = sum(
                _INDEX_ENTRY_OVERHEAD + sizes[low] + (0 if high == _NO_HIGH else sizes[high])
                + _CHILD_SIZES[tier]
                for low, high, tier in zip(self._lows, self._highs, self._tiers)
            )  # fmt: skip
        return _NODE_HEADER_SIZE + content

    def fits(self, page_size: int) -> bool:
        return self.serialized_size() <= page_size

    def encode(self) -> bytes:
        """The page image: the one opened while unmodified, else packed,
        the key table cut down to the keys the refs use."""
        if self._image is not None:
            return self._image
        low, high, start, end = self.region_refs()
        used = sorted({*self._lows, *self._highs, low, high} - {0, _NO_HIGH})
        renumber = {0: 0, _NO_HIGH: _NO_HIGH, **dict(zip(used, range(1, len(used) + 1)))}
        table = [self._table[ref - 1] for ref in used]
        kind, count = _key_kind(table), len(self._lows)
        if len(table) >= _NO_HIGH:
            raise SerializationError(f"index node {self.address} has too many distinct keys")
        children = self._children
        try:
            header = (_NODE_TAG_INDEX, kind, self._level, count, len(table))
            buf = bytearray(_INDEX_HEADER.pack(*header, renumber[low], renumber[high], start, end))
            _append_keys(buf, table, kind)
            buf += _run("H", count).pack(*map(renumber.__getitem__, self._lows))
            buf += _run("H", count).pack(*map(renumber.__getitem__, self._highs))
            buf += _run("Q", count).pack(*self._starts)
            buf += _run("Q", count).pack(*self._ends)
            buf += _run("Q", count).pack(*[child.page_id for child in children])
            buf += self._tiers
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
