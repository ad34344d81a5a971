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

Slots are sorted, so the versions of one key are one contiguous run, oldest
first, and ``version_as_of`` is two bisects over the keys and one over that
run's stamps; ``order`` restores the list order when the node materialises.
A key *range* is one contiguous run too: the two range lookups a scan asks a
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

A node decoded from an image is **image-backed** (:class:`_PackedDataNode`,
:class:`_PackedIndexNode`): its point and range lookups answer from the
columns and build only the objects they return; its ``serialized_size`` comes
from the page's counts and ``columns()`` hands the key, stamp and flag runs
to the checker.  The first access that needs the whole ``versions`` /
``entries`` list — any mutation, a split, an index node's check — turns the
object into a plain :class:`DataNode` / :class:`IndexNode` in
place, and from then on it is encoded from its lists; an untouched
image-backed node hands its image back from ``encode()``.  The materialised classes carry no
hook for any of this, so a tree that fits in cache pays nothing for it.

Hot-path design of the materialised classes: both keep *lazy derived
structures* next to their authoritative lists — a per-key version index and
a cached content size on data nodes, sorted low-key entry tables on index
nodes — so point queries and descents are dictionary/bisect lookups instead
of linear scans, and sizing a node for the split test does not re-serialise
every record.  The caches are maintained incrementally by the mutator
methods and invalidated wholesale when the backing list itself is
reassigned (what the split code does), which a ``__setattr__`` hook catches.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.records import (
    Rectangle,
    Version,
    decoded_rectangle,
    decoded_version,
    group_by_key,
    latest_committed,
    version_as_of,
)
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

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_U32_PAIR = struct.Struct(">II")
_U64_PAIR = struct.Struct(">QQ")
_HISTORICAL_CHILD = struct.Struct(">QQI")  # sector start, length, platter
_DATA_HEADER = struct.Struct(">BBIII")
_INDEX_HEADER = struct.Struct(">BBHIIHHQQ")

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
    return decoded_rectangle(
        bounds[0] if present & 1 else None,
        bounds[-1] if present & 2 else None,
        start,
        None if end == _U64_MAX else end,
    )


def _position_of(items: list, item) -> int:
    """Index of ``item`` in ``items``: the very object if present, else an equal one.

    ``list.index`` alone would call the dataclass ``__eq__`` on every element
    ahead of the match; the identity pass runs at C speed and almost always
    finds the object the caller took from this same list.
    """
    try:
        return list(map(id, items)).index(id(item))
    except ValueError:
        return items.index(item)


def _sorted_within(keys: Iterable[Key], low: Optional[Key], high: Optional[Key]) -> List[Key]:
    """Those of ``keys`` that lie in ``[low, high)``, sorted."""
    return sorted(
        key
        for key in keys
        if (low is None or not key < low) and (high is None or key < high)
    )


def _slot_rows(versions: List[Version]) -> List[Tuple]:
    """``(key, provisional?, stamp word, list position)`` of each version, in
    slot order: by key, then the order ``_index`` keeps a key's versions in;
    list position breaks ties, as that stable sort would."""
    return sorted(
        (version.key, *_stable_version_order(version), position)
        for position, version in enumerate(versions)
    )


def _flag_of(version: Version) -> int:
    """A version's flag byte on a data page."""
    flag = _TOMBSTONE if version.is_tombstone else 0
    if version.timestamp is None:
        flag |= _PROVISIONAL
    elif version.txn_id is not None:
        flag |= _STAMP_AND_TXN
    return flag


def _entry_sort_key(entry: "IndexEntry") -> Tuple:
    """Sort key ordering entries by key-range low bound (None first)."""
    low = entry.region.keys.low
    return (0,) if low is None else (1, low)


# ----------------------------------------------------------------------
# Data nodes
# ----------------------------------------------------------------------
@dataclass
class DataNode:
    """A leaf node holding record versions for one key x time rectangle."""

    address: Address
    region: Rectangle
    versions: List[Version] = field(default_factory=list)

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name == "versions":
            # The split code swaps the whole list out; derived structures
            # are rebuilt lazily on the next query.
            object.__setattr__(self, "_by_key", None)
            object.__setattr__(self, "_content_size", None)
            object.__setattr__(self, "_known_len", len(value))

    def _sync_caches(self) -> None:
        # The mutator methods keep the caches current; direct list surgery
        # (tests corrupting a node on purpose, ad-hoc tooling) is detected
        # by the length changing under us and invalidates everything.
        if self._known_len != len(self.versions):
            object.__setattr__(self, "_by_key", None)
            object.__setattr__(self, "_content_size", None)
            object.__setattr__(self, "_known_len", len(self.versions))

    # -- derived structures -----------------------------------------------
    def _index(self) -> Dict[Key, List[Version]]:
        """Per-key version lists, each sorted oldest-first (lazy, cached)."""
        self._sync_caches()
        index = self._by_key
        if index is None:
            index = {}
            for version in self.versions:
                index.setdefault(version.key, []).append(version)
            for group in index.values():
                group.sort(key=_stable_version_order)
            object.__setattr__(self, "_by_key", index)
        return index

    def keys(self) -> List[Key]:
        """The distinct keys stored in this node (unsorted)."""
        return list(self._index())

    # -- content queries -------------------------------------------------
    def versions_for_key(self, key: Key) -> List[Version]:
        """All versions of ``key`` stored in this node, oldest first."""
        group = self._index().get(key)
        return list(group) if group else []

    def latest_for_key(self, key: Key) -> Optional[Version]:
        group = self._index().get(key)
        return latest_committed(group) if group else None

    def version_as_of(self, key: Key, timestamp: int) -> Optional[Version]:
        group = self._index().get(key)
        return version_as_of(group, timestamp) if group else None

    def provisional_for_key(self, key: Key, txn_id: int) -> Optional[Version]:
        group = self._index().get(key)
        if not group:
            return None
        for version in reversed(group):
            if version.txn_id == txn_id:
                return version
        return None

    def versions_as_of(
        self, low: Optional[Key], high: Optional[Key], timestamp: int, tombstones: bool = False
    ) -> List[Version]:
        """The version valid at ``timestamp`` of each key in ``[low, high)``,
        key-sorted: ``version_as_of`` over a key range.  ``tombstones`` keeps
        the keys whose valid version is a logical delete."""
        index = self._index()
        found = []
        for key in _sorted_within(index, low, high):
            newest = latest_committed(
                v for v in index[key] if v.timestamp is not None and v.timestamp <= timestamp
            )
            if newest is not None and (tombstones or not newest.is_tombstone):
                found.append(newest)
        return found

    def committed_versions(self, low: Optional[Key], high: Optional[Key]) -> List[Version]:
        """Every committed version (tombstones included) of every key in
        ``[low, high)``, key-sorted, each key's oldest first."""
        index = self._index()
        return [
            version
            for key in _sorted_within(index, low, high)
            for version in index[key]
            if version.timestamp is not None
        ]

    def distinct_key_count(self) -> int:
        return len(self._index())

    def committed_timestamps(self) -> List[int]:
        """Sorted distinct commit timestamps present in the node."""
        return sorted(
            {v.timestamp for v in self.versions if v.timestamp is not None}
        )

    def current_version_count(self) -> int:
        """Number of versions that are the latest for their key (or provisional)."""
        count = 0
        for _key, group in group_by_key(self.versions).items():
            latest = latest_committed(group)
            for version in group:
                if version.is_provisional or version is latest:
                    count += 1
        return count

    def historical_version_count(self) -> int:
        """Number of committed versions superseded by a newer committed one."""
        return len(self.versions) - self.current_version_count()

    # -- mutation ---------------------------------------------------------
    def add_version(self, version: Version) -> None:
        if not self.region.keys.contains(version.key):
            raise NodeError(
                f"key {version.key!r} outside node key range {self.region.keys}"
            )
        self._sync_caches()
        self.versions.append(version)
        object.__setattr__(self, "_known_len", self._known_len + 1)
        index = self._by_key
        if index is not None:
            insort(
                index.setdefault(version.key, []),
                version,
                key=_stable_version_order,
            )
        if self._content_size is not None:
            object.__setattr__(
                self, "_content_size", self._content_size + version.serialized_size()
            )

    def remove_version(self, version: Version) -> None:
        self._sync_caches()
        try:
            del self.versions[_position_of(self.versions, version)]
        except ValueError as exc:  # pragma: no cover - defensive
            raise NodeError(f"version {version} not present in node") from exc
        object.__setattr__(self, "_known_len", self._known_len - 1)
        index = self._by_key
        if index is not None:
            group = index.get(version.key)
            if group is not None:
                try:
                    del group[_position_of(group, version)]
                except ValueError:  # pragma: no cover - defensive
                    object.__setattr__(self, "_by_key", None)
                else:
                    if not group:
                        del index[version.key]
        if self._content_size is not None:
            object.__setattr__(
                self, "_content_size", self._content_size - version.serialized_size()
            )

    def stamp_provisional(self, key: Key, txn_id: int, commit_timestamp: int) -> bool:
        """Swap ``txn_id``'s provisional version of ``key`` for its committed
        twin at ``commit_timestamp``, in the provisional version's list
        position; ``False`` when there is none.  Commit order makes the stamp
        newer than every committed version of the key, so the twin's place
        among them does not depend on that position.  The twin is as large as
        the version it replaces (a stamp for a txn id), so sizes do not move.
        An image-backed node gives up its image first, as for any mutation."""
        group = self._index().get(key, ())
        for at, provisional in enumerate(group):
            if provisional.timestamp is None and provisional.txn_id == txn_id:
                break
        else:
            return False
        twin = provisional.committed(commit_timestamp)
        versions = self.versions
        versions[_position_of(versions, provisional)] = twin
        del group[at]
        insort(group, twin, key=_stable_version_order)
        return True

    # -- sizing -----------------------------------------------------------
    def serialized_size(self) -> int:
        self._sync_caches()
        content = self._content_size
        if content is None:
            content = sum(version.serialized_size() for version in self.versions)
            object.__setattr__(self, "_content_size", content)
        return _NODE_HEADER_SIZE + self.region_size() + content

    def region_size(self) -> int:
        return (
            2
            + (0 if self.region.keys.low is None else key_size(self.region.keys.low))
            + (0 if self.region.keys.high is None else key_size(self.region.keys.high))
            + 8
            + 9
        )

    def fits(self, page_size: int, extra: Optional[Version] = None) -> bool:
        size = self.serialized_size()
        if extra is not None:
            size += extra.serialized_size()
        return size <= page_size

    def columns(self) -> Tuple[Tuple[Key, ...], Tuple[int, ...], bytes]:
        """The key, stamp-word and flag runs of the node's page image: one
        entry per version, in slot order (see the page layout)."""
        versions = self.versions
        rows = _slot_rows(versions)
        return (
            tuple(row[0] for row in rows),
            tuple(row[2] for row in rows),
            bytes(_flag_of(versions[row[3]]) for row in rows),
        )

    # -- serialization ----------------------------------------------------
    def encode(self) -> bytes:
        versions = self.versions
        region = self.region
        count = len(versions)
        keys: List[Optional[Key]] = [version.key for version in versions]
        kind = _key_kind(keys + [region.keys.low, region.keys.high])
        rows = _slot_rows(versions)
        flags = bytearray(count)
        values = []
        txn_ids = []
        for slot, row in enumerate(rows):
            version = versions[row[3]]
            values.append(version.value)
            if version.timestamp is None and version.txn_id is None:
                raise SerializationError("a provisional version must carry its txn_id")
            flag = flags[slot] = _flag_of(version)
            if flag & _STAMP_AND_TXN:
                txn_ids.append(version.txn_id)
        try:
            buf = bytearray(_DATA_HEADER.size)
            _append_keys(buf, [row[0] for row in rows], kind)
            buf += _run("Q", count).pack(*[row[2] for row in rows])
            buf += flags
            buf += _run("H", count).pack(*[row[3] for row in rows])
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

    @staticmethod
    def decode(address: Address, data: bytes) -> "DataNode":
        return _PackedDataNode(address, data)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataNode({self.address}, {self.region}, {len(self.versions)} versions)"


# -- image-backed data nodes ---------------------------------------------
#
# Everything an image-backed node does besides reading its own ``__dict__``
# lives in module-level functions: the object may turn into a plain
# ``DataNode`` under a reader that is halfway through one of the methods
# below (another reader, under the same shared latch, materialised it), and
# a method looked up on ``self`` would then be gone.  Nothing is ever taken
# out of ``__dict__``, and every lazily computed value is a pure function of
# the image, so racing readers at worst compute it twice.
def _open_data_page(node: "_PackedDataNode") -> tuple:
    """Unpack the key column and locate the other runs."""
    kind, count, txn_ids = node._shape
    try:
        keys, stamps = _keys_at(node._image, _DATA_HEADER.size, count, kind)
    except _MALFORMED as exc:
        raise SerializationError("malformed data-page image") from exc
    flags = stamps + 8 * count
    order = flags + count
    ends = order + 2 * count
    sparse = ends + 4 * count
    heap = sparse + 8 * txn_ids
    layout = node.__dict__["_layout"] = (keys, stamps, flags, order, ends, sparse, heap)
    return layout


def _slots_of(data: bytes, layout: tuple, key: Key) -> Tuple[int, int, int]:
    """``(first, committed_end, end)`` of the slots holding ``key``'s versions."""
    keys = layout[0]
    first = bisect_left(keys, key)
    end = bisect_right(keys, key, first)
    committed = end
    flags = layout[2] - 1
    while committed > first and data[flags + committed] & _PROVISIONAL:
        committed -= 1
    return first, committed, end


def _version_at(data: bytes, layout: tuple, slot: int) -> Version:
    keys, stamps, flags, _order, ends, sparse, heap = layout
    (word,) = _U64.unpack_from(data, stamps + 8 * slot)
    flag = data[flags + slot]
    if slot:
        start, end = _U32_PAIR.unpack_from(data, ends + 4 * slot - 4)
    else:
        start = 0
        (end,) = _U32.unpack_from(data, ends)
    if flag & _PROVISIONAL:
        timestamp, txn_id = None, word
    elif flag & _STAMP_AND_TXN:
        earlier = sum(1 for other in data[flags : flags + slot] if other & _STAMP_AND_TXN)
        timestamp = word
        (txn_id,) = _U64.unpack_from(data, sparse + 8 * earlier)
    else:
        timestamp, txn_id = word, None
    return decoded_version(
        keys[slot], timestamp, data[heap + start : heap + end], txn_id, bool(flag & _TOMBSTONE)
    )


def _clip(keys: tuple, low: Optional[Key], high: Optional[Key]) -> Tuple[int, int]:
    """``(first, end)`` of the slots whose keys lie in ``[low, high)``."""
    first = 0 if low is None else bisect_left(keys, low)
    return first, len(keys) if high is None else bisect_left(keys, high, first)


def _heap_end(node: "_PackedDataNode") -> int:
    """Offset just past the value heap, where the region is packed."""
    layout = node._layout or _open_data_page(node)
    count = node._shape[1]
    if not count:
        return layout[6]
    return layout[6] + _U32.unpack_from(node._image, layout[4] + 4 * count - 4)[0]


def _packed_content_size(node: "_PackedDataNode") -> int:
    """What ``sum(version.serialized_size())`` adds up to, from the page's own
    counts: per version a key, a 9-byte stamp or a 1-byte "none", a flag byte,
    a 9- or 1-byte txn id and a length-prefixed value."""
    kind, count, txn_ids = node._shape
    layout = node._layout or _open_data_page(node)
    if kind == _KIND_INT:
        key_bytes = 9 * count
    else:
        key_bytes = count + layout[1] - _DATA_HEADER.size
    return key_bytes + 15 * count + 8 * txn_ids + _heap_end(node) - layout[6]


def _materialise_data(node: "DataNode") -> None:
    """Turn an image-backed node into a plain :class:`DataNode`, in place."""
    if type(node) is not _PackedDataNode:
        return
    data = node._image
    keys, stamps_at, flags_at, order_at, ends_at, sparse_at, heap = (
        node._layout or _open_data_page(node)
    )
    count = len(keys)
    versions: List[Optional[Version]] = [None] * count
    by_key: Dict[Key, List[Version]] = {}
    try:
        txn_ids = iter(_run("Q", node._shape[2]).unpack_from(data, sparse_at))
        start = heap
        for key, word, flag, position, end in zip(
            keys,
            _run("Q", count).unpack_from(data, stamps_at),
            data[flags_at : flags_at + count],
            _run("H", count).unpack_from(data, order_at),
            _run("I", count).unpack_from(data, ends_at),
        ):
            if flag & _PROVISIONAL:
                timestamp, txn_id = None, word
            elif flag & _STAMP_AND_TXN:
                timestamp, txn_id = word, next(txn_ids)
            else:
                timestamp, txn_id = word, None
            end += heap
            version = versions[position] = decoded_version(
                key, timestamp, data[start:end], txn_id, bool(flag & _TOMBSTONE)
            )
            start = end
            group = by_key.get(key)
            if group is None:
                by_key[key] = [version]
            else:
                group.append(version)
        region = node.region
        content_size = _packed_content_size(node)
    except _MALFORMED as exc:
        raise SerializationError("malformed data-page image") from exc
    state = node.__dict__
    state["region"] = region
    state["versions"] = versions
    state["_by_key"] = by_key  # slots are sorted the way `_index` sorts its groups
    state["_content_size"] = content_size
    state["_known_len"] = count
    object.__setattr__(node, "__class__", DataNode)


class _PackedDataNode(DataNode):
    """A data node that answers point and range lookups from its page image."""

    def __init__(self, address: Address, image: bytes) -> None:
        if type(image) is not bytes:
            image = bytes(image)
        try:
            tag, kind, count, txn_ids, length = _DATA_HEADER.unpack_from(image)
        except struct.error as exc:
            raise SerializationError("truncated page image") from exc
        if tag != _NODE_TAG_DATA:
            raise SerializationError(f"not a data-node image (tag {tag:#x})")
        if length != len(image):
            raise SerializationError("truncated page image")
        state = self.__dict__
        state["address"] = address
        state["_image"] = image
        state["_shape"] = (kind, count, txn_ids)
        state["_layout"] = None
        state["_region"] = None

    def __setattr__(self, name: str, value) -> None:
        # Any assignment is a mutation: the image no longer describes the node.
        _materialise_data(self)
        DataNode.__setattr__(self, name, value)

    def _sync_caches(self) -> None:
        # Reached only from inherited code that is about to use the lists.
        _materialise_data(self)

    def __eq__(self, other) -> bool:
        _materialise_data(self)
        return DataNode.__eq__(self, other)

    @property
    def versions(self) -> List[Version]:
        # The caller may edit the list it gets, so the image is given up.
        _materialise_data(self)
        return self.__dict__["versions"]

    @property
    def region(self) -> Rectangle:
        region = self._region
        if region is None:
            try:
                region = _region_at(self._image, _heap_end(self), self._shape[0])
            except _MALFORMED as exc:
                raise SerializationError("malformed data-page image") from exc
            self.__dict__["_region"] = region
        return region

    def encode(self) -> bytes:
        return self._image

    def serialized_size(self) -> int:
        try:
            content = _packed_content_size(self)
        except _MALFORMED as exc:
            raise SerializationError("malformed data-page image") from exc
        return _NODE_HEADER_SIZE + self.region_size() + content

    def columns(self) -> Tuple[Tuple[Key, ...], Tuple[int, ...], bytes]:
        data = self._image
        keys, stamps, flags = (self._layout or _open_data_page(self))[:3]
        count = len(keys)
        try:
            words = _run("Q", count).unpack_from(data, stamps)
        except _MALFORMED as exc:
            raise SerializationError("malformed data-page image") from exc
        return keys, words, data[flags : flags + count]

    def keys(self) -> List[Key]:
        return list(dict.fromkeys((self._layout or _open_data_page(self))[0]))

    def versions_for_key(self, key: Key) -> List[Version]:
        data = self._image
        layout = self._layout or _open_data_page(self)
        first, _committed, end = _slots_of(data, layout, key)
        return [_version_at(data, layout, slot) for slot in range(first, end)]

    def latest_for_key(self, key: Key) -> Optional[Version]:
        data = self._image
        layout = self._layout or _open_data_page(self)
        first, committed, _end = _slots_of(data, layout, key)
        if first == committed:
            return None
        stamps = _run("Q", committed - first).unpack_from(data, layout[1] + 8 * first)
        # Equal stamps: the first in list order wins, as in a scan of the list.
        return _version_at(data, layout, first + bisect_left(stamps, stamps[-1]))

    def version_as_of(self, key: Key, timestamp: int) -> Optional[Version]:
        data = self._image
        layout = self._layout or _open_data_page(self)
        first, committed, _end = _slots_of(data, layout, key)
        if first == committed:
            return None
        stamps = _run("Q", committed - first).unpack_from(data, layout[1] + 8 * first)
        newest = bisect_right(stamps, timestamp) - 1
        if newest < 0:
            return None
        slot = first + bisect_left(stamps, stamps[newest], 0, newest)
        if data[layout[2] + slot] & _TOMBSTONE:
            return None
        return _version_at(data, layout, slot)

    def versions_as_of(
        self, low: Optional[Key], high: Optional[Key], timestamp: int, tombstones: bool = False
    ) -> List[Version]:
        data = self._image
        layout = self._layout or _open_data_page(self)
        first, end = _clip(layout[0], low, high)
        keys = layout[0][first:end]
        stamps = _run("Q", end - first).unpack_from(data, layout[1] + 8 * first)
        flags = data[layout[2] + first : layout[2] + end]
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
                found.append(_version_at(data, layout, first + at))
        return found

    def committed_versions(self, low: Optional[Key], high: Optional[Key]) -> List[Version]:
        data = self._image
        layout = self._layout or _open_data_page(self)
        first, end = _clip(layout[0], low, high)
        return [
            _version_at(data, layout, slot)
            for slot, flag in enumerate(data[layout[2] + first : layout[2] + end], first)
            if not flag & _PROVISIONAL
        ]

    def provisional_for_key(self, key: Key, txn_id: int) -> Optional[Version]:
        data = self._image
        layout = self._layout or _open_data_page(self)
        first, _committed, end = _slots_of(data, layout, key)
        flags = layout[2]
        for slot in range(end - 1, first - 1, -1):
            if data[flags + slot] & (_PROVISIONAL | _STAMP_AND_TXN):
                version = _version_at(data, layout, slot)
                if version.txn_id == txn_id:
                    return version
        return None


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

    def serialized_size(self) -> int:
        # Entries are immutable; the size is computed once and memoized.
        cached = self.__dict__.get("_cached_size")
        if cached is not None:
            return cached
        key_bytes = 0
        if self.region.keys.low is not None:
            key_bytes += key_size(self.region.keys.low)
        if self.region.keys.high is not None:
            key_bytes += key_size(self.region.keys.high)
        size = _INDEX_ENTRY_OVERHEAD + key_bytes + address_size(self.child)
        object.__setattr__(self, "_cached_size", size)
        return size

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"IndexEntry({self.region} -> {self.child})"


def _referenced_rectangle(table: tuple, low: int, high: int, start: int, end: int) -> Rectangle:
    """The rectangle an index page describes by key references and time words."""
    return decoded_rectangle(
        table[low - 1] if low else None,
        None if high == _NO_HIGH else table[high - 1],
        start,
        None if end == _U64_MAX else end,
    )


def _the_child(matches: list, key: Key, timestamp: int, address: Address):
    """The one match of a ``find_child`` search, or the corruption it reveals."""
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise NodeError(f"no child covers ({key!r}, {timestamp}) in index node {address}")
    raise NodeError(
        f"{len(matches)} children cover ({key!r}, {timestamp}) in index "
        f"node {address}: regions overlap"
    )


@dataclass
class IndexNode:
    """An internal node mapping key x time rectangles to child addresses."""

    address: Address
    region: Rectangle
    entries: List[IndexEntry] = field(default_factory=list)
    level: int = 1

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name == "entries":
            self._invalidate()

    def _invalidate(self) -> None:
        object.__setattr__(self, "_by_low", None)
        object.__setattr__(self, "_current_by_low", None)
        object.__setattr__(self, "_content_size", None)
        object.__setattr__(self, "_known_len", len(self.entries))

    def _sync_caches(self) -> None:
        # Detect direct list surgery on `entries` (see DataNode._sync_caches).
        if self._known_len != len(self.entries):
            self._invalidate()

    def _low_table(self) -> Tuple[List[Tuple], List[IndexEntry], List[Tuple]]:
        """All entries sorted by key-range low bound, with parallel sort keys
        and ``(high key, start, end)`` bounds."""
        self._sync_caches()
        table = self._by_low
        if table is None:
            ordered = sorted(self.entries, key=_entry_sort_key)
            table = (
                [_entry_sort_key(entry) for entry in ordered],
                ordered,
                [
                    (entry.region.keys.high, entry.region.times.start, entry.region.times.end)
                    for entry in ordered
                ],
            )
            object.__setattr__(self, "_by_low", table)
        return table

    def _current_low_table(self) -> Tuple[List[Tuple], List[IndexEntry]]:
        """Current (open-ended time) entries sorted by key-range low bound."""
        self._sync_caches()
        table = self._current_by_low
        if table is None:
            ordered = sorted(
                (
                    entry
                    for entry in self.entries
                    if entry.region.times.is_current
                ),
                key=_entry_sort_key,
            )
            table = ([_entry_sort_key(entry) for entry in ordered], ordered)
            object.__setattr__(self, "_current_by_low", table)
        return table

    # -- search -----------------------------------------------------------
    def find_child(self, key: Key, timestamp: int) -> IndexEntry:
        """Return the unique entry whose rectangle contains ``(key, timestamp)``.

        This is the rectangle formulation of the paper's search rule
        (section 2.2 / 2.5): ignore entries with timestamps after the search
        time, take the largest key not exceeding the search key, then the
        latest such entry.  An entry whose low bound exceeds the search key
        can never match, so only the bisected prefix of the low-sorted entry
        table is inspected.
        """
        lows, ordered, bounds = self._low_table()
        limit = bisect_right(lows, (1, key))
        matches = [
            entry
            for entry, (high, start, end) in zip(ordered[:limit], bounds)
            if (high is None or key < high)
            and start <= timestamp
            and (end is None or timestamp < end)
        ]
        return _the_child(matches, key, timestamp, self.address)

    def find_current_child(self, key: Key) -> IndexEntry:
        """The unique *current* child whose key range contains ``key``.

        The current children tile the key space, so the answer is the
        current entry with the greatest low bound not exceeding ``key`` —
        one bisect on the low-sorted current-entry table.  The neighbouring
        entries are checked for double coverage so an overlapping (corrupt)
        tiling still fails loudly, as the old exhaustive scan did.
        """
        lows, ordered = self._current_low_table()
        position = bisect_right(lows, (1, key)) - 1
        if position >= 0:
            entry = ordered[position]
            if entry.region.keys.contains(key):
                overlap = (
                    position + 1 < len(ordered)
                    and ordered[position + 1].region.keys.contains(key)
                ) or (
                    position > 0
                    and ordered[position - 1].region.keys.contains(key)
                )
                if not overlap:
                    return entry
        # Not the plain tiling the bisect assumes: count, as a scan would.
        matches = [
            candidate
            for candidate in self.entries
            if candidate.region.times.is_current
            and candidate.region.keys.contains(key)
        ]
        if len(matches) == 1:
            return matches[0]
        raise NodeError(
            f"expected exactly one current child for key {key!r} in "
            f"{self.address}, found {len(matches)}"
        )

    def children_overlapping(self, region: Rectangle) -> List[Address]:
        """The child of every entry whose rectangle intersects ``region``, in
        entry order (for range scans, which only want to visit them)."""
        return [entry.child for entry in self.entries if entry.region.overlaps(region)]

    def entry_for_child(self, child: Address) -> IndexEntry:
        for entry in self.entries:
            if entry.child == child:
                return entry
        raise NodeError(f"index node {self.address} has no entry for child {child}")

    # -- mutation ----------------------------------------------------------
    def replace_entry(self, old: IndexEntry, new_entries: Sequence[IndexEntry]) -> None:
        """Replace one child entry by the entries produced by its split."""
        try:
            position = _position_of(self.entries, old)
        except ValueError as exc:
            raise NodeError(f"entry {old} not present in index node") from exc
        self.entries[position : position + 1] = list(new_entries)
        self._invalidate()

    def add_entry(self, entry: IndexEntry) -> None:
        self.entries.append(entry)
        self._invalidate()

    # -- classification ----------------------------------------------------
    def current_entries(self) -> List[IndexEntry]:
        return [entry for entry in self.entries if entry.is_current]

    def historical_entries(self) -> List[IndexEntry]:
        return [entry for entry in self.entries if entry.is_historical]

    # -- sizing --------------------------------------------------------------
    def serialized_size(self) -> int:
        self._sync_caches()
        content = self._content_size
        if content is None:
            content = sum(entry.serialized_size() for entry in self.entries)
            object.__setattr__(self, "_content_size", content)
        return _NODE_HEADER_SIZE + content

    def fits(self, page_size: int, extra_entries: int = 0) -> bool:
        """Whether the node (plus ``extra_entries`` typical entries) fits a page."""
        size = self.serialized_size()
        if extra_entries and self.entries:
            size += extra_entries * max(entry.serialized_size() for entry in self.entries)
        elif extra_entries:
            size += extra_entries * (_INDEX_ENTRY_OVERHEAD + 32)
        return size <= page_size

    # -- serialization -------------------------------------------------------
    def encode(self) -> bytes:
        entries = self.entries
        count = len(entries)
        # The node's own rectangle is packed as one more row of the columns.
        regions = [entry.region for entry in entries]
        regions.append(self.region)
        lows = [region.keys.low for region in regions]
        highs = [region.keys.high for region in regions]
        bounds = set(lows)
        bounds.update(highs)
        bounds.discard(None)
        kind = _key_kind(bounds)
        table = sorted(bounds)
        if len(table) >= _NO_HIGH:
            raise SerializationError(f"index node {self.address} has too many distinct keys")
        refs = dict(zip(table, range(1, len(table) + 1)))
        low_refs = [0 if low is None else refs[low] for low in lows]
        high_refs = [_NO_HIGH if high is None else refs[high] for high in highs]
        starts = [region.times.start for region in regions]
        ends = [_end_word(region.times.end) for region in regions]
        children = [entry.child for entry in entries]
        try:
            buf = bytearray(
                _INDEX_HEADER.pack(
                    _NODE_TAG_INDEX,
                    kind,
                    self.level,
                    count,
                    len(table),
                    low_refs.pop(),
                    high_refs.pop(),
                    starts.pop(),
                    ends.pop(),
                )
            )
            _append_keys(buf, table, kind)
            buf += _run("H", count).pack(*low_refs)
            buf += _run("H", count).pack(*high_refs)
            buf += _run("Q", count).pack(*starts)
            buf += _run("Q", count).pack(*ends)
            buf += _run("Q", count).pack(*[child.page_id for child in children])
            buf += bytes([0 if child.is_magnetic else 1 for child in children])
            for child in children:
                if not child.is_magnetic:
                    buf += _HISTORICAL_CHILD.pack(
                        child.sector_start or 0, child.length or 0, child.platter or 0
                    )
        except struct.error as exc:
            raise SerializationError(f"index node {self.address} cannot be packed: {exc}") from exc
        return bytes(buf)

    @staticmethod
    def decode(address: Address, data: bytes) -> "IndexNode":
        return _PackedIndexNode(address, data)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IndexNode({self.address}, {self.region}, level={self.level}, "
            f"{len(self.entries)} entries)"
        )


# -- image-backed index nodes (module-level functions: see the data nodes) --
def _open_index_page(node: "_PackedIndexNode") -> tuple:
    """Unpack the key table and the bound columns; locate the child columns."""
    kind, count, distinct, at = node._shape[:4]
    data = node._image
    try:
        table, _ = _keys_at(data, _INDEX_HEADER.size, distinct, kind)
        refs = _run("H", count)
        words = _run("Q", count)
        columns = (
            table,
            refs.unpack_from(data, at),
            refs.unpack_from(data, at + 2 * count),
            words.unpack_from(data, at + 4 * count),
            words.unpack_from(data, at + 12 * count),
            at + 20 * count,  # child pages
            at + 28 * count,  # child tiers
            at + 29 * count,  # historical children
            [None] * count,  # the entries built so far
        )
    except _MALFORMED as exc:
        raise SerializationError("malformed index-page image") from exc
    node.__dict__["_columns"] = columns
    return columns


def _child_at(data: bytes, columns: tuple, slot: int) -> Address:
    """The child address in ``slot``."""
    pages, tiers, historical = columns[5:8]
    (page,) = _U64.unpack_from(data, pages + 8 * slot)
    if data[tiers + slot]:
        earlier = data.count(1, tiers, tiers + slot)
        return Address.historical(
            page, *_HISTORICAL_CHILD.unpack_from(data, historical + 20 * earlier)
        )
    return Address.magnetic(page)


def _entry_at(data: bytes, columns: tuple, slot: int) -> IndexEntry:
    """The entry in ``slot``, built on first use and then shared."""
    made = columns[8]
    entry = made[slot]
    if entry is None:
        table, lows, highs, starts, ends = columns[:5]
        entry = made[slot] = IndexEntry(
            child=_child_at(data, columns, slot),
            region=_referenced_rectangle(
                table, lows[slot], highs[slot], starts[slot], ends[slot]
            ),
        )
    return entry


def _materialise_index(node: "IndexNode") -> None:
    """Turn an image-backed node into a plain :class:`IndexNode`, in place."""
    if type(node) is not _PackedIndexNode:
        return
    data = node._image
    columns = node._columns or _open_index_page(node)
    try:
        entries = [_entry_at(data, columns, slot) for slot in range(node._shape[1])]
        region = node.region
    except _MALFORMED as exc:
        raise SerializationError("malformed index-page image") from exc
    state = node.__dict__
    state["region"] = region
    state["entries"] = entries
    state["_by_low"] = None
    state["_current_by_low"] = None
    state["_content_size"] = None
    state["_known_len"] = len(entries)
    object.__setattr__(node, "__class__", IndexNode)


class _PackedIndexNode(IndexNode):
    """An index node that searches its page image in place."""

    def __init__(self, address: Address, image: bytes) -> None:
        if type(image) is not bytes:
            image = bytes(image)
        try:
            tag, kind, level, count, distinct, low, high, start, end = (
                _INDEX_HEADER.unpack_from(image)
            )
            if tag != _NODE_TAG_INDEX:
                raise SerializationError(f"not an index-node image (tag {tag:#x})")
            columns = _INDEX_HEADER.size + (8 if kind == _KIND_INT else 4) * distinct
            if kind != _KIND_INT and distinct:
                columns += _U32.unpack_from(image, columns - 4)[0]
            tiers = columns + 28 * count
            length = tiers + count + 20 * image.count(1, tiers, tiers + count)
        except struct.error as exc:
            raise SerializationError("truncated page image") from exc
        if length != len(image):
            raise SerializationError("truncated page image")
        state = self.__dict__
        state["address"] = address
        state["level"] = level
        state["_image"] = image
        state["_shape"] = (kind, count, distinct, columns, low, high, start, end)
        state["_columns"] = None
        state["_region"] = None

    def __setattr__(self, name: str, value) -> None:
        _materialise_index(self)
        IndexNode.__setattr__(self, name, value)

    def _sync_caches(self) -> None:
        _materialise_index(self)

    def __eq__(self, other) -> bool:
        _materialise_index(self)
        return IndexNode.__eq__(self, other)

    @property
    def entries(self) -> List[IndexEntry]:
        _materialise_index(self)
        return self.__dict__["entries"]

    @property
    def region(self) -> Rectangle:
        region = self._region
        if region is None:
            table = (self._columns or _open_index_page(self))[0]
            try:
                region = _referenced_rectangle(table, *self._shape[4:])
            except IndexError as exc:
                raise SerializationError("malformed index-page image") from exc
            self.__dict__["_region"] = region
        return region

    def encode(self) -> bytes:
        return self._image

    def find_child(self, key: Key, timestamp: int) -> IndexEntry:
        data = self._image
        columns = self._columns or _open_index_page(self)
        reach = bisect_right(columns[0], key)
        # The all-ones end word is "still current", whatever the search time.
        before = timestamp if timestamp < _U64_MAX else _U64_MAX - 1
        matches = [
            slot
            for slot, (low, high, start, end) in enumerate(
                zip(columns[1], columns[2], columns[3], columns[4])
            )
            if low <= reach < high and start <= timestamp and before < end
        ]
        return _entry_at(data, columns, _the_child(matches, key, timestamp, self.address))

    def find_current_child(self, key: Key) -> IndexEntry:
        data = self._image
        columns = self._columns or _open_index_page(self)
        reach = bisect_right(columns[0], key)
        matches = [
            slot
            for slot, (low, high, end) in enumerate(zip(columns[1], columns[2], columns[4]))
            if end == _U64_MAX and low <= reach < high
        ]
        if len(matches) != 1:
            raise NodeError(
                f"expected exactly one current child for key {key!r} in "
                f"{self.address}, found {len(matches)}"
            )
        return _entry_at(data, columns, matches[0])

    def children_overlapping(self, region: Rectangle) -> List[Address]:
        data = self._image
        columns = self._columns or _open_index_page(self)
        table = columns[0]
        keys, times = region.keys, region.times
        above = 0 if keys.low is None else bisect_right(table, keys.low)
        below = len(table) if keys.high is None else bisect_left(table, keys.high)
        first = min(times.start, _U64_MAX - 1)
        last = float("inf") if times.end is None else times.end
        return [
            _child_at(data, columns, slot)
            for slot, (low, high, start, end) in enumerate(
                zip(columns[1], columns[2], columns[3], columns[4])
            )
            if low <= below and above < high and first < end and start < last
        ]


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


def _stable_version_order(version: Version) -> Tuple[int, int]:
    if version.timestamp is None:
        return (1, version.txn_id or 0)
    return (0, version.timestamp)
