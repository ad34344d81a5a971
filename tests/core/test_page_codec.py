"""The column-packed page codec and the nodes it opens.

Four groups of checks:

* golden pages: images written by the codec as it stood before nodes became
  their slot columns, committed as hex — int and str keys, a tombstone, a
  provisional version, a version with a stamp *and* a txn id, an empty node
  and index nodes with historical children — decode and re-encode
  byte-identical, so the page format cannot drift unnoticed;
* codec properties over generated data and index pages: round trips both
  ways, the size budget the split tests rely on, and truncation at every
  byte;
* one property over edits: a node opened from an image and then edited by
  any sequence of ``add_version`` / ``remove_version`` /
  ``stamp_provisional`` / assignment encodes like a reference encoder over
  the equivalent version list and answers every lookup like a brute-force
  scan of it; index searches are held to linear scans the same way;
* concurrency: readers under the shared latch agree with the oracle while
  checkers fill every node's memo under them.
"""

import random
import struct
import sys
import threading
from dataclasses import replace
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TSBTree, check_tree
from repro.core.nodes import DataNode, IndexEntry, IndexNode, NodeError, decode_node
from repro.core.records import (
    KeyRange,
    Rectangle,
    TimeRange,
    Version,
    latest_committed,
    version_as_of,
)
from repro.storage.device import Address
from repro.storage.latches import ReadWriteLatch
from repro.storage.serialization import SerializationError, address_size, key_size
from tests.strategies import addresses

INT_KEYS = st.integers(min_value=-(2**62), max_value=2**62)
STR_KEYS = st.text(min_size=0, max_size=12)
STAMPS = st.integers(min_value=0, max_value=2**62)
TXN_IDS = st.integers(min_value=0, max_value=2**40)
VALUES = st.binary(min_size=0, max_size=60)


def version_over(pool):
    """A version whose key comes from ``pool``: committed (with or without a
    lingering txn id) or provisional, tombstoned or not."""
    key = st.sampled_from(pool)
    committed = st.builds(
        Version,
        key=key,
        timestamp=st.one_of(st.integers(0, 6), STAMPS),  # small stamps collide
        value=VALUES,
        txn_id=st.one_of(st.none(), TXN_IDS),
        is_tombstone=st.booleans(),
    )
    provisional = st.builds(
        Version,
        key=key,
        timestamp=st.none(),
        value=VALUES,
        txn_id=st.one_of(st.integers(0, 3), TXN_IDS),  # small ids collide
        is_tombstone=st.booleans(),
    )
    return st.one_of(committed, provisional)


def versions_over(pool):
    """Lists of :func:`version_over` versions — duplicates welcome."""
    return st.lists(version_over(pool), max_size=24)


@st.composite
def key_ranges(draw, pool):
    low = draw(st.one_of(st.none(), st.sampled_from(pool)))
    high = draw(st.one_of(st.none(), st.sampled_from(pool)))
    if low is not None and high is not None:
        if low == high:
            high = None
        elif high < low:
            low, high = high, low
    return KeyRange(low, high)


@st.composite
def time_ranges(draw):
    start = draw(st.integers(0, 50))
    end = draw(st.one_of(st.none(), st.integers(start + 1, start + 50)))
    return TimeRange(start, end)


@st.composite
def key_pools(draw):
    keys = INT_KEYS if draw(st.booleans()) else STR_KEYS
    return sorted(draw(st.lists(keys, min_size=1, max_size=6, unique=True)))


@st.composite
def data_nodes(draw):
    pool = draw(key_pools())
    return DataNode(
        address=Address.magnetic(draw(st.integers(0, 99))),
        region=Rectangle(draw(key_ranges(pool)), draw(time_ranges())),
        versions=draw(versions_over(pool)),
    )


@st.composite
def index_nodes(draw, tiled_region=False):
    """Index nodes over arbitrary (overlapping, gapped) entry rectangles.

    ``tiled_region`` keeps the node's own key bounds among its entries'
    bounds, as the children of a real node do; the size budget holds there.
    """
    pool = draw(key_pools())
    entries = draw(
        st.lists(
            st.builds(
                IndexEntry,
                child=addresses,
                region=st.builds(Rectangle, key_ranges(pool), time_ranges()),
            ),
            max_size=16,
        )
    )
    if tiled_region:
        bounds = [b for e in entries for b in (e.region.keys.low, e.region.keys.high)]
        bounds = sorted({b for b in bounds if b is not None}) or [None]
        low = draw(st.sampled_from([None] + bounds))
        high = draw(st.sampled_from([None] + bounds))
        if low is not None and high is not None and not low < high:
            high = None
        keys = KeyRange(low, high)
    else:
        keys = draw(key_ranges(pool))
    return IndexNode(
        address=Address.magnetic(draw(st.integers(0, 99))),
        region=Rectangle(keys, draw(time_ranges())),
        entries=entries,
        level=draw(st.integers(1, 9)),
    )


# ----------------------------------------------------------------------
# The oracle: the data-page encoder as it stood over a version list
# ----------------------------------------------------------------------
def slot_order(versions):
    """List positions in slot order: by key, committed first, stamp (the txn
    id of a provisional version), then list position."""
    return sorted(
        range(len(versions)),
        key=lambda at: (versions[at].key, flag_of(versions[at]) & 2, word_of(versions[at]), at),
    )


def flag_of(v):
    """1 tombstone, 2 provisional, 4 a stamp *and* a txn id."""
    stamp_and_txn = v.timestamp is not None and v.txn_id is not None
    return v.is_tombstone | (v.timestamp is None) << 1 | stamp_and_txn << 2


def word_of(v):
    """The stamp word: the commit stamp, or a provisional version's txn id."""
    return v.txn_id if v.timestamp is None else v.timestamp


def packed_keys(keys, as_str):
    if not as_str:
        return struct.pack(f">{len(keys)}q", *keys)
    encoded = [key.encode("utf-8") for key in keys]
    return struct.pack(f">{len(keys)}I", *accumulate(map(len, encoded))) + b"".join(encoded)


def reference_encode(region, versions):
    """What a data page holding ``versions`` (in this list order) is, byte
    for byte: the encoder nodes were written with before they held columns."""
    slots = [versions[at] for at in slot_order(versions)]
    low, high = region.keys.low, region.keys.high
    as_str = any(isinstance(key, str) for key in [v.key for v in slots] + [low, high])
    flags = bytes(map(flag_of, slots))
    txn_ids = [v.txn_id for v, flag in zip(slots, flags) if flag & 4]
    count = len(slots)
    body = (
        packed_keys([v.key for v in slots], as_str)
        + struct.pack(f">{count}Q", *map(word_of, slots))
        + flags
        + struct.pack(f">{count}H", *slot_order(versions))
        + struct.pack(f">{count}I", *accumulate(len(v.value) for v in slots))
        + struct.pack(f">{len(txn_ids)}Q", *txn_ids)
        + b"".join(v.value for v in slots)
        + bytes([(low is not None) | (high is not None) << 1])
        + packed_keys([key for key in (low, high) if key is not None], as_str)
        + struct.pack(">QQ", region.times.start, region.times.end or 2**64 - 1)
    )
    header = struct.pack(">BBIII", 0xD1, int(as_str), count, len(txn_ids), 14 + len(body))
    return header + body


# ----------------------------------------------------------------------
# Golden pages
# ----------------------------------------------------------------------
GOLDEN_NODES = {
    "int data": DataNode(
        Address.magnetic(5),
        Rectangle(KeyRange(10, 90), TimeRange(3, None)),
        [
            Version(42, 7, b"seven"),
            Version(17, 4, b"four"),
            Version(42, 5, b"", is_tombstone=True),
            Version(42, None, b"draft", txn_id=77),
            Version(60, 9, b"stamped", txn_id=31),
            Version(17, None, b"", txn_id=77, is_tombstone=True),
        ],
    ),
    "str data": DataNode(
        Address.magnetic(6),
        Rectangle(KeyRange("b", None), TimeRange(0, 40)),
        [
            Version("kiwi", 12, b"green"),
            Version("apple", 3, b"red"),
            Version("kiwi", 30, b"", is_tombstone=True),
            Version("pear", 21, b"ripe", txn_id=8),
            Version("apple", 3, b"same stamp"),
        ],
    ),
    "empty data": DataNode(Address.magnetic(7), Rectangle.full(), []),
    "int index": IndexNode(
        Address.magnetic(8),
        Rectangle(KeyRange(None, 500), TimeRange(0, None)),
        [
            IndexEntry(Address.historical(11, 4096, 512, 2), Rectangle(KeyRange(None, 200), TimeRange(0, 50))),
            IndexEntry(Address.magnetic(12), Rectangle(KeyRange(None, 200), TimeRange(50, None))),
            IndexEntry(Address.historical(13, 8192, 300, 0), Rectangle(KeyRange(200, 500), TimeRange(0, 50))),
            IndexEntry(Address.magnetic(14), Rectangle(KeyRange(200, 500), TimeRange(50, None))),
        ],
        level=2,
    ),
    "str index": IndexNode(
        Address.magnetic(9),
        Rectangle(KeyRange("c", None), TimeRange(5, None)),
        [
            IndexEntry(Address.historical(3, 0, 64, 1), Rectangle(KeyRange("c", "m"), TimeRange(5, 9))),
            IndexEntry(Address.magnetic(4), Rectangle(KeyRange("c", "m"), TimeRange(9, None))),
            IndexEntry(Address.magnetic(15), Rectangle(KeyRange("m", None), TimeRange(5, None))),
        ],
        level=1,
    ),
}

GOLDEN_PAGES = {
    "int data": (
        "d1000000000600000001000000d6000000000000001100000000000000110000"
        "00000000002a000000000000002a000000000000002a000000000000003c0000"
        "000000000004000000000000004d000000000000000500000000000000070000"
        "00000000004d0000000000000009000301000204000100050002000000030004"
        "000000040000000400000004000000090000000e00000015000000000000001f"
        "666f7572736576656e64726166747374616d70656403000000000000000a0000"
        "00000000005a0000000000000003ffffffffffffffff"
    ),
    "str data": (
        "d1010000000500000001000000b7000000050000000a0000000e000000120000"
        "00166170706c656170706c656b6977696b697769706561720000000000000003"
        "0000000000000003000000000000000c000000000000001e0000000000000015"
        "000000010400010004000000020003000000030000000d000000120000001200"
        "000016000000000000000872656473616d65207374616d70677265656e726970"
        "6501000000016200000000000000000000000000000028"
    ),
    "empty data": "d10000000000000000000000001f000000000000000000ffffffffffffffff",
    "int index": (
        "d20000020000000400000002000000020000000000000000ffffffffffffffff"
        "00000000000000c800000000000001f400000000000100010001000100020002"
        "0000000000000000000000000000003200000000000000000000000000000032"
        "0000000000000032ffffffffffffffff0000000000000032ffffffffffffffff"
        "000000000000000b000000000000000c000000000000000d000000000000000e"
        "0100010000000000000010000000000000000200000000020000000000002000"
        "000000000000012c00000000"
    ),
    "str index": (
        "d201000100000003000000020001ffff0000000000000005ffffffffffffffff"
        "0000000100000002636d00010001000200020002ffff00000000000000050000"
        "00000000000900000000000000050000000000000009ffffffffffffffffffff"
        "ffffffffffff00000000000000030000000000000004000000000000000f0100"
        "000000000000000000000000000000004000000001"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PAGES))
def test_a_golden_page_decodes_and_re_encodes_byte_identical(name):
    image = bytes.fromhex(GOLDEN_PAGES[name])
    built = GOLDEN_NODES[name]
    assert built.encode() == image  # packed from the columns
    opened = decode_node(built.address, image)
    assert opened == built
    assert opened.encode() is image  # unmodified: the image itself
    if isinstance(built, DataNode):
        assert reference_encode(built.region, list(built.versions)) == image
        repacked = DataNode(opened.address, opened.region, opened.versions)
    else:
        repacked = IndexNode(opened.address, opened.region, opened.entries, opened.level)
    assert repacked.encode() == image


# ----------------------------------------------------------------------
# Codec properties
# ----------------------------------------------------------------------
class TestCodecProperties:
    @settings(max_examples=150, deadline=None)
    @given(node=data_nodes())
    def test_data_page_round_trips_both_ways(self, node):
        image = node.encode()
        assert image == reference_encode(node.region, list(node.versions))
        assert len(image) <= node.serialized_size()  # what keeps split decisions codec-free
        opened = DataNode.decode(node.address, image)
        assert opened.encode() is image  # untouched: the image itself
        assert opened == node and node == DataNode.decode(node.address, image)
        assert opened.versions == node.versions  # list order survives
        assert opened.region == node.region
        assert opened.serialized_size() == node.serialized_size()

    @settings(max_examples=150, deadline=None)
    @given(node=index_nodes())
    def test_index_page_round_trips_both_ways(self, node):
        image = node.encode()
        opened = IndexNode.decode(node.address, image)
        assert opened.encode() is image
        assert opened.level == node.level
        assert opened == node and node == IndexNode.decode(node.address, image)
        assert opened.entries == node.entries
        assert opened.serialized_size() == node.serialized_size()
        # Per entry: a 20-byte charge, its bounds and its child's address.
        assert node.serialized_size() == 32 + sum(
            20 + sum(key_size(b) for b in (e.region.keys.low, e.region.keys.high) if b is not None)
            + address_size(e.child)
            for e in node.entries
        )

    @settings(max_examples=150, deadline=None)
    @given(node=index_nodes(tiled_region=True))
    def test_index_image_never_exceeds_the_size_budget(self, node):
        assert len(node.encode()) <= node.serialized_size()

    @settings(max_examples=40, deadline=None)
    @given(node=st.one_of(data_nodes(), index_nodes()))
    def test_an_image_truncated_at_any_byte_is_rejected(self, node):
        image = node.encode()
        decode = type(node).decode
        for cut in range(len(image)):
            with pytest.raises(SerializationError):
                decode(node.address, image[:cut])
            with pytest.raises(SerializationError):
                decode_node(node.address, image[:cut])
        with pytest.raises(SerializationError):
            decode(node.address, image + b"\x00")

    def test_mixed_key_kinds_are_refused(self):
        with pytest.raises((SerializationError, TypeError)):
            DataNode(
                Address.magnetic(1),
                Rectangle.full(),
                [Version(key=1, timestamp=1), Version(key="1", timestamp=1)],
            ).encode()
        with pytest.raises(SerializationError):
            DataNode(Address.magnetic(1), Rectangle.full(), [Version(key=True, timestamp=1)]).encode()


# ----------------------------------------------------------------------
# One property over edits: encode and lookups against the version list
# ----------------------------------------------------------------------
def assert_answers_like(node, region, listed, data):
    """``node`` is the data node ``region`` x ``listed`` (in list order):
    its image, its columns, its size and every point and range lookup."""
    assert node.encode() == reference_encode(region, listed)
    assert node.versions == tuple(listed) and node.region == region
    slots = [listed[at] for at in slot_order(listed)]
    assert node.columns() == (
        tuple(v.key for v in slots),
        tuple(map(word_of, slots)),
        bytes(map(flag_of, slots)),
    )
    bounds = [key for key in (region.keys.low, region.keys.high) if key is not None]
    assert node.serialized_size() == 32 + 2 + sum(map(key_size, bounds)) + 17 + sum(
        v.serialized_size() for v in listed
    )
    pool = sorted({v.key for v in listed})
    assert node.keys() == pool
    absent = data.draw(STR_KEYS if any(isinstance(b, str) for b in pool + bounds) else INT_KEYS)
    stamps = sorted({v.timestamp for v in listed if v.timestamp is not None})
    probes = [0, 3, 2**63] + stamps + [stamp + 1 for stamp in stamps]
    txn_ids = {v.txn_id for v in listed if v.txn_id is not None} | {0, 7}

    def group(key):  # a key's versions oldest first, list order breaking ties
        return [v for v in slots if v.key == key]

    for key in pool + [absent]:
        versions = group(key)
        assert node.versions_for_key(key) == versions
        assert node.latest_for_key(key) == latest_committed(versions)
        for stamp in probes:
            assert node.version_as_of(key, stamp) == version_as_of(versions, stamp)
        for txn_id in txn_ids:
            mine = [v for v in versions if v.txn_id == txn_id]
            assert node.provisional_for_key(key, txn_id) == (mine[-1] if mine else None)
    keys = sorted(set(pool) | {absent})
    ranges = [KeyRange(None, None)] + [data.draw(key_ranges(keys)) for _ in range(3)]
    ranges += [KeyRange(low, high) for low, high in zip(keys, keys[1:])]  # one key or none
    for span in ranges:
        within = [key for key in pool if span.contains(key)]
        committed = [v for key in within for v in group(key) if v.timestamp is not None]
        assert node.committed_versions(span.low, span.high) == committed
        for stamp in probes:
            newest = [
                latest_committed(v for v in committed if v.key == key and v.timestamp <= stamp)
                for key in within
            ]
            newest = [version for version in newest if version is not None]
            assert node.versions_as_of(span.low, span.high, stamp, tombstones=True) == newest
            live = [version for version in newest if not version.is_tombstone]
            assert node.versions_as_of(span.low, span.high, stamp) == live


@settings(max_examples=150, deadline=None)
@given(node=data_nodes(), data=st.data())
def test_an_opened_node_under_any_edits_encodes_and_answers_like_its_version_list(node, data):
    opened = DataNode.decode(node.address, node.encode())
    region, listed = node.region, list(opened.versions)
    bounds = {region.keys.low, region.keys.high} - {None}
    pool = sorted({v.key for v in listed} | bounds) or [data.draw(INT_KEYS)]
    assert_answers_like(opened, region, listed, data)
    steps = st.lists(st.sampled_from(["add", "remove", "stamp", "assign"]), max_size=6)
    for step in data.draw(steps):
        if step == "add":
            version = data.draw(version_over(pool))
            if region.keys.contains(version.key):
                opened.add_version(version)
                listed.append(version)
            else:
                with pytest.raises(NodeError):
                    opened.add_version(version)
        elif step == "remove" and listed:
            at = data.draw(st.integers(0, len(listed) - 1))
            version = listed[at]
            if data.draw(st.booleans()):  # an equal copy: found by equality
                version = replace(version)
                at = listed.index(version)
            opened.remove_version(version)
            del listed[at]
        elif step == "remove":
            with pytest.raises(NodeError):
                opened.remove_version(Version(pool[0], 1))
        elif step == "stamp":
            provisional = [v for v in listed if v.timestamp is None]
            if provisional and data.draw(st.booleans()):
                key, txn_id = data.draw(st.sampled_from([(v.key, v.txn_id) for v in provisional]))
            else:
                key, txn_id = data.draw(st.sampled_from(pool)), data.draw(st.integers(0, 3))
            versions = [v for v in listed if v.key == key]
            # Commit order: no older than any committed version of the key
            # (an equal stamp is allowed, and list position breaks the tie).
            newest = max((v.timestamp for v in versions if v.timestamp is not None), default=0)
            stamp = newest + data.draw(st.integers(0, 3))
            mine = [
                at
                for at, v in enumerate(listed)
                if v.key == key and v.timestamp is None and v.txn_id == txn_id
            ]
            assert opened.stamp_provisional(key, txn_id, stamp) is bool(mine)
            if mine:
                listed[mine[0]] = listed[mine[0]].committed(stamp)
        else:
            listed = data.draw(versions_over(pool))
            opened.versions = listed
        assert_answers_like(opened, region, listed, data)
        listed = list(opened.versions)  # the node's own objects, for removal by identity


def test_a_commit_stamps_each_provisional_slot_once():
    built = DataNode(
        Address.magnetic(3),
        Rectangle(KeyRange(0, 100), TimeRange(2, None)),
        [
            Version(key=5, timestamp=3, value=b"a"),
            Version(key=5, timestamp=None, value=b"p", txn_id=9),
            Version(key=6, timestamp=None, value=b"", txn_id=9, is_tombstone=True),
        ],
    )
    opened = DataNode.decode(built.address, built.encode())
    for node in (built, opened):
        assert node.stamp_provisional(5, 9, 4) and node.stamp_provisional(6, 9, 4)
        assert not node.stamp_provisional(5, 9, 4)  # nothing provisional left
        assert node.latest_for_key(5) == Version(key=5, timestamp=4, value=b"p")
        assert node.version_as_of(6, 4) is None and node.latest_for_key(6).is_tombstone
        assert node.versions_as_of(None, None, 3) == [Version(key=5, timestamp=3, value=b"a")]
    assert built.encode() == opened.encode()


# ----------------------------------------------------------------------
# Index searches against linear scans
# ----------------------------------------------------------------------
def outcome(call):
    """What ``call`` returns, or that it raised ``NodeError``."""
    try:
        return ("ok", call())
    except NodeError:
        return ("NodeError",)


def scanned(matches):
    return ("ok", matches[0]) if len(matches) == 1 else ("NodeError",)


def all_forms(node, filler):
    """The node as built, as opened from its image, and as opened from the
    image of a node holding just ``filler`` and then spliced into shape by
    ``replace_entry`` — bounds enter its key table in any order, and the
    filler's leave stale ones behind.  All three must encode alike."""
    opened = IndexNode.decode(node.address, node.encode())
    seed = IndexNode(node.address, node.region, [filler], node.level)
    spliced = IndexNode.decode(seed.address, seed.encode())
    spliced.replace_entry(spliced.entries[0], node.entries)
    forms = [node, opened, spliced]
    assert [form.encode() for form in forms] == [node.encode()] * 3
    return forms


class TestIndexSearchesAgainstLinearScans:
    @settings(max_examples=200, deadline=None)
    @given(node=index_nodes(), data=st.data())
    def test_searches_over_arbitrary_rectangles(self, node, data):
        """Overlapping and gapped layouts: "regions overlap" and "no child
        covers" must come out wherever a scan finds two children or none."""
        entries = node.entries
        regions = [entry.region for entry in entries]
        bounds = {b for r in regions + [node.region] for b in (r.keys.low, r.keys.high)}
        bounds.discard(None)
        kind = INT_KEYS if not bounds or isinstance(min(bounds), int) else STR_KEYS
        keys = sorted(bounds) + [data.draw(kind), data.draw(kind)]
        queries = [Rectangle(KeyRange.full(), TimeRange(0, None))] + [
            Rectangle(
                data.draw(key_ranges(keys)),
                TimeRange(*sorted(data.draw(st.tuples(st.integers(0, 99), st.integers(100, 199))))),
            )
            for _ in range(6)
        ]
        filler = IndexEntry(Address.magnetic(7), Rectangle(data.draw(key_ranges(keys)), TimeRange(3, 4)))
        for form in all_forms(node, filler):
            for key in keys:
                for stamp in (0, 1, 25, 49, 50, 99, 2**64 - 1, 2**70):
                    expected = scanned([e for e in entries if e.region.contains_point(key, stamp)])
                    assert outcome(lambda: form.find_child(key, stamp)) == expected
            for query in queries:
                assert form.children_overlapping(query) == [
                    e.child for e in entries if e.region.overlaps(query)
                ]
            assert form.region == node.region

    @settings(max_examples=200, deadline=None)
    @given(
        key_cuts=st.lists(st.integers(1, 999), max_size=6, unique=True),
        time_cuts=st.lists(st.integers(1, 99), max_size=3, unique=True),
        doubled=st.lists(st.integers(0, 40), max_size=2),
        dropped=st.lists(st.integers(0, 40), max_size=2),
        seed=st.integers(0, 2**16),
    )
    def test_current_child_search_over_tilings_with_gaps_and_double_coverage(
        self, key_cuts, time_cuts, doubled, dropped, seed
    ):
        """Key stripes of time-split cells, as splits produce them, with some
        entries duplicated or missing and the list order shuffled."""
        cells = []
        lows = [None] + sorted(key_cuts)
        for low, high in zip(lows, lows[1:] + [None]):
            starts = [0] + sorted(time_cuts)
            for start, end in zip(starts, starts[1:] + [None]):
                child = Address.magnetic(len(cells)) if end is None else Address.historical(len(cells), 8, 64)
                cells.append(IndexEntry(child, Rectangle(KeyRange(low, high), TimeRange(start, end))))
        entries = [cell for at, cell in enumerate(cells) if at not in dropped]
        entries += [cells[at] for at in doubled if at < len(cells)]
        random.Random(seed).shuffle(entries)
        node = IndexNode(Address.magnetic(77), Rectangle.full(), entries, level=2)
        filler = IndexEntry(Address.magnetic(7), Rectangle(KeyRange(-7, 5000), TimeRange(3, 4)))
        for form in all_forms(node, filler):
            for key in [-5, 0, 1000] + [cut + step for cut in key_cuts for step in (-1, 0, 1)]:
                current = [
                    e for e in entries if e.region.times.is_current and e.region.keys.contains(key)
                ]
                assert outcome(lambda: form.find_current_child(key)) == scanned(current)
                for stamp in [0, 100] + time_cuts:
                    expected = scanned([e for e in entries if e.region.contains_point(key, stamp)])
                    assert outcome(lambda: form.find_child(key, stamp)) == expected

    def test_overlapping_and_uncovered_points_fail_with_the_same_words(self):
        cell = Rectangle(KeyRange(10, 20), TimeRange(0, None))
        node = IndexNode(
            Address.magnetic(4),
            Rectangle.full(),
            [IndexEntry(Address.magnetic(1), cell), IndexEntry(Address.magnetic(2), cell)],
        )
        filler = IndexEntry(Address.magnetic(7), Rectangle(KeyRange(0, 1), TimeRange(3, 4)))
        for form in all_forms(node, filler):
            with pytest.raises(NodeError, match="regions overlap"):
                form.find_child(15, 3)
            with pytest.raises(NodeError, match="no child covers"):
                form.find_child(25, 3)
            with pytest.raises(NodeError, match="exactly one current child .* found 2"):
                form.find_current_child(15)
            with pytest.raises(NodeError, match="exactly one current child .* found 0"):
                form.find_current_child(5)

    def test_a_followed_entry_is_built_once(self):
        node = IndexNode(
            Address.magnetic(4),
            Rectangle.full(),
            [IndexEntry(Address.magnetic(1), Rectangle(KeyRange(None, None), TimeRange(0, None)))],
        )
        opened = IndexNode.decode(node.address, node.encode())
        entry = opened.find_current_child(3)
        assert opened.find_child(3, 9) is entry
        assert opened.entries[0] is entry  # and shared by the entry tuple


# ----------------------------------------------------------------------
# Mutation: one replace path, and the image is given up
# ----------------------------------------------------------------------
class TestMutationGivesUpTheImage:
    def opened_data_node(self):
        node = DataNode(
            Address.magnetic(3),
            Rectangle(KeyRange(0, 100), TimeRange(2, None)),
            [Version(key=5, timestamp=3, value=b"a"), Version(key=5, timestamp=None, value=b"p", txn_id=9)],
        )
        image = node.encode()
        return DataNode.decode(node.address, image), image

    def opened_index_node(self):
        node = IndexNode(
            Address.magnetic(4),
            Rectangle.full(),
            [
                IndexEntry(Address.historical(7, 70, 64), Rectangle(KeyRange(None, None), TimeRange(0, 5))),
                IndexEntry(Address.magnetic(1), Rectangle(KeyRange(None, None), TimeRange(5, None))),
            ],
            level=2,
        )
        image = node.encode()
        return IndexNode.decode(node.address, image), image

    def assert_encodes_what_it_holds(self, node, image):
        fresh = node.encode()
        assert fresh != image
        assert decode_node(node.address, fresh) == node

    def test_add_version(self):
        node, image = self.opened_data_node()
        node.add_version(Version(key=6, timestamp=4, value=b"b"))
        self.assert_encodes_what_it_holds(node, image)
        assert node.latest_for_key(6).value == b"b"

    def test_remove_version_found_by_equality(self):
        node, image = self.opened_data_node()
        node.remove_version(Version(key=5, timestamp=None, value=b"p", txn_id=9))
        self.assert_encodes_what_it_holds(node, image)
        assert node.provisional_for_key(5, 9) is None

    def test_region_and_list_reassignment(self):
        node, image = self.opened_data_node()
        node.region = Rectangle(KeyRange(0, 50), TimeRange(2, None))
        self.assert_encodes_what_it_holds(node, image)
        node, image = self.opened_data_node()
        node.versions = []
        self.assert_encodes_what_it_holds(node, image)

    def test_the_version_tuple_cannot_be_edited_in_place(self):
        node, image = self.opened_data_node()
        with pytest.raises(AttributeError):
            node.versions.append(Version(key=7, timestamp=8, value=b"c"))
        assert node.encode() is image and node.version_as_of(7, 8) is None
        node.versions = (*node.versions, Version(key=7, timestamp=8, value=b"c"))
        self.assert_encodes_what_it_holds(node, image)
        assert node.version_as_of(7, 8).value == b"c"

    def test_index_mutations(self):
        extra = IndexEntry(Address.magnetic(2), Rectangle(KeyRange(50, None), TimeRange(5, None)))
        node, image = self.opened_index_node()
        old = node.find_current_child(1)
        narrowed = IndexEntry(old.child, Rectangle(KeyRange(None, 50), TimeRange(5, None)))
        node.replace_entry(old, [narrowed, extra])
        self.assert_encodes_what_it_holds(node, image)
        assert node.find_current_child(60) is extra

        node, image = self.opened_index_node()
        node.entries = node.entries[:1]
        self.assert_encodes_what_it_holds(node, image)

        node, image = self.opened_index_node()
        node.region = Rectangle(KeyRange(None, None), TimeRange(1, None))
        self.assert_encodes_what_it_holds(node, image)

        node, image = self.opened_index_node()
        with pytest.raises(AttributeError):
            node.level = 3

        node, image = self.opened_index_node()
        with pytest.raises(AttributeError):
            node.entries.append(extra)
        assert node.encode() is image


# ----------------------------------------------------------------------
# Concurrency: shared-latch readers over nodes opened from images
# ----------------------------------------------------------------------
def test_readers_under_the_shared_latch_agree_with_the_oracle_while_memos_fill():
    """The lazily built parts of a node — a memo slot, a region, an index
    node's current-entry table and content size — must be idempotent and
    race-benign: six readers and two checkers share one latch in read mode
    over a tree whose cache holds a fraction of its pages.  Each checker
    round also asks every node for its whole version or entry tuple, filling
    every memo slot under the readers."""
    rng = random.Random(7)
    tree = TSBTree(page_size=512, cache_pages=24)
    history = {}
    for stamp in range(1, 1501):
        key = int(300 * rng.random() ** 2)
        value = b"v%d" % stamp
        tree.insert(key, value, timestamp=stamp)
        history.setdefault(key, []).append((stamp, value))
    tree.checkpoint()
    tree.drop_caches()  # every node comes back opened from its image

    def as_of(key, stamp):
        valid = [value for at, value in history.get(key, []) if at <= stamp]
        return valid[-1] if valid else None

    latch = ReadWriteLatch()
    failures = []
    done = threading.Event()

    def reader(seed):
        draw = random.Random(seed)
        try:
            for _ in range(400):
                key = int(300 * draw.random() ** 2)
                stamp = draw.randrange(1, 1501)
                with latch.read():
                    got = tree.search_as_of(key, stamp)
                    assert (got.value if got else None) == as_of(key, stamp)
                    got = tree.search_current(key)
                    assert (got.value if got else None) == as_of(key, 1500)
                    if draw.random() < 0.1:
                        low = draw.randrange(0, 280)
                        rows = tree.range_search(low, low + 20, as_of=stamp)
                        expected = [
                            (k, as_of(k, stamp)) for k in range(low, low + 20) if as_of(k, stamp)
                        ]
                        assert [(row.key, row.value) for row in rows] == expected
                        written = [k for k in range(low, low + 20) if k in history]
                        assert tree.keys(low, low + 20) == written
                    if draw.random() < 0.1:
                        rows = tree.key_history(key)
                        assert [(r.timestamp, r.value) for r in rows] == history.get(key, [])
        except BaseException as error:  # noqa: BLE001 - reported by the main thread
            failures.append(error)

    def checker():
        try:
            while not done.is_set():
                with latch.read():
                    assert check_tree(tree) == []
                    for node in tree.iter_nodes():
                        whole = node.versions if isinstance(node, DataNode) else node.entries
                        assert None not in whole
        except BaseException as error:  # noqa: BLE001
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=reader, args=(seed,)) for seed in range(6)]
        checkers = [threading.Thread(target=checker) for _ in range(2)]
        for thread in readers + checkers:
            thread.start()
        for thread in readers:
            thread.join(timeout=120)
        done.set()
        for thread in checkers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers + checkers)
    assert failures == []
