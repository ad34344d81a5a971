"""Unit and property tests for TSB-tree data and index nodes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nodes import (
    DataNode,
    IndexEntry,
    IndexNode,
    NodeError,
    decode_node,
    is_data_node_image,
)
from repro.core.records import KeyRange, Rectangle, TimeRange, Version
from repro.storage.device import Address
from repro.storage.serialization import SerializationError


def make_data_node(versions=None, region=None, address=None):
    return DataNode(
        address=address or Address.magnetic(1),
        region=region or Rectangle.full(),
        versions=list(versions or []),
    )


version_strategy = st.builds(
    Version,
    key=st.integers(0, 1000),
    timestamp=st.integers(0, 10_000),
    value=st.binary(min_size=0, max_size=40),
    is_tombstone=st.booleans(),
)


class TestDataNodeQueries:
    def test_versions_for_key_sorted_by_time(self):
        node = make_data_node(
            [
                Version(key=1, timestamp=7, value=b"late"),
                Version(key=2, timestamp=1, value=b"other"),
                Version(key=1, timestamp=3, value=b"early"),
            ]
        )
        assert [v.value for v in node.versions_for_key(1)] == [b"early", b"late"]

    def test_latest_for_key(self):
        node = make_data_node(
            [
                Version(key=1, timestamp=3, value=b"old"),
                Version(key=1, timestamp=9, value=b"new"),
                Version(key=1, timestamp=None, value=b"prov", txn_id=5),
            ]
        )
        assert node.latest_for_key(1).value == b"new"
        assert node.latest_for_key(42) is None

    def test_version_as_of(self):
        node = make_data_node(
            [
                Version(key=1, timestamp=3, value=b"v3"),
                Version(key=1, timestamp=9, value=b"v9"),
            ]
        )
        assert node.version_as_of(1, 5).value == b"v3"
        assert node.version_as_of(1, 2) is None

    def test_provisional_for_key(self):
        node = make_data_node(
            [
                Version(key=1, timestamp=None, value=b"t7", txn_id=7),
                Version(key=1, timestamp=None, value=b"t8", txn_id=8),
            ]
        )
        assert node.provisional_for_key(1, 7).value == b"t7"
        assert node.provisional_for_key(1, 9) is None

    def test_keys_and_committed_versions(self):
        node = make_data_node(
            [
                Version(key=1, timestamp=5, value=b"b"),
                Version(key=3, timestamp=None, value=b"d", txn_id=1),
                Version(key=2, timestamp=3, value=b"c"),
                Version(key=1, timestamp=1, value=b"a"),
            ]
        )
        assert node.keys() == [1, 2, 3]  # sorted, the provisional-only key too
        assert [v.value for v in node.committed_versions(None, None)] == [b"a", b"b", b"c"]
        assert [v.value for v in node.committed_versions(2, None)] == [b"c"]


class TestDataNodeMutation:
    def test_add_version_respects_key_range(self):
        node = make_data_node(region=Rectangle(KeyRange(0, 10), TimeRange(0, None)))
        node.add_version(Version(key=5, timestamp=1, value=b"ok"))
        with pytest.raises(NodeError):
            node.add_version(Version(key=50, timestamp=2, value=b"out of range"))

    def test_remove_version(self):
        version = Version(key=1, timestamp=1, value=b"gone")
        node = make_data_node([version])
        node.remove_version(version)
        assert node.versions == ()

    def test_removing_a_version_taken_from_the_node_compares_no_others(self, monkeypatch):
        """Commit and abort stamping remove the provisional version they just
        looked up: it must be found by identity, not by `__eq__` on every
        version stored ahead of it."""
        node = make_data_node(
            [Version(key=k, timestamp=k + 1, value=b"v") for k in range(50)]
            + [Version(key=7, timestamp=None, value=b"p", txn_id=3)]
        )
        provisional = node.provisional_for_key(7, 3)
        compared = []
        monkeypatch.setattr(Version, "__eq__", lambda a, b: compared.append(a) or a is b)
        node.remove_version(provisional)
        assert compared == []
        assert len(node.versions) == 50 and node.provisional_for_key(7, 3) is None

    def test_remove_missing_version_raises(self):
        node = make_data_node()
        with pytest.raises(NodeError):
            node.remove_version(Version(key=1, timestamp=1, value=b"absent"))

    def test_fits_accounts_for_extra_version(self):
        node = make_data_node([Version(key=1, timestamp=1, value=b"x" * 50)])
        extra = Version(key=2, timestamp=2, value=b"y" * 50)
        exact = node.serialized_size() + extra.serialized_size()
        assert node.fits(exact, extra=extra)
        assert not node.fits(exact - 1, extra=extra)


class TestDataNodeSerialization:
    @given(versions=st.lists(version_strategy, max_size=25))
    @settings(max_examples=100)
    def test_roundtrip(self, versions):
        node = make_data_node(versions, region=Rectangle(KeyRange(0, 2000), TimeRange(0, None)))
        # Keys generated above always lie inside the region.
        image = node.encode()
        decoded = DataNode.decode(Address.magnetic(1), image)
        assert decoded.region == node.region
        assert decoded.versions == node.versions

    def test_roundtrip_with_provisional_and_tombstone(self):
        versions = [
            Version(key="k", timestamp=None, value=b"prov", txn_id=12),
            Version(key="k", timestamp=9, value=b"", is_tombstone=True),
        ]
        node = make_data_node(versions)
        decoded = DataNode.decode(node.address, node.encode())
        assert decoded.versions == tuple(versions)

    def test_serialized_size_upper_bounds_encoding(self):
        versions = [Version(key=i, timestamp=i, value=b"v" * i) for i in range(1, 20)]
        node = make_data_node(versions)
        assert len(node.encode()) <= node.serialized_size()

    def test_decode_wrong_tag_rejected(self):
        with pytest.raises(SerializationError):
            DataNode.decode(Address.magnetic(0), b"\x00junk")

    def test_historical_region_roundtrip(self):
        node = make_data_node(
            [Version(key=1, timestamp=1, value=b"old")],
            region=Rectangle(KeyRange(0, 10), TimeRange(0, 5)),
        )
        decoded = DataNode.decode(node.address, node.encode())
        assert decoded.region.times.end == 5


class TestIndexEntry:
    def test_historical_flag_follows_address(self):
        historical = IndexEntry(
            child=Address.historical(0, 0, 100),
            region=Rectangle(KeyRange(0, 10), TimeRange(0, 5)),
        )
        current = IndexEntry(
            child=Address.magnetic(3),
            region=Rectangle(KeyRange(0, 10), TimeRange(5, None)),
        )
        assert historical.is_historical and not historical.is_current
        assert current.is_current and not current.is_historical

    def test_serialized_size_counts_key_bounds(self):
        bounded = IndexEntry(
            child=Address.magnetic(1),
            region=Rectangle(KeyRange(0, 10), TimeRange(0, None)),
        )
        unbounded = IndexEntry(
            child=Address.magnetic(1),
            region=Rectangle(KeyRange(None, None), TimeRange(0, None)),
        )
        sizes = [
            IndexNode(Address.magnetic(2), Rectangle.full(), [entry]).serialized_size()
            for entry in (bounded, unbounded)
        ]
        assert sizes[0] == sizes[1] + 2 * 9  # two int bounds


def make_index_node(entries, region=None, level=1):
    return IndexNode(
        address=Address.magnetic(100),
        region=region or Rectangle.full(),
        entries=list(entries),
        level=level,
    )


def tiling_entries():
    """Four entries tiling the full plane: key split at 50, time split at 10."""
    return [
        IndexEntry(Address.historical(0, 0, 64), Rectangle(KeyRange(None, 50), TimeRange(0, 10))),
        IndexEntry(Address.historical(1, 1, 64), Rectangle(KeyRange(50, None), TimeRange(0, 10))),
        IndexEntry(Address.magnetic(5), Rectangle(KeyRange(None, 50), TimeRange(10, None))),
        IndexEntry(Address.magnetic(6), Rectangle(KeyRange(50, None), TimeRange(10, None))),
    ]


class TestIndexNode:
    def test_find_child_unique_containment(self):
        node = make_index_node(tiling_entries())
        assert node.find_child(10, 5).child == Address.historical(0, 0, 64)
        assert node.find_child(10, 10).child == Address.magnetic(5)
        assert node.find_child(60, 3).child == Address.historical(1, 1, 64)
        assert node.find_child(60, 99).child == Address.magnetic(6)

    def test_find_child_no_cover_raises(self):
        node = make_index_node(tiling_entries()[:2])  # only historical halves
        with pytest.raises(NodeError):
            node.find_child(10, 50)

    def test_find_child_overlap_raises(self):
        entries = tiling_entries()
        entries.append(entries[-1])  # duplicate current entry -> double coverage
        node = make_index_node(entries)
        with pytest.raises(NodeError):
            node.find_child(60, 99)

    def test_children_overlapping(self):
        node = make_index_node(tiling_entries())
        region = Rectangle(KeyRange(0, 60), TimeRange(10, 11))
        overlapping = node.children_overlapping(region)
        assert {child.page_id for child in overlapping} == {5, 6}

    def test_replace_entry(self):
        entries = tiling_entries()
        node = make_index_node(entries)
        replacement = [
            IndexEntry(Address.magnetic(7), Rectangle(KeyRange(None, 20), TimeRange(10, None))),
            IndexEntry(Address.magnetic(8), Rectangle(KeyRange(20, 50), TimeRange(10, None))),
        ]
        node.replace_entry(entries[2], replacement)
        assert len(node.entries) == 5
        assert node.find_child(5, 50).child == Address.magnetic(7)
        assert node.find_child(30, 50).child == Address.magnetic(8)

    def test_replace_missing_entry_raises(self):
        node = make_index_node(tiling_entries())
        stranger = IndexEntry(Address.magnetic(99), Rectangle.full())
        with pytest.raises(NodeError):
            node.replace_entry(stranger, [stranger])

    def test_roundtrip(self):
        node = make_index_node(tiling_entries(), level=3)
        decoded = IndexNode.decode(node.address, node.encode())
        assert decoded.level == 3
        assert decoded.region == node.region
        assert decoded.entries == node.entries

    def test_fits_its_serialized_size(self):
        node = make_index_node(tiling_entries())
        size = node.serialized_size()
        assert node.fits(size)
        assert not node.fits(size - 1)


class TestDecodeDispatch:
    def test_decode_node_dispatches_by_tag(self):
        data_node = make_data_node([Version(key=1, timestamp=1, value=b"v")])
        index_node = make_index_node(tiling_entries())
        assert isinstance(decode_node(data_node.address, data_node.encode()), DataNode)
        assert isinstance(decode_node(index_node.address, index_node.encode()), IndexNode)

    def test_is_data_node_image(self):
        data_node = make_data_node()
        index_node = make_index_node(tiling_entries())
        assert is_data_node_image(data_node.encode())
        assert not is_data_node_image(index_node.encode())
        assert not is_data_node_image(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializationError):
            decode_node(Address.magnetic(0), b"\xffgarbage")
        with pytest.raises(SerializationError):
            decode_node(Address.magnetic(0), b"")


def linear_find_child(node, key, timestamp):
    """The pre-bisect reference: exhaustive containment scan."""
    matches = [
        entry for entry in node.entries if entry.region.contains_point(key, timestamp)
    ]
    if len(matches) != 1:
        raise NodeError(f"expected one child, found {len(matches)}")
    return matches[0]


def linear_find_current_child(node, key):
    """The pre-bisect reference for the current-child search rule."""
    matches = [
        entry
        for entry in node.entries
        if entry.is_current and entry.region.keys.contains(key)
    ]
    if len(matches) != 1:
        raise NodeError(f"expected one current child, found {len(matches)}")
    return matches[0]


def grid_index_node(key_cuts, time_cuts):
    """A realistic TSB index layout: key stripes, time-split cells per stripe.

    Every key stripe gets one historical entry per time cell plus one
    current (magnetic) entry for the open-ended latest cell — the shape
    time and key splits actually produce.
    """
    entries = []
    page = 0
    lows = [None] + list(key_cuts)
    highs = list(key_cuts) + [None]
    for low, high in zip(lows, highs):
        start = 0
        for cut in time_cuts:
            entries.append(
                IndexEntry(
                    Address.historical(page, page, 64),
                    Rectangle(KeyRange(low, high), TimeRange(start, cut)),
                )
            )
            page += 1
            start = cut
        entries.append(
            IndexEntry(
                Address.magnetic(page),
                Rectangle(KeyRange(low, high), TimeRange(start, None)),
            )
        )
        page += 1
    return make_index_node(entries)


class TestBisectSearchAgainstLinearReference:
    """The bisect-based node searches must answer exactly like the linear
    scans they replaced — including on the empty/degenerate layouts and at
    first/last stripe boundaries."""

    def test_empty_index_node_raises_on_both_searches(self):
        node = make_index_node([])
        with pytest.raises(NodeError):
            node.find_child(1, 1)
        with pytest.raises(NodeError):
            node.find_current_child(1)

    def test_single_entry_node_boundaries(self):
        entry = IndexEntry(Address.magnetic(3), Rectangle(KeyRange(10, 20), TimeRange(0, None)))
        node = make_index_node([entry])
        assert node.find_current_child(10) is entry          # low edge inclusive
        assert node.find_current_child(19) is entry
        assert node.find_child(10, 0) is entry
        with pytest.raises(NodeError):
            node.find_current_child(20)                      # high edge exclusive
        with pytest.raises(NodeError):
            node.find_current_child(9)

    def test_first_and_last_stripe_boundaries(self):
        node = grid_index_node(key_cuts=(10, 50, 90), time_cuts=(5, 9))
        # The unbounded first and last stripes, probed at their seams.
        for key in (0, 9, 10, 49, 50, 89, 90, 10_000):
            assert node.find_current_child(key) is linear_find_current_child(node, key)
            for timestamp in (0, 4, 5, 8, 9, 10_000):
                assert node.find_child(key, timestamp) is linear_find_child(
                    node, key, timestamp
                )

    def test_duplicate_key_ranges_with_distinct_time_ranges(self):
        """Time splits stack entries with identical key ranges; only the
        timestamp separates them, and the current search must never pick a
        historical twin."""
        node = grid_index_node(key_cuts=(50,), time_cuts=(3, 7, 11))
        for key in (0, 49, 50, 99):
            current = node.find_current_child(key)
            assert current.is_current
            for timestamp in (0, 2, 3, 6, 7, 10, 11, 12):
                entry = node.find_child(key, timestamp)
                assert entry is linear_find_child(node, key, timestamp)
                assert entry.region.contains_point(key, timestamp)

    def test_replacing_an_entry_taken_from_the_node_compares_no_others(self, monkeypatch):
        node = grid_index_node(key_cuts=(10, 50, 90), time_cuts=(5, 9))
        old = node.find_current_child(95)  # the last entry of the list
        compared = []
        monkeypatch.setattr(IndexEntry, "__eq__", lambda a, b: compared.append(a) or a is b)
        node.replace_entry(old, [])
        assert compared == []
        assert len(node.entries) == 11

    def test_overlap_is_still_detected_after_bisect(self):
        entries = grid_index_node(key_cuts=(50,), time_cuts=(5,)).entries
        node = make_index_node(list(entries) + [entries[-1]])  # duplicated current
        with pytest.raises(NodeError):
            node.find_current_child(60)

    @settings(max_examples=200, deadline=None)
    @given(
        key_cuts=st.lists(st.integers(1, 999), min_size=0, max_size=6, unique=True),
        time_cuts=st.lists(st.integers(1, 99), min_size=0, max_size=4, unique=True),
        probes=st.lists(
            st.tuples(st.integers(-5, 1005), st.integers(0, 105)),
            min_size=1,
            max_size=20,
        ),
    )
    def test_property_bisect_equals_linear_scan(self, key_cuts, time_cuts, probes):
        node = grid_index_node(sorted(key_cuts), sorted(time_cuts))
        for key, timestamp in probes:
            assert node.find_child(key, timestamp) is linear_find_child(
                node, key, timestamp
            )
            assert node.find_current_child(key) is linear_find_current_child(node, key)


class TestDataNodeLookupBoundaries:
    """Per-key lookups on the indexed data node: degenerate shapes and
    duplicate keys at distinct timestamps."""

    def test_empty_node_lookups(self):
        node = make_data_node([])
        assert node.versions_for_key(1) == []
        assert node.latest_for_key(1) is None
        assert node.version_as_of(1, 100) is None
        assert node.keys() == []

    def test_single_version_boundaries(self):
        node = make_data_node([Version(key=5, timestamp=10, value=b"v")])
        assert node.version_as_of(5, 9) is None
        assert node.version_as_of(5, 10).value == b"v"     # exact stamp inclusive
        assert node.version_as_of(5, 11).value == b"v"
        assert node.latest_for_key(5).value == b"v"

    def test_duplicate_keys_distinct_timestamps_stay_ordered(self):
        stamps = [50, 10, 30, 20, 40]
        node = make_data_node(
            [Version(key=9, timestamp=stamp, value=b"v%d" % stamp) for stamp in stamps]
        )
        assert [v.timestamp for v in node.versions_for_key(9)] == sorted(stamps)
        for stamp in stamps:
            assert node.version_as_of(9, stamp).timestamp == stamp
            previous = [s for s in stamps if s <= stamp - 1]
            expected = max(previous) if previous else None
            got = node.version_as_of(9, stamp - 1)
            assert (got.timestamp if got else None) == expected
