"""Tests for the structural invariant checker.

A checker that always says "fine" is worthless, so most tests here corrupt a
healthy tree in a specific way and assert the checker names the violated
invariant.
"""

from types import SimpleNamespace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core import ThresholdPolicy, TSBTree, check_tree
from repro.core.checker import _check_data_node, _check_index_node, assert_tree_valid
from repro.core.nodes import DataNode, IndexEntry, IndexNode
from repro.core.records import KeyRange, Rectangle, TimeRange, Version
from repro.storage.device import Address


def build_tree(operations=300, page_size=512):
    tree = TSBTree(page_size=page_size, policy=ThresholdPolicy(0.5))
    for step in range(operations):
        key = step % 30
        tree.insert(key, f"value-{key}-{step}".encode(), timestamp=step + 1)
    return tree


def violated_invariants(tree):
    return {violation.invariant for violation in check_tree(tree)}


class TestHealthyTrees:
    def test_empty_tree_is_valid(self):
        assert check_tree(TSBTree(page_size=512)) == []

    def test_populated_tree_is_valid(self):
        tree = build_tree()
        assert check_tree(tree) == []
        assert_tree_valid(tree)  # must not raise

    def test_tree_with_provisional_data_is_valid(self):
        tree = build_tree(operations=100)
        tree.insert_provisional(999, b"uncommitted", txn_id=5)
        assert check_tree(tree) == []


def find_current_index_node(tree):
    for node in tree.index_nodes():
        if node.address.is_magnetic and node.entries:
            return node
    pytest.skip("tree has no current index node")


def find_current_data_node(tree):
    for node in tree.data_nodes():
        if node.address.is_magnetic and node.versions:
            return node
    pytest.skip("tree has no populated current data node")


class TestCorruptionDetection:
    def test_detects_coverage_gap(self):
        tree = build_tree()
        node = find_current_index_node(tree)
        node.entries = node.entries[:-1] if len(node.entries) > 1 else node.entries
        tree._store_node(node)
        assert "tiling" in violated_invariants(tree)

    def test_detects_double_coverage(self):
        tree = build_tree()
        node = find_current_index_node(tree)
        node.entries = list(node.entries) + [node.entries[-1]]
        tree._store_node(node)
        assert "tiling" in violated_invariants(tree)

    def test_detects_an_entry_wider_than_its_child(self):
        """Widened past its node's own edge, the entry still tiles the node
        once clipped — only the entry-rectangle invariant can see it."""
        tree = TSBTree(page_size=512, policy=ThresholdPolicy(0.5))
        for step in range(4000):
            tree.insert(step * 37 % 600, b"value-%d" % step, timestamp=step + 1)
        assert tree.height >= 3 and check_tree(tree) == []
        node, victim = next(
            (node, entry)
            for node in tree.index_nodes()
            if node.address.is_magnetic and node.region.keys.low is not None
            for entry in node.entries
            if entry.region.keys.low == node.region.keys.low
        )
        widened = Rectangle(KeyRange(None, victim.region.keys.high), victim.region.times)
        node.replace_entry(victim, [IndexEntry(child=victim.child, region=widened)])
        tree._store_node(node)
        assert violated_invariants(tree) == {"entry_region"}
        assert len(check_tree(tree)) == 1

    def test_detects_wrong_tier_reference(self):
        tree = build_tree()
        node = find_current_index_node(tree)
        current_entries = [entry for entry in node.entries if entry.is_current]
        if not current_entries:
            pytest.skip("no current entry to corrupt")
        victim = current_entries[0]
        # Claim the (still current) child actually lives on the optical disk.
        forged = IndexEntry(
            child=type(victim.child).historical(9999, 0, 64),
            region=victim.region,
        )
        node.replace_entry(victim, [forged])
        tree._store_node(node)
        problems = violated_invariants(tree)
        assert "tier" in problems or "reachability" in problems

    def test_detects_key_outside_node_range(self):
        tree = build_tree()
        node = find_current_data_node(tree)
        bounded = None
        for candidate in tree.data_nodes():
            if candidate.address.is_magnetic and candidate.region.keys.high is not None:
                bounded = candidate
                break
        if bounded is None:
            pytest.skip("no bounded data node")
        bounded.versions = (
            *bounded.versions,
            Version(key=bounded.region.keys.high, timestamp=tree.now, value=b"stray"),
        )
        tree._store_node(bounded)
        assert "containment" in violated_invariants(tree)

    def test_detects_oversized_current_node(self):
        tree = build_tree()
        node = find_current_data_node(tree)
        # Stuff the node far beyond the page size and hand it to the pool
        # directly, bypassing `_store_node`'s own size check.
        key = node.region.keys.low if node.region.keys.low is not None else 0
        node.versions = (
            *node.versions,
            *[Version(key=key, timestamp=tree.now, value=bytes(32)) for _ in range(200)],
        )
        assert len(node.encode()) > tree.page_size
        tree.cache.write(node.address, node)
        assert "size" in violated_invariants(tree)

    def test_detects_unknown_child_address(self):
        tree = build_tree()
        node = find_current_index_node(tree)
        victim = node.entries[0]
        forged = IndexEntry(child=type(victim.child).magnetic(987654), region=victim.region)
        node.replace_entry(victim, [forged])
        tree._store_node(node)
        assert "reachability" in violated_invariants(tree)

    def test_detects_shared_current_node(self):
        tree = build_tree()
        node = find_current_index_node(tree)
        current_entries = [entry for entry in node.entries if entry.is_current]
        if len(node.entries) < 1 or not current_entries:
            pytest.skip("nothing to duplicate")
        # Manufacture a second parent referencing an existing current child.
        extra_parent = IndexNode(
            address=tree.magnetic.allocate_page(),
            region=Rectangle(KeyRange(None, None), TimeRange(0, None)),
            entries=[current_entries[0]],
            level=node.level,
        )
        tree._store_node(extra_parent)
        # Graft the extra parent into the root so it is reachable.
        root = tree._load_node(tree.root_address)
        if not isinstance(root, IndexNode):
            pytest.skip("root is a data node")
        root.entries = list(root.entries) + [
            IndexEntry(child=extra_parent.address, region=extra_parent.region)
        ]
        tree._store_node(root)
        problems = violated_invariants(tree)
        assert "dag" in problems

    def test_detects_provisional_version_in_history(self):
        tree = build_tree()
        historical_nodes = [n for n in tree.data_nodes() if n.address.is_historical]
        if not historical_nodes:
            pytest.skip("no historical nodes produced")
        # Historical regions are write-once, so fabricate the violation by
        # checking the checker logic on a decoded copy grafted as magnetic.
        victim = historical_nodes[0]
        stray = Version(key=victim.versions[0].key, timestamp=None, value=b"p", txn_id=1)
        victim.versions = (*victim.versions, stray)
        from repro.core.checker import _check_data_node  # noqa: PLC0415

        violations = []
        _check_data_node(tree, victim, violations)
        assert any(v.invariant == "transactions" for v in violations)

    def test_detects_a_root_that_does_not_cover_the_plane(self):
        """The shape an unfinished key split of a root leaf leaves: the root
        narrowed to its left half, the right half's key gone.  The node is
        sound on its own, so only the root invariant can see it."""
        tree = TSBTree(page_size=1024)
        tree.insert(1, b"a" * 500)
        tree.insert(2, b"x" * 10)
        root = tree._load_node(tree.root_address)
        root.remove_version(root.latest_for_key(2))
        root.region = Rectangle(KeyRange(None, 2), root.region.times)
        tree._store_node(root)
        assert violated_invariants(tree) == {"root"}

        tree = build_tree()
        root = tree._load_node(tree.root_address)
        root.region = Rectangle(root.region.keys, TimeRange(1, None))
        tree._store_node(root)
        assert "root" in violated_invariants(tree)

    def test_detects_an_index_node_no_higher_than_its_index_child(self):
        tree = TSBTree(page_size=512, policy=ThresholdPolicy(0.5))
        for step in range(4000):
            tree.insert(step * 37 % 600, b"value-%d" % step, timestamp=step + 1)
        node = next(
            node
            for node in tree.index_nodes()
            if node.address.is_magnetic and node.level >= 2
        )
        # A node's level is read-only: the corrupt one is a new node.
        tree._store_node(IndexNode(node.address, node.region, node.entries, level=1))
        assert violated_invariants(tree) == {"levels"}


# ----------------------------------------------------------------------
# Tiling: the sweep against a brute-force cell count
# ----------------------------------------------------------------------
KEY_POINTS = range(13)


def _covers(keys, times, key_cell, time_cell):
    """Whether the rectangle ``keys`` x ``times`` covers the grid cell."""
    return _range_covers(keys.low, keys.high, key_cell) and _range_covers(
        times.start, times.end, time_cell
    )


def _range_covers(low, high, cell):
    """Whether ``[low, high)`` (``None``: unbounded) covers ``cell``: a bound
    ``("point", b)`` or the open interval ``("open", a, b)`` between two."""
    if cell[0] == "point":
        point = cell[1]
        return (low is None or low <= point) and (high is None or point < high)
    below, above = cell[1], cell[2]
    return (low is None or (below is not None and low <= below)) and (
        high is None or (above is not None and above <= high)
    )


def _cells(bounds):
    """Every bound as a point cell and every open interval around them."""
    ordered = sorted(bounds)
    return [("point", bound) for bound in ordered] + [
        ("open", below, above)
        for below, above in zip([None] + ordered, ordered + [None])
    ]


def oracle_finds_a_bad_cell(node):
    """Whether some cell of the node's compressed key x time grid is covered
    by no child or by more than one (boundaries are cells of their own)."""
    regions = [entry.region for entry in node.entries]
    rectangles = regions + [node.region]
    key_bounds = {
        bound
        for region in rectangles
        for bound in (region.keys.low, region.keys.high)
        if bound is not None
    }
    time_bounds = {
        bound
        for region in rectangles
        for bound in (region.times.start, region.times.end)
        if bound is not None
    }
    for key_cell in _cells(key_bounds):
        for time_cell in _cells(time_bounds):
            if not _covers(node.region.keys, node.region.times, key_cell, time_cell):
                continue
            covering = sum(
                _covers(region.keys, region.times, key_cell, time_cell)
                for region in regions
            )
            if covering != 1:
                return True
    return False


@st.composite
def split_index_nodes(draw):
    """An index node whose entries are its region cut by key and time splits,
    then perhaps with one entry dropped, doubled or with one bound moved."""
    as_key = (lambda at: at) if draw(st.booleans()) else (lambda at: "k" + chr(97 + at))
    low = draw(st.one_of(st.none(), st.integers(0, 5)))
    high = draw(st.one_of(st.none(), st.integers(7, 12)))
    start = draw(st.integers(0, 5))
    end = draw(st.one_of(st.none(), st.integers(start + 1, start + 8)))
    cells = [[low, high, start, end]]
    for _ in range(draw(st.integers(0, 6))):
        cell = cells.pop(draw(st.integers(0, len(cells) - 1)))
        cut_low, cut_high, cut_start, cut_end = cell
        inside = [
            point
            for point in KEY_POINTS
            if (cut_low is None or cut_low < point) and (cut_high is None or point < cut_high)
        ]
        if draw(st.booleans()) and inside:
            key = draw(st.sampled_from(inside))
            cells += [[cut_low, key, cut_start, cut_end], [key, cut_high, cut_start, cut_end]]
        elif (cut_end or cut_start + 10) - cut_start >= 2:
            stamp = draw(st.integers(cut_start + 1, (cut_end or cut_start + 10) - 1))
            cells += [[cut_low, cut_high, cut_start, stamp], [cut_low, cut_high, stamp, cut_end]]
        else:
            cells.append(cell)
    fault = draw(st.sampled_from(["none", "drop", "double", "move"]))
    at = draw(st.integers(0, len(cells) - 1))
    if fault == "drop":
        del cells[at]
    elif fault == "double":
        cells.append(list(cells[at]))
    elif fault == "move":
        field = draw(st.integers(0, 3))
        if field < 2:
            cells[at][field] = draw(st.one_of(st.none(), st.sampled_from(KEY_POINTS)))
        elif field == 2:
            cells[at][2] = draw(st.integers(0, 14))
        else:
            cells[at][3] = draw(st.one_of(st.none(), st.integers(1, 15)))
    entries = []
    for cut_low, cut_high, cut_start, cut_end in cells:
        assume(cut_low is None or cut_high is None or cut_low < cut_high)
        assume(cut_end is None or cut_start < cut_end)
        child = (
            Address.magnetic(len(entries) + 1)
            if cut_end is None
            else Address.historical(len(entries) + 1, 0, 64)
        )
        keys = KeyRange(
            None if cut_low is None else as_key(cut_low),
            None if cut_high is None else as_key(cut_high),
        )
        entries.append(IndexEntry(child, Rectangle(keys, TimeRange(cut_start, cut_end))))
    region = Rectangle(
        KeyRange(None if low is None else as_key(low), None if high is None else as_key(high)),
        TimeRange(start, end),
    )
    assume(all(entry.region.overlaps(region) for entry in entries))
    return IndexNode(Address.magnetic(0), region, entries, level=1)


@pytest.mark.differential
@given(node=split_index_nodes())
def test_the_tiling_sweep_agrees_with_a_brute_force_cell_count(node):
    violations = []
    _check_index_node(SimpleNamespace(page_size=4096), node, {}, violations)
    tiling = [violation for violation in violations if violation.invariant == "tiling"]
    assert bool(tiling) == oracle_finds_a_bad_cell(node)


# ----------------------------------------------------------------------
# Data nodes: checked from their columns, opened or built alike
# ----------------------------------------------------------------------
CURRENT = Address.magnetic(3)
HISTORICAL = Address.historical(3, 0, 64)


def data_node_violations(node, page_size=512):
    """What ``check_tree`` reports of ``node`` as one of a tree's data nodes."""
    violations = []
    _check_data_node(SimpleNamespace(page_size=page_size), node, violations)
    return violations


def data_node_case(name, as_key):
    """``(node, expected invariants)`` for one named data-node case."""
    versions = [
        Version(as_key(10), 2, b"before the region start"),
        Version(as_key(10), 7, b"inside it"),
        Version(as_key(11), 3, b"", is_tombstone=True),
        Version(as_key(12), 9, b"stamped", txn_id=4),
        Version(as_key(13), 6, b"x"),
        Version(as_key(13), 6, b"same stamp"),
    ]
    keys = KeyRange(as_key(10), as_key(20))
    current = Rectangle(keys, TimeRange(5, None))
    closed = Rectangle(keys, TimeRange(5, 40))
    provisional = Version(as_key(14), None, b"uncommitted", txn_id=8)
    cases = {
        "healthy current": (CURRENT, current, versions + [provisional], set()),
        "healthy historical": (HISTORICAL, closed, versions, set()),
        "key outside": (
            CURRENT,
            current,
            versions + [Version(as_key(25), 8, b"above"), Version(as_key(1), 8, b"below")],
            {"containment"},
        ),
        "provisional in history": (
            HISTORICAL,
            closed,
            versions + [provisional],
            {"transactions"},
        ),
        "stamp at the end": (
            HISTORICAL,
            closed,
            versions + [Version(as_key(15), 40, b"at"), Version(as_key(15), 41, b"past")],
            {"containment"},
        ),
        "oversized": (
            CURRENT,
            current,
            versions + [Version(as_key(16), step, bytes(32)) for step in range(20)],
            {"size"},
        ),
    }
    address, region, node_versions, expected = cases[name]
    return DataNode(address, region, node_versions), expected


DATA_NODE_CASES = [
    "healthy current",
    "healthy historical",
    "key outside",
    "provisional in history",
    "stamp at the end",
    "oversized",
]


def count_built_versions(monkeypatch):
    """A list that grows by one for every ``Version`` a node builds."""
    from repro.core import nodes

    built, decoded_version = [], nodes.decoded_version
    monkeypatch.setattr(nodes, "decoded_version", lambda *f: built.append(f) or decoded_version(*f))
    return built


@pytest.mark.parametrize("as_key", [int, lambda at: f"key-{at:03d}"], ids=["int", "str"])
@pytest.mark.parametrize("case", DATA_NODE_CASES)
def test_a_data_node_reports_the_same_violations_opened_or_built(case, as_key, monkeypatch):
    built, expected = data_node_case(case, as_key)
    opened = DataNode.decode(built.address, built.encode())
    versions = count_built_versions(monkeypatch)
    violations = data_node_violations(opened)
    assert versions == []  # checked from its columns
    assert violations == data_node_violations(built)
    assert {violation.invariant for violation in violations} == expected


def test_checking_a_tree_builds_no_version(monkeypatch):
    tree = build_tree(operations=1500)
    tree.checkpoint()
    reopened = TSBTree.open(tree.magnetic, tree.historical, cache_pages=4096)
    assert reopened.current_keys()  # loads the current tree
    versions = count_built_versions(monkeypatch)
    assert check_tree(reopened) == []
    assert versions == []
