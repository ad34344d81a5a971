"""Executable reproductions of the paper's worked figures.

The paper's figures are structural examples rather than measured plots; each
``figure_N`` function below rebuilds the situation the figure illustrates
using the public APIs, asserts the structural outcome the figure shows, and
returns a :class:`FigureResult` describing what happened.  The figure tests
(``tests/core/test_figures.py`` and ``tests/wobt/test_figures.py``) assert on
these results, and ``examples/paper_figures.py`` prints them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.nodes import DataNode, IndexEntry, IndexNode
from repro.core.policy import AlwaysKeySplitPolicy
from repro.core.records import KeyRange, Rectangle, TimeRange, Version
from repro.core.split import (
    SlotColumns,
    index_key_split_slots,
    index_time_split_slots,
    local_index_split_time,
    time_split_slots,
)
from repro.core.tsb_tree import TSBTree
from repro.storage.device import Address
from repro.storage.worm import WormDisk
from repro.wobt.wobt_tree import WOBT


@dataclass
class FigureResult:
    """Outcome of re-running one of the paper's figures."""

    figure: str
    description: str
    details: Dict[str, object] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def summary(self) -> str:
        status = "ok" if self.all_checks_pass else "FAILED"
        return f"{self.figure}: {self.description} [{status}]"


# ----------------------------------------------------------------------
# Figure 1 — stepwise constant data
# ----------------------------------------------------------------------
def figure_1() -> FigureResult:
    """An account balance stays constant between transactions."""
    tree = TSBTree(page_size=1024)
    balance_history = [(1, 50), (3, 100), (5, 50), (7, 100), (9, 100)]
    for timestamp, balance in balance_history:
        tree.insert("account", f"balance={balance}".encode(), timestamp=timestamp)

    observed = {}
    for probe in range(1, 11):
        version = tree.search_as_of("account", probe)
        observed[probe] = None if version is None else int(version.value.split(b"=")[1])

    expected = {}
    for probe in range(1, 11):
        value = None
        for timestamp, balance in balance_history:
            if timestamp <= probe:
                value = balance
        expected[probe] = value

    return FigureResult(
        figure="Figure 1",
        description="stepwise-constant account balance",
        details={"observed": observed, "expected": expected},
        checks={
            "balances step at transaction times": observed == expected,
            "balance before first transaction is absent": tree.search_as_of("account", 0) is None,
        },
    )


# ----------------------------------------------------------------------
# Figure 2 — WOBT index node in insertion order with repeated keys
# ----------------------------------------------------------------------
def figure_2() -> FigureResult:
    """A WOBT index node keeps entries in insertion order; keys repeat."""
    worm = WormDisk(sector_size=64)
    wobt = WOBT(worm=worm, node_sectors=4)
    timestamp = 0
    for round_index in range(12):
        for key in (50, 100):
            timestamp += 1
            wobt.insert(key, f"value-{key}-{round_index}".encode(), timestamp=timestamp)

    repeated_key_nodes = []
    insertion_ordered = True
    for _region, (_address, view) in wobt._nodes.items():
        if view.is_leaf:
            continue
        index_keys = [entry.key for entry in view.index_entries()]
        if len(index_keys) != len(set(map(str, index_keys))):
            repeated_key_nodes.append(view.address.page_id)
        stamps = [entry.timestamp for entry in view.index_entries()]
        if stamps != sorted(stamps):
            insertion_ordered = False

    return FigureResult(
        figure="Figure 2",
        description="WOBT index node entries are in insertion order, keys may repeat",
        details={"index_nodes_with_repeated_keys": repeated_key_nodes},
        checks={
            "some index node repeats a key": bool(repeated_key_nodes),
            "entries are in insertion (timestamp) order": insertion_ordered,
        },
    )


# ----------------------------------------------------------------------
# Figure 3 — WOBT split by key value and current time
# ----------------------------------------------------------------------
def figure_3() -> FigureResult:
    """Splitting a WOBT data node by key and current time leaves the old node in place."""
    worm = WormDisk(sector_size=64)
    # Five sectors: one for the node header, four for the individually
    # burned insertions, matching the four-record node of the figure.
    wobt = WOBT(worm=worm, node_sectors=5)
    wobt.insert(50, b"Joe is a customer", timestamp=1)
    wobt.insert(60, b"Pete is a customer", timestamp=2)
    wobt.insert(70, b"Mary is a customer", timestamp=3)
    wobt.insert(70, b"Sue supersedes Mary", timestamp=4)
    nodes_before = set(wobt._nodes)
    wobt.insert(90, b"Alice is a customer", timestamp=5)
    nodes_after = set(wobt._nodes)
    new_nodes = nodes_after - nodes_before

    old_root_leaf = wobt._nodes[min(nodes_before)][1]
    new_data_nodes = [
        wobt._nodes[node_id][1] for node_id in new_nodes if wobt._nodes[node_id][1].is_leaf
    ]

    return FigureResult(
        figure="Figure 3",
        description="WOBT key-and-current-time split: two new data nodes, old node remains",
        details={
            "new_data_nodes": len(new_data_nodes),
            "key_time_splits": wobt.counters.data_key_time_splits,
            "old_node_entry_count": len(old_root_leaf.entries),
        },
        checks={
            "two new data nodes were written": len(new_data_nodes) == 2,
            "the split was by key and current time": wobt.counters.data_key_time_splits == 1,
            "the old node still holds every version": len(old_root_leaf.entries) == 4,
            "only current versions were copied": all(
                len(node.entries) == len(node.current_records()) for node in new_data_nodes
            ),
            "current search finds the newest versions": (
                wobt.search_current(70).value == b"Sue supersedes Mary"
                and wobt.search_current(90).value == b"Alice is a customer"
            ),
            "as-of search still sees the superseded version": wobt.search_as_of(70, 3).value
            == b"Mary is a customer",
        },
    )


# ----------------------------------------------------------------------
# Figure 4 — WOBT pure time split
# ----------------------------------------------------------------------
def figure_4() -> FigureResult:
    """With too few current records for two nodes, the WOBT splits by time only."""
    worm = WormDisk(sector_size=64)
    wobt = WOBT(worm=worm, node_sectors=5)
    wobt.insert(60, b"Joe", timestamp=1)
    wobt.insert(60, b"Pete", timestamp=2)
    wobt.insert(60, b"Mary", timestamp=3)
    wobt.insert(90, b"Sue", timestamp=4)
    nodes_before = set(wobt._nodes)
    wobt.insert(90, b"Alice", timestamp=5)
    new_nodes = set(wobt._nodes) - nodes_before
    new_data_nodes = [
        wobt._nodes[node_id][1] for node_id in new_nodes if wobt._nodes[node_id][1].is_leaf
    ]

    return FigureResult(
        figure="Figure 4",
        description="WOBT pure time split: one new node holding only current versions",
        details={
            "new_data_nodes": len(new_data_nodes),
            "time_splits": wobt.counters.data_time_splits,
        },
        checks={
            "exactly one new data node": len(new_data_nodes) == 1,
            "the split was by current time only": wobt.counters.data_time_splits == 1,
            "new node holds only the current versions": (
                len(new_data_nodes[0].entries) == 2 if new_data_nodes else False
            ),
            "current versions are correct": (
                wobt.search_current(60).value == b"Mary"
                and wobt.search_current(90).value == b"Alice"
            ),
        },
    )


# ----------------------------------------------------------------------
# Figure 5 — TSB-tree pure key split
# ----------------------------------------------------------------------
def figure_5() -> FigureResult:
    """A node filled only by insertions is key split; the new index entry inherits the old timestamp."""
    tree = TSBTree(page_size=512, policy=AlwaysKeySplitPolicy())
    timestamp = 0
    for key in range(0, 40):
        timestamp += 1
        tree.insert(key, f"record-{key}".encode(), timestamp=timestamp)

    root = tree._load_node(tree.root_address)
    entries: List[IndexEntry] = root.entries if isinstance(root, IndexNode) else []
    start_times = {entry.region.times.start for entry in entries}

    return FigureResult(
        figure="Figure 5",
        description="pure key split: no migration, sibling entries share the original start time",
        details={
            "data_key_splits": tree.counters.data_key_splits,
            "data_time_splits": tree.counters.data_time_splits,
            "historical_bytes": tree.counters.historical_bytes_written,
            "root_entry_start_times": sorted(start_times),
        },
        checks={
            "at least one key split happened": tree.counters.data_key_splits >= 1,
            "no time split happened": tree.counters.data_time_splits == 0,
            "nothing was migrated to the historical device": tree.counters.historical_bytes_written == 0,
            "sibling index entries inherit the original start time": start_times == {0},
            "all entries still reference the magnetic disk": all(
                entry.is_current for entry in entries
            ),
        },
    )


# ----------------------------------------------------------------------
# Figure 6 — TSB-tree time split at a chosen time
# ----------------------------------------------------------------------
def figure_6() -> FigureResult:
    """Splitting at T=4 creates no redundancy; splitting at T=5 duplicates the version alive at 5."""
    node = DataNode(
        Address.magnetic(0),
        Rectangle.full(),
        [
            Version(key=60, timestamp=1, value=b"Joe"),
            Version(key=60, timestamp=2, value=b"Pete"),
            Version(key=60, timestamp=4, value=b"Mary"),
        ],
    )
    columns = SlotColumns(node)
    split_at_4 = time_split_slots(columns, 4)
    split_at_5 = time_split_slots(columns, 5)

    def values(slots) -> List[bytes]:
        return [version.value for version in node.carve(slots, node.region).versions]

    return FigureResult(
        figure="Figure 6",
        description="choice of time-split value controls redundancy",
        details={
            "T=4 historical": values(split_at_4.historical),
            "T=4 current": values(split_at_4.current),
            "T=5 historical": values(split_at_5.historical),
            "T=5 current": values(split_at_5.current),
        },
        checks={
            "T=4: Joe and Pete migrate": set(values(split_at_4.historical)) == {b"Joe", b"Pete"},
            "T=4: Mary stays current only (no redundancy)": split_at_4.redundant == (),
            "T=5: all three versions migrate": set(values(split_at_5.historical))
            == {b"Joe", b"Pete", b"Mary"},
            "T=5: Mary is stored in both nodes": values(split_at_5.redundant) == [b"Mary"],
        },
    )


# ----------------------------------------------------------------------
# Figure 7 — index keyspace split copies straddling historical entries
# ----------------------------------------------------------------------
def figure_7() -> FigureResult:
    """An entry whose key range strictly contains the split value is copied to both halves."""
    historical_child = Address.historical(0, sector_start=0, length=256)
    left_child = Address.magnetic(10)
    right_child = Address.magnetic(11)
    entries = [
        IndexEntry(child=left_child, region=Rectangle(KeyRange(50, 100), TimeRange(8, None))),
        IndexEntry(child=right_child, region=Rectangle(KeyRange(100, None), TimeRange(8, None))),
        IndexEntry(child=historical_child, region=Rectangle(KeyRange(50, None), TimeRange(1, 8))),
    ]
    node = IndexNode(Address.magnetic(0), Rectangle.full(), entries)
    left, right, copied = index_key_split_slots(node, 100)

    return FigureResult(
        figure="Figure 7",
        description="index keyspace split duplicates the historical entry spanning the split value",
        details={
            "left_entries": len(left),
            "right_entries": len(right),
            "copied_entries": copied,
        },
        checks={
            "exactly one entry was copied to both halves": copied == 1,
            "the copied entry references the historical database": all(
                entries[slot].is_historical for slot in set(left) & set(right)
            ),
            "left half keeps the low-key current child": 0 in left and 0 not in right,
            "right half keeps the high-key current child": 1 in right and 1 not in left,
        },
    )


# ----------------------------------------------------------------------
# Figure 8 — local index-node time split
# ----------------------------------------------------------------------
def figure_8() -> FigureResult:
    """When every reference before T is historical, the index node can be time split locally."""
    entries = [
        IndexEntry(
            child=Address.historical(0, 0, 128),
            region=Rectangle(KeyRange(None, 80), TimeRange(0, 4)),
        ),
        IndexEntry(
            child=Address.historical(1, 1, 128),
            region=Rectangle(KeyRange(80, None), TimeRange(0, 4)),
        ),
        IndexEntry(
            child=Address.magnetic(20),
            region=Rectangle(KeyRange(None, 80), TimeRange(4, None)),
        ),
        IndexEntry(
            child=Address.magnetic(21),
            region=Rectangle(KeyRange(80, None), TimeRange(4, None)),
        ),
    ]
    node = IndexNode(Address.magnetic(0), Rectangle.full(), entries)
    split_time = local_index_split_time(node)
    historical, current, copied = (
        index_time_split_slots(node, split_time) if split_time is not None else ([], [], None)
    )

    return FigureResult(
        figure="Figure 8",
        description="local index time split migrates only historical references",
        details={"split_time": split_time},
        checks={
            "a local split time exists": split_time == 4,
            "only historical entries migrate": bool(historical)
            and all(entries[slot].is_historical for slot in historical),
            "current entries stay behind": bool(current)
            and all(entries[slot].is_current for slot in current),
            "nothing needed to be copied to both": copied == 0,
        },
    )


# ----------------------------------------------------------------------
# Figure 9 — an index node that cannot be locally time split
# ----------------------------------------------------------------------
def figure_9() -> FigureResult:
    """A data node that was never time split blocks a local index time split."""
    entries = [
        # This current data node has covered its key range since time 0 —
        # there is no time before which all references are historical.
        IndexEntry(
            child=Address.magnetic(30),
            region=Rectangle(KeyRange(None, 60), TimeRange(0, None)),
        ),
        IndexEntry(
            child=Address.historical(2, 2, 128),
            region=Rectangle(KeyRange(60, None), TimeRange(0, 5)),
        ),
        IndexEntry(
            child=Address.magnetic(31),
            region=Rectangle(KeyRange(60, None), TimeRange(5, None)),
        ),
    ]
    split_time = local_index_split_time(IndexNode(Address.magnetic(0), Rectangle.full(), entries))

    return FigureResult(
        figure="Figure 9",
        description="no local index time split exists while a current child spans all of time",
        details={"split_time": split_time},
        checks={
            "no local split time exists": split_time is None,
        },
    )


ALL_FIGURES = [
    figure_1,
    figure_2,
    figure_3,
    figure_4,
    figure_5,
    figure_6,
    figure_7,
    figure_8,
    figure_9,
]

#: Which engine each figure exercises: Figures 2-4 illustrate the WOBT
#: (paper section 2), the rest the TSB-tree.  The naive baseline has no
#: worked figures in the paper.
FIGURE_ENGINES = {
    figure_1: "tsb",
    figure_2: "wobt",
    figure_3: "wobt",
    figure_4: "wobt",
    figure_5: "tsb",
    figure_6: "tsb",
    figure_7: "tsb",
    figure_8: "tsb",
    figure_9: "tsb",
}

_untagged = [figure.__name__ for figure in ALL_FIGURES if figure not in FIGURE_ENGINES]
if _untagged:  # fail at import, not inside the --engine filter
    raise RuntimeError(f"figures missing an engine tag in FIGURE_ENGINES: {_untagged}")


def run_all_figures(engine: str = "all") -> List[FigureResult]:
    """Re-run the figure reproductions and return the results in order.

    ``engine`` filters to the figures exercising one engine (``"tsb"`` or
    ``"wobt"``); engines without worked figures yield an empty list.
    """
    figures = (
        ALL_FIGURES
        if engine == "all"
        else [figure for figure in ALL_FIGURES if FIGURE_ENGINES[figure] == engine]
    )
    return [figure() for figure in figures]
