"""Structural-invariant checker for TSB-trees.

The checker asserts every structural property the paper states or implies.
It is used heavily by the unit, integration and property-based tests:
after any sequence of operations, ``check_tree(tree)`` must return an empty
violation list.

Checked invariants
------------------
1.  **Tiling** — inside every index node, the children's regions (clipped to
    the node's own region) are pairwise disjoint and cover the node's region
    completely: every (key, time) query point is the responsibility of
    exactly one child.
2.  **Tier discipline** — current nodes live on the magnetic device, entries
    with open time ranges point at magnetic addresses and entries with
    closed time ranges point at historical addresses (data is migrated only
    by time splits).
3.  **DAG shape** — only historical nodes may have more than one parent
    (section 3.5: "only historical nodes have more than one parent").
4.  **Data-node containment** — every version's key lies in its node's key
    range, committed version timestamps never reach past the node's time
    range end, and provisional versions only appear in current nodes.
5.  **Query responsibility** — for each key in a data node, the node can
    answer any query time inside its own region for that key (the version
    valid at the region start is present when the key existed before it).
6.  **Size discipline** — no current node's serialized image exceeds the
    page size.
7.  **Index-entry sanity** — entry regions are contained in the plane, child
    addresses are readable, and levels decrease from root to leaves.
8.  **Entry rectangle** — an entry's rectangle *is* its child's own.  Splits
    mint every entry from the node it points at, and the tree's range walk
    relies on it: it picks children by their entries and does not ask the
    child for its rectangle again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.nodes import DataNode, IndexNode
from repro.core.records import Rectangle
from repro.core.tsb_tree import TSBTree


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by the checker."""

    invariant: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.invariant}] {self.message}"


def check_tree(tree: TSBTree) -> List[Violation]:
    """Return every invariant violation found in ``tree`` (empty == healthy)."""
    violations: List[Violation] = []
    parent_counts: Dict[Tuple, int] = {}
    nodes = _reachable_nodes(tree, violations)
    loaded = {node.address: node for node in nodes}

    for node in nodes:
        if isinstance(node, IndexNode):
            _check_index_node(tree, node, loaded, violations)
            for entry in node.entries:
                parent_counts[entry.child] = parent_counts.get(entry.child, 0) + 1
        else:
            _check_data_node(tree, node, violations)

    _check_parent_counts(tree, nodes, parent_counts, violations)
    return violations


def assert_tree_valid(tree: TSBTree) -> None:
    """Raise ``AssertionError`` listing every violation, if any."""
    violations = check_tree(tree)
    if violations:
        details = "\n".join(str(violation) for violation in violations)
        raise AssertionError(f"TSB-tree invariant violations:\n{details}")


def _reachable_nodes(tree: TSBTree, violations: List[Violation]) -> List:
    """Collect every readable reachable node, reporting unreadable children.

    The checker must keep going when the structure is damaged (that is what
    it exists to report), so unreadable children become ``reachability``
    violations rather than exceptions.
    """
    nodes: List = []
    seen: Set = set()
    stack = [tree.root_address]
    while stack:
        address = stack.pop()
        if address in seen:
            continue
        seen.add(address)
        try:
            node = tree._load_node(address)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the checker
            violations.append(
                Violation("reachability", f"node at {address} cannot be read: {exc}")
            )
            continue
        nodes.append(node)
        if isinstance(node, IndexNode):
            stack.extend(entry.child for entry in node.entries)
    return nodes


# ----------------------------------------------------------------------
# Index nodes
# ----------------------------------------------------------------------
def _check_index_node(
    tree: TSBTree, node: IndexNode, loaded: Dict, violations: List[Violation]
) -> None:
    if node.address.is_magnetic and node.serialized_size() > tree.page_size:
        violations.append(
            Violation(
                "size",
                f"current index node {node.address} is {node.serialized_size()} bytes "
                f"(page size {tree.page_size})",
            )
        )
    if not node.entries:
        violations.append(Violation("tiling", f"index node {node.address} is empty"))
        return

    for entry in node.entries:
        if entry.region.times.is_current and not entry.child.is_magnetic:
            violations.append(
                Violation(
                    "tier",
                    f"entry {entry} has an open time range but points at the "
                    "historical device",
                )
            )
        if not entry.region.times.is_current and not entry.child.is_historical:
            violations.append(
                Violation(
                    "tier",
                    f"entry {entry} has a closed time range but points at the "
                    "magnetic device",
                )
            )
        child = loaded.get(entry.child)
        if child is None:
            continue  # unreadable: `_reachable_nodes` reported it
        if entry.region != child.region:
            violations.append(
                Violation(
                    "entry_region",
                    f"entry {entry} in index node {node.address} disagrees with its "
                    f"child's own region {child.region}",
                )
            )
        if isinstance(child, IndexNode) and child.level >= node.level:
            violations.append(
                Violation(
                    "levels",
                    f"index node {node.address} (level {node.level}) references index "
                    f"node {child.address} (level {child.level})",
                )
            )
        if isinstance(child, DataNode) and node.level != 1 and node.address.is_magnetic:
            # Historical index nodes keep the level they had when migrated,
            # but a current index node above level 1 should not point
            # directly at data nodes unless its level says so.
            violations.append(
                Violation(
                    "levels",
                    f"index node {node.address} at level {node.level} references a "
                    f"data node {child.address}",
                )
            )

    _check_tiling(node, violations)


def _check_tiling(node: IndexNode, violations: List[Violation]) -> None:
    """Grid-sample the node's region and count covering entries per cell."""
    clipped = []
    for entry in node.entries:
        intersection = entry.region.intersect(node.region)
        if intersection is None:
            violations.append(
                Violation(
                    "tiling",
                    f"entry {entry} does not intersect its node's region {node.region}",
                )
            )
        else:
            clipped.append(intersection)
    if not clipped:
        return

    key_points = _sample_key_points(node, clipped)
    time_points = _sample_time_points(node, clipped)
    for key in key_points:
        for timestamp in time_points:
            if not node.region.contains_point(key, timestamp):
                continue
            covering = sum(
                1 for region in clipped if region.contains_point(key, timestamp)
            )
            if covering == 0:
                violations.append(
                    Violation(
                        "tiling",
                        f"index node {node.address}: point ({key!r}, {timestamp}) in "
                        f"{node.region} is covered by no child",
                    )
                )
            elif covering > 1:
                violations.append(
                    Violation(
                        "tiling",
                        f"index node {node.address}: point ({key!r}, {timestamp}) is "
                        f"covered by {covering} children",
                    )
                )


def _sample_key_points(node: IndexNode, regions: List[Rectangle]) -> List:
    keys: Set = set()
    for region in regions + [node.region]:
        for bound in (region.keys.low, region.keys.high):
            if bound is not None:
                keys.add(bound)
    points: List = []
    for key in sorted(keys):
        points.append(key)
    # Add midpoints / a point below the lowest and above the highest bound so
    # unbounded ranges are exercised too.
    sorted_keys = sorted(keys)
    if sorted_keys and all(isinstance(key, int) for key in sorted_keys):
        points.append(sorted_keys[0] - 1)
        points.append(sorted_keys[-1] + 1)
        for low, high in zip(sorted_keys, sorted_keys[1:]):
            points.append((low + high) // 2)
    elif sorted_keys:
        points.append(sorted_keys[0] + "\x00")
        points.append(sorted_keys[-1] + "\x7f")
    else:
        points.append(0)
    return sorted(set(points))


def _sample_time_points(node: IndexNode, regions: List[Rectangle]) -> List[int]:
    times: Set[int] = {node.region.times.start}
    for region in regions:
        times.add(region.times.start)
        if region.times.end is not None:
            times.add(region.times.end)
            times.add(max(0, region.times.end - 1))
    latest = max(times)
    times.add(latest + 1)
    return sorted(times)


# ----------------------------------------------------------------------
# Data nodes
# ----------------------------------------------------------------------
def _check_data_node(tree: TSBTree, node: DataNode, violations: List[Violation]) -> None:
    if node.address.is_magnetic:
        if not node.region.times.is_current:
            violations.append(
                Violation(
                    "tier",
                    f"data node {node.address} is on the magnetic disk but its time "
                    f"range {node.region.times} is closed",
                )
            )
        if node.serialized_size() > tree.page_size:
            violations.append(
                Violation(
                    "size",
                    f"current data node {node.address} is {node.serialized_size()} "
                    f"bytes (page size {tree.page_size})",
                )
            )
    else:
        if node.region.times.is_current:
            violations.append(
                Violation(
                    "tier",
                    f"data node {node.address} is historical but its time range is "
                    "still open",
                )
            )

    for version in node.versions:
        if not node.region.keys.contains(version.key):
            violations.append(
                Violation(
                    "containment",
                    f"version {version} lies outside data node key range "
                    f"{node.region.keys}",
                )
            )
        if version.is_provisional and node.address.is_historical:
            violations.append(
                Violation(
                    "transactions",
                    f"provisional version {version} was migrated to historical node "
                    f"{node.address}",
                )
            )
        if (
            version.timestamp is not None
            and node.region.times.end is not None
            and version.timestamp >= node.region.times.end
        ):
            violations.append(
                Violation(
                    "containment",
                    f"version {version} has a timestamp at or past its historical "
                    f"node's end time {node.region.times.end}",
                )
            )

    _check_responsibility(node, violations)


def _check_responsibility(node: DataNode, violations: List[Violation]) -> None:
    """Each key present must be answerable at the node's region start."""
    start = node.region.times.start
    for key in {version.key for version in node.versions}:
        versions = node.versions_for_key(key)
        committed = [v for v in versions if v.timestamp is not None]
        if not committed:
            continue
        earliest = min(v.timestamp for v in committed)  # type: ignore[type-var]
        if earliest > start:
            # The key first appeared inside this node's time range; nothing
            # to answer at the region start.
            continue
        if node.version_as_of(key, start) is None and not any(
            v.is_tombstone for v in committed
        ):
            violations.append(
                Violation(
                    "responsibility",
                    f"data node {node.address} cannot answer key {key!r} at its "
                    f"region start {start} although the key existed before it",
                )
            )


# ----------------------------------------------------------------------
# DAG shape
# ----------------------------------------------------------------------
def _check_parent_counts(
    tree: TSBTree,
    nodes: List,
    parent_counts: Dict[Tuple, int],
    violations: List[Violation],
) -> None:
    for node in nodes:
        count = parent_counts.get(node.address, 0)
        if node.address == tree.root_address:
            if count != 0:
                violations.append(
                    Violation("dag", f"root node {node.address} has {count} parents")
                )
            continue
        if count == 0:
            violations.append(
                Violation("dag", f"node {node.address} is unreachable from any parent")
            )
        if count > 1 and node.address.is_magnetic:
            violations.append(
                Violation(
                    "dag",
                    f"current node {node.address} has {count} parents; only historical "
                    "nodes may be shared",
                )
            )
