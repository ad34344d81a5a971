"""The object-based invariant checker: the reference the column checker is held to.

``repro.core.checker`` walks the tree by child identities read from index
columns, checks each index node's children and tiling on its key refs and
time words, and builds an ``IndexEntry`` only to word a violation.  This
module keeps the earlier form, verbatim: it visits ``Address`` values, reads
``node.entries`` and compares ``Rectangle`` objects.  For any tree — healthy
or with a corrupted index page — both must report the same violations
(``tests/core/test_checker_columns.py``).  Its own docstring follows.

Structural-invariant checker for TSB-trees.

The checker asserts every structural property the paper states or implies.
It is used heavily by the unit, integration and property-based tests:
after any sequence of operations, ``check_tree(tree)`` must return an empty
violation list.

Checked invariants
------------------
1.  **Tiling** — inside every index node, the children's regions (clipped to
    the node's own region) are pairwise disjoint and cover the node's region
    completely: every (key, time) query point is the responsibility of
    exactly one child.  It is checked exactly, by a sweep: the clipped
    entries' start and end times cut the node's time range into slabs, and in
    each slab the covering children's key ranges, sorted by low bound, must
    chain from the node's low key to its high key.  A break in the chain is a
    point covered by no child; a range starting below the chain's reach is a
    point covered by several.  That is O(E² log E) in the node's E entries.
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
    As written the check is node-local and cannot fire: once a key's
    earliest committed stamp is at or before the region start, the newest
    committed version at or before the start exists, and the one case where
    the node's answer is still "none" — that version is a tombstone — is
    excused by the same condition.  It is still computed.  A check that
    could fail compares the node with its time-split predecessor, which
    must hand over the version valid at the split time.
6.  **Size discipline** — no current node's serialized image exceeds the
    page size.
7.  **Index-entry sanity** — entry regions are contained in the plane, child
    addresses are readable, and levels decrease from root to leaves.
8.  **Entry rectangle** — an entry's rectangle *is* its child's own.  Splits
    mint every entry from the node it points at, and the tree's range walk
    relies on it: it picks children by their entries and does not ask the
    child for its rectangle again.
9.  **Root** — the root's rectangle is the whole plane, so every
    ``(key, time)`` point has a node responsible for it.  Nothing else
    checks this: a root narrowed by a split it never finished tiles its own
    rectangle perfectly.

Cost: one pass over each reachable node.  A data node is checked from its
slot columns (:meth:`~repro.core.nodes.DataNode.columns`: keys, stamp words
and flags in slot order) and its content size, which the node holds whether
it was opened from an image or mutated, so checking builds no ``Version``
and a node opened from an image keeps handing that image back.  Containment
bisects the sorted key column.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.nodes import _PROVISIONAL, _TOMBSTONE, DataNode, IndexNode
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
    root = loaded.get(tree.root_address)
    if root is not None and root.region != Rectangle.full():
        violations.append(
            Violation("root", f"root {root.address} covers {root.region}, not the whole plane")
        )

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
    """Sweep the node's region slab by slab and chain each slab's children.

    Every start and end bound of the clipped entries cuts the node's time
    range; inside one of the resulting slabs the covering children do not
    change, so the slab is tiled exactly when their key ranges, sorted by low
    bound, chain from the node's low key to its high key with no break and no
    step back.  Bounds are compared as ``(0,)`` (unbounded low), ``(1, key)``
    and ``(2,)`` (unbounded high), so the two kinds of key need no midpoints.
    """
    region = node.region
    low, high = _low_bound(region.keys.low), _high_bound(region.keys.high)
    start, end = region.times.start, _time_end(region.times.end)
    clipped = []  # (start, end, low, high) of each entry, clipped to the node
    for entry in node.entries:
        keys, times = entry.region.keys, entry.region.times
        row = (
            max(times.start, start),
            min(_time_end(times.end), end),
            max(_low_bound(keys.low), low),
            min(_high_bound(keys.high), high),
        )
        if row[0] < row[1] and row[2] < row[3]:
            clipped.append(row)
        else:
            violations.append(
                Violation(
                    "tiling",
                    f"entry {entry} does not intersect its node's region {region}",
                )
            )
    if not clipped:
        return

    clipped.sort()
    cuts = sorted({start, *(row[0] for row in clipped), *(row[1] for row in clipped)})
    active: list = []
    entering = 0
    for cut in cuts:
        if cut >= end:
            break
        while entering < len(clipped) and clipped[entering][0] == cut:
            active.append(clipped[entering])
            entering += 1
        active = sorted((row for row in active if cut < row[1]), key=itemgetter(2))
        reach = low
        for row in active:
            if row[2] < reach:
                covering = sum(1 for other in active if other[2] <= row[2] < other[3])
                violations.append(
                    Violation(
                        "tiling",
                        f"index node {node.address}: point ({_shown(row[2])}, {cut}) "
                        f"is covered by {covering} children",
                    )
                )
            elif reach < row[2]:
                violations.append(_gap(node, reach, row[2], cut))
            reach = max(reach, row[3])
        if reach < high:
            violations.append(_gap(node, reach, high, cut))


def _low_bound(key) -> tuple:
    return (0,) if key is None else (1, key)


def _high_bound(key) -> tuple:
    return (2,) if key is None else (1, key)


def _time_end(end):
    return float("inf") if end is None else end


def _shown(bound: tuple) -> str:
    return repr(bound[1]) if len(bound) == 2 else ("-inf" if bound[0] == 0 else "+inf")


def _gap(node: IndexNode, low: tuple, high: tuple, timestamp: int) -> Violation:
    return Violation(
        "tiling",
        f"index node {node.address}: keys [{_shown(low)}, {_shown(high)}) at time "
        f"{timestamp} in {node.region} are covered by no child",
    )


# ----------------------------------------------------------------------
# Data nodes
# ----------------------------------------------------------------------
def _check_data_node(tree: TSBTree, node: DataNode, violations: List[Violation]) -> None:
    """Check a data node from its key, stamp and flag runs (``columns()``),
    building no ``Version``."""
    region = node.region
    if node.address.is_magnetic:
        if not region.times.is_current:
            violations.append(
                Violation(
                    "tier",
                    f"data node {node.address} is on the magnetic disk but its time "
                    f"range {region.times} is closed",
                )
            )
        size = node.serialized_size()
        if size > tree.page_size:
            violations.append(
                Violation(
                    "size",
                    f"current data node {node.address} is {size} "
                    f"bytes (page size {tree.page_size})",
                )
            )
    elif region.times.is_current:
        violations.append(
            Violation(
                "tier",
                f"data node {node.address} is historical but its time range is "
                "still open",
            )
        )

    keys, stamps, flags = node.columns()
    first = 0 if region.keys.low is None else bisect_left(keys, region.keys.low)
    last = len(keys) if region.keys.high is None else bisect_left(keys, region.keys.high)
    for slot in (*range(first), *range(last, len(keys))):
        violations.append(
            Violation(
                "containment",
                f"a version of key {keys[slot]!r} in data node {node.address} lies "
                f"outside its key range {region.keys}",
            )
        )
    if node.address.is_historical:
        for slot, flag in enumerate(flags):
            if flag & _PROVISIONAL:
                violations.append(
                    Violation(
                        "transactions",
                        f"provisional version of key {keys[slot]!r} (txn {stamps[slot]}) "
                        f"was migrated to historical node {node.address}",
                    )
                )
    end = region.times.end
    if end is not None:
        for slot, (stamp, flag) in enumerate(zip(stamps, flags)):
            if stamp >= end and not flag & _PROVISIONAL:
                violations.append(
                    Violation(
                        "containment",
                        f"version of key {keys[slot]!r} at T={stamp} is at or past its "
                        f"historical node's end time {end}",
                    )
                )

    _check_responsibility(node, keys, stamps, flags, violations)


def _check_responsibility(
    node: DataNode,
    keys: Sequence,
    stamps: Sequence[int],
    flags: bytes,
    violations: List[Violation],
) -> None:
    """Each key present must be answerable at the node's region start.

    Slots hold a key's committed versions first, oldest first, so its run's
    first slot is its earliest committed stamp; the version valid at the
    start is the newest committed one at or before it (see the module
    docstring for why this cannot fail on a well-formed page).
    """
    start = node.region.times.start
    first = 0
    while first < len(keys):
        key = keys[first]
        end = bisect_right(keys, key, first)
        committed = end
        while committed > first and flags[committed - 1] & _PROVISIONAL:
            committed -= 1
        # A key first committed inside the node's time range has nothing to
        # answer at the region start.
        if committed > first and stamps[first] <= start:
            newest = bisect_right(stamps, start, first, committed) - 1
            # No valid version at the start: a tombstone answers "deleted".
            if newest < first and not any(
                flags[slot] & _TOMBSTONE for slot in range(first, committed)
            ):
                violations.append(
                    Violation(
                        "responsibility",
                        f"data node {node.address} cannot answer key {key!r} at its "
                        f"region start {start} although the key existed before it",
                    )
                )
        first = end


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
