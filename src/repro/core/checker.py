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
    exactly one child.  It is checked exactly: the entries' corners, signed,
    must sum to the node's (O(E log E) in its E entries), and only a node
    that fails that is swept, slab by slab in time, to name each point
    covered by no child or by several (O(E² log E)).
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

Cost: one read per reachable node, and no object per child.  The walk, the
loaded nodes and the parent counts are keyed by child identities read from
index columns as plain ints (:meth:`~repro.core.nodes.IndexNode.child_ids`);
an ``Address`` is built only to load a node not seen before.  An index node
is checked on its key refs, time words and tier bytes
(:meth:`~repro.core.nodes.IndexNode.columns`), a data node on its keys,
stamp words and flags (:meth:`~repro.core.nodes.DataNode.columns`), each
node's region as plain bounds (``bounds()``), and a per-slot pass runs only
when a C-level test over a whole column says it can fire.  Checking builds
no ``Version``, an ``IndexEntry`` only to word a violation, and a region
only for that or for a current data node's size.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Dict, List, Sequence

from repro.core.nodes import _NO_HIGH, _PROVISIONAL, _TOMBSTONE, _U64_MAX, DataNode, IndexNode
from repro.core.tsb_tree import TSBTree
from repro.storage.device import Address

_OPEN = {_U64_MAX: None}  # an end word as a region's end


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
    loaded, children = _reachable_nodes(tree, violations)
    bounds = {identity: node.bounds() for identity, node in loaded.items()}
    root_id = tree.root_address.identity
    if root_id in loaded and bounds[root_id] != (None, None, 0, None):  # the whole plane
        root = loaded[root_id]
        violations.append(
            Violation("root", f"root {root.address} covers {root.region}, not the whole plane")
        )

    parent_counts: Counter = Counter()
    for identity, node in loaded.items():
        if isinstance(node, IndexNode):
            _check_index_node(tree, node, children[identity], loaded, bounds, violations)
            parent_counts.update(children[identity])
        else:
            _check_data_node(tree, node, bounds[identity], violations)

    _check_parent_counts(tree, loaded, parent_counts, violations)
    return violations


def assert_tree_valid(tree: TSBTree) -> None:
    """Raise ``AssertionError`` listing every violation, if any."""
    violations = check_tree(tree)
    if violations:
        details = "\n".join(str(violation) for violation in violations)
        raise AssertionError(f"TSB-tree invariant violations:\n{details}")


def _reachable_nodes(tree: TSBTree, violations: List[Violation]):
    """Every readable reachable node by identity, in visit order, and each
    index node's child identities.  The checker must keep going when the
    structure is damaged (that is what it exists to report), so an unreadable
    child becomes a ``reachability`` violation, not an exception."""
    loaded: Dict = {}
    children: Dict = {}
    seen = set()
    stack = [tree.root_address.identity]
    while stack:
        identity = stack.pop()
        if identity in seen:
            continue
        seen.add(identity)
        address = Address.of_identity(identity)
        try:
            node = tree._read_node(address)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the checker
            violations.append(
                Violation("reachability", f"node at {address} cannot be read: {exc}")
            )
            continue
        loaded[identity] = node
        if isinstance(node, IndexNode):
            stack.extend(children.setdefault(identity, node.child_ids()))
    return loaded, children


# ----------------------------------------------------------------------
# Index nodes
# ----------------------------------------------------------------------
def _check_index_node(tree: TSBTree, node: IndexNode, children: Sequence, loaded: Dict,
                      bounds: Dict, violations: List[Violation]) -> None:  # fmt: skip
    """Check an index node on its columns, its children's identities and
    their regions' ``bounds``."""
    if node.address.is_magnetic and node.serialized_size() > tree.page_size:
        violations.append(
            Violation(
                "size",
                f"current index node {node.address} is {node.serialized_size()} bytes "
                f"(page size {tree.page_size})",
            )
        )
    if not children:
        violations.append(Violation("tiling", f"index node {node.address} is empty"))
        return

    # Each per-slot pass below runs only when a C-level test says it can fire.
    table, lows, highs, starts, ends, tiers = columns = node.columns()
    if bytes(map(_U64_MAX.__ne__, ends)) != tiers:  # tier 1 exactly when closed
        for slot, (end, tier) in enumerate(zip(ends, tiers)):
            if (end == _U64_MAX) == bool(tier):
                span, device = ("an open", "historical") if tier else ("a closed", "magnetic")
                violations.append(
                    Violation(
                        "tier",
                        f"entry {node.entry(slot)} has {span} time range but points at "
                        f"the {device} device",
                    )
                )
    kids = list(map(loaded.get, children))  # None: unreadable, reported already
    key = {0: None, _NO_HIGH: None, **dict(enumerate(table, 1))}.__getitem__  # of a key ref
    entries = list(zip(map(key, lows), map(key, highs), starts, map(_OPEN.get, ends, ends)))
    if list(map(bounds.get, children)) != entries:
        for slot, (child, entry) in enumerate(zip(kids, entries)):
            if child is not None and bounds[children[slot]] != entry:
                violations.append(
                    Violation(
                        "entry_region",
                        f"entry {node.entry(slot)} in index node {node.address} disagrees "
                        f"with its child's own region {child.region}",
                    )
                )
    kinds = set(map(type, kids))
    if IndexNode in kinds:
        for child in kids:
            if isinstance(child, IndexNode) and child.level >= node.level:
                violations.append(
                    Violation(
                        "levels",
                        f"index node {node.address} (level {node.level}) references index "
                        f"node {child.address} (level {child.level})",
                    )
                )
    # Historical index nodes keep the level they had when migrated, but a
    # current index node above level 1 points at index nodes only.
    if DataNode in kinds and node.level != 1 and node.address.is_magnetic:
        for child in kids:
            if isinstance(child, DataNode):
                violations.append(
                    Violation(
                        "levels",
                        f"index node {node.address} at level {node.level} references a "
                        f"data node {child.address}",
                    )
                )

    _check_tiling(node, columns, violations)


def _check_tiling(node: IndexNode, columns: tuple, violations: List[Violation]) -> None:
    """Check that the node's entries, clipped to it, tile it exactly.

    All of it runs on the page's own integers: key refs order as their keys
    do (0 is an unbounded low, ``_NO_HIGH`` an unbounded high) and the open
    end word is the largest, so keys are read only to word a message.  A
    rectangle covers +1 above its (low, start) and (high, end) corners and -1
    above (low, end) and (high, start), so the entries tile the node exactly
    when their corners, so signed, sum to the node's own.  Only when they do
    not does the sweep name the fault: the clipped entries' bounds cut the
    node's time range into slabs, and in each slab the covering children's
    key ranges, sorted by low bound, must chain from the node's low key to
    its high key with no break and no step back.
    """
    table, lows, highs, starts, ends, _tiers = columns
    low, high, start, end = node.region_refs()
    clipped = []  # (start, end, low, high) of each entry, clipped to the node
    rows = zip(map(max, starts, repeat(start)), map(min, ends, repeat(end)),
               map(max, lows, repeat(low)), map(min, highs, repeat(high)))  # fmt: skip
    for slot, row in enumerate(rows):
        if row[0] < row[1] and row[2] < row[3]:
            clipped.append(row)
        else:
            violations.append(
                Violation(
                    "tiling",
                    f"entry {node.entry(slot)} does not intersect its node's region "
                    f"{node.region}",
                )
            )
    if not clipped:
        return
    first, last, below, above = zip(*clipped)
    plus = [*zip(below, first), *zip(above, last), (low, end), (high, start)]
    minus = [*zip(below, last), *zip(above, first), (low, start), (high, end)]
    if sorted(plus) == sorted(minus):
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
                        f"index node {node.address}: point ({_shown(table, row[2])}, "
                        f"{cut}) is covered by {covering} children",
                    )
                )
            elif reach < row[2]:
                violations.append(_gap(node, table, reach, row[2], cut))
            reach = max(reach, row[3])
        if reach < high:
            violations.append(_gap(node, table, reach, high, cut))


def _shown(table: Sequence, ref: int) -> str:
    if ref == 0:
        return "-inf"
    return "+inf" if ref == _NO_HIGH else repr(table[ref - 1])


def _gap(node: IndexNode, table: Sequence, low: int, high: int, timestamp: int) -> Violation:
    return Violation(
        "tiling",
        f"index node {node.address}: keys [{_shown(table, low)}, {_shown(table, high)}) at "
        f"time {timestamp} in {node.region} are covered by no child",
    )


# ----------------------------------------------------------------------
# Data nodes
# ----------------------------------------------------------------------
def _check_data_node(
    tree: TSBTree, node: DataNode, bounds: tuple, violations: List[Violation]
) -> None:
    """Check a data node from its region's ``bounds`` and its key, stamp and
    flag runs (``columns()``), building no ``Version``."""
    low, high, start, end = bounds
    if node.address.is_magnetic:
        if end is not None:
            violations.append(
                Violation(
                    "tier",
                    f"data node {node.address} is on the magnetic disk but its time "
                    f"range {node.region.times} is closed",
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
    elif end is None:
        violations.append(
            Violation(
                "tier",
                f"data node {node.address} is historical but its time range is "
                "still open",
            )
        )

    # Each per-slot pass below runs only when a C-level test says it can fire.
    keys, stamps, flags = node.columns()
    if keys and (low is not None and min(keys) < low or high is not None and max(keys) >= high):
        first = 0 if low is None else bisect_left(keys, low)
        last = len(keys) if high is None else bisect_left(keys, high)
        for slot in (*range(first), *range(last, len(keys))):
            violations.append(
                Violation(
                    "containment",
                    f"a version of key {keys[slot]!r} in data node {node.address} lies "
                    f"outside its key range {node.region.keys}",
                )
            )
    if node.address.is_historical and any(flag & _PROVISIONAL for flag in set(flags)):
        for slot, flag in enumerate(flags):
            if flag & _PROVISIONAL:
                violations.append(
                    Violation(
                        "transactions",
                        f"provisional version of key {keys[slot]!r} (txn {stamps[slot]}) "
                        f"was migrated to historical node {node.address}",
                    )
                )
    if end is not None and stamps and max(stamps) >= end:
        for slot, (stamp, flag) in enumerate(zip(stamps, flags)):
            if stamp >= end and not flag & _PROVISIONAL:
                violations.append(
                    Violation(
                        "containment",
                        f"version of key {keys[slot]!r} at T={stamp} is at or past its "
                        f"historical node's end time {end}",
                    )
                )

    _check_responsibility(node, start, keys, stamps, flags, violations)


def _check_responsibility(node: DataNode, start: int, keys: Sequence, stamps: Sequence[int],
                          flags: bytes, violations: List[Violation]) -> None:  # fmt: skip
    """Each key present must be answerable at the node's region start.

    Slots hold a key's committed versions first, oldest first, so its run's
    first slot is its earliest committed stamp; the version valid at the
    start is the newest committed one at or before it (see the module
    docstring for why this cannot fail on a well-formed page).
    """
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
    tree: TSBTree, loaded: Dict, parent_counts: Counter, violations: List[Violation]
) -> None:
    root = tree.root_address.identity
    for identity, node in loaded.items():
        count = parent_counts[identity]
        if identity == root:
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
