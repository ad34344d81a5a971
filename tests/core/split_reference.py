"""The list-form splits: the reference the column splits are held to.

``repro.core.split`` applies the time-split rule and the key split to a full
node's slot columns, and ``repro.core.policy.SplitContext`` answers the
policies' questions from them.  This module keeps the earlier forms, which
take and give lists of ``Version`` — each written the plain way, group by
key and filter — so a test can check that, for any node and any policy, the
column split decides the same split and writes the same two pages
(``tests/core/test_split_columns.py``).

The index-node splits of section 3.5 are kept the same way: the six
functions under "Index-node splits" are the ones the tree used while it
split index nodes as lists of ``IndexEntry``, and :func:`reference_index_split`
is its decision procedure (a local time split first when the policy prefers
one, else a key split, falling back to the other; an oversized half split
again), made without writing anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.nodes import DataNode, IndexEntry, IndexNode
from repro.core.records import Rectangle, Version, group_by_key
from repro.core.split import SplitError, SplitKind, split_region_by_key, split_region_by_time
from repro.storage.device import Address
from repro.storage.serialization import Key


@dataclass(frozen=True)
class VersionTimeSplit:
    """The time-split rule applied to a version list."""

    split_time: int
    historical: Tuple[Version, ...]
    current: Tuple[Version, ...]

    @property
    def redundant(self) -> Tuple[Version, ...]:
        """Versions stored in both halves (alive across the split time)."""
        historical_ids = {version.identity() for version in self.historical}
        return tuple(v for v in self.current if v.identity() in historical_ids)

    @property
    def redundant_bytes(self) -> int:
        return sum(version.serialized_size() for version in self.redundant)

    @property
    def historical_bytes(self) -> int:
        return sum(version.serialized_size() for version in self.historical)

    @property
    def current_bytes(self) -> int:
        return sum(version.serialized_size() for version in self.current)


def time_split_versions(versions: Sequence[Version], split_time: int) -> VersionTimeSplit:
    historical: List[Version] = []
    current: List[Version] = []
    for _key, group in group_by_key(versions).items():
        committed = [v for v in group if v.timestamp is not None]
        provisional = [v for v in group if v.timestamp is None]
        before = [v for v in committed if v.timestamp < split_time]  # rule 1
        after = [v for v in committed if v.timestamp >= split_time]  # rule 2
        historical.extend(before)
        current.extend(after)
        if before and not any(v.timestamp == split_time for v in after):  # rule 3
            current.append(max(before, key=lambda v: v.timestamp))
        current.extend(provisional)
    if not historical:
        raise SplitError(f"time split at {split_time} would migrate nothing")
    return VersionTimeSplit(split_time, tuple(historical), tuple(current))


def evaluate_time_split(versions: Sequence[Version], split_time: int) -> Optional[VersionTimeSplit]:
    try:
        return time_split_versions(versions, split_time)
    except SplitError:
        return None


def key_split_versions(
    versions: Sequence[Version], split_key: Key
) -> Tuple[Tuple[Version, ...], Tuple[Version, ...]]:
    left = tuple(version for version in versions if version.key < split_key)
    right = tuple(version for version in versions if not version.key < split_key)
    if not left or not right:
        raise SplitError(f"key split at {split_key!r} puts every version on one side")
    return left, right


def choose_key_split_value(versions: Sequence[Version]) -> Key:
    grouped = group_by_key(versions)
    if len(grouped) < 2:
        raise SplitError("cannot key split a node holding a single distinct key")
    keys = sorted(grouped)
    sizes = [sum(v.serialized_size() for v in grouped[key]) for key in keys]
    total = sum(sizes)
    running = 0
    for key, size in zip(keys, sizes):
        running += size
        if running * 2 >= total:
            return keys[1] if key == keys[0] else key
    raise AssertionError("unreachable")


def candidate_split_times(versions: Sequence[Version]) -> List[int]:
    return sorted({v.timestamp for v in versions if v.timestamp is not None})[1:]


def last_update_time(versions: Sequence[Version]) -> Optional[int]:
    best: Optional[int] = None
    for _key, group in group_by_key(versions).items():
        committed = [v for v in group if v.timestamp is not None]
        if len(committed) >= 2 and (best is None or committed[-1].timestamp > best):
            best = committed[-1].timestamp
    return best


def min_redundancy_split_time(versions: Sequence[Version]) -> Optional[int]:
    best_time: Optional[int] = None
    best_cost: Optional[Tuple[int, int]] = None
    for candidate in candidate_split_times(versions):
        split = evaluate_time_split(versions, candidate)
        if split is None:
            continue
        cost = (split.redundant_bytes, split.current_bytes)
        if best_cost is None or cost < best_cost:
            best_cost, best_time = cost, candidate
    return best_time


class VersionListContext:
    """``SplitContext``'s queries, answered from a version list."""

    def __init__(self, versions: Sequence[Version], region: Rectangle, page_size: int, now: int):
        self.versions = tuple(versions)
        self.region = region
        self.page_size = page_size
        self.now = now

    def legal_split_times(self) -> List[int]:
        start = self.region.times.start
        return [stamp for stamp in candidate_split_times(self.versions) if stamp > start]

    def total_bytes(self) -> int:
        return sum(v.serialized_size() for v in self.versions)

    def historical_fraction(self) -> float:
        total = historical = 0
        by_key: dict = {}
        for version in self.versions:
            by_key.setdefault(version.key, []).append(version)
        for group in by_key.values():
            committed = sorted((v for v in group if v.timestamp is not None), key=lambda v: v.timestamp)
            for version in group:
                total += version.serialized_size()
                if committed and version.timestamp is not None and version is not committed[-1]:
                    historical += version.serialized_size()
        return 0.0 if total == 0 else historical / total

    def can_key_split(self) -> bool:
        return len({v.key for v in self.versions}) >= 2

    def can_time_split(self) -> bool:
        """Some legal split time leaves fewer versions in the current node."""
        return any(
            len(time_split_versions(self.versions, stamp).current) < len(self.versions)
            for stamp in self.legal_split_times()
        )

    def key_split_value(self) -> Key:
        return choose_key_split_value(self.versions)

    def last_update_time(self) -> Optional[int]:
        return last_update_time(self.versions)

    def min_redundancy_split_time(self) -> Optional[int]:
        return min_redundancy_split_time(self.versions)

    def time_split(self, split_time: int) -> Optional[VersionTimeSplit]:
        return evaluate_time_split(self.versions, split_time)


@dataclass(frozen=True)
class ReferenceSplit:
    """A split decided and made on a version list: the kind, the split time
    or key, and the two halves' page images in the parent's entry order."""

    kind: SplitKind
    at: object
    images: Tuple[bytes, bytes]
    redundant: int


def reference_split(node: DataNode, policy, page_size: int, now: int) -> ReferenceSplit:
    """Split ``node`` the version-list way: ``policy`` decides over the
    node's versions, the rule cuts them, and each half is a node built from
    its version list (falling back to the other kind as the tree does)."""
    versions, region = node.versions, node.region

    def by_time(split_time: int) -> ReferenceSplit:
        historical_region, current_region = split_region_by_time(region, split_time)
        split = time_split_versions(versions, split_time)
        images = (
            DataNode(Address.magnetic(0), historical_region, split.historical).encode(),
            DataNode(node.address, current_region, split.current).encode(),
        )
        return ReferenceSplit(SplitKind.TIME, split_time, images, len(split.redundant))

    def by_key(split_key: Key) -> ReferenceSplit:
        left_region, right_region = split_region_by_key(region, split_key)
        left, right = key_split_versions(versions, split_key)
        images = (
            DataNode(node.address, left_region, left).encode(),
            DataNode(node.address, right_region, right).encode(),
        )
        return ReferenceSplit(SplitKind.KEY, split_key, images, 0)

    context = VersionListContext(versions, region, page_size, now)
    decision = policy.decide(context)
    if decision.kind is SplitKind.TIME:
        try:
            return by_time(decision.split_time)
        except SplitError:
            return by_key(choose_key_split_value(versions))
    try:
        return by_key(decision.split_key)
    except SplitError:
        return by_time(policy.pick_split_time(context))


# ----------------------------------------------------------------------
# Index-node splits
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IndexKeySplit:
    """Result of the Index Node Keyspace Split Rule."""

    split_key: Key
    left: Tuple[IndexEntry, ...]
    right: Tuple[IndexEntry, ...]
    copied: Tuple[IndexEntry, ...]


def index_key_split(entries: Sequence[IndexEntry], split_key: Key) -> IndexKeySplit:
    """Apply the section 3.5 keyspace split rule to index entries.

    Entries whose key range strictly contains the split value are copied into
    both halves; the paper proves these always reference historical nodes,
    which :func:`repro.core.checker.check_tree` asserts.
    """
    left: List[IndexEntry] = []
    right: List[IndexEntry] = []
    copied: List[IndexEntry] = []
    for entry in entries:
        keys = entry.region.keys
        upper_at_or_below = keys.high is not None and not split_key < keys.high
        lower_at_or_above = keys.low is not None and not keys.low < split_key
        if upper_at_or_below:
            left.append(entry)
        elif lower_at_or_above:
            right.append(entry)
        else:
            # Key range strictly contains the split value: copy to both.
            copied.append(entry)
            left.append(entry)
            right.append(entry)
    if not left or not right:
        raise SplitError(f"index key split at {split_key!r} leaves one half empty")
    return IndexKeySplit(
        split_key=split_key,
        left=tuple(left),
        right=tuple(right),
        copied=tuple(copied),
    )


def choose_index_split_key(entries: Sequence[IndexEntry]) -> Key:
    """Pick a split value for an index keyspace split.

    Section 3.5: "The split value may be any key value actually used in an
    index entry in the node."  We take the median of the distinct lower
    bounds, excluding the overall minimum (which would leave the left half
    empty).
    """
    bounds = sorted(
        {entry.region.keys.low for entry in entries if entry.region.keys.low is not None}
    )
    if not bounds:
        raise SplitError("index node has no finite key bounds to split at")
    candidates = [
        bound
        for bound in bounds
        if any(
            entry.region.keys.high is not None
            and not bound < entry.region.keys.high
            for entry in entries
        )
        and any(
            entry.region.keys.low is not None and not entry.region.keys.low < bound
            for entry in entries
        )
    ]
    if not candidates:
        raise SplitError("no key value splits this index node into two non-empty halves")
    return candidates[len(candidates) // 2]


@dataclass(frozen=True)
class IndexTimeSplit:
    """Result of a (local) index-node time split."""

    split_time: int
    historical: Tuple[IndexEntry, ...]
    current: Tuple[IndexEntry, ...]
    copied: Tuple[IndexEntry, ...]


def find_local_index_split_time(entries: Sequence[IndexEntry]) -> Optional[int]:
    """Largest time T at which this index node can be *locally* time split.

    The constraint (section 3.5): no entry referencing a current node may be
    placed in the historical index node, because current children can still
    split and their parent entries must remain updatable.  Therefore T must
    not exceed the start time of any current entry's region, and at least one
    entry must end at or before T (otherwise nothing would migrate).

    Returns ``None`` when no such T exists — the Figure 9 situation, where an
    old data node that has never been time split blocks the index split.
    """
    if not entries:
        return None
    current_starts = [
        entry.region.times.start for entry in entries if entry.is_current
    ]
    limit: Optional[int] = min(current_starts) if current_starts else None
    candidate: Optional[int] = None
    for entry in entries:
        end = entry.region.times.end
        if end is None:
            continue
        if limit is not None and end > limit:
            continue
        if candidate is None or end > candidate:
            candidate = end
    return candidate


def index_time_split(entries: Sequence[IndexEntry], split_time: int) -> IndexTimeSplit:
    """Split index entries at ``split_time`` (which must be local — see above)."""
    historical: List[IndexEntry] = []
    current: List[IndexEntry] = []
    copied: List[IndexEntry] = []
    for entry in entries:
        times = entry.region.times
        if times.end is not None and times.end <= split_time:
            historical.append(entry)
        elif times.start >= split_time:
            current.append(entry)
        else:
            # The entry's time range crosses the split time.
            if entry.is_current:
                raise SplitError(
                    f"index time split at {split_time} is not local: entry "
                    f"{entry} references a current node and spans the split time"
                )
            copied.append(entry)
            historical.append(entry)
            current.append(entry)
    if not historical:
        raise SplitError(f"index time split at {split_time} would migrate nothing")
    if not current:
        raise SplitError(
            f"index time split at {split_time} would leave no current entries"
        )
    return IndexTimeSplit(
        split_time=split_time,
        historical=tuple(historical),
        current=tuple(current),
        copied=tuple(copied),
    )


@dataclass(frozen=True)
class ReferenceIndexSplit:
    """An index split decided and made on entry lists: the kind, the split
    time or key, the entries copied to both halves, and each half in the
    parent's entry order as its page image, or as its own split when it did
    not fit a page."""

    kind: SplitKind
    at: object
    halves: Tuple[Union[bytes, "ReferenceIndexSplit"], ...]
    copied: int


def reference_index_split(
    entries: Sequence[IndexEntry], region: Rectangle, level: int, page_size: int, time_first: bool
) -> ReferenceIndexSplit:
    """Split an index node holding ``entries`` the list way, as the tree
    did: each half is a node built from its entry list, and a current half
    that does not fit ``page_size`` is split again."""

    def node(half: Sequence[IndexEntry], half_region: Rectangle) -> IndexNode:
        return IndexNode(Address.magnetic(0), half_region, list(half), level)

    def fitted(half: Sequence[IndexEntry], half_region: Rectangle):
        built = node(half, half_region)
        return built.encode() if built.fits(page_size) else split(half, half_region)

    def by_time(entries: Sequence[IndexEntry], region: Rectangle, split_time: int):
        historical_region, current_region = split_region_by_time(region, split_time)
        cut = index_time_split(entries, split_time)
        halves = (
            node(cut.historical, historical_region).encode(),
            fitted(cut.current, current_region),
        )
        return ReferenceIndexSplit(SplitKind.TIME, split_time, halves, len(cut.copied))

    def by_key(entries: Sequence[IndexEntry], region: Rectangle):
        split_key = choose_index_split_key(entries)
        left_region, right_region = split_region_by_key(region, split_key)
        cut = index_key_split(entries, split_key)
        halves = (fitted(cut.left, left_region), fitted(cut.right, right_region))
        return ReferenceIndexSplit(SplitKind.KEY, split_key, halves, len(cut.copied))

    def split(entries: Sequence[IndexEntry], region: Rectangle):
        if time_first:
            split_time = find_local_index_split_time(entries)
            if split_time is not None and split_time > region.times.start:
                try:
                    return by_time(entries, region, split_time)
                except SplitError:
                    pass
        try:
            return by_key(entries, region)
        except SplitError:
            split_time = find_local_index_split_time(entries)
            if split_time is None or split_time <= region.times.start:
                raise
            return by_time(entries, region, split_time)

    return split(entries, region)
