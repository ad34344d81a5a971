"""The version-list data-node split: the reference the column split is held to.

``repro.core.split`` applies the time-split rule and the key split to a full
node's slot columns, and ``repro.core.policy.SplitContext`` answers the
policies' questions from them.  This module keeps the earlier forms, which
take and give lists of ``Version`` — each written the plain way, group by
key and filter — so a test can check that, for any node and any policy, the
column split decides the same split and writes the same two pages
(``tests/core/test_split_columns.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.nodes import DataNode
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
