"""Space-use and redundancy accounting for a TSB-tree.

Section 5 of the paper announces the measurements the authors planned for
their implementation: *"total space use, space use in the current database,
and amount of redundancy, under different splitting policies and with
different rates of update versus insertion."*  :func:`collect_space_stats`
computes exactly those quantities (plus the supporting node counts and device
utilisation figures) by walking the tree and interrogating the devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.core.nodes import DataNode, IndexNode
from repro.core.tsb_tree import TSBTree
from repro.storage.costmodel import CostModel


@dataclass
class SpaceStats:
    """A snapshot of where every byte of the database lives.

    Attributes mirror the section 5 measurement plan:

    * ``magnetic_*`` — the current database (``SpaceM`` in the cost function);
    * ``historical_*`` — the historical database (``SpaceO``);
    * ``redundant_versions`` / ``redundant_bytes`` — versions stored more than
      once because they were alive across a time split (the paper's
      "amount of redundancy");
    * ``storage_cost`` is filled in by :meth:`with_cost_model`.
    """

    # current (magnetic) database
    magnetic_pages: int = 0
    magnetic_bytes_used: int = 0
    magnetic_bytes_stored: int = 0
    current_data_nodes: int = 0
    current_index_nodes: int = 0
    # historical (optical) database
    historical_bytes_used: int = 0
    historical_bytes_stored: int = 0
    historical_sectors: int = 0
    historical_data_nodes: int = 0
    historical_index_nodes: int = 0
    historical_utilization: float = 1.0
    # logical contents
    total_versions_stored: int = 0
    unique_versions: int = 0
    redundant_versions: int = 0
    total_version_bytes: int = 0
    redundant_bytes: int = 0
    live_keys: int = 0
    tree_height: int = 0
    # derived
    storage_cost: Optional[float] = None
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes_used(self) -> int:
        """Total device capacity consumed by both halves of the database."""
        return self.magnetic_bytes_used + self.historical_bytes_used

    @property
    def redundancy_ratio(self) -> float:
        """Stored versions per unique version (1.0 means no redundancy)."""
        if self.unique_versions == 0:
            return 1.0
        return self.total_versions_stored / self.unique_versions

    @property
    def current_database_fraction(self) -> float:
        """Fraction of total consumed capacity that sits on the magnetic disk."""
        total = self.total_bytes_used
        if total == 0:
            return 0.0
        return self.magnetic_bytes_used / total

    def with_cost_model(self, cost_model: CostModel) -> "SpaceStats":
        """Fill in ``storage_cost`` using the paper's ``CS`` formula."""
        self.storage_cost = cost_model.storage_cost(
            self.magnetic_bytes_used, self.historical_bytes_used
        )
        return self

    def as_dict(self) -> Dict[str, float]:
        """Flatten to a plain dict (used by the report tables)."""
        return {
            "magnetic_pages": self.magnetic_pages,
            "magnetic_bytes_used": self.magnetic_bytes_used,
            "magnetic_bytes_stored": self.magnetic_bytes_stored,
            "historical_bytes_used": self.historical_bytes_used,
            "historical_bytes_stored": self.historical_bytes_stored,
            "historical_sectors": self.historical_sectors,
            "historical_utilization": round(self.historical_utilization, 4),
            "total_bytes_used": self.total_bytes_used,
            "current_data_nodes": self.current_data_nodes,
            "current_index_nodes": self.current_index_nodes,
            "historical_data_nodes": self.historical_data_nodes,
            "historical_index_nodes": self.historical_index_nodes,
            "total_versions_stored": self.total_versions_stored,
            "unique_versions": self.unique_versions,
            "redundant_versions": self.redundant_versions,
            "redundant_bytes": self.redundant_bytes,
            "redundancy_ratio": round(self.redundancy_ratio, 4),
            "current_database_fraction": round(self.current_database_fraction, 4),
            "live_keys": self.live_keys,
            "tree_height": self.tree_height,
            "storage_cost": self.storage_cost if self.storage_cost is not None else 0.0,
        }


def collect_space_stats(
    tree: TSBTree, cost_model: Optional[CostModel] = None
) -> SpaceStats:
    """Walk ``tree`` and its devices and return a :class:`SpaceStats` snapshot.

    Read-only: no page is written.  ``magnetic_bytes_stored`` is what the
    device would store were every dirty page written back, taken from each
    current node's encoding (a node nobody mutated hands its image back).
    """
    stats = SpaceStats()
    stats.tree_height = tree.height
    stats.counters = tree.counters.as_dict()

    seen_versions: Set[Tuple] = set()
    live_keys: Set = set()

    magnetic = tree.magnetic
    stats.magnetic_bytes_stored = len(magnetic.read(tree.superblock_address))
    for node in tree.iter_nodes():
        if node.address.is_magnetic:
            stats.magnetic_bytes_stored += len(node.encode())
        if isinstance(node, DataNode):
            if node.address.is_magnetic:
                stats.current_data_nodes += 1
            else:
                stats.historical_data_nodes += 1
            for version in node.versions:
                stats.total_versions_stored += 1
                stats.total_version_bytes += version.serialized_size()
                identity = version.identity()
                if identity in seen_versions:
                    stats.redundant_versions += 1
                    stats.redundant_bytes += version.serialized_size()
                else:
                    seen_versions.add(identity)
                live_keys.add(version.key)
        elif isinstance(node, IndexNode):
            if node.address.is_magnetic:
                stats.current_index_nodes += 1
            else:
                stats.historical_index_nodes += 1

    stats.unique_versions = len(seen_versions)
    stats.live_keys = len(live_keys)

    stats.magnetic_pages = magnetic.allocated_pages
    stats.magnetic_bytes_used = magnetic.bytes_used

    historical = tree.historical
    stats.historical_bytes_used = getattr(historical, "bytes_used", 0)
    stats.historical_bytes_stored = getattr(historical, "bytes_stored", 0)
    stats.historical_sectors = getattr(historical, "sectors_burned", 0)
    stats.historical_utilization = getattr(historical, "burned_utilization", 1.0)

    if cost_model is not None:
        stats.with_cost_model(cost_model)
    return stats


def merge_space_summaries(
    summaries: Iterable[Dict[str, float]]
) -> Dict[str, float]:
    """Sum normalized space summaries; recompute the redundancy ratio.

    Byte and version counts add; the redundancy ratio is recomputed from
    the summed stored-versus-unique version totals (each input's unique
    count is recovered from its own ratio), not naively averaged.
    """
    merged: Dict[str, float] = {
        "magnetic_bytes": 0,
        "historical_bytes": 0,
        "total_bytes": 0,
        "versions_stored": 0,
    }
    standard = tuple(merged)
    unique_versions = 0.0
    count = 0
    for summary in summaries:
        count += 1
        for column in standard:
            merged[column] += summary.get(column, 0)
        ratio = summary.get("redundancy_ratio", 1.0) or 1.0
        unique_versions += summary.get("versions_stored", 0) / ratio
        for column, value in summary.items():
            if column in standard or column == "redundancy_ratio":
                continue
            merged[column] = merged.get(column, 0) + value
    merged["redundancy_ratio"] = (
        round(merged["versions_stored"] / unique_versions, 4) if unique_versions else 1.0
    )
    merged["shards"] = count
    return merged
