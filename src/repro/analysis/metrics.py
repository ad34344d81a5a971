"""Derived metrics shared by the experiment harness and the benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.stats import SpaceStats
from repro.storage.costmodel import CostModel
from repro.storage.iostats import IOStats


@dataclass
class QueryCost:
    """I/O incurred by one query (or one batch of queries)."""

    magnetic_reads: int = 0
    historical_reads: int = 0
    mounts: int = 0
    bytes_read: int = 0
    estimated_ms: float = 0.0
    #: Actual simulated device service time (from ``IOStats.service_time_s``),
    #: as opposed to ``estimated_ms`` which prices the op counts after the
    #: fact through a CostModel.  Zero unless the devices were built with a
    #: positive ``access_latency_s``.
    device_time_ms: float = 0.0

    @property
    def total_reads(self) -> int:
        return self.magnetic_reads + self.historical_reads

    def as_dict(self) -> Dict[str, float]:
        return {
            "magnetic_reads": self.magnetic_reads,
            "historical_reads": self.historical_reads,
            "mounts": self.mounts,
            "bytes_read": self.bytes_read,
            "estimated_ms": round(self.estimated_ms, 3),
            "device_time_ms": round(self.device_time_ms, 3),
        }


def query_cost_from_deltas(
    magnetic_delta: IOStats,
    historical_delta: IOStats,
    cost_model: Optional[CostModel] = None,
) -> QueryCost:
    """Convert per-device counter deltas into a :class:`QueryCost`."""
    cost_model = cost_model or CostModel()
    return QueryCost(
        magnetic_reads=magnetic_delta.reads,
        historical_reads=historical_delta.reads,
        mounts=historical_delta.mounts,
        bytes_read=magnetic_delta.bytes_read + historical_delta.bytes_read,
        estimated_ms=cost_model.io_time_ms(magnetic_delta, historical_delta),
        device_time_ms=(
            magnetic_delta.service_time_s + historical_delta.service_time_s
        )
        * 1000.0,
    )


@dataclass
class ExperimentRow:
    """One row of an experiment result table.

    ``label`` identifies the configuration (policy name, update fraction,
    cost ratio, ...); ``metrics`` maps column name to value.  Rows are what
    :mod:`repro.analysis.report` renders and what EXPERIMENTS.md records.
    """

    label: str
    metrics: Dict[str, float] = field(default_factory=dict)

    def merged_with(self, extra: Dict[str, float]) -> "ExperimentRow":
        combined = dict(self.metrics)
        combined.update(extra)
        return ExperimentRow(label=self.label, metrics=combined)


def space_row(label: str, stats: SpaceStats, extra: Optional[Dict[str, float]] = None) -> ExperimentRow:
    """Build a result row from the section 5 space measurements."""
    metrics: Dict[str, float] = {
        "magnetic_bytes": stats.magnetic_bytes_used,
        "magnetic_pages": stats.magnetic_pages,
        "historical_bytes": stats.historical_bytes_used,
        "total_bytes": stats.total_bytes_used,
        "redundant_versions": stats.redundant_versions,
        "redundancy_ratio": round(stats.redundancy_ratio, 4),
        "historical_utilization": round(stats.historical_utilization, 4),
        "current_db_fraction": round(stats.current_database_fraction, 4),
        "height": stats.tree_height,
    }
    if stats.storage_cost is not None:
        metrics["storage_cost"] = round(stats.storage_cost, 1)
    if extra:
        metrics.update(extra)
    return ExperimentRow(label=label, metrics=metrics)


def summarize_rows(rows: List[ExperimentRow], column: str) -> Dict[str, float]:
    """Map label -> one column's value, for quick shape assertions in tests."""
    return {row.label: row.metrics[column] for row in rows if column in row.metrics}
