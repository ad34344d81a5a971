"""I/O accounting for the two-tier storage system.

Every device records the operations performed against it so that the
experiment harness (``repro.analysis``) can report the access-cost side of the
paper's argument: current-data lookups should touch only the (fast) magnetic
device, while historical queries may pay optical seeks and, in the jukebox
configuration, robot mounts (paper, section 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable


@dataclass
class IOStats:
    """Mutable operation counters for a single device.

    The counters are intentionally simple integers so they can be snapshotted
    (:meth:`snapshot`) and diffed (:meth:`delta`) around a query or a batch of
    operations.
    """

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    seeks: int = 0
    sectors_written: int = 0
    mounts: int = 0
    erases: int = 0
    service_time_s: float = 0.0

    def record_read(self, nbytes: int, *, seek: bool = True, seconds: float = 0.0) -> None:
        self.reads += 1
        self.bytes_read += nbytes
        self.service_time_s += seconds
        if seek:
            self.seeks += 1

    def record_write(
        self, nbytes: int, *, sectors: int = 0, seek: bool = True, seconds: float = 0.0
    ) -> None:
        self.writes += 1
        self.bytes_written += nbytes
        self.sectors_written += sectors
        self.service_time_s += seconds
        if seek:
            self.seeks += 1

    def record_mount(self) -> None:
        self.mounts += 1

    def record_erase(self) -> None:
        self.erases += 1

    def snapshot(self) -> "IOStats":
        """Return an independent copy of the current counter values."""
        return IOStats(
            reads=self.reads,
            writes=self.writes,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            seeks=self.seeks,
            sectors_written=self.sectors_written,
            mounts=self.mounts,
            erases=self.erases,
            service_time_s=self.service_time_s,
        )

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Return the counter increments since ``earlier`` was snapshotted."""
        return IOStats(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            seeks=self.seeks - earlier.seeks,
            sectors_written=self.sectors_written - earlier.sectors_written,
            mounts=self.mounts - earlier.mounts,
            erases=self.erases - earlier.erases,
            service_time_s=self.service_time_s - earlier.service_time_s,
        )

    def combined(self, other: "IOStats") -> "IOStats":
        """Return the element-wise sum of two counter sets."""
        return IOStats(
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            seeks=self.seeks + other.seeks,
            sectors_written=self.sectors_written + other.sectors_written,
            mounts=self.mounts + other.mounts,
            erases=self.erases + other.erases,
            service_time_s=self.service_time_s + other.service_time_s,
        )

    def reset(self) -> None:
        """Zero every counter in place."""
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.seeks = 0
        self.sectors_written = 0
        self.mounts = 0
        self.erases = 0
        self.service_time_s = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Return the counters as a plain dictionary (for reports)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "seeks": self.seeks,
            "sectors_written": self.sectors_written,
            "mounts": self.mounts,
            "erases": self.erases,
            "service_time_s": round(self.service_time_s, 9),
        }

    @property
    def total_operations(self) -> int:
        return self.reads + self.writes


def merge_io_summaries(
    summaries: Iterable[Dict[str, IOStats]]
) -> Dict[str, IOStats]:
    """Sum per-tier I/O counters across stores (shards), tier by tier.

    The result is a snapshot built from copies — unlike a single store's
    live counter objects it does not keep counting; diff two merged
    summaries to measure a scatter-gather query's cost.
    """
    merged: Dict[str, IOStats] = {}
    for summary in summaries:
        for tier, stats in summary.items():
            merged[tier] = merged.get(tier, IOStats()).combined(stats)
    return merged


@dataclass
class TieredIOStats:
    """Counters for both halves of the database, keyed by device name."""

    per_device: Dict[str, IOStats] = field(default_factory=dict)

    def stats_for(self, device_name: str) -> IOStats:
        """Return (creating if needed) the counters for ``device_name``."""
        if device_name not in self.per_device:
            self.per_device[device_name] = IOStats()
        return self.per_device[device_name]

    def snapshot(self) -> "TieredIOStats":
        return TieredIOStats(
            per_device={name: stats.snapshot() for name, stats in self.per_device.items()}
        )

    def delta(self, earlier: "TieredIOStats") -> "TieredIOStats":
        result = TieredIOStats()
        for name, stats in self.per_device.items():
            base = earlier.per_device.get(name, IOStats())
            result.per_device[name] = stats.delta(base)
        return result

    def total(self) -> IOStats:
        """Return the sum of counters across all devices."""
        combined = IOStats()
        for stats in self.per_device.values():
            combined = combined.combined(stats)
        return combined
