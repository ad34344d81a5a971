"""The metric catalogue: every name, unit and bound the benchmark prints.

``BENCHMARK.json`` at the repository root registers exactly these names; the
smoke test keeps the two in step.  End-to-end metrics are what a user of the
store sees and are measured with tracing off; per-layer metrics come from the
separate traced run (``--trace 1``) and carry no bound.
"""

from __future__ import annotations

from typing import List, Tuple

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.20),
    ("cpu_ms_per_op", "ms", "lower", 0.20),
    ("write_p50_ms", "ms", "lower", 0.20),
    ("write_p95_ms", "ms", "lower", 0.25),
    ("read_p50_ms", "ms", "lower", 0.20),
    ("read_p95_ms", "ms", "lower", 0.25),
    ("scan_p50_ms", "ms", "lower", 0.20),
    ("scan_rows_per_s", "rows/s", "higher", 0.20),
    ("recovery_s", "s", "lower", 0.25),
    ("bytes_stored_per_user_byte", "ratio", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: Layers are this repo's modules, outermost first (the ROADMAP ladder read
#: top-down).  ``server.service`` is a residual, not a wrapped layer.
LAYERS: List[str] = [
    "client",
    "server.protocol",
    "server.service",
    "replication",
    "api.sharded",
    "api.store",
    "txn",
    "recovery",
    "core.tsb_tree",
    "core.nodes",
    "storage.pagecache",
    "storage.devices",
]

_EXTRA: List[Tuple[str, str, str]] = [
    ("client.requests", "count", "lower"),
    ("client.busy_retries", "count", "lower"),
    ("server.protocol.bytes_per_op", "bytes", "lower"),
    ("server.requests", "count", "lower"),
    ("server.busy", "count", "lower"),
    ("server.errors", "count", "lower"),
    ("server.batch_fill_avg", "count", "higher"),
    ("server.inflight_max", "count", "lower"),
    ("replication.batches_sent", "count", "lower"),
    ("replication.batch_records_avg", "count", "higher"),
    ("replication.batch_bytes", "bytes", "lower"),
    ("replication.lag_lsn_max", "count", "lower"),
    ("replication.catchup_s", "s", "lower"),
    ("replication.watermark_wait_s", "s", "lower"),
    ("api.sharded.scatter_fanout_avg", "count", "lower"),
    ("api.sharded.shard_splits", "count", "lower"),
    ("api.store.latch_write_wait_s", "s", "lower"),
    ("api.store.latch_read_wait_s", "s", "lower"),
    ("api.store.latch_write_hold_s", "s", "lower"),
    ("txn.commits", "count", "lower"),
    ("txn.aborts", "count", "lower"),
    ("txn.lock_waits", "count", "lower"),
    ("recovery.wal_forces", "count", "lower"),
    ("recovery.commits_per_force", "count", "higher"),
    ("recovery.wal_bytes_per_user_byte", "ratio", "lower"),
    ("recovery.checkpoint_s_max", "s", "lower"),
    ("recovery.records_scanned", "count", "lower"),
    ("recovery.ops_replayed", "count", "lower"),
    ("recovery.redo_ops_per_s", "ops/s", "higher"),
    ("core.tsb_tree.data_time_splits", "count", "lower"),
    ("core.tsb_tree.data_key_splits", "count", "lower"),
    ("core.tsb_tree.index_splits", "count", "lower"),
    ("core.tsb_tree.redundant_versions_written", "count", "lower"),
    ("core.tsb_tree.historical_nodes_written", "count", "lower"),
    ("core.tsb_tree.height", "count", "lower"),
    ("core.tsb_tree.redundancy_ratio", "ratio", "lower"),
    ("core.tsb_tree.nodes_read_per_lookup", "count", "lower"),
    ("core.nodes.decodes_per_op", "count", "lower"),
    ("core.nodes.encodes_per_op", "count", "lower"),
    ("storage.pagecache.hit_ratio", "ratio", "higher"),
    ("storage.pagecache.evictions", "count", "lower"),
    ("storage.pagecache.flushes", "count", "lower"),
    ("storage.magnetic.reads", "count", "lower"),
    ("storage.magnetic.writes", "count", "lower"),
    ("storage.magnetic.bytes_written", "bytes", "lower"),
    ("storage.worm.reads", "count", "lower"),
    ("storage.worm.bytes_written", "bytes", "lower"),
    ("storage.logdevice.forces", "count", "lower"),
    ("storage.logdevice.bytes_forced", "bytes", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
]

#: (name, unit, better): ``<layer>.self_s`` and ``<layer>.calls`` for every
#: layer, then the counters read through public accessors.
PER_LAYER: List[Tuple[str, str, str]] = [
    metric
    for layer in LAYERS
    for metric in (
        (f"{layer}.self_s", "s", "lower"),
        (f"{layer}.calls", "count", "lower"),
    )
] + _EXTRA

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
