"""Zero-dependency observability: metrics, spans and exposition.

The paper's argument is a *cost* argument — current-data lookups must touch
only the magnetic tier while historical queries pay optical seeks — and the
rest of the stack (latches, record locks, group commit, scatter-gather)
exists to keep that cost model honest under concurrency.  This package makes
the whole stack observable without adding any dependency:

:mod:`repro.obs.registry`
    Thread-safe :class:`~repro.obs.registry.MetricsRegistry` with counters,
    gauges and fixed-bucket latency histograms (p50/p95/p99 via bucket
    interpolation).  One registry per store, aggregatable across shards.
    A module-level switch (:func:`~repro.obs.registry.set_enabled`) turns
    every recording site into a no-op.

:mod:`repro.obs.trace`
    Lightweight span API (``with trace.span("tsb.split", key=...)``)
    recording a bounded in-memory ring of spans with parent/child links,
    exportable as Chrome ``trace_event`` JSON.  A sharded ``time_slice``
    appears as one tree: one span per shard under the query's own span.
    Tracing has its own switch and defaults *off*.

:mod:`repro.obs.prometheus`
    Text-format exposition of a registry for scrapers.

Surface: ``store.metrics_snapshot()`` (nested dict), ``python -m repro
stats`` (one-shot or ``--watch``) and ``python -m repro trace <op>``.
"""

from repro.obs.registry import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    enabled,
    reset_session,
    session_histograms,
    set_enabled,
)
from repro.obs.prometheus import render_prometheus
from repro.obs import trace

__all__ = [
    "COUNT_BUCKETS",
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "enabled",
    "render_prometheus",
    "reset_session",
    "session_histograms",
    "set_enabled",
    "trace",
]
