"""Thread-safe metrics: counters, gauges and fixed-bucket histograms.

Design constraints, in order:

* **Zero hot-path cost when disabled.**  Every registry-level recording
  helper (:meth:`MetricsRegistry.inc` / :meth:`~MetricsRegistry.observe` /
  :meth:`~MetricsRegistry.timer`) checks the module switch first and does
  nothing (or returns a shared no-op timer) when observability is off.
  Instrumented code never needs its own flag.
* **Cheap when enabled.**  A histogram record is one ``bisect`` over ~20
  bucket bounds plus a few integer adds under a per-histogram lock; a timer
  is two ``perf_counter`` calls around that.  The registry's name->object
  maps are read lock-free on the hot path (CPython dict reads are atomic)
  and only locked to create.
* **Aggregatable.**  Registries merge: the sharded store sums its shard
  registries into one view, and closed stores retire their histograms into
  a process-wide *session* accumulator so the benchmark harness can embed
  latency distributions in ``BENCH_<name>.json`` even after every store of
  a run has been closed and garbage-collected.

Percentiles come from linear interpolation inside the bucket that contains
the requested rank — the standard fixed-bucket estimate (what Prometheus'
``histogram_quantile`` computes server-side), good to a bucket's width.
"""

from __future__ import annotations

import threading
import time
import weakref
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Module-level switch: when False, every recording helper is a no-op.
_ENABLED = True


def enabled() -> bool:
    """Whether metrics recording is currently on."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Turn metrics recording on or off; returns the previous setting."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


#: Default latency bucket upper bounds in seconds: a 1-2-5 geometric ladder
#: from 1 microsecond to 10 seconds (values above fall into the overflow
#: bucket, whose upper edge is the observed maximum).
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2e-6, 5e-6,
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0,
)

#: Bucket bounds for small cardinalities (group-commit batch sizes,
#: scatter-gather fan-out widths).
COUNT_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket distribution with interpolated percentiles.

    ``bounds`` are ascending bucket *upper* edges; one overflow bucket
    catches everything above the last bound.  All mutation happens under a
    per-histogram lock, so one histogram can be shared by many threads.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "max_value", "_lock")

    def __init__(self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a non-empty ascending sequence")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.total += value
            if value > self.max_value:
                self.max_value = value

    def time(self) -> "Timer":
        """A context manager recording its ``with`` body's wall time here."""
        return Timer(self)

    def merge_from(self, other: "Histogram") -> None:
        """Fold ``other``'s distribution into this one (bounds must match)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r}: bucket bounds differ"
            )
        with other._lock:
            counts = list(other.counts)
            count = other.count
            total = other.total
            max_value = other.max_value
        with self._lock:
            for index, bucket in enumerate(counts):
                self.counts[index] += bucket
            self.count += count
            self.total += total
            if max_value > self.max_value:
                self.max_value = max_value

    def percentile(self, quantile: float) -> float:
        """The value at ``quantile`` (0..1), interpolated within its bucket."""
        with self._lock:
            counts = list(self.counts)
            count = self.count
            max_value = self.max_value
        return _interpolate(self.bounds, counts, count, max_value, quantile)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready summary: count, sum, avg, max, p50/p95/p99, buckets."""
        with self._lock:
            counts = list(self.counts)
            count = self.count
            total = self.total
            max_value = self.max_value
        buckets = [
            [self.bounds[index] if index < len(self.bounds) else "+Inf", bucket]
            for index, bucket in enumerate(counts)
            if bucket
        ]
        return {
            "count": count,
            "sum": round(total, 9),
            "avg": round(total / count, 9) if count else 0.0,
            "max": round(max_value, 9),
            "p50": round(_interpolate(self.bounds, counts, count, max_value, 0.50), 9),
            "p95": round(_interpolate(self.bounds, counts, count, max_value, 0.95), 9),
            "p99": round(_interpolate(self.bounds, counts, count, max_value, 0.99), 9),
            "buckets": buckets,
        }


def _interpolate(
    bounds: Sequence[float],
    counts: Sequence[int],
    count: int,
    max_value: float,
    quantile: float,
) -> float:
    if count == 0:
        return 0.0
    target = max(1e-12, quantile) * count
    cumulative = 0
    for index, bucket in enumerate(counts):
        if bucket and cumulative + bucket >= target:
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index] if index < len(bounds) else max(max_value, lower)
            fraction = (target - cumulative) / bucket
            # The bucket's upper edge can lie above every sample in it, and
            # rounding can carry the interpolation one ulp past that edge.
            return min(lower + (upper - lower) * fraction, upper, max_value)
        cumulative += bucket
    return max_value


class _NoopTimer:
    """Shared do-nothing timer handed out while metrics are disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopTimer":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NOOP_TIMER = _NoopTimer()


class Timer:
    """Context manager recording its ``with`` body's wall time."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._histogram.record(time.perf_counter() - self._start)
        return False


class MetricsRegistry:
    """One store's (or one subsystem's) named metrics.

    ``register=False`` keeps a registry out of the process-wide session
    bookkeeping — used for transient aggregation results.
    """

    def __init__(self, name: str = "store", register: bool = True) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._retired = False
        if register:
            with _SESSION_LOCK:
                _LIVE.add(self)

    # ------------------------------------------------------------------
    # Instrument lookup (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    name, Histogram(name, bounds=bounds or LATENCY_BUCKETS)
                )
        return instrument

    # ------------------------------------------------------------------
    # Recording (each helper is a no-op while metrics are disabled)
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        if _ENABLED:
            self.counter(name).inc(amount)

    def observe(
        self, name: str, value: float, bounds: Optional[Sequence[float]] = None
    ) -> None:
        if _ENABLED:
            self.histogram(name, bounds=bounds).record(value)

    def set_gauge(self, name: str, value: float) -> None:
        if _ENABLED:
            self.gauge(name).set(value)

    def timer(self, name: str):
        """Time a ``with`` body into the named latency histogram."""
        if not _ENABLED:
            return NOOP_TIMER
        return Timer(self.histogram(name))

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {name: counter.value for name, counter in self._counters.items()}

    def gauges(self) -> Dict[str, float]:
        with self._lock:
            return {name: gauge.value for name, gauge in self._gauges.items()}

    def histograms(self) -> Dict[str, Histogram]:
        with self._lock:
            return dict(self._histograms)

    def snapshot(self) -> Dict[str, object]:
        """Everything recorded so far, as one nested JSON-ready dict."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self.histograms().items())
            },
        }

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s counters, gauges and histograms into this one."""
        for name, value in other.counters().items():
            self.counter(name).inc(value)
        for name, value in other.gauges().items():
            self.gauge(name).add(value)
        for name, histogram in other.histograms().items():
            self.histogram(name, bounds=histogram.bounds).merge_from(histogram)

    @classmethod
    def aggregate(
        cls, registries: Iterable["MetricsRegistry"], name: str = "aggregate"
    ) -> "MetricsRegistry":
        """A transient registry holding the element-wise sum of ``registries``."""
        merged = cls(name=name, register=False)
        for registry in registries:
            merged.merge_from(registry)
        return merged

    def retire(self) -> None:
        """Fold this registry into the session accumulator (store close).

        Idempotent: a registry retires at most once, so re-closing a store
        never double-counts its distributions.
        """
        with _SESSION_LOCK:
            if self._retired:
                return
            self._retired = True
        _SESSION.merge_from(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(name={self.name!r}, "
            f"counters={len(self._counters)}, histograms={len(self._histograms)})"
        )


# ----------------------------------------------------------------------
# Session accumulation: what the benchmark harness embeds in BENCH JSON
# ----------------------------------------------------------------------
_SESSION_LOCK = threading.Lock()
_SESSION = MetricsRegistry(name="session", register=False)
_LIVE: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()


def session_histograms() -> Dict[str, Dict[str, object]]:
    """Process-wide latency distributions: retired stores plus live ones.

    Stores fold their registries into the session accumulator when closed
    (:meth:`MetricsRegistry.retire`); still-open stores are summed in live.
    Only histograms with at least one observation are reported.
    """
    merged = MetricsRegistry(name="session-view", register=False)
    with _SESSION_LOCK:
        live = [registry for registry in _LIVE if not registry._retired]
    merged.merge_from(_SESSION)
    for registry in live:
        merged.merge_from(registry)
    return {
        name: histogram.snapshot()
        for name, histogram in sorted(merged.histograms().items())
        if histogram.count
    }


def reset_session() -> None:
    """Forget every session accumulation (test isolation)."""
    with _SESSION_LOCK:
        _SESSION._counters.clear()
        _SESSION._gauges.clear()
        _SESSION._histograms.clear()
        _LIVE.clear()
