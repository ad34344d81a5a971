"""Lightweight span tracing with Chrome ``trace_event`` export.

A *span* is one timed region of one thread — ``with trace.span("tsb.split",
node=7):`` — carrying a name, free-form attributes, and a link to the span
it was opened under.  Finished spans land in a bounded in-memory ring; the
ring exports as Chrome's JSON ``trace_event`` format, so a ``put_many`` or
a sharded ``time_slice`` can be opened in ``chrome://tracing`` (or
https://ui.perfetto.dev) and read as a flame chart.

Parent/child links are per-thread: a thread-local stack of open span ids,
whose top :func:`current_id` reads.  Every span a store opens is opened on
the thread that called it, so a sharded query's per-shard spans are
children of the query's own span.

Tracing defaults **off** and has its own switch (:func:`set_enabled`),
independent of the metrics switch: metrics are cheap enough to keep on,
span bookkeeping is paid only when someone is about to export a trace.
While disabled, :func:`span` returns a shared no-op context manager.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

_ENABLED = False


def enabled() -> bool:
    """Whether span recording is currently on."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Turn span recording on or off; returns the previous setting."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


class Span:
    """One finished span: name, timing, thread, parent link, attributes."""

    __slots__ = ("name", "span_id", "parent_id", "thread", "start", "duration", "attrs")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        thread: int,
        start: float,
        duration: float,
        attrs: Dict[str, object],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread = thread
        self.start = start
        self.duration = duration
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"duration={self.duration * 1e3:.3f}ms)"
        )


class _NoopSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """A bounded ring of finished spans plus the per-thread open-span stacks."""

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError("trace ring capacity must be positive")
        self.capacity = capacity
        self._finished: "deque[Span]" = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Optional[int]]:
        """Open a span for the ``with`` body; records it when the body exits."""
        if not _ENABLED:
            yield None
            return
        stack = self._stack()
        parent_id = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            record = Span(
                name=name,
                span_id=span_id,
                parent_id=parent_id,
                thread=threading.get_ident(),
                start=start,
                duration=duration,
                attrs=dict(attrs),
            )
            with self._lock:
                self._finished.append(record)

    def current_id(self) -> Optional[int]:
        """The innermost open span on *this* thread (None outside any span)."""
        if not _ENABLED:
            return None
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # Inspection / export
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        """Finished spans, oldest first (bounded by the ring capacity)."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()

    def chrome_trace(self) -> Dict[str, object]:
        """The ring as a Chrome ``trace_event`` document (complete events)."""
        spans = self.spans()
        base = min((span.start for span in spans), default=0.0)
        tids: Dict[int, int] = {}
        events = []
        for span in sorted(spans, key=lambda item: item.start):
            tid = tids.setdefault(span.thread, len(tids) + 1)
            args: Dict[str, object] = {"span_id": span.span_id}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update(span.attrs)
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": round((span.start - base) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export(self, path) -> Path:
        """Write the ring as Chrome trace JSON; returns the written path."""
        target = Path(path)
        target.write_text(json.dumps(self.chrome_trace(), indent=2, default=str) + "\n")
        return target


#: The process-wide default tracer every module-level helper drives.
_TRACER = Tracer()


def span(name: str, **attrs: object):
    """Open a span on the default tracer (a shared no-op while disabled)."""
    if not _ENABLED:
        return _NOOP_SPAN
    return _TRACER.span(name, **attrs)


def current_id() -> Optional[int]:
    return _TRACER.current_id()


def spans() -> List[Span]:
    return _TRACER.spans()


def clear() -> None:
    _TRACER.clear()


def chrome_trace() -> Dict[str, object]:
    return _TRACER.chrome_trace()


def export(path) -> Path:
    return _TRACER.export(path)
