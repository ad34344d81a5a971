"""Span recorder for the traced run: wrap each layer's public entry points.

Spans are recorded from the benchmark's own files — nothing under ``src/`` is
edited.  :func:`tracing` replaces the public entry points listed in
:data:`TARGETS` with timing wrappers for the duration of a ``with`` block and
puts the originals back afterwards.  A span is ``(name, start, end, parent)``
where the parent is the enclosing span on the same thread; spans stay in
memory until :meth:`Recorder.summary` folds them into per-layer numbers.

A layer's ``self_s`` is its spans' duration minus what their child spans
cover, so the layers' self times add up to the time spent inside any span.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import threading
from time import perf_counter, thread_time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``(layer, module, class-or-None, names)``.  ``names`` is a tuple of exact
#: names or prefixes ending in ``*``; ``None`` means every public function the
#: class itself defines.  Generator and coroutine functions are skipped (a
#: wrapper would time their creation, not their work).
TARGETS: Sequence[Tuple[str, str, Optional[str], Optional[Tuple[str, ...]]]] = (
    ("client", "repro.client", "ReproClient", None),
    ("client", "repro.client", "Pipeline", None),
    ("client", "repro.client", "PipelinedResult", ("result",)),
    (
        "server.protocol",
        "repro.server.protocol",
        None,
        ("encode_*", "decode_*", "pack_*", "unpack_*", "check_frame_*", "chunk_*"),
    ),
    ("replication", "repro.replication.primary", "ReplicationPrimary", None),
    ("replication", "repro.replication.replica", "Replica", None),
    ("replication", "repro.replication.apply", "LogReplayer", ("apply", "replay")),
    ("api.sharded", "repro.api.sharded", "ShardedVersionStore", None),
    ("api.sharded", "repro.api.sharded", "ShardedEngine", None),
    ("api.store", "repro.api.store", "VersionStore", None),
    ("api.store", "repro.api.store", "ReadView", None),
    ("api.store", "repro.api.adapters", "TSBEngine", None),
    ("txn", "repro.txn.manager", "TransactionManager", None),
    (
        "recovery",
        "repro.recovery.log_manager",
        "LogManager",
        ("log_*", "force", "checkpoint", "wait_durable"),
    ),
    ("recovery", "repro.recovery.recovery_manager", "RecoveryManager", ("recover",)),
    ("core.tsb_tree", "repro.core.tsb_tree", "TSBTree", None),
    ("core.nodes", "repro.core.nodes", "DataNode", ("encode", "decode")),
    ("core.nodes", "repro.core.nodes", "IndexNode", ("encode", "decode")),
    ("core.nodes", "repro.core.nodes", None, ("decode_node",)),
    ("storage.pagecache", "repro.storage.pagecache", "PageCache", ("read", "write", "flush")),
    ("storage.devices", "repro.storage.magnetic", "MagneticDisk", ("read", "write")),
    ("storage.devices", "repro.storage.worm", "WormDisk", ("append_region", "read")),
    ("storage.devices", "repro.storage.logdevice", "LogDevice", ("append", "force")),
)

#: The follower-watermark wait is replication lag seen from the client; it is
#: kept out of the ``client`` layer and reported as its own number.
WATERMARK_WAIT = "ReproClient.wait_for_watermark"

#: Wrapped functions whose returned frame length is wire bytes.
_FRAME_ENCODERS = ("encode_request", "encode_response")


def _matches(name: str, patterns: Optional[Tuple[str, ...]]) -> bool:
    if patterns is None:
        return True
    return any(
        name.startswith(pattern[:-1]) if pattern.endswith("*") else name == pattern
        for pattern in patterns
    )


class Recorder:
    """Per-thread span lists plus the name table they index into."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self.cpu_timed: List[bool] = []
        self._local = threading.local()
        self._threads: List[list] = []
        self._lock = threading.Lock()

    def _thread_state(self):
        state = ([], [])  # (spans, stack of open span indices)
        self._local.state = state
        with self._lock:
            self._threads.append(state[0])
        return state

    def wrap(self, function: Callable, layer: str, label: str) -> Callable:
        """A wrapper recording one span per call of ``function``."""
        name_id = len(self.names)
        # The extra field: wire bytes for frame encoders, thread CPU seconds
        # for client calls (which mostly wait), nothing elsewhere.
        sized = label in _FRAME_ENCODERS
        cpu_timed = layer == "client"
        if label == WATERMARK_WAIT:
            layer = "replication.wait"
        self.names.append(label)
        self.layers.append(layer)
        self.cpu_timed.append(cpu_timed)
        local = self._local
        new_state = self._thread_state

        def wrapper(*args, **kwargs):
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = new_state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            extra = 0.0
            cpu_started = thread_time() if cpu_timed else 0.0
            started = perf_counter()
            try:
                result = function(*args, **kwargs)
                if sized:
                    extra = len(result)
                return result
            finally:
                ended = perf_counter()
                if cpu_timed:
                    extra = thread_time() - cpu_started
                stack.pop()
                spans[index] = (name_id, started, ended, parent, extra)

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", label)
        return wrapper

    def summary(self) -> Dict[str, object]:
        """Fold every finished span into per-layer and per-name totals."""
        layer_self: Dict[str, float] = {}
        layer_calls: Dict[str, int] = {}
        client_cpu_self = 0.0
        root_by_layer: Dict[str, float] = {}
        name_calls: Dict[str, int] = {}
        name_total: Dict[str, float] = {}
        name_max: Dict[str, float] = {}
        frame_bytes = 0
        span_count = 0
        with self._lock:
            threads = [list(spans) for spans in self._threads]
        for spans in threads:
            covered = [0.0] * len(spans)
            cpu_covered = [0.0] * len(spans)
            for span in spans:
                if span is None:
                    continue
                name_id, started, ended, parent, extra = span
                if parent >= 0:
                    covered[parent] += ended - started
                    # Below the client every span is pure computation: its
                    # wall time is CPU its client parent also burned.
                    cpu_covered[parent] += (
                        extra if self.cpu_timed[name_id] else ended - started
                    )
            for index, span in enumerate(spans):
                if span is None:
                    continue
                span_count += 1
                name_id, started, ended, parent, extra = span
                duration = ended - started
                layer = self.layers[name_id]
                name = self.names[name_id]
                layer_self[layer] = layer_self.get(layer, 0.0) + duration - covered[index]
                layer_calls[layer] = layer_calls.get(layer, 0) + 1
                name_calls[name] = name_calls.get(name, 0) + 1
                name_total[name] = name_total.get(name, 0.0) + duration
                if duration > name_max.get(name, 0.0):
                    name_max[name] = duration
                if parent < 0:
                    root_by_layer[layer] = root_by_layer.get(layer, 0.0) + duration
                if layer == "client":
                    client_cpu_self += extra - cpu_covered[index]
                elif name in _FRAME_ENCODERS:
                    frame_bytes += int(extra)
        return {
            "layer_self_s": layer_self,
            "layer_calls": layer_calls,
            "client_cpu_self_s": max(0.0, client_cpu_self),
            "name_calls": name_calls,
            "name_total_s": name_total,
            "name_max_s": name_max,
            "root_s_by_layer": root_by_layer,
            "frame_bytes": frame_bytes,
            "spans": span_count,
        }

    def dump(self, limit: int) -> Dict[str, object]:
        """The raw spans (at most ``limit``), for ``out/trace_<workload>.json``."""
        rows = []
        total = 0
        with self._lock:
            threads = [list(spans) for spans in self._threads]
        for thread_index, spans in enumerate(threads):
            for index, span in enumerate(spans):
                if span is None:
                    continue
                total += 1
                if len(rows) < limit:
                    name_id, started, ended, parent, _ = span
                    rows.append([thread_index, index, name_id, started, ended, parent])
        return {
            "names": self.names,
            "layers": self.layers,
            "columns": ["thread", "index", "name", "start_s", "end_s", "parent_index"],
            "spans": rows,
            "spans_total": total,
            "truncated": total > len(rows),
        }


def _functions_of(owner, patterns) -> Iterator[Tuple[str, object]]:
    for name, raw in list(vars(owner).items()):
        if name.startswith("_") or not _matches(name, patterns):
            continue
        function = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        if not inspect.isfunction(function):
            continue
        if inspect.isgeneratorfunction(function) or inspect.iscoroutinefunction(function):
            continue
        if not inspect.isclass(owner) and function.__module__ != owner.__name__:
            continue  # a name the module merely imported
        yield name, raw


@contextlib.contextmanager
def tracing(recorder: Recorder):
    """Install the wrappers for the duration of the block, then restore."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for layer, module_name, class_name, patterns in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            for name, raw in _functions_of(owner, patterns):
                label = name if class_name is None else f"{class_name}.{name}"
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(recorder.wrap(raw.__func__, layer, label))
                elif isinstance(raw, classmethod):
                    continue  # alternate constructors: not hot, not timed
                else:
                    wrapped = recorder.wrap(raw, layer, label)
                undo.append((owner, name, raw))
                setattr(owner, name, wrapped)
                if class_name is None:
                    # ``from module import name`` copies: rebind those too.
                    for other in list(sys.modules.values()):
                        if other is None or other is module:
                            continue
                        if not getattr(other, "__name__", "").startswith("repro."):
                            continue
                        if vars(other).get(name) is raw:
                            undo.append((other, name, raw))
                            setattr(other, name, wrapped)
        yield recorder
    finally:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)
