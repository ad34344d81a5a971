"""Run one workload, print its metrics, exit non-zero on any wrong answer.

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` is the separate traced run: it replays the first quarter of the
same operation stream bare, with the span wrappers of
:mod:`benchmarks.e2e.spans` installed, and bare again, and prints the
per-layer metrics.  End-to-end metrics never come from the traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import workloads as w
from benchmarks.e2e.catalog import END_TO_END_UNITS, LAYERS, PER_LAYER_UNITS
from benchmarks.e2e.harness import (
    Interval,
    Rig,
    midmean_rate,
    quantile,
    verify,
    windowed_quantile,
    windowed_rate,
)
from benchmarks.e2e.speed import MIN_SLICES, SpeedReference
from benchmarks.e2e.spans import WATERMARK_WAIT, Recorder, tracing
from benchmarks.e2e.sut import ADDITIVE

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
#: Raw spans written per traced run (all spans are always *counted*).
TRACE_FILE_SPANS = 200_000
#: Set-up is repeated and the median reported, so one slow boot is not a metric.
SETUPS = 3
#: The tail percentile of the latency metrics.  On every workload the latency
#: curve is still smooth here; a little above the 99th percentile two of them
#: have a knee (collector pauses in process, batch boundaries when served:
#: 0.3 ms at p99 against 0.7 ms at p99.5 on ``embedded_history``), and a
#: neighbour that delays another half percent of the operations moves the
#: knee across p99.  Result files keep p99 and p99.9 as measured
#: (``tails_as_measured_ms``).
TAIL = 0.95


def fingerprint(spec: w.Workload, seed: int, seconds: float, scale: float) -> Dict[str, object]:
    return {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "flush_policy": w.FLUSH_POLICY,
        "page_size": w.PAGE_SIZE,
        "devices": "in-memory simulations, access_latency_s=0: latencies are this sandbox's",
    }


def _git_sha() -> str:
    """HEAD of the enclosing checkout, read from ``.git`` (no subprocess)."""
    root = os.path.dirname(os.path.dirname(HERE))
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


#: End-to-end metrics that are rates (multiplied by the slowdown) — every
#: other timing is divided by it; ratios and megabytes are left alone.
_RATES = ("ops_per_s", "scan_rows_per_s")
_UNTIMED = ("bytes_stored_per_user_byte", "peak_rss_mb")


def end_to_end(
    rig: Rig,
    interval: Interval,
    setup_s: float,
    cpu_seconds: float,
    recovered: Dict[str, object],
    stored_bytes: float,
    user_bytes: int,
) -> Dict[str, float]:
    """The end-to-end metrics exactly as the clocks read them."""
    return {
        "setup_s": setup_s,
        "ops_per_s": windowed_rate(interval.marks),
        "cpu_ms_per_op": cpu_seconds * 1000.0 / interval.logical_ops,
        "write_p50_ms": quantile(interval.write_s, 0.50) * 1000.0,
        "write_p95_ms": windowed_quantile(interval.write_s, TAIL) * 1000.0,
        "read_p50_ms": quantile(interval.read_s, 0.50) * 1000.0,
        "read_p95_ms": windowed_quantile(interval.read_s, TAIL) * 1000.0,
        "scan_p50_ms": quantile(interval.scan_s, 0.50) * 1000.0,
        "scan_rows_per_s": midmean_rate(interval.scan_rows, interval.scan_s, at_least=100),
        "recovery_s": recovered["seconds"],
        "bytes_stored_per_user_byte": stored_bytes / user_bytes,
        "peak_rss_mb": rig.sut.peak_rss_mb(),
    }


def speed_normalised(
    raw: Dict[str, float], slowdown: Dict[str, float], setup_s: float
) -> Dict[str, float]:
    """``raw`` with every timing corrected for how slow the machine ran while
    it was taken (see :class:`~benchmarks.e2e.speed.SpeedReference`).  Each
    set-up has a slowdown of its own, so ``setup_s`` arrives corrected."""
    out = {}
    for name, value in raw.items():
        phase = "recovery" if name == "recovery_s" else "interval"
        if name == "setup_s":
            out[name] = setup_s
        elif name in _UNTIMED:
            out[name] = value
        elif name in _RATES:
            out[name] = value * slowdown[phase]
        else:
            out[name] = value / slowdown[phase]
    return out


def _stored_bytes(spec: w.Workload, counters: Dict[str, float]) -> float:
    """Data devices of every copy plus durable log bytes of every copy.

    A follower's mirror log is a byte-identical prefix of the primary's, and
    the interval ended caught up, so it holds the same durable bytes.
    """
    copies = 2 if spec.replicated else 1
    return counters["data_bytes"] + copies * counters["log.durable_bytes"]


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    out = dict(after)
    for name in ADDITIVE:
        out[name] = after[name] - before[name]
    return out


def per_layer(
    interval: Interval,
    trace_overhead_ratio: float,
    counters: Dict[str, float],
    versions_stored: int,
    recovered: Dict[str, object],
    user_bytes_written: int,
    busy_retries: int,
    here: Dict[str, object],
    child: Optional[Dict[str, object]],
) -> Dict[str, float]:
    """The per-layer table from the traced pass.

    ``here`` is this process's span summary, ``child`` the SUT child's (served
    workloads).  ``server.service`` is a residual: what the client waited,
    minus the follower-watermark waits, minus every span that accounts for a
    share of that wait — the time requests spent queued, batched, on the
    event loop and on the wire.
    """
    ops = interval.logical_ops
    summaries = [here] + ([child] if child else [])

    def total(field: str, name: str) -> float:
        return sum(summary[field].get(name, 0) for summary in summaries)

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = total("layer_self_s", layer)
        metrics[f"{layer}.calls"] = total("layer_calls", layer)
    wait_s = total("name_total_s", WATERMARK_WAIT)
    if child:
        # Client calls mostly wait; their CPU time is the client's own work.
        metrics["client.self_s"] = here["client_cpu_self_s"]
        explained = (
            here["client_cpu_self_s"]
            + here["layer_self_s"].get("server.protocol", 0.0)
            + sum(
                child["root_s_by_layer"].get(layer, 0.0)
                for layer in ("server.protocol", "api.sharded", "api.store")
            )
        )
        waited = here["root_s_by_layer"].get("client", 0.0) - wait_s
        metrics["server.service.self_s"] = max(0.0, waited - explained)
        metrics["server.service.calls"] = counters["server.requests"]
    scatter = total("name_calls", "ShardedEngine.range_search") + total(
        "name_calls", "ShardedEngine.put_many"
    )
    fanned = total("name_calls", "TSBEngine.range_search") + total(
        "name_calls", "TransactionManager.run_transaction"
    )
    node_loads = (
        counters["cache.hits"] + counters["cache.misses"] + counters["worm.reads"]
    )
    accesses = counters["cache.hits"] + counters["cache.misses"]
    report = recovered["report"]
    metrics.update(
        {
            # Frames this process encoded: every request to primary and
            # follower, watermark polls included (the client's own counter
            # leaves follower traffic out).
            "client.requests": here["name_calls"].get("encode_request", 0),
            "client.busy_retries": busy_retries,
            "server.protocol.bytes_per_op": sum(s["frame_bytes"] for s in summaries) / ops,
            "server.requests": counters["server.requests"],
            "server.busy": counters["server.busy"],
            "server.errors": counters["server.errors"],
            "server.batch_fill_avg": _ratio(
                counters["server.batch_requests"], counters["server.batches"]
            ),
            "server.inflight_max": counters.get("server.inflight_max", 0),
            "replication.batches_sent": counters["repl.batches_sent"],
            "replication.batch_records_avg": _ratio(
                counters["repl.batch_records"], counters["repl.batches_sent"]
            ),
            "replication.batch_bytes": counters["repl.batch_bytes"],
            "replication.lag_lsn_max": counters.get("repl.lag_lsn_max", 0),
            "replication.catchup_s": counters.get("repl.catchup_s", 0.0),
            "replication.watermark_wait_s": wait_s,
            "api.sharded.scatter_fanout_avg": _ratio(fanned, scatter),
            "api.sharded.shard_splits": counters["shard_splits"],
            "api.store.latch_write_wait_s": counters["latch.write_wait_s"],
            "api.store.latch_read_wait_s": counters["latch.read_wait_s"],
            "api.store.latch_write_hold_s": counters["latch.write_hold_s"],
            "txn.commits": counters["txn.commits"],
            "txn.aborts": counters["txn.aborts"],
            "txn.lock_waits": counters["lock.waits"],
            "recovery.wal_forces": counters["wal.forces"],
            "recovery.commits_per_force": _ratio(
                counters["wal.commits_forced"], counters["wal.forces"]
            ),
            "recovery.wal_bytes_per_user_byte": _ratio(
                counters["log.bytes_forced"], user_bytes_written
            ),
            "recovery.checkpoint_s_max": max(
                total_max(summaries, "VersionStore.checkpoint"),
                total_max(summaries, "ShardedVersionStore.checkpoint"),
            ),
            "recovery.records_scanned": report["records_scanned"],
            "recovery.ops_replayed": report["operations_replayed"],
            "recovery.redo_ops_per_s": _ratio(
                report["operations_replayed"], recovered["seconds"]
            ),
            "core.tsb_tree.data_time_splits": counters["tree.data_time_splits"],
            "core.tsb_tree.data_key_splits": counters["tree.data_key_splits"],
            "core.tsb_tree.index_splits": counters["tree.index_splits"],
            "core.tsb_tree.redundant_versions_written": counters[
                "tree.redundant_versions_written"
            ],
            "core.tsb_tree.historical_nodes_written": counters[
                "tree.historical_nodes_written"
            ],
            "core.tsb_tree.height": counters["tree.height"],
            "core.tsb_tree.redundancy_ratio": 1.0
            + counters["tree.redundant_versions_total"] / versions_stored,
            "core.tsb_tree.nodes_read_per_lookup": node_loads / ops,
            "core.nodes.decodes_per_op": (
                total("name_calls", "DataNode.decode") + total("name_calls", "IndexNode.decode")
            )
            / ops,
            "core.nodes.encodes_per_op": (
                total("name_calls", "DataNode.encode") + total("name_calls", "IndexNode.encode")
            )
            / ops,
            "storage.pagecache.hit_ratio": _ratio(counters["cache.hits"], accesses, empty=1.0),
            "storage.pagecache.evictions": counters["cache.evictions"],
            "storage.pagecache.flushes": counters["cache.flushes"],
            "storage.magnetic.reads": counters["magnetic.reads"],
            "storage.magnetic.writes": counters["magnetic.writes"],
            "storage.magnetic.bytes_written": counters["magnetic.bytes_written"],
            "storage.worm.reads": counters["worm.reads"],
            "storage.worm.bytes_written": counters["worm.bytes_written"],
            "storage.logdevice.forces": counters["log.forces"],
            "storage.logdevice.bytes_forced": counters["log.bytes_forced"],
            "obs.trace_overhead_ratio": trace_overhead_ratio,
        }
    )
    return metrics


def _ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


def total_max(summaries: Sequence[Dict[str, object]], name: str) -> float:
    return max(summary["name_max_s"].get(name, 0.0) for summary in summaries)


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def _finish(spec: w.Workload, rig: Rig, interval: Interval):
    """After an interval: audit, digests, crash and recover."""
    if spec.served and not spec.replicated:
        rig.executor.audit_histories(interval)
    digests = rig.sut.call("digests") if spec.replicated else []
    _quiesce()  # the recorded answers are not the restarts' to rescan either
    return digests, rig.sut.recover()


def _quiesce() -> None:
    """Keep the collector off what set-up left behind: a full collection
    during the interval would rescan it, at a cost that grows with the heap
    of the *benchmark*, not with the work of the store."""
    gc.collect()
    gc.freeze()


class _Phase:
    """The slowdown over one timed phase: the CPU-weighted mean of the
    generator's and (served workloads) the SUT child's, each measured by its
    own process's speed reference."""

    def __init__(self, reference: SpeedReference, sut=None) -> None:
        self._reference = reference
        self._mark = reference.state()
        self._cpu = time.process_time()
        # A child not yet started has burned nothing and sampled nothing.
        self._child = sut.reference_state() if sut is not None else None

    def end(self, sut) -> Tuple[float, float]:
        """``(slowdown, CPU seconds of generator plus SUT)`` since the start."""
        here = self._reference.slowdown_since(self._mark)
        here_cpu = time.process_time() - self._cpu
        child = sut.reference_state()
        if child is None:
            return here, here_cpu
        state_from, cpu_from = self._child or ((0.0, 0), 0.0)
        state, cpu = child
        if state[1] - state_from[1] < MIN_SLICES:  # too short for the child's 50 Hz sampler
            return here, here_cpu + cpu - cpu_from
        there, there_cpu = self._reference.slowdown(state_from, state), cpu - cpu_from
        return (
            (here * here_cpu + there * there_cpu) / (here_cpu + there_cpu),
            here_cpu + there_cpu,
        )


def _bare_pass(spec: w.Workload, keys, key_space: int, ops, reference: SpeedReference) -> float:
    """Speed-normalised seconds the untraced SUT needs for ``ops``."""
    rig = Rig(spec, keys, key_space, reference)
    try:
        _quiesce()
        phase = _Phase(reference, rig.sut)
        elapsed_s = rig.run(ops).elapsed_s
        return elapsed_s / phase.end(rig.sut)[0]
    finally:
        rig.close()


def _run_end_to_end(spec: w.Workload, keys, key_space: int, ops, setups: int, flip: bool):
    reference = SpeedReference(spec.nominal_slice_us * 1e-6)
    setup_raw: List[float] = []
    setup_times: List[float] = []
    slowdown: Dict[str, float] = {}
    rig = None
    try:
        for _ in range(setups):
            if rig is not None:
                rig.close()
            phase = _Phase(reference)
            rig = Rig(spec, keys, key_space, reference)
            setup_raw.append(rig.setup_s)
            setup_times.append(rig.setup_s / phase.end(rig.sut)[0])
        _quiesce()
        phase = _Phase(reference, rig.sut)
        interval = rig.run(ops)
        slowdown["interval"], cpu_seconds = phase.end(rig.sut)
        counters = rig.sut.counters()
        digests, recovered = _finish(spec, rig, interval)
        slowdown["recovery"] = recovered["slowdown"]
        attempted, failures, oracle = verify(rig, interval, recovered, digests, flip)
        raw = end_to_end(
            rig,
            interval,
            statistics.median(setup_raw),
            cpu_seconds,
            recovered,
            _stored_bytes(spec, counters),
            oracle.user_bytes,
        )
    finally:
        if rig is not None:
            rig.close()
    extras = {
        "as_measured": raw,
        "tails_as_measured_ms": {
            "write_p99": quantile(interval.write_s, 0.99) * 1000.0,
            "write_p99.9": quantile(interval.write_s, 0.999) * 1000.0,
            "read_p99": quantile(interval.read_s, 0.99) * 1000.0,
            "read_p99.9": quantile(interval.read_s, 0.999) * 1000.0,
        },
        "slowdown": slowdown,
        "setup_times_s": {"as_measured": setup_raw, "speed_normalised": setup_times},
        "restart_times_s": recovered["restarts_s"],
    }
    metrics = speed_normalised(raw, slowdown, statistics.median(setup_times))
    return metrics, interval, attempted, failures, oracle, extras


def _run_traced(spec: w.Workload, keys, key_space: int, ops, flip: bool):
    # Bare, traced, bare: a process slows a little with every pass it has
    # already made, so the traced pass is compared with the mean of the bare
    # passes on either side of it.
    reference = SpeedReference(spec.nominal_slice_us * 1e-6)
    bare_elapsed_s = [_bare_pass(spec, keys, key_space, ops, reference)]
    rig = Rig(spec, keys, key_space, reference)
    recorder = Recorder()
    try:
        writes_before = len(rig.executor.writes)
        retries_before = rig.client.counters["client.busy_retries"] if rig.client else 0
        before = rig.sut.counters()
        if spec.served:
            rig.sut.call("trace_start")
        _quiesce()
        with tracing(recorder):
            phase = _Phase(reference, rig.sut)
            interval = rig.run(ops)
            slowdown = phase.end(rig.sut)[0]
            # Layer numbers cover the interval only; the crash-recovery pass
            # below still lands in the trace file.
            here = recorder.summary()
            child = rig.sut.call("trace_summary") if spec.served else None
            counters = _delta(rig.sut.counters(), before)
            retries = rig.client.counters["client.busy_retries"] if rig.client else 0
            digests, recovered = _finish(spec, rig, interval)
        dump = recorder.dump(TRACE_FILE_SPANS)
        child_dump = rig.sut.call("trace_dump", TRACE_FILE_SPANS) if spec.served else None
        attempted, failures, oracle = verify(rig, interval, recovered, digests, flip)
        written = rig.executor.writes[writes_before:]
    finally:
        rig.close()
    bare_elapsed_s.append(_bare_pass(spec, keys, key_space, ops, reference))
    metrics = per_layer(
        interval,
        (interval.elapsed_s / slowdown) / statistics.mean(bare_elapsed_s),
        counters,
        (2 if spec.replicated else 1) * oracle.versions,
        recovered,
        sum(8 + len(value) for _, _, value in written),
        retries - retries_before,
        here,
        child,
    )
    in_spans_s = sum(here["root_s_by_layer"].values())
    trace = {
        "traced_elapsed_s": interval.elapsed_s,
        "traced_slowdown": slowdown,
        "bare_elapsed_speed_normalised_s": bare_elapsed_s,
        # Embedded workloads run on one thread: the interval is the time in
        # spans (the layers' self times) plus the generator's own time.
        "layer_self_s_total": None if spec.served else in_spans_s,
        "generator_outside_spans_s": None if spec.served else interval.elapsed_s - in_spans_s,
        "processes": {"generator": dump, "sut_child": child_dump},
    }
    return metrics, interval, attempted, failures, oracle, {"trace": trace}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    setups: int = SETUPS,
    flip_answer: bool = False,
) -> Dict[str, object]:
    """Run ``name`` once; the returned dict is what ``main`` prints and saves."""
    spec = w.WORKLOADS[name]
    key_space = spec.keys(scale)
    keys = w.preload_keys(spec, seed, scale)
    ops = w.operations(spec, seed, seconds, scale)
    try:
        if trace:
            ops = w.traced_prefix(ops)
            outcome = _run_traced(spec, keys, key_space, ops, flip_answer)
        else:
            outcome = _run_end_to_end(spec, keys, key_space, ops, setups, flip_answer)
    finally:
        gc.unfreeze()
    metrics, interval, attempted, failures, oracle, extras = outcome
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "fingerprint": fingerprint(spec, seed, seconds, scale),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit} for metric, unit in units.items()
        },
        "counts": {
            "operations": len(ops),
            "logical_ops": interval.logical_ops,
            "write_samples": len(interval.write_s),
            "read_samples": len(interval.read_s),
            "scan_samples": len(interval.scan_s),
            "scan_rows": sum(interval.scan_rows),
            "versions_acknowledged": oracle.versions,
        },
        "measured_interval_s": interval.elapsed_s,
        **extras,
    }


def layer_tax_view(result: Dict[str, object]) -> str:
    """``self_s`` per 1k logical ops, layer by layer — the ROADMAP ladder,
    derived from one traced run rather than re-run rung by rung."""
    ops = result["counts"]["logical_ops"]
    lines = [f"layer tax, {result['fingerprint']['workload']} (ms of self time per 1k ops)"]
    for layer in LAYERS:
        self_s = result["metrics"][f"{layer}.self_s"]["value"]
        calls = result["metrics"][f"{layer}.calls"]["value"]
        lines.append(f"  {layer:<18} {self_s * 1e6 / ops:10.2f}   calls {int(calls):>9}")
    trace = result["trace"]
    bare = " / ".join(f"{seconds:.3f}" for seconds in trace["bare_elapsed_speed_normalised_s"])
    lines.append(
        f"  traced interval {trace['traced_elapsed_s'] / trace['traced_slowdown']:.3f} s; bare "
        f"passes before / after it on the same ops: {bare} s (all speed-normalised)"
    )
    if trace["layer_self_s_total"] is not None:
        lines.append(
            f"  in spans {trace['layer_self_s_total']:.3f} s + generator outside spans "
            f"{trace['generator_outside_spans_s']:.3f} s = the traced interval as the clock "
            f"read it, {trace['traced_elapsed_s']:.3f} s"
        )
    return "\n".join(lines)


def save(result: Dict[str, object], out_dir: str = OUT_DIR) -> str:
    """Write the result file (and, for a traced run, the spans beside it)."""
    os.makedirs(out_dir, exist_ok=True)
    stamp = result["fingerprint"]
    mode = "trace" if "trace" in result else "e2e"
    saved = dict(result)
    trace = saved.pop("trace", None)
    if trace is not None:
        saved["trace"] = {key: value for key, value in trace.items() if key != "processes"}
        with open(
            os.path.join(out_dir, f"trace_{stamp['workload']}.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump({"fingerprint": stamp, **trace["processes"]}, handle)
    path = os.path.join(out_dir, f"{mode}_{stamp['workload']}_seed{stamp['seed']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(saved, handle, indent=1)
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=sorted(w.WORKLOADS))
    group.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="sizes the measured interval")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink every size (smoke runs)")
    parser.add_argument(
        "--flip-answer",
        action="store_true",
        help="corrupt one recorded answer before checking: the run must then fail",
    )
    parser.add_argument("--out", default=OUT_DIR, help="directory for result and trace files")
    args = parser.parse_args(argv)

    status = 0
    names = sorted(w.WORKLOADS) if args.all else [args.workload]
    for name in names:
        result = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.scale, flip_answer=args.flip_answer
        )
        path = save(result, args.out)
        print(f"# {name}: result file {os.path.relpath(path)}", flush=True)
        for failure in result["failures"]:
            print(f"# FAILED: {failure}")
        print(f"# counts: {json.dumps(result['counts'])}")
        if args.trace:
            print(layer_tax_view(result))
        print(
            json.dumps(
                {
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": result["metrics"],
                }
            ),
            flush=True,
        )
        if not result["correct"]:
            status = 1
    return status
