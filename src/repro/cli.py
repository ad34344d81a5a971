"""Command-line interface: ``python -m repro <command>``.

The CLI exposes the experiment harness without writing any Python:

``python -m repro figures [--engine all|tsb|wobt|naive]``
    Re-run the paper's Figures 1–9 (optionally only those exercising one
    engine) and print pass/fail for every check.

``python -m repro study S1 [--engine tsb|wobt|naive]`` (or S2..S7, or ``all``)
    Run one of the DESIGN.md studies and print its result table.  ``--ops``
    scales the workload; ``--engine`` routes the workload through the
    :class:`~repro.api.VersionStore` façade onto a different access method
    (studies needing a capability the engine lacks are skipped with a note).

``python -m repro demo [--engine tsb|wobt|naive]``
    A tiny end-to-end demonstration (insert, update, as-of query, snapshot)
    printed step by step — the quickstart example in one command, on any
    engine.

``python -m repro stats [--watch SECONDS] [--format table|json|prometheus]``
    Drive a mixed concurrent workload (plus a deliberate lock conflict) on
    a sharded WAL store and print its full observability snapshot: op
    latency percentiles, latch/lock wait counters, cache hit ratio, the
    group-commit batch-size distribution and per-shard query latencies.

``python -m repro trace [time_slice|range|snapshot|put_many|get]``
    Record the named operation under span tracing and export a Chrome
    ``trace_event`` JSON file (open in ``chrome://tracing`` or Perfetto) —
    a scatter-gather query shows one span per shard under one parent.

``python -m repro serve [--port P] [--tenants a,b] [--shards N] [--wal]``
    Serve the version store over TCP: a struct-framed, CRC-checked binary
    protocol in front of per-tenant stores (opened on first use, resumed
    on their own devices across close/reopen).

``python -m repro stats --server HOST:PORT``
    Fetch a *running* server's observability snapshot (its per-op service
    latencies, connection/in-flight gauges and batching histograms plus
    every open tenant store's metrics) instead of driving a local workload.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.experiment import (
    StudyResult,
    run_cost_function_study,
    run_policy_study,
    run_query_io_study,
    run_secondary_study,
    run_tsb_vs_wobt,
    run_txn_study,
    run_update_ratio_study,
)
from repro.analysis.figures import run_all_figures
from repro.analysis.report import render_comparison
from repro.api import (
    ENGINE_NAMES,
    Capability,
    CapabilityError,
    ShardSpec,
    StoreConfig,
    VersionStore,
)
from repro.obs import trace
from repro.obs.registry import MetricsRegistry
from repro.obs.prometheus import render_prometheus
from repro.workload import WorkloadSpec, run_concurrent

#: Studies that configure their own fixed store set; --shards cannot reroute them.
_UNSHARDED_STUDIES = {"S3", "S6", "S7"}


def _study_runners(
    operations: int,
    engine: str = "tsb",
    shards: Optional[ShardSpec] = None,
) -> Dict[str, Callable[[], StudyResult]]:
    spec = WorkloadSpec(operations=operations, update_fraction=0.5, seed=1989)
    query_spec = WorkloadSpec(operations=operations, update_fraction=0.6, seed=1989)
    return {
        "S1": lambda: run_policy_study(spec=spec, engine=engine, shards=shards),
        "S2": lambda: run_update_ratio_study(
            operations=operations, engine=engine, shards=shards
        ),
        "S3": lambda: run_tsb_vs_wobt(
            spec=WorkloadSpec(operations=min(operations, 4_000), update_fraction=0.5, seed=1989)
        ),
        "S4": lambda: run_cost_function_study(spec=spec, engine=engine, shards=shards),
        "S5": lambda: run_query_io_study(spec=query_spec, engine=engine, shards=shards),
        "S6": lambda: run_txn_study(engine=engine),
        "S7": lambda: run_secondary_study(engine=engine),
    }


def _shard_spec(shard_count: int, operations: int) -> Optional[ShardSpec]:
    """The key-range spec behind ``--shards N``.

    The study workloads assign sequential integer keys, so with update
    fraction ``f`` an ``operations``-step run creates roughly
    ``operations * (1 - f)`` distinct keys.  The studies run near f=0.5;
    sizing the partition to ``operations`` itself would leave the upper
    shards provably empty.
    """
    if shard_count <= 1:
        return None
    expected_keys = max(shard_count, operations // 2)
    return ShardSpec.for_int_keys(shard_count, key_space=expected_keys)


def command_figures(args: argparse.Namespace) -> int:
    results = run_all_figures(engine=args.engine)
    if not results:
        print(f"No paper figures exercise engine {args.engine!r}.")
        return 0
    failures = 0
    for result in results:
        print(result.summary())
        for check, passed in result.checks.items():
            print(f"    [{'ok ' if passed else 'FAIL'}] {check}")
            failures += 0 if passed else 1
    if failures:
        print(f"{failures} checks failed")
        return 1
    print("All figures reproduced.")
    return 0


def command_study(args: argparse.Namespace) -> int:
    shards = _shard_spec(args.shards, operations=args.ops)
    runners = _study_runners(args.ops, engine=args.engine, shards=shards)
    names: List[str]
    if args.name.lower() == "all":
        names = list(runners)
    else:
        name = args.name.upper()
        if name not in runners:
            print(f"unknown study {args.name!r}; choose one of {', '.join(runners)} or 'all'")
            return 2
        names = [name]
    for name in names:
        if name == "S3" and args.engine != "tsb":
            print(
                "S3 note: this study always compares every engine "
                f"(tsb/wobt/naive); --engine {args.engine} does not change it"
            )
        if shards is not None and name in _UNSHARDED_STUDIES:
            print(
                f"{name} note: this study builds its own fixed store set; "
                f"--shards {args.shards} does not change it"
            )
        try:
            result = runners[name]()
        except CapabilityError as exc:
            print(f"{name} skipped: {exc}")
            continue
        print(render_comparison(f"{name} — {result.study}", result.rows))
    return 0


def command_demo(args: argparse.Namespace) -> int:
    try:
        shards = ShardSpec.for_string_keys(args.shards) if args.shards > 1 else None
    except ValueError as exc:
        print(f"--shards: {exc}")
        return 2
    config = StoreConfig(
        engine=args.engine,
        page_size=1024,
        split_policy="threshold:0.5" if args.engine == "tsb" else None,
        shards=shards,
    )
    with VersionStore.open(config) as store:
        layout = f"{args.shards} shards of " if shards is not None else ""
        backend = type(store.shard_stores[0].backend).__name__
        print(f"engine                 : {args.engine} ({layout}{backend})")
        print("insert  alice -> balance=50   @ T=1")
        store.insert("alice", b"balance=50", timestamp=1)
        print("insert  bob   -> balance=200  @ T=2")
        store.insert("bob", b"balance=200", timestamp=2)
        print("update  alice -> balance=120  @ T=5")
        store.insert("alice", b"balance=120", timestamp=5)
        print()
        print(f"current alice          : {store.get('alice').value.decode()}")
        print(f"as-of   alice at T=3   : {store.get_as_of('alice', 3).value.decode()}")
        snapshot = {key: record.value.decode() for key, record in store.snapshot(2).items()}
        print(f"snapshot at T=2        : {snapshot}")
        history = [(r.timestamp, r.value.decode()) for r in store.key_history("alice")]
        print(f"history of alice       : {history}")
        space = store.space_summary()
        print(
            f"storage                : {space['magnetic_bytes']} B magnetic, "
            f"{space['historical_bytes']} B historical"
        )
        if shards is not None:
            print()
            print("shard layout (scatter-gather answers merged the rows above):")
            for row in store.describe_shards():
                print(
                    f"  shard {row['shard']} {row['range']:<16} "
                    f"keys_written={row['keys_written']} pages={row['current_pages']}"
                )
        if args.threads > 1:
            pairs = [
                (f"{chr(ord('a') + index % 26)}-client-{index:03d}", f"payload-{index}".encode())
                for index in range(240)
            ]
            result = run_concurrent(
                store, pairs, threads=args.threads, reader_threads=args.threads
            )
            print()
            print(
                f"concurrent clients     : {result.writer_threads} writers + "
                f"{result.reader_threads} readers"
            )
            print(
                f"                         {result.writes} writes "
                f"({result.writes_per_s:,.0f}/s) and {result.reads} reads "
                f"({result.reads_per_s:,.0f}/s) in {result.elapsed_s:.3f}s"
            )
            consistent = all(
                [(r.timestamp, r.value) for r in store.key_history(key)] == versions
                for key, versions in result.history().items()
            )
            print(
                "                         histories oracle-consistent: "
                f"{'yes' if consistent and not result.errors else 'NO'}"
            )
            if result.errors or not consistent:
                return 1
    return 0


#: Histograms whose samples are cardinalities (batch sizes, fan-out widths),
#: not seconds — the stats table prints them raw instead of in milliseconds.
_COUNT_HISTOGRAMS = {"wal.batch_size", "scatter.fanout"}


def _open_observed_store(engine: str, ops: int, shards: int):
    """A store configured the way the stats/trace commands exercise it."""
    config = StoreConfig(
        engine=engine,
        page_size=1024,
        wal=(engine == "tsb"),
        shards=_shard_spec(shards, operations=ops),
    )
    return VersionStore.open(config)


def _run_observed_workload(store, ops: int, threads: int) -> None:
    """A mixed read/write workload plus scatter queries, metrics recording."""
    key_space = max(16, ops // 2)
    pairs = [
        (index % key_space, f"value-{index:06d}".encode()) for index in range(ops)
    ]
    result = run_concurrent(
        store,
        pairs,
        threads=max(1, threads),
        reader_threads=max(1, threads),
        batch_size=8,
        metrics=store.metrics,
    )
    if result.errors:
        raise RuntimeError(f"workload clients failed: {result.errors[:3]}")
    final = store.now
    store.range_search()
    store.snapshot(max(1, final // 2))
    store.time_slice(max(1, final // 2), final, 0, key_space // 2)


def _provoke_lock_conflict(store) -> None:
    """Make one transaction demonstrably wait on another (tsb WAL stores).

    ``t2`` blocks on ``t1``'s write lock in a background thread while the
    main thread holds the lock briefly and then commits — after this the
    snapshot's ``lock.waits`` counter and ``lock.wait`` histogram are
    provably non-zero.
    """
    target = store.shard_stores[0]
    if not target.engine.supports(Capability.TRANSACTIONS):
        return
    t1 = target.begin()
    t1.write(0, b"held")

    def contender() -> None:
        with target.begin() as t2:
            t2.write(0, b"waited")

    blocker = threading.Thread(target=contender, name="stats-lock-contender")
    blocker.start()
    time.sleep(0.05)  # let the contender reach the lock wait
    t1.commit()
    blocker.join()


def _print_stats_table(snapshot: Dict[str, object]) -> None:
    shards = f"  shards: {snapshot['shards']}" if "shards" in snapshot else ""
    print(f"engine: {snapshot['engine']}{shards}")

    metrics = snapshot["metrics"]
    counters = metrics["counters"]
    if counters:
        print("\ncounters:")
        for name in sorted(counters):
            print(f"  {name:<28} {counters[name]}")

    histograms = {
        name: data
        for name, data in metrics["histograms"].items()
        if data["count"]
    }
    latencies = {
        name: data
        for name, data in histograms.items()
        if name not in _COUNT_HISTOGRAMS
    }
    if latencies:
        print("\nlatencies (ms):")
        print(f"  {'histogram':<28} {'count':>7} {'p50':>9} {'p95':>9} {'p99':>9} {'max':>9}")
        for name in sorted(latencies):
            data = latencies[name]
            print(
                f"  {name:<28} {data['count']:>7}"
                + "".join(
                    f" {data[column] * 1000.0:>9.3f}"
                    for column in ("p50", "p95", "p99", "max")
                )
            )
    for name in sorted(set(histograms) & _COUNT_HISTOGRAMS):
        data = histograms[name]
        buckets = ", ".join(f"<={edge}: {count}" for edge, count in data["buckets"])
        print(f"\n{name}: count={data['count']} avg={data['avg']:.2f} [{buckets}]")

    cache = snapshot.get("cache")
    if cache:
        print(
            f"\ncache: hit_ratio={cache['hit_ratio']:.2%} "
            f"(hits={cache['hits']} misses={cache['misses']}: "
            f"index={cache['index_misses']} leaf={cache['leaf_misses']}; "
            f"evictions={cache['evictions']} write-backs={cache['flushes']})"
        )
    wal = snapshot.get("wal")
    if wal:
        batches = histograms.get("wal.batch_size")
        commits_per_force = f"{batches['avg']:.2f}" if batches else "n/a"
        print(
            f"wal: last_lsn={wal['last_lsn']} flushed_lsn={wal['flushed_lsn']} "
            f"commits_per_force={commits_per_force}"
        )
    locks = snapshot.get("locks")
    if isinstance(locks, list):
        held = sum(entry["locked_keys"] for entry in locks)
        waiting = sum(entry["waiting"] for entry in locks)
        print(f"locks: {held} held, {waiting} waiting (across {len(locks)} shards)")
    elif isinstance(locks, dict):
        print(f"locks: {locks['locked_keys']} held, {locks['waiting']} waiting")

    per_shard = snapshot.get("per_shard")
    if per_shard:
        print("\nper-shard op latency p99 (ms):")
        for row in per_shard:
            ops = ", ".join(
                f"{name.split('.', 1)[1]}={data['p99'] * 1000.0:.3f}"
                for name, data in sorted(row["ops"].items())
            )
            print(f"  shard {row['shard']} {row['range']:<24} {ops}")

    io = snapshot.get("io")
    if io:
        print("\nio:")
        for tier in sorted(io):
            stats = io[tier]
            print(
                f"  {tier:<12} reads={stats['reads']} writes={stats['writes']} "
                f"service_time_s={stats['service_time_s']}"
            )


def _render_stats(store, fmt: str) -> None:
    if fmt == "prometheus":
        registry = MetricsRegistry.aggregate(store.metrics_registries, name=store.engine.name)
        print(render_prometheus(registry), end="")
    elif fmt == "json":
        print(json.dumps(store.metrics_snapshot(), indent=2, sort_keys=True, default=str))
    else:
        _print_stats_table(store.metrics_snapshot())


def command_stats(args: argparse.Namespace) -> int:
    if args.server:
        return _render_server_stats(args.server, args.format)
    with _open_observed_store(args.engine, args.ops, args.shards) as store:
        try:
            while True:
                _run_observed_workload(store, args.ops, args.threads)
                _provoke_lock_conflict(store)
                _render_stats(store, args.format)
                if args.watch is None:
                    break
                time.sleep(args.watch)
                print()
        except KeyboardInterrupt:  # pragma: no cover - interactive --watch exit
            pass
    return 0


def _serve_catalog(args: argparse.Namespace) -> Dict[str, StoreConfig]:
    from repro.server import default_catalog

    tenants = tuple(
        name.strip() for name in args.tenants.split(",") if name.strip()
    ) or ("default",)
    return default_catalog(
        tenants,
        engine=args.engine,
        shards=args.shards,
        wal=args.wal,
    )


def command_serve(args: argparse.Namespace) -> int:
    from repro.server import ReproServer

    server = ReproServer(
        _serve_catalog(args),
        host=args.host,
        port=args.port,
        workers=max(1, args.workers),
        max_inflight=args.max_inflight,
    )
    print(
        f"serving tenants [{', '.join(server.registry.tenants())}] "
        f"on {args.host}:{args.port} (engine={args.engine}, shards={args.shards}, "
        f"wal={args.wal}) — Ctrl-C to stop"
    )
    server.serve_forever()
    return 0


def _render_server_stats(address: str, fmt: str) -> int:
    from repro.client import ReproClient

    host, _, port_text = address.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"--server expects HOST:PORT, got {address!r}")
        return 2
    with ReproClient(host, int(port_text), pool_size=1) as client:
        if fmt == "prometheus":
            print(client.stats("prometheus"), end="")
        else:  # table has no wire shape; JSON is the faithful rendering
            print(json.dumps(client.stats("json"), indent=2, sort_keys=True))
    return 0


def command_trace(args: argparse.Namespace) -> int:
    previous = trace.set_enabled(True)
    try:
        with _open_observed_store(args.engine, args.ops, args.shards) as store:
            key_space = max(16, args.ops // 2)
            store.put_many(
                [(index % key_space, f"seed-{index:06d}".encode()) for index in range(args.ops)]
            )
            final = store.now
            trace.clear()  # the exported file shows only the traced op
            with trace.span(f"cli.{args.op}"):
                if args.op == "time_slice":
                    store.time_slice(max(1, final // 2), final)  # unbounded: every shard
                elif args.op == "range":
                    store.range_search()
                elif args.op == "snapshot":
                    store.snapshot(max(1, final // 2))
                elif args.op == "put_many":
                    store.put_many([(key, b"traced") for key in range(32)])
                else:
                    for key in range(32):
                        store.get(key % key_space)
            recorded = len(trace.spans())
            path = trace.export(args.out or f"trace_{args.op}.json")
    finally:
        trace.set_enabled(previous)
    print(f"{recorded} spans -> {path} (open in chrome://tracing or Perfetto)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Time-Split B-tree reproduction (Lomet & Salzberg, SIGMOD 1989)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figures = subparsers.add_parser("figures", help="re-run the paper's Figures 1-9")
    figures.add_argument(
        "--engine",
        choices=("all",) + ENGINE_NAMES,
        default="all",
        help="only the figures exercising this engine (default: all)",
    )
    figures.set_defaults(handler=command_figures)

    study = subparsers.add_parser("study", help="run one of the studies S1..S7 (or 'all')")
    study.add_argument("name", help="study id: S1..S7 or 'all'")
    study.add_argument(
        "--ops",
        type=int,
        default=3_000,
        help="workload size in operations (default: 3000)",
    )
    study.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="tsb",
        help="access method the workload runs on, via VersionStore (default: tsb)",
    )
    study.add_argument(
        "--shards",
        type=int,
        default=1,
        help="key-range-partition the store across N shards (default: 1)",
    )
    study.set_defaults(handler=command_study)

    demo = subparsers.add_parser("demo", help="a one-minute end-to-end demonstration")
    demo.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="tsb",
        help="access method to demonstrate, via VersionStore (default: tsb)",
    )
    demo.add_argument(
        "--shards",
        type=int,
        default=1,
        help="key-range-partition the demo store across N shards (default: 1)",
    )
    demo.add_argument(
        "--threads",
        type=int,
        default=1,
        help="also run N concurrent writer + N reader client threads (default: 1)",
    )
    demo.set_defaults(handler=command_demo)

    stats = subparsers.add_parser(
        "stats", help="run a mixed workload and print the observability snapshot"
    )
    stats.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="tsb",
        help="access method to observe (default: tsb, with WAL + group commit)",
    )
    stats.add_argument(
        "--ops", type=int, default=2_000, help="workload writes (default: 2000)"
    )
    stats.add_argument(
        "--shards",
        type=int,
        default=4,
        help="key-range shards; >1 exercises scatter-gather (default: 4)",
    )
    stats.add_argument(
        "--threads",
        type=int,
        default=4,
        help="client writer/reader threads (default: 4)",
    )
    stats.add_argument(
        "--format",
        choices=("table", "json", "prometheus"),
        default="table",
        help="snapshot rendering (default: table)",
    )
    stats.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-run the workload and reprint every SECONDS until Ctrl-C",
    )
    stats.add_argument(
        "--server",
        default=None,
        metavar="HOST:PORT",
        help="fetch a running `repro serve` instance's stats instead of "
        "driving a local workload (--format json|prometheus)",
    )
    stats.set_defaults(handler=command_stats)

    serve = subparsers.add_parser(
        "serve", help="serve the version store over TCP (see repro.server)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=7089, help="listen port (default: 7089; 0 = ephemeral)"
    )
    serve.add_argument(
        "--tenants",
        default="default",
        help="comma-separated tenant catalog (default: 'default')",
    )
    serve.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="tsb",
        help="engine behind every tenant (default: tsb)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="key-range shards per tenant over the integer key domain (default: 1)",
    )
    serve.add_argument(
        "--wal",
        action="store_true",
        help="attach a write-ahead log with group commit (tsb only)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="connections whose requests may execute store work at once (default: 4)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission-control cap on concurrently executing requests (default: 64)",
    )
    serve.set_defaults(handler=command_serve)

    trace_cmd = subparsers.add_parser(
        "trace", help="record one operation's spans and export Chrome trace JSON"
    )
    trace_cmd.add_argument(
        "op",
        nargs="?",
        choices=("time_slice", "range", "snapshot", "put_many", "get"),
        default="time_slice",
        help="operation to trace (default: time_slice, one span per shard)",
    )
    trace_cmd.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="tsb",
        help="access method to trace (default: tsb)",
    )
    trace_cmd.add_argument(
        "--ops", type=int, default=1_200, help="seed writes before tracing (default: 1200)"
    )
    trace_cmd.add_argument(
        "--shards", type=int, default=4, help="key-range shards (default: 4)"
    )
    trace_cmd.add_argument(
        "--out",
        default=None,
        help="output path (default: trace_<op>.json in the current directory)",
    )
    trace_cmd.set_defaults(handler=command_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
