"""Served-store benchmark: wire throughput across clients × depth × batch.

Boots a :class:`~repro.server.service.ReproServer` on an ephemeral port and
drives it with :func:`~repro.workload.concurrent.run_concurrent` through a
:class:`~repro.client.ReproClient` — the exact oracle-checked workload the
in-process concurrency benchmarks run, but over TCP.  The grid varies

* **clients** — concurrent writer threads sharing one pooled client,
* **depth** — requests each writer keeps in flight on its socket
  (``client.pipeline()``; depth 1 is the classic lock-step exchange, and
  the depth axis is where the demultiplexing client and the server's
  burst-at-a-time connection threads earn their keep),
* **batch** — items per ``put_many`` (batch 1 is per-item ``insert``: one
  commit per request).

Each cell reports write throughput plus client-observed p50/p99 latency;
rows land in ``BENCH_server.json``.  A final sanity pass asserts the
served per-key histories match the applied-write oracle, so a cell that
went fast by dropping writes fails instead of winning.

Like ``bench_perf_floor.py``, the standalone run doubles as a regression
gate: the best pipelined cell (depth >= 16) must clear the committed
served-write floor or the process exits non-zero — the CI smoke runs this
with ``--quick`` so a wire-path regression fails the build, not the
nightly.  The floor is deliberately about half the local steady-state
number so CI jitter does not flake the gate.

Run standalone (the CI gate / nightly-bench step)::

    PYTHONPATH=src python benchmarks/bench_server.py --quick

or under pytest-benchmark::

    pytest benchmarks/bench_server.py --benchmark-only
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:
    from .harness import emit_results
except ImportError:  # standalone: python benchmarks/bench_server.py
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from harness import emit_results

from repro.api import ShardSpec, StoreConfig
from repro.client import ReproClient
from repro.server import ReproServer
from repro.workload.concurrent import run_concurrent

CLIENT_COUNTS = (1, 4)
PIPELINE_DEPTHS = (1, 4, 16, 64)
BATCH_SIZES = (1, 8)
OPS = 1440
QUICK_OPS = 480
VALUE = b"x" * 48

#: Committed floor (writes/s) for the best pipelined cell (depth >= 16).
FLOOR = 2500.0

#: One sharded WAL tenant: the served path that exercises scatter-gather
#: and group commit at once.
CATALOG = {
    "bench": StoreConfig(
        engine="tsb",
        wal=True,
        group_commit_size=8,
        shards=ShardSpec.for_int_keys(4, key_space=1 << 20, scatter_threads=4),
    )
}


def _percentile_ms(latency: dict, role: str, quantile: str) -> float:
    snapshot = latency.get(role)
    return round(snapshot[quantile] * 1000.0, 3) if snapshot else 0.0


def run_cell(
    server: ReproServer,
    cell: int,
    clients: int,
    depth: int,
    batch: int,
    ops: int,
) -> dict:
    """One grid cell: ``ops`` writes from ``clients`` threads, verified.

    ``cell`` disambiguates the key range — every cell writes fresh keys, so
    the per-key history oracle sees exactly this cell's versions.  Cells
    take contiguous 60k-key slots *inside* the catalogued key space, so
    batches stay shard-local but the load spreads over all four shards as
    the grid proceeds; offsets past the shard boundaries would pile every
    cell onto the last shard and eventually time a shard split instead of
    the wire path.
    """
    offset = cell * 60_000
    items = [(offset + index, VALUE) for index in range(ops)]
    with ReproClient(
        server.host, server.port, tenant="bench", pool_size=clients
    ) as client:
        result = run_concurrent(
            target=client,
            items=items,
            threads=clients,
            batch_size=batch,
            pipeline_depth=depth,
        )
        if result.errors:
            raise RuntimeError(f"client errors: {result.errors[:3]}")
        # Oracle: the served store's history must equal the applied writes.
        for key, versions in list(result.history().items())[:: max(1, ops // 32)]:
            stored = [(r.timestamp, r.value) for r in client.key_history(key)]
            if stored != versions:
                raise RuntimeError(f"history oracle mismatch for key {key}")
    return {
        "clients": clients,
        "depth": depth,
        "batch": batch,
        "writes": result.writes,
        "writes_per_s": round(result.writes_per_s, 1),
        "p50_ms": _percentile_ms(result.latency, "write", "p50"),
        "p99_ms": _percentile_ms(result.latency, "write", "p99"),
        "elapsed_s": round(result.elapsed_s, 3),
    }


def run_grid(ops: int) -> list:
    rows = []
    cell = 0
    # Two execution slots, like the repo benchmark's served child: the
    # clients share this process (and its interpreter lock) with the server.
    with ReproServer(
        CATALOG, port=0, workers=2, max_inflight=256, max_pending_per_connection=256
    ) as server:
        for clients in CLIENT_COUNTS:
            for depth in PIPELINE_DEPTHS:
                for batch in BATCH_SIZES:
                    rows.append(run_cell(server, cell, clients, depth, batch, ops))
                    cell += 1
    return rows


def best_pipelined(rows: list) -> dict:
    """The fastest cell at depth >= 16 — the row the floor gate judges."""
    candidates = [row for row in rows if row["depth"] >= 16]
    return max(candidates, key=lambda row: row["writes_per_s"])


def _print_rows(rows: list) -> None:
    header = f"{'clients':>7} {'depth':>5} {'batch':>5} {'writes/s':>10} {'p50 ms':>8} {'p99 ms':>8}"
    print(header)
    for row in rows:
        print(
            f"{row['clients']:>7} {row['depth']:>5} {row['batch']:>5} "
            f"{row['writes_per_s']:>10,.1f} {row['p50_ms']:>8.3f} {row['p99_ms']:>8.3f}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help=f"{QUICK_OPS} writes per cell instead of {OPS}"
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=FLOOR,
        help=f"served-write floor for the best depth>=16 cell "
        f"(default: {FLOOR:.0f} writes/s; 0 disables the gate)",
    )
    args = parser.parse_args(argv)
    ops = QUICK_OPS if args.quick else OPS
    rows = run_grid(ops)
    _print_rows(rows)
    best = best_pipelined(rows)
    emit_results(
        "server",
        rows,
        study="served throughput: clients x pipeline depth x batch",
        extra={
            "ops_per_cell": ops,
            "catalog": "tsb, 4 shards, wal group_commit=8",
            "floor_writes_per_s": args.floor,
            "best_pipelined_writes_per_s": best["writes_per_s"],
        },
    )
    print(f"BENCH_server.json written ({len(rows)} cells, {ops} writes each)")
    print(
        f"best pipelined cell: {best['writes_per_s']:,.1f} writes/s "
        f"(clients={best['clients']} depth={best['depth']} batch={best['batch']}; "
        f"floor {args.floor:,.0f})"
    )
    if args.floor and best["writes_per_s"] < args.floor:
        print(
            f"FAIL: best depth>=16 cell {best['writes_per_s']:,.1f} writes/s "
            f"is below the committed floor of {args.floor:,.0f}"
        )
        return 1
    return 0


def test_server_throughput_grid(benchmark):
    """pytest-benchmark entry: the quick grid, once, oracle-checked."""
    rows = benchmark.pedantic(run_grid, args=(QUICK_OPS,), rounds=1, iterations=1)
    _print_rows(rows)
    benchmark.extra_info["rows"] = rows
    emit_results(
        "server",
        rows,
        study="served throughput: clients x pipeline depth x batch",
        extra={"ops_per_cell": QUICK_OPS},
    )
    assert len({row["depth"] for row in rows}) == len(PIPELINE_DEPTHS)
    assert len({row["batch"] for row in rows}) >= 2
    assert all(row["writes_per_s"] > 0 for row in rows)
    assert best_pipelined(rows)["writes_per_s"] >= FLOOR


if __name__ == "__main__":
    sys.exit(main())
