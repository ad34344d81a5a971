"""Alternating parent/change pairs of the repo benchmark, judged by ``compare.py``.

ROADMAP aim 1: a speed-up counts only with its before/after and its layer
attribution in a committed ``BENCH_*.json``.  This script produces that file
from two checkouts of the repository (the parent commit and the change)::

    python3 benchmarks/ab_pairs.py PARENT_DIR CHANGE_DIR SCRATCH_DIR \\
        --pairs embedded_history=10 --pairs txn_recovery=5 \\
        --traced embedded_history --json BENCH_embedded_reads.json

Pair ``i`` runs seed ``i`` on both sides with the registered command and run
length; odd pairs run the parent first, even pairs the change, because
whichever side runs second reads a few percent slow on a shared box.  The
verdicts are ``benchmarks/e2e/compare.py``'s own (taken from the change's
checkout), one row per metric and workload, every run's value listed beside
them by seed.  ``--traced`` adds one traced run per side and reports each
layer's self time per 1k logical operations beside the counts that repeat
exactly, and under ``"moved_counts"`` every per-layer count (unit ``count``)
that differs between the two sides, with both values — split counts and
``redundant_versions_written`` included, so a change that moves the tree's
shape says so in its evidence file without being asked.
``--hold NAME[,NAME...]`` names per-layer counts of that traced pair
that the change must not move: both sides' values go under ``"held_counts"``
in the evidence file and the script exits non-zero if one differs or is
missing on either side.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from typing import Dict, List, Sequence


def run_benchmark(checkout: str, spec: dict, workload: str, seed: int, trace: int, out: str) -> None:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace), "--out", out,
    ]  # fmt: skip
    subprocess.run(command, cwd=checkout, check=True, stdout=subprocess.DEVNULL)


def load_compare(checkout: str):
    path = os.path.join(checkout, "benchmarks", "e2e", "compare.py")
    module_spec = importlib.util.spec_from_file_location("e2e_compare", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def verdict_rows(compare, parent_out: str, change_out: str) -> List[Dict[str, object]]:
    bounds = compare.load_bounds()
    parent, change = compare.load_runs(parent_out), compare.load_runs(change_out)
    rows = []
    for (workload, metric), a in sorted(parent.items()):
        if (workload, metric) not in change or metric not in bounds:
            continue
        b = change[workload, metric]
        better, bound = bounds[metric]
        sign = 1.0 if better == "higher" else -1.0
        by_seed = dict(b)
        pairs = [(value, by_seed[seed]) for seed, value in a if seed in by_seed]
        side = {}
        for label, runs in (("parent", a), ("change", b)):
            q1, median, q3 = compare.quartiles([value for _, value in runs])
            side[label] = {"median": median, "q1": q1, "q3": q3, "by_seed": dict(runs)}
        rows.append(
            {
                "workload": workload,
                "metric": metric,
                "better": better,
                "bound": bound,
                **side,
                "change_over_parent": side["change"]["median"] / side["parent"]["median"],
                "pairs": len(pairs),
                "pairs_won_by_change": sum(1 for x, y in pairs if sign * (y - x) > 0),
                "verdict": compare.verdict(a, b, better, bound),
            }
        )
    return rows


def traced_result(out: str, workload: str) -> Dict[str, object]:
    with open(os.path.join(out, f"trace_{workload}_seed1.json"), encoding="utf-8") as handle:
        return json.load(handle)


def held_counts(names: Sequence[str], parent: Dict[str, object], change: Dict[str, object]):
    """Both sides' value of each named per-layer count, and the names that
    moved: a count differs, or is missing on either side."""
    held = {}
    for name in names:
        sides = [result["metrics"].get(name, {}).get("value") for result in (parent, change)]
        held[name] = dict(zip(("parent", "change"), sides))
    moved = [
        name
        for name, sides in held.items()
        if sides["parent"] is None or sides["parent"] != sides["change"]
    ]
    return held, moved


def moved_counts(parent: Dict[str, object], change: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """Every per-layer count (unit ``count``, on either side) whose value the
    change moved, with both sides' values — ``None`` where a side lacks it."""
    moved = {}
    for name in sorted(set(parent["metrics"]) | set(change["metrics"])):
        cells = [result["metrics"].get(name) or {} for result in (parent, change)]
        if "count" not in (cell.get("unit") for cell in cells):
            continue
        values = [cell.get("value") for cell in cells]
        if values[0] != values[1]:
            moved[name] = dict(zip(("parent", "change"), values))
    return moved


def layer_view(result: Dict[str, object]) -> Dict[str, object]:
    per_1k = 1000.0 / result["counts"]["logical_ops"]
    metrics = {name: cell["value"] for name, cell in result["metrics"].items()}
    return {
        "self_ms_per_1k_ops": {
            name[: -len(".self_s")]: round(value * 1000.0 * per_1k, 2)
            for name, value in metrics.items()
            if name.endswith(".self_s") and value
        },
        "counters": {
            name: value
            for name, value in metrics.items()
            if value and not name.endswith((".self_s", "_s", "_s_max", ".trace_overhead_ratio"))
        },
    }


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("scratch_dir", help="where the result files of both sides go")
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=N")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD")
    parser.add_argument(
        "--hold", default="", metavar="NAME[,NAME...]", help="traced counts that must not move"
    )
    parser.add_argument("--json", required=True, help="the evidence file to write")
    args = parser.parse_args(argv)
    if args.hold and not args.traced:
        parser.error("--hold reads its counts from a --traced pair")
    checkouts = {"parent": os.path.abspath(args.parent_dir), "change": os.path.abspath(args.change_dir)}
    outs = {side: os.path.join(os.path.abspath(args.scratch_dir), side) for side in checkouts}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    plan = dict(item.split("=") for item in args.pairs)
    for workload, count in plan.items():
        for seed in range(1, int(count) + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                print(f"{workload} seed {seed}: {side}", file=sys.stderr, flush=True)
                run_benchmark(checkouts[side], spec, workload, seed, 0, outs[side])
    traced, counts_moved, held, moved = {}, {}, {}, []
    names = [name for name in args.hold.split(",") if name]
    for workload in args.traced:
        for side in ("parent", "change"):
            print(f"{workload} traced: {side}", file=sys.stderr, flush=True)
            run_benchmark(checkouts[side], spec, workload, 1, 1, outs[side])
        results = {side: traced_result(outs[side], workload) for side in ("parent", "change")}
        traced[workload] = {side: layer_view(result) for side, result in results.items()}
        counts_moved[workload] = moved_counts(results["parent"], results["change"])
        if names:
            held[workload], changed = held_counts(names, results["parent"], results["change"])
            moved += [f"{workload} {name}" for name in changed]
    rows = verdict_rows(load_compare(checkouts["change"]), outs["parent"], outs["change"])
    evidence = {
        "method": (
            "benchmarks/ab_pairs.py: seed-aligned parent/change pairs of the BENCHMARK.json "
            "command, odd seeds parent first, even seeds change first; verdicts from "
            "benchmarks/e2e/compare.py; layer view from one --trace 1 run per side (seed 1)"
        ),
        "pairs": {workload: int(count) for workload, count in plan.items()},
        "run_seconds": spec["run_seconds"],
        "verdicts": rows,
        "traced": traced,
        "moved_counts": counts_moved,
        "held_counts": held,
    }
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(evidence, handle, indent=1)
        handle.write("\n")
    for row in rows:
        print(
            f"{row['workload']:<17} {row['metric']:<27} {row['parent']['median']:>12.5g} "
            f"{row['change']['median']:>12.5g} {row['pairs_won_by_change']:>2}/{row['pairs']:<2} "
            f"{row['verdict']}"
        )
    for name in moved:
        print(f"held count moved or missing: {name}", file=sys.stderr)
    held_up = all(row["verdict"] in ("better", "within-bound") for row in rows)
    return 0 if held_up and not moved else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
