"""Compare two sets of end-to-end result files, metric by metric.

``python3 benchmarks/e2e/compare.py A_DIR B_DIR`` reads every
``e2e_<workload>_seed<n>.json`` in the two directories (``A`` is the parent
commit, ``B`` the change; for an A/A check both are the same commit) and
prints one row per metric × workload: the two medians with their quartiles,
the bound from ``BENCHMARK.json``, and a verdict —

``worse``         B's median is worse than A's by more than the bound;
``unresolved``    the run-to-run spread (quartile distance over median, of
                  either side) exceeds the bound, so "no regression" cannot
                  be told from noise — unless every run of B beats every run
                  of A, which reads ``better``;
``better``        B wins at least nine tenths of the seed-aligned pairs and
                  the medians differ by more than A's own quartile distance;
``within-bound``  everything else.

One row per workload, no combined score.  With a single directory it prints
each metric's spread beside its bound (the benchmark's own steadiness check).
Exit status is 1 when any row reads ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")

Runs = Dict[Tuple[str, str], List[Tuple[int, float]]]  # (workload, metric) -> [(seed, value)]


def load_bounds(path: str = BENCHMARK_JSON) -> Dict[str, Tuple[str, float]]:
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def load_runs(directory: str) -> Runs:
    runs: Runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "e2e_*_seed*.json"))):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        workload = result["fingerprint"]["workload"]
        seed = result["fingerprint"]["seed"]
        for metric, cell in result["metrics"].items():
            runs.setdefault((workload, metric), []).append((seed, cell["value"]))
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(a: List[Tuple[int, float]], b: List[Tuple[int, float]], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    a_values = [value for _, value in a]
    b_values = [value for _, value in b]
    a_q1, a_median, a_q3 = quartiles(a_values)
    b_median = quartiles(b_values)[1]
    gain = sign * (b_median - a_median)  # positive: B is better
    if all(sign * (y - x) > 0 for x in a_values for y in b_values):
        return "better"
    if max(spread(a_values), spread(b_values)) > bound:
        return "unresolved"
    if -gain > bound * abs(a_median):
        return "worse"
    b_by_seed = dict(b)
    pairs = [(value, b_by_seed[seed]) for seed, value in a if seed in b_by_seed]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * (wins + losses) > 0 and gain > a_q3 - a_q1:
        return "better"
    return "within-bound"


def compare(a: Runs, b: Runs, bounds: Dict[str, Tuple[str, float]]) -> Tuple[List[str], bool]:
    lines = [
        f"{'workload':<17} {'metric':<27} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'bound':>6} {'spread':>7}  verdict"
    ]
    clean = True
    for (workload, metric) in sorted(a):
        if (workload, metric) not in b or metric not in bounds:
            continue
        better, bound = bounds[metric]
        cells = []
        for runs in (a[workload, metric], b[workload, metric]):
            q1, median, q3 = quartiles([value for _, value in runs])
            cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}]")
        widest = max(
            spread([v for _, v in a[workload, metric]]), spread([v for _, v in b[workload, metric]])
        )
        outcome = verdict(a[workload, metric], b[workload, metric], better, bound)
        clean = clean and outcome in ("within-bound", "better")
        lines.append(
            f"{workload:<17} {metric:<27} {cells[0]:>34} {cells[1]:>34} "
            f"{bound:>6.2f} {widest:>7.3f}  {outcome}"
        )
    return lines, clean


def steadiness(runs: Runs, bounds: Dict[str, Tuple[str, float]]) -> Tuple[List[str], bool]:
    lines = [
        f"{'workload':<17} {'metric':<27} {'runs':>4} {'median':>12} {'spread':>7} "
        f"{'bound':>6}  verdict"
    ]
    steady = True
    for (workload, metric), values in sorted(runs.items()):
        if metric not in bounds:
            continue
        bound = bounds[metric][1]
        numbers = [value for _, value in values]
        share = spread(numbers)
        # setup_s is judged on its median only; its spread is informative.
        ok = share <= bound or metric == "setup_s"
        steady = steady and ok
        note = "steady" if share <= bound / 3 else ("within-bound" if ok else "too noisy")
        lines.append(
            f"{workload:<17} {metric:<27} {len(numbers):>4} {quartiles(numbers)[1]:>12.5g} "
            f"{share:>7.3f} {bound:>6.2f}  {note}"
        )
    return lines, steady


def write_baseline(a_dir: str, b_dir: str, out_dir: str) -> None:
    """``<out_dir>/<workload>.json``: medians, quartiles and spreads of the two
    A/A sets, beside each metric's bound and the A/A verdict."""
    bounds = load_bounds()
    sets = {"A": load_runs(a_dir), "B": load_runs(b_dir)}
    workloads = sorted({workload for workload, _ in sets["A"]})
    os.makedirs(out_dir, exist_ok=True)
    for workload in workloads:
        with open(sorted(glob.glob(os.path.join(a_dir, f"e2e_{workload}_seed*.json")))[0]) as handle:
            fingerprint = json.load(handle)["fingerprint"]
        fingerprint.pop("seed")
        metrics = {}
        for metric, (better, bound) in bounds.items():
            cell = {"better": better, "bound": bound}
            for label, runs in sets.items():
                values = [value for _, value in runs[workload, metric]]
                q1, median, q3 = quartiles(values)
                cell[label] = {
                    "seeds": [seed for seed, _ in runs[workload, metric]],
                    "median": median,
                    "q1": q1,
                    "q3": q3,
                    "spread": spread(values),
                }
            cell["verdict"] = verdict(
                sets["A"][workload, metric], sets["B"][workload, metric], better, bound
            )
            metrics[metric] = cell
        with open(os.path.join(out_dir, f"{workload}.json"), "w", encoding="utf-8") as handle:
            json.dump({"fingerprint": fingerprint, "metrics": metrics}, handle, indent=1)


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_dir")
    parser.add_argument("b_dir", nargs="?")
    parser.add_argument("--write-baseline", metavar="DIR", help="also write <DIR>/<workload>.json")
    args = parser.parse_args(argv)
    bounds = load_bounds()
    if args.b_dir is None:
        lines, ok = steadiness(load_runs(args.a_dir), bounds)
    else:
        lines, ok = compare(load_runs(args.a_dir), load_runs(args.b_dir), bounds)
        if args.write_baseline:
            write_baseline(args.a_dir, args.b_dir, args.write_baseline)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
