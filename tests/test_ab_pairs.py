"""``benchmarks/ab_pairs.py --traced``: the comparison that fails a perf
claim when a count it named as unmoved (``--hold``) moved, the list of
every count that moved, and every run's correctness carried into the
evidence (no benchmark run needed: a stand-in command writes the result)."""

import subprocess
import sys

import pytest

from benchmarks.ab_pairs import failed_runs, held_counts, moved_counts, run_benchmark

#: A stand-in for the benchmark command: writes the result file the real one
#: would (``correct``/``attempted``/``failed`` from the seed) and exits as it
#: would; seed 0 writes nothing.
FAKE_RUN = """
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
if seed:
    mode = "trace" if args["--trace"] == "1" else "e2e"
    name = f"{mode}_{args['--workload']}_seed{seed}.json"
    with open(os.path.join(args["--out"], name), "w") as handle:
        json.dump({"correct": seed == 1, "attempted": 100, "failed": seed - 1}, handle)
sys.exit(0 if seed == 1 else 1)
"""


def traced(unit="count", **counts):
    return {
        "metrics": {
            name.replace("__", "."): {"value": value, "unit": unit}
            for name, value in counts.items()
        }
    }


def test_every_moved_count_is_listed_with_both_values():
    parent = traced(
        core__tsb_tree__data_time_splits=1765,
        core__tsb_tree__redundant_versions_written=5210,
        storage__pagecache__calls=51926,
        txn__commits=2994,
        only__parent=3,
    )
    change = traced(
        core__tsb_tree__data_time_splits=1771,
        core__tsb_tree__redundant_versions_written=5210,
        storage__pagecache__calls=38129,
        txn__commits=2994,
        only__change=0,
    )
    for result, self_s in ((parent, 0.5), (change, 0.4)):  # not a count: never listed
        result["metrics"]["txn.self_s"] = {"value": self_s, "unit": "s"}
    assert moved_counts(parent, change) == {
        "core.tsb_tree.data_time_splits": {"parent": 1765, "change": 1771},
        "only.change": {"parent": None, "change": 0},
        "only.parent": {"parent": 3, "change": None},
        "storage.pagecache.calls": {"parent": 51926, "change": 38129},
    }
    assert moved_counts(parent, parent) == {}


def test_equal_counts_are_held_and_reported_for_both_sides():
    parent = traced(storage__worm__reads=14590, core__tsb_tree__nodes_read_per_lookup=7.76)
    change = traced(storage__worm__reads=14590, core__tsb_tree__nodes_read_per_lookup=7.76)
    held, moved = held_counts(
        ["storage.worm.reads", "core.tsb_tree.nodes_read_per_lookup"], parent, change
    )
    assert moved == []
    assert held["storage.worm.reads"] == {"parent": 14590, "change": 14590}
    assert held["core.tsb_tree.nodes_read_per_lookup"] == {"parent": 7.76, "change": 7.76}


def test_a_count_that_differs_or_is_missing_on_either_side_has_moved():
    parent = traced(a__count=5, b__count=0, only__parent=1)
    change = traced(a__count=6, b__count=0, only__change=1)
    names = ["a.count", "b.count", "only.parent", "only.change", "nowhere"]
    held, moved = held_counts(names, parent, change)
    assert moved == ["a.count", "only.parent", "only.change", "nowhere"]
    assert held["a.count"] == {"parent": 5, "change": 6}
    assert held["b.count"] == {"parent": 0, "change": 0}  # a zero is a value, not an absence
    assert held["only.parent"] == {"parent": 1, "change": None}


def test_each_run_reports_its_correctness_and_a_run_without_a_result_raises(tmp_path):
    spec = {"command": [sys.executable, "-c", FAKE_RUN], "run_seconds": 1}
    right = run_benchmark(str(tmp_path), spec, "served_mixed", 1, 0, str(tmp_path))
    assert right == {"correct": True, "attempted": 100, "failed": 0}
    wrong = run_benchmark(str(tmp_path), spec, "served_mixed", 3, 1, str(tmp_path))
    assert wrong == {"correct": False, "attempted": 100, "failed": 2}
    with pytest.raises(subprocess.CalledProcessError):
        run_benchmark(str(tmp_path), spec, "served_mixed", 0, 0, str(tmp_path))


def test_a_run_that_failed_an_operation_is_named():
    ok = {"correct": True, "attempted": 9, "failed": 0}
    runs = {
        "served_mixed": {"parent": {"1": ok, "traced": ok}, "change": {"1": ok, "2": ok}},
        "txn_recovery": {
            "parent": {"1": ok},
            "change": {"1": {"correct": False, "attempted": 9, "failed": 1}},
        },
    }
    assert failed_runs(runs) == ["txn_recovery change 1"]
    runs["txn_recovery"]["change"]["1"] = ok
    assert failed_runs(runs) == []
