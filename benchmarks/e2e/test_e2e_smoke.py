"""Smoke test of the benchmark itself (collected by tier-1, a few seconds).

At a hundredth of the registered size every workload must still emit exactly
the metric names ``BENCHMARK.json`` registers, the two single-threaded
workloads must repeat every count exactly, and the oracle must catch a
deliberately corrupted answer.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.e2e import workloads as w
from benchmarks.e2e.catalog import END_TO_END, PER_LAYER
from benchmarks.e2e.cli import run_workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCALE = 0.01
SECONDS = 10.0

#: Per-layer metrics that are timings (or ratios of timings), not counts.
_TIMED = {
    "obs.trace_overhead_ratio",
    "recovery.checkpoint_s_max",
    "recovery.redo_ops_per_s",
    "replication.catchup_s",
    "replication.watermark_wait_s",
    "api.store.latch_write_wait_s",
    "api.store.latch_read_wait_s",
    "api.store.latch_write_hold_s",
}


@pytest.fixture(scope="module")
def registered():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_registers_the_catalogue(registered):
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in registered["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in registered["per_layer"]] == PER_LAYER
    assert [m["name"] for m in registered["workloads"]] == list(w.WORKLOADS)
    assert registered["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", list(w.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_exactly_the_registered_metrics(name, trace, registered):
    result = run_workload(name, seed=7, seconds=SECONDS, trace=trace, scale=SCALE, setups=1)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = registered["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        metric: cell["unit"] for metric, cell in result["metrics"].items()
    }
    if not trace:
        assert all(cell["value"] > 0 for cell in result["metrics"].values())


@pytest.mark.parametrize("name", ["embedded_history", "txn_recovery"])
def test_counts_repeat_exactly_on_the_single_threaded_workloads(name):
    def counts(result):
        return {
            metric: cell["value"]
            for metric, cell in result["metrics"].items()
            if not metric.endswith(".self_s") and metric not in _TIMED
        }

    first = run_workload(name, seed=11, seconds=SECONDS, trace=True, scale=SCALE)
    again = run_workload(name, seed=11, seconds=SECONDS, trace=True, scale=SCALE)
    assert counts(first) == counts(again)
    assert first["counts"] == again["counts"]
    stored = [
        run_workload(name, seed=11, seconds=SECONDS, trace=False, scale=SCALE, setups=1)[
            "metrics"
        ]["bytes_stored_per_user_byte"]["value"]
        for _ in range(2)
    ]
    assert stored[0] == stored[1]


def test_a_flipped_answer_is_caught_by_the_oracle():
    result = run_workload(
        "embedded_history", seed=3, seconds=SECONDS, trace=False, scale=SCALE, setups=1,
        flip_answer=True,
    )
    assert not result["correct"]
    assert result["failed"] == 1
