"""Where a served workload's CPU goes, thread by thread.

The repo benchmark reports ``cpu_ms_per_op`` for generator and SUT together.
This script splits it: it sets one served workload up exactly as
``benchmarks/e2e`` does (its ``Rig``, its operation stream, tracing off) in a
checkout of the repository, and reads every thread's on-CPU time from
``/proc/<pid>/task/<tid>/schedstat`` just before and just after the measured
interval — for the load generator (this process) and for the SUT child::

    python3 benchmarks/thread_cpu.py --checkout PARENT_DIR --json parent_threads.json
    python3 benchmarks/thread_cpu.py --checkout . --workload replicated_rw

Threads are reported in start order (Linux thread ids grow; CPython names
its threads only inside the interpreter, so the child's are known by the
order its set-up starts them: main, the server's first thread, the
benchmark's sampler, then whatever the server starts to serve).  A thread
that ended before the interval did is missing from the second reading and
is reported with what it had burned by the first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from typing import Dict, List, Sequence


def on_cpu_s(pid: int) -> Dict[int, float]:
    """``{thread id: seconds on a CPU so far}`` for every live thread of ``pid``."""
    readings = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat", encoding="ascii") as handle:
                readings[int(tid)] = int(handle.read().split()[0]) / 1e9
        except OSError:
            pass  # the thread ended between the listing and the read
    return readings


def per_op_us(before: Dict[int, float], after: Dict[int, float], ops: int) -> List[Dict[str, object]]:
    rows = []
    for order, tid in enumerate(sorted(set(before) | set(after))):
        burned = after.get(tid, before.get(tid, 0.0)) - before.get(tid, 0.0)
        rows.append({"start_order": order, "tid": tid, "cpu_us_per_op": round(burned * 1e6 / ops, 1)})
    return rows


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", default=".", help="the repository checkout to measure")
    parser.add_argument("--workload", default="served_mixed")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--json", help="also write the table to this file")
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(checkout, "src"), checkout]
    from benchmarks.e2e import workloads as w
    from benchmarks.e2e.harness import Rig
    from benchmarks.e2e.speed import SpeedReference

    spec = w.WORKLOADS[args.workload]
    if not spec.served:
        parser.error("an embedded workload runs on the generator's one thread")
    rig = Rig(
        spec,
        w.preload_keys(spec, args.seed, 1.0),
        spec.keys(1.0),
        SpeedReference(spec.nominal_slice_us * 1e-6),
    )
    try:
        child = rig.sut._process.pid
        before = on_cpu_s(os.getpid()), on_cpu_s(child)
        interval = rig.run(w.operations(spec, args.seed, args.seconds, 1.0))
        after = on_cpu_s(os.getpid()), on_cpu_s(child)
        names = {thread.native_id: thread.name for thread in threading.enumerate()}
    finally:
        rig.close()
    ops = interval.logical_ops
    failed = sum(1 for record in interval.records if record[0] == "error")
    generator = per_op_us(before[0], after[0], ops)
    for row in generator:
        row["name"] = names.get(row["tid"], "(ended)")
    table = {
        "checkout": checkout,
        "workload": args.workload,
        "seed": args.seed,
        "logical_ops": ops,
        "failed_requests": failed,
        "interval_s": round(interval.elapsed_s, 3),
        "sut_child": per_op_us(before[1], after[1], ops),
        "generator": generator,
    }
    for process in ("sut_child", "generator"):
        total = sum(row["cpu_us_per_op"] for row in table[process])
        print(f"{process}: {total:.1f} us of CPU per op over {ops} ops")
        for row in table[process]:
            print(f"  #{row['start_order']} tid {row['tid']} {row.get('name', '')}: {row['cpu_us_per_op']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(table, handle, indent=1)
            handle.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
