"""Every wall-clock sleep under ``src/repro/`` is listed here, by file and
function.

A wait in this codebase waits on the event it is waiting for — a condition
notified by whoever makes the awaited thing true, a socket read, a join.  A
sleep stays only where the passing of time is itself the point: a backoff,
a simulated device latency, a test hook, an interactive pause.  A new poll
loop therefore fails this test instead of creeping back; deleting a sleep
means deleting its line here (ROADMAP item 9 shrinks the list).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``(file under src/repro, enclosing function)`` of every sleep call, sorted.
SLEEPS = [
    ("cli.py", "_provoke_lock_conflict"),  # let the demo's contender block
    ("cli.py", "command_stats"),  # the ``--watch`` interval
    ("client.py", "_resolve"),  # SERVER_BUSY backoff
    ("replication/cluster.py", "_note_wrong_shard"),  # cutover-freeze backoff
    ("replication/replica.py", "_subscribe_once"),  # the ``apply_delay`` test hook
    ("replication/replica.py", "_tail_shard"),  # reconnect backoff
    ("storage/magnetic.py", "_sleep_for_access"),  # simulated seek latency
    ("storage/worm.py", "_sleep_for_access"),  # simulated seek latency
]


def _is_sleep(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "sleep"


def sleep_sites() -> List[Tuple[str, Optional[str]]]:
    """``(file, enclosing function)`` of every ``….sleep(…)`` / ``sleep(…)``
    call in ``src/repro``, sorted."""
    sites = []

    def visit(node: ast.AST, path: str, function: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if isinstance(child, ast.Call) and _is_sleep(child):
                sites.append((path, function))
            visit(child, path, function)

    for file in SRC.rglob("*.py"):
        visit(ast.parse(file.read_text(encoding="utf-8")), file.relative_to(SRC).as_posix(), None)
    return sorted(sites)


def test_the_sleeps_in_src_are_exactly_the_listed_ones():
    assert sleep_sites() == SLEEPS
