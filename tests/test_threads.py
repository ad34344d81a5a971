"""Every thread ``src/repro/`` starts is listed here, by file and function.

A thread is a serving loop or a client's own concurrency: a server's
accept loop and connections, a client's reader, a replication streamer or
tailer, a workload driver's clients, a demo's contender.  The storage stack
— ``api/``, ``core/``, ``recovery/``, ``storage/`` and ``txn/`` — starts
none: a store's work runs on its callers' threads, group commit included
(committers that wait together share one log force,
:mod:`repro.recovery.log_manager`).  A new thread therefore fails this test
instead of creeping in unnoticed; a new site means a new line here, with
its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``(file under src/repro, enclosing function)`` of every thread, sorted.
THREADS = [
    ("cli.py", "_provoke_lock_conflict"),  # the stats demo's lock contender
    ("client.py", "__init__"),  # the pipelined client's response reader
    ("replication/primary.py", "_dispatch"),  # one streamer per subscription
    ("replication/replica.py", "start"),  # one tailer per shard
    ("server/transport.py", "__init__"),  # a listener's accept loop
    ("server/transport.py", "_accept_loop"),  # one thread per connection
    ("workload/concurrent.py", "run_concurrent"),  # the workload's reader clients
    ("workload/concurrent.py", "run_concurrent"),  # the workload's writer clients
]

#: The storage stack's packages: no thread site may live under them.
STORAGE_STACK = ("api/", "core/", "recovery/", "storage/", "txn/")


def _is_thread(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "Thread"


def thread_sites() -> List[Tuple[str, Optional[str]]]:
    """``(file, enclosing function)`` of every ``….Thread(…)`` /
    ``Thread(…)`` call in ``src/repro``, sorted."""
    sites = []

    def visit(node: ast.AST, path: str, function: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if isinstance(child, ast.Call) and _is_thread(child):
                sites.append((path, function))
            visit(child, path, function)

    for file in SRC.rglob("*.py"):
        visit(ast.parse(file.read_text(encoding="utf-8")), file.relative_to(SRC).as_posix(), None)
    return sorted(sites)


def test_the_threads_in_src_are_exactly_the_listed_ones():
    assert thread_sites() == THREADS


def test_the_storage_stack_starts_no_thread():
    assert not [site for site in thread_sites() if site[0].startswith(STORAGE_STACK)]
