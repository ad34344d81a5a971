"""Launcher for the command in ``BENCHMARK.json``.

Puts the checkout root (for ``benchmarks.e2e``) and ``src`` (for ``repro``)
on ``sys.path`` so the command needs no ``PYTHONPATH``; spawned SUT child
processes inherit the path.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

if __name__ == "__main__":
    from benchmarks.e2e.cli import main

    sys.exit(main())
