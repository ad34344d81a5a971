"""Shared fixtures and the reference oracle used by model-based tests.

The oracle is a plain-Python versioned map: the ground truth every indexed
structure (TSB-tree, WOBT, naive baseline) is compared against.  Keeping it
trivially simple — dict of sorted (timestamp, value) lists — is the point: if
the oracle and a tree disagree, the tree is wrong.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import settings

# Example budgets for the Hypothesis suites.  Tier-1 runs the default "ci"
# profile; the nightly CI job exports HYPOTHESIS_PROFILE=nightly to give the
# differential state machines a 500+-example budget (tests that pin their
# own @settings(max_examples=...) keep their explicit numbers either way).
settings.register_profile("ci", deadline=None, print_blob=True)
settings.register_profile(
    "nightly",
    deadline=None,
    print_blob=True,
    max_examples=500,
    stateful_step_count=30,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(autouse=True)
def no_leaked_service_threads():
    """Fail any test that leaves a server, primary, replica or store thread alive.

    ``ReproServer.stop()`` must wake and join its accept loop
    (``repro-server``) and every connection thread
    (``repro-server-conn-N``), ``ReplicationPrimary.stop()`` / ``.kill()``
    the same two kinds and the streamers (``repl-*``), and
    ``Replica.stop()`` its tailers (``replica-*``).  A store owns no
    thread (``tests/test_threads.py``).  A thread that outlives its test is a stop that timed out (or never ran) and keeps a
    socket or a store alive behind the suite's back.
    """
    yield
    leaked = [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("repro-server", "repl-", "replica-"))
        and thread.is_alive()
    ]
    assert not leaked, f"service threads still alive after the test: {leaked}"


@dataclass
class VersionedOracle:
    """Ground-truth versioned key/value store used to validate the trees."""

    history: Dict[object, List[Tuple[int, bytes]]] = field(default_factory=dict)
    max_timestamp: int = 0

    def insert(self, key, value: bytes, timestamp: int) -> None:
        self.history.setdefault(key, []).append((timestamp, bytes(value)))
        self.max_timestamp = max(self.max_timestamp, timestamp)

    def keys(self) -> List:
        return sorted(self.history)

    def current(self, key) -> Optional[bytes]:
        versions = self.history.get(key)
        return versions[-1][1] if versions else None

    def as_of(self, key, timestamp: int) -> Optional[bytes]:
        value: Optional[bytes] = None
        for stamp, payload in self.history.get(key, []):
            if stamp <= timestamp:
                value = payload
        return value

    def key_history(self, key) -> List[Tuple[int, bytes]]:
        return list(self.history.get(key, []))

    def snapshot(self, timestamp: int) -> Dict[object, bytes]:
        state: Dict[object, bytes] = {}
        for key in self.history:
            value = self.as_of(key, timestamp)
            if value is not None:
                state[key] = value
        return state

    def range_current(self, low, high) -> Dict[object, bytes]:
        state: Dict[object, bytes] = {}
        for key in self.history:
            if low is not None and key < low:
                continue
            if high is not None and not key < high:
                continue
            state[key] = self.current(key)
        return state


def run_mixed_workload(
    tree,
    oracle: VersionedOracle,
    operations: int,
    update_fraction: float,
    key_space: int,
    seed: int,
    value_prefix: str = "v",
) -> None:
    """Drive ``tree`` and ``oracle`` through the same randomized workload."""
    rng = random.Random(seed)
    timestamp = 0
    for _ in range(operations):
        timestamp += 1
        existing = oracle.keys()
        if existing and rng.random() < update_fraction:
            key = existing[rng.randrange(len(existing))]
        else:
            key = rng.randrange(key_space)
        value = f"{value_prefix}-{key}-{timestamp}".encode()
        tree.insert(key, value, timestamp=timestamp)
        oracle.insert(key, value, timestamp)


@pytest.fixture
def oracle() -> VersionedOracle:
    return VersionedOracle()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260617)
