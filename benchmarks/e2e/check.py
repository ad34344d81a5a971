"""Oracles and failure accounting.

The log writes down one serialisation of a run (the stamps the store handed
back with every acknowledged write); primary, follower and recovered store
must all answer as the replay of exactly that one.  :class:`Oracle` is that
replay: a plain multiversion model, key → sorted ``(stamp, value)``, built
from the acknowledged writes only.  Answers are recorded during the measured
interval and checked here afterwards, so checking costs no measured time.

Answer records are tuples whose first field names the check:

Answers are ``(key, stamp, value)`` tuples (``None`` for "no such version").

``("get", key, horizon, answer)``
    a current read issued when ``horizon`` was the newest acknowledged stamp.
    In a closed loop of one the answer is exactly the version as of
    ``horizon``; with requests in flight it may be any *later* version of the
    key, never an earlier one.
``("as_of", key, stamp, answer)``
    exact: ``stamp`` never exceeds the horizon at issue.
``("range", low, high, stamp, answers)``
    exact, key-ordered.
``("history", key, horizon, answers)``
    every version up to the horizon, then possibly later ones, in stamp order.
``("error", description)``
    the operation raised (or timed out, or was refused after retries).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Version = Tuple[int, bytes]


class Oracle:
    """The multiversion model every recorded answer is checked against."""

    def __init__(self) -> None:
        self._stamps: Dict[int, List[int]] = {}
        self._values: Dict[int, List[bytes]] = {}
        self._keys: List[int] = []
        self.user_bytes = 0
        self.versions = 0

    def add(self, key: int, stamp: int, value: bytes) -> None:
        """Record one acknowledged write."""
        self._stamps.setdefault(key, []).append(stamp)
        self._values.setdefault(key, []).append(value)
        self.user_bytes += 8 + len(value)
        self.versions += 1

    def freeze(self) -> None:
        """Sort every history by stamp (pipelined acks arrive out of order)."""
        for key, stamps in self._stamps.items():
            if any(a > b for a, b in zip(stamps, stamps[1:])):
                order = sorted(range(len(stamps)), key=stamps.__getitem__)
                values = self._values[key]
                self._stamps[key] = [stamps[i] for i in order]
                self._values[key] = [values[i] for i in order]
        self._keys = sorted(self._stamps)

    def as_of(self, key: int, stamp: int) -> Optional[Version]:
        stamps = self._stamps.get(key)
        if not stamps:
            return None
        index = bisect_right(stamps, stamp) - 1
        if index < 0:
            return None
        return stamps[index], self._values[key][index]

    def history(self, key: int) -> List[Version]:
        return list(zip(self._stamps.get(key, ()), self._values.get(key, ())))

    def range(self, low: int, high: int, stamp: int) -> List[Tuple[int, int, bytes]]:
        rows = []
        keys = self._keys
        for key in keys[bisect_left(keys, low) : bisect_left(keys, high)]:
            version = self.as_of(key, stamp)
            if version is not None:
                rows.append((key, version[0], version[1]))
        return rows

    def current_state(self) -> Dict[int, bytes]:
        return {key: values[-1] for key, values in self._values.items()}

    def current_digest(self) -> str:
        return state_digest(
            (key, self._stamps[key][-1], self._values[key][-1]) for key in self._keys
        )


def state_digest(rows: Iterable[Tuple[int, int, bytes]]) -> str:
    """Digest of key-ordered ``(key, stamp, value)`` rows (snapshot equality)."""
    digest = hashlib.sha256()
    for key, stamp, value in rows:
        digest.update(b"%d@%d=" % (key, stamp))
        digest.update(value)
        digest.update(b";")
    return digest.hexdigest()


def _check_one(oracle: Oracle, record: Sequence) -> Optional[str]:
    kind = record[0]
    if kind == "error":
        return f"operation failed: {record[1]}"
    if kind == "as_of":
        _, key, stamp, answer = record
        expected = oracle.as_of(key, stamp)
        got = answer
        want = None if expected is None else (key, expected[0], expected[1])
        if got != want:
            return f"get_as_of({key}, {stamp}) answered {got}, oracle says {want}"
        return None
    if kind == "get":
        _, key, horizon, answer = record
        floor = oracle.as_of(key, horizon)
        got = answer
        if got is None:
            if floor is not None:
                return f"get({key}) answered nothing, oracle has stamp {floor[0]}"
            return None
        exact = oracle.as_of(key, got[1])
        if got[0] != key or exact is None or exact != (got[1], got[2]):
            return f"get({key}) answered {got}, which the oracle never wrote"
        if floor is not None and got[1] < floor[0]:
            return f"get({key}) answered stale stamp {got[1]} < acknowledged {floor[0]}"
        return None
    if kind == "range":
        _, low, high, stamp, answers = record
        got = list(answers)
        want = oracle.range(low, high, stamp)
        if got != want:
            return (
                f"range_search({low}, {high}, as_of={stamp}) answered "
                f"{len(got)} rows, oracle says {len(want)} (or rows differ)"
            )
        return None
    if kind == "history":
        _, key, horizon, answers = record
        got = [(stamp, value) for _, stamp, value in answers]
        full = oracle.history(key)
        need = bisect_right([stamp for stamp, _ in full], horizon)
        if len(got) < need or got != full[: len(got)]:
            return (
                f"key_history({key}) answered {len(got)} versions that are not "
                f"a prefix (>= {need} long) of the oracle's {len(full)}"
            )
        return None
    return f"unknown answer record {kind!r}"


def check_answers(oracle: Oracle, records: Sequence[Sequence]) -> List[str]:
    """Every wrong or failed answer among ``records``, described."""
    failures = []
    for record in records:
        problem = _check_one(oracle, record)
        if problem is not None:
            failures.append(problem)
    return failures


def check_state(oracle: Oracle, state: Dict[int, bytes], what: str) -> List[str]:
    """The visible current state of ``what`` must equal the oracle's."""
    expected = oracle.current_state()
    if state == expected:
        return []
    missing = len(expected.keys() - state.keys())
    extra = len(state.keys() - expected.keys())
    differ = sum(
        1 for key, value in state.items() if key in expected and expected[key] != value
    )
    return [
        f"{what}: visible state differs from the acknowledged writes "
        f"({missing} keys missing, {extra} unexpected, {differ} wrong values)"
    ]


def flip_one_answer(records: List[Sequence]) -> bool:
    """Corrupt the first recorded point answer in place (the oracle self-test)."""
    for index, record in enumerate(records):
        if record[0] in ("get", "as_of") and record[3] is not None:
            key, stamp, value = record[3]
            records[index] = (*record[:3], (key, stamp, value[:-1] + b"\x00"))
            return True
    return False
