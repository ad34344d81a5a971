"""Record locks for updating transactions (paper section 4).

The paper's section 4 only requires locks for *updaters*; read-only
transactions run entirely without them (section 4.1).  This module provides
the record-lock manager the transaction manager needs, grown from the
original fail-fast stub into a real concurrent lock manager:

* **One mode.**  Every record lock is exclusive: a key has at most one
  holder.  The transaction manager locks every key an updater writes and
  holds it until commit or abort (strict two-phase locking on write sets);
  nothing else takes a record lock, because a reader in the past conflicts
  with nothing (section 4.1).  The holder may re-request its lock for free.

* **Blocking with timeout.**  A conflicting request blocks until the
  holder releases, the per-call (or manager-default) timeout expires, or a
  deadlock is detected.  Timeouts raise :class:`LockConflictError` with
  ``reason="timeout"``.

* **Deadlock detection.**  While blocked, a transaction registers a
  wait-for edge to the current holder.  Each new waiter runs a
  depth-first search over the wait-for graph; if the search returns to
  the requester, the requester is the victim and its
  :class:`LockConflictError` carries the cycle (``reason="deadlock"``,
  ``cycle=(requester, ..., last)``).  Sleeping waiters refresh their edges
  and re-run their own cycle check on every wake-up — grants notify the
  sleepers, and waits are sliced so a refresh happens within
  ``EDGE_REFRESH_INTERVAL`` regardless — so a cycle closed *through a
  holder granted after a waiter went to sleep* is still found.  The victim
  is whichever transaction in the cycle checks first: the newcomer in the
  common case, a refreshing sleeper otherwise; either way exactly one
  victim is chosen (detection is serialized on the manager's condition)
  and the survivors proceed once the victim's locks are released.

* **Same-thread fail-fast.**  When the blocking holder's lock was taken by
  the *same OS thread* as the requester, blocking can never resolve — the
  thread cannot release a lock while it is asleep waiting for it.  This is
  a genuine (thread-level) deadlock, detected immediately, and it is also
  exactly the situation single-threaded simulations create, so the
  original stub's fail-fast behaviour is preserved where it was correct.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.registry import enabled as metrics_enabled
from repro.storage.serialization import Key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.obs.registry import MetricsRegistry

#: Upper bound on how long a sleeping waiter goes without refreshing its
#: wait-for edges and re-running its cycle check.  Grants notify sleepers
#: immediately; the slice is the backstop for notify/schedule races.
EDGE_REFRESH_INTERVAL = 0.05


class LockConflictError(Exception):
    """A lock request failed: conflict, timeout or deadlock.

    Attributes
    ----------
    key, holder, requester:
        The contested key, one blocking holder and the requesting
        transaction (the original stub's fields, kept for compatibility).
    holders:
        Every transaction that was blocking the request.
    cycle:
        For ``reason="deadlock"``, the wait-for cycle as a tuple of
        transaction ids starting with the victim (the requester); empty
        otherwise.
    reason:
        ``"conflict"`` (same-thread fail-fast), ``"timeout"`` or
        ``"deadlock"``.
    """

    def __init__(
        self,
        key: Key,
        holder: Optional[int],
        requester: int,
        holders: Sequence[int] = (),
        cycle: Sequence[int] = (),
        reason: str = "conflict",
    ) -> None:
        detail = {
            "conflict": f"held by transaction {holder}",
            "timeout": f"timed out waiting for transaction {holder}",
            "deadlock": "deadlock cycle "
            + " -> ".join(str(txn) for txn in tuple(cycle) + tuple(cycle[:1])),
        }.get(reason, f"held by transaction {holder}")
        super().__init__(
            f"transaction {requester} cannot lock key {key!r}: {detail}"
        )
        self.key = key
        self.holder = holder
        self.requester = requester
        self.holders = tuple(holders) if holders else ((holder,) if holder is not None else ())
        self.cycle = tuple(cycle)
        self.reason = reason


class LockManager:
    """Exclusive per-key locks with blocking, timeout and deadlock
    detection.

    Parameters
    ----------
    timeout:
        Default seconds a conflicting request waits before raising
        :class:`LockConflictError` (``reason="timeout"``).  Per-call
        ``timeout=`` overrides it; ``None`` means wait forever (deadlock
        detection still applies).
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  When given,
        contended acquires time their wait into ``lock.wait`` and count
        ``lock.waits``; failures count ``lock.conflicts``,
        ``lock.deadlocks`` and ``lock.timeouts``.
    """

    def __init__(
        self,
        timeout: Optional[float] = 5.0,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.timeout = timeout
        self._metrics = metrics
        #: Every method holds ``_mutex`` (a plain lock: entered at C speed,
        #: never re-entered); waits and notifies go through ``_cond``, the
        #: condition over that same lock.
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        #: key -> the transaction holding it
        self._holders: Dict[Key, int] = {}
        self._held_by_txn: Dict[int, Set[Key]] = {}
        #: txn_id -> txns it is currently blocked on (wait-for graph edges)
        self._waits_for: Dict[int, Set[int]] = {}
        #: txn_id -> ident of the OS thread that last acquired for it
        self._txn_thread: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    def acquire_exclusive(
        self, txn_id: int, key: Key, timeout: Optional[float] = ...  # type: ignore[assignment]
    ) -> None:
        """Take (or re-take) the lock on ``key`` for ``txn_id``.

        Blocks while another transaction holds it; raises
        :class:`LockConflictError` on timeout, on a wait-for-graph cycle
        (the requester is the victim and the error carries the cycle), or
        immediately when the holder was acquired by this very thread, which
        could therefore never release it.
        """
        if timeout is ...:
            timeout = self.timeout
        with self._mutex:
            self._txn_thread[txn_id] = threading.get_ident()
            self._acquire_locked(txn_id, key, timeout)

    def acquire_all(self, txn_id: int, keys: Sequence[Key]) -> None:
        """Take the exclusive lock on every one of ``keys`` for ``txn_id``, in
        one total order: the key codec's tag (every int key before every str
        key), then the key.  Two callers that lock overlapping key sets this
        way can never wait for each other in a cycle.  Every key is taken
        under one hold of the manager's mutex; a contended one waits as
        :meth:`acquire_exclusive` does, up to the manager's timeout per
        key.  On an error the keys granted so far stay held: the caller
        releases them with :meth:`release_all`.

        For a caller that takes all its locks in this one call and releases
        them before its thread does anything else (the write path): nobody
        can ever wait for it on its own thread, so it is left out of the
        same-thread table.
        """
        if len(keys) > 1:  # the codec's tag (an int key's is the lower), then the key
            keys = sorted(set(keys), key=lambda key: (type(key) is str, key))
        with self._mutex:
            for key in keys:
                self._acquire_locked(txn_id, key, self.timeout)

    def _acquire_locked(self, txn_id: int, key: Key, timeout: Optional[float]) -> None:
        """:meth:`acquire_exclusive`'s body, with ``self._mutex`` held."""
        blockers = self._blockers(txn_id, key)
        if blockers:
            self._wait_out(txn_id, key, timeout, blockers)
        self._grant(txn_id, key)

    def _wait_out(
        self, txn_id: int, key: Key, timeout: Optional[float], blockers: List[int]
    ) -> None:
        """Block until ``blockers`` — and whoever holds ``key`` after them —
        are gone, or raise: same-thread conflict, deadlock or timeout."""
        me = threading.get_ident()
        deadline = None if timeout is None else time.monotonic() + timeout
        record = self._metrics is not None and metrics_enabled()
        waited_from = time.perf_counter()
        try:
            while blockers:
                first = blockers[0]
                same_thread = [
                    blocker
                    for blocker in blockers
                    if self._txn_thread.get(blocker) == me
                ]
                if same_thread:
                    if record:
                        self._metrics.inc("lock.conflicts")
                    raise LockConflictError(
                        key=key,
                        holder=same_thread[0],
                        requester=txn_id,
                        holders=blockers,
                        reason="conflict",
                    )
                self._waits_for[txn_id] = set(blockers)
                cycle = self._find_cycle(txn_id)
                if cycle is not None:
                    if record:
                        self._metrics.inc("lock.deadlocks")
                    raise LockConflictError(
                        key=key,
                        holder=first,
                        requester=txn_id,
                        holders=blockers,
                        cycle=cycle,
                        reason="deadlock",
                    )
                # Sliced waits: wake at least every EDGE_REFRESH_INTERVAL
                # to refresh the wait-for edges against holders granted
                # while asleep and re-run the cycle check above.  Only
                # the caller's deadline — never a slice expiry — times
                # the request out.
                if deadline is None:
                    self._cond.wait(EDGE_REFRESH_INTERVAL)
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        if record:
                            self._metrics.inc("lock.timeouts")
                        raise LockConflictError(
                            key=key,
                            holder=first,
                            requester=txn_id,
                            holders=blockers,
                            reason="timeout",
                        )
                    self._cond.wait(min(remaining, EDGE_REFRESH_INTERVAL))
                blockers = self._blockers(txn_id, key)
        finally:
            self._waits_for.pop(txn_id, None)
        if record:
            self._metrics.inc("lock.waits")
            self._metrics.observe("lock.wait", time.perf_counter() - waited_from)

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------
    def release_all(self, txn_id: int) -> None:
        """Drop every lock held by ``txn_id`` (commit or abort)."""
        with self._mutex:
            for key in self._held_by_txn.pop(txn_id, ()):
                del self._holders[key]
            self._waits_for.pop(txn_id, None)
            self._txn_thread.pop(txn_id, None)
            if self._waits_for:  # only a waiter can use the news
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def holder_of(self, key: Key) -> Optional[int]:
        """The transaction holding ``key``, if any."""
        with self._mutex:
            return self._holders.get(key)

    def locks_held(self, txn_id: int) -> Set[Key]:
        with self._mutex:
            return set(self._held_by_txn.get(txn_id, set()))

    @property
    def locked_key_count(self) -> int:
        with self._mutex:
            return len(self._holders)

    def waiting_transactions(self) -> Dict[int, Set[int]]:
        """A snapshot of the wait-for graph (tests and diagnostics)."""
        with self._mutex:
            return {txn: set(edges) for txn, edges in self._waits_for.items()}

    def debug_state(self) -> Dict[str, object]:
        """A read-only snapshot of holders and the wait-for graph.

        Until now a deadlock's ``.cycle`` was the only visibility into who
        blocks whom; this exposes the same structures on demand — for
        ``metrics_snapshot()`` and the ``repro stats`` CLI — as plain
        JSON-serialisable data (keys are ``repr``-ed, each mapped to its
        holder).  A consistent snapshot taken under the manager's condition;
        nothing is mutated.
        """
        with self._mutex:
            holders = {
                repr(key): holder
                for key, holder in sorted(self._holders.items(), key=lambda kv: repr(kv[0]))
            }
            waits_for = {
                txn: sorted(edges) for txn, edges in sorted(self._waits_for.items())
            }
            return {
                "holders": holders,
                "waits_for": waits_for,
                "waiting": len(waits_for),
                "locked_keys": len(holders),
            }

    # ------------------------------------------------------------------
    # Internal helpers (all called with self._mutex held)
    # ------------------------------------------------------------------
    def _blockers(self, txn_id: int, key: Key) -> List[int]:
        """The holder of ``key``, unless it is the requester."""
        holder = self._holders.get(key)
        return [] if holder is None or holder == txn_id else [holder]

    def _grant(self, txn_id: int, key: Key) -> None:
        self._holders[key] = txn_id
        self._held_by_txn.setdefault(txn_id, set()).add(key)
        if self._waits_for:
            # Wake sleeping waiters so they refresh their wait-for edges:
            # this grant may have closed a cycle through the new holder.
            self._cond.notify_all()

    def _find_cycle(self, start: int) -> Optional[Tuple[int, ...]]:
        """DFS over the wait-for graph; the cycle through ``start``, if any."""
        path: List[int] = [start]
        on_path = {start}

        def visit(txn: int) -> Optional[Tuple[int, ...]]:
            for successor in sorted(self._waits_for.get(txn, ())):
                if successor == start:
                    return tuple(path)
                if successor in on_path:
                    continue  # a cycle not through the requester; its own victim will see it
                path.append(successor)
                on_path.add(successor)
                found = visit(successor)
                if found is not None:
                    return found
                on_path.discard(successor)
                path.pop()
            return None

        return visit(start)
