"""Speed normalisation: how slow was the machine while a phase was timed?"""

from __future__ import annotations

from time import thread_time
from typing import Dict, Tuple

#: A phase's slowdown rests on at least this many slices: a phase too short
#: to have been sampled that often from inside is topped up at its end.
MIN_SLICES = 20


class SpeedReference:
    """A fixed slice of pure-Python work, timed wherever the store is timed.

    This sandbox's cores run 10-20 % faster or slower from one minute to the
    next (other tenants), which no run length within the time cap averages
    out.  The slice is sampled throughout every timed phase — between
    operations in the generator, by a sampler thread inside the SUT child
    while it serves, before and after every restart on the restarting thread
    — so its mean cost measures how slow the machine was during exactly that
    phase; timings are divided by that slowdown (and rates multiplied by it).
    The cost is *thread CPU time*, which a wait for the interpreter lock or
    for a reply does not inflate.  The slice allocates nothing the collector
    tracks and takes well under 1 % of a phase.
    """

    def __init__(self, nominal_slice_s: float) -> None:
        #: CPU seconds one slice costs on the reference box at its usual
        #: speed, amid this workload (a busier cache makes the slice dearer).
        self.nominal_slice_s = nominal_slice_s
        self.total_s = 0.0
        self.slices = 0
        self._scratch: Dict[int, int] = {}

    def slice(self) -> None:
        scratch = self._scratch
        started = thread_time()
        total = 0
        for index in range(1000):
            total += index * index
            scratch[index & 127] = total
        self.total_s += thread_time() - started
        self.slices += 1

    def state(self) -> Tuple[float, int]:
        return self.total_s, self.slices

    def slowdown_since(self, earlier: Tuple[float, int]) -> float:
        """Mean slice cost since ``earlier`` over the nominal cost."""
        while self.slices - earlier[1] < MIN_SLICES:
            self.slice()
        return self.slowdown(earlier, self.state())

    def slowdown(self, earlier: Tuple[float, int], later: Tuple[float, int]) -> float:
        """The same between two states of this reference or the SUT child's."""
        return (later[0] - earlier[0]) / (later[1] - earlier[1]) / self.nominal_slice_s
