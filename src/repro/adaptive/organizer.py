"""Profile organizers (after Jikes RVM's adaptive-system organizers).

The raw profilers accumulate method samples and DCG edges; the
organizer here turns the call graph into an optionally decayed one, an
input to the controller's decisions.  Per the paper (§5.1), organizers
do not care whether samples came from timer-based or counter-based
listeners — they just process samples.
"""

from __future__ import annotations

from repro.profiling.dcg import DCG


class DecayingDCGOrganizer:
    """Maintains an exponentially decayed view of a profiler's DCG.

    Jikes RVM periodically decays DCG weights so the profile tracks
    phase changes; this organizer applies the decay every ``period``
    ticks when :meth:`on_tick` is called.
    """

    def __init__(self, dcg: DCG, factor: float = 0.95, period: int = 100):
        if not 0.0 < factor <= 1.0:
            raise ValueError("decay factor must be in (0, 1]")
        if period < 1:
            raise ValueError("period must be >= 1")
        self._dcg = dcg
        self._factor = factor
        self._period = period
        self._ticks = 0

    def on_tick(self) -> None:
        self._ticks += 1
        if self._ticks % self._period == 0 and self._factor < 1.0:
            self._dcg.decay(self._factor)

    @property
    def dcg(self) -> DCG:
        return self._dcg
