"""Machine-speed probe for the timed passes and the set-up.

The machines this benchmark runs on are shared, and their speed swings by up
to a factor of two within seconds.  On a 2-vCPU Xeon VM with Python 3.11
the same sweep took 5.8 s in one pass and 8.4 s in the next, and CPU time
swung with wall time, so the work itself ran slower.  A probe timed only in
the gaps between operations cannot follow that inside an eight-second
sweep: in two five-seed trials it left the sweep's spread (interquartile
range over median) at 0.064 and 0.091, against 0.052-0.056 with a sampler
that runs inside the operations.

So a SIGALRM handler times a short fixed pure-Python loop (small frozensets
turned into sorted tuples, then a set of them: the kind of work groupcode
does) every ``INTERVAL_S`` while the benchmark runs.  A probe's speed factor
is ``REFERENCE_S`` over its time.  An operation's factor is the mean factor of
the probes taken during it, or of the ``NEAREST`` probes around it when it
is too short to hold that many; multiplying its raw time by the factor gives
"reference seconds" (``ref_s``): the time the work would take on a machine
where one probe takes ``REFERENCE_S``.  The mean of the factors is the
machine's mean speed over the operation, where a median probe time follows
only the speed it ran at most often.  On the same VM, two-second chunks of
sweep work varied by 10-15 % (coefficient of variation); scaled by this
probe's mean factor they varied by 3.0-3.6 %, against 4.5-4.8 % for a
dict-counting probe and 6 % for either probe's median time.  The probe loop
does not touch groupcode, so a change to the program moves reference times
exactly as it moves raw times.

The probe time is not taken out of the measured times: it is about 0.3 % of
any span long enough to contain a probe.

A set-up takes 30-100 ms, less than the timer interval, so each set-up is
scaled instead by ``probe_now`` timings taken just before and after it.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.1
NEAREST = 5  # fewest probes a speed factor is taken over
GAP_LOOPS = 50  # probe loops timed back to back by ``probe_now``
REFERENCE_S = 0.0003
_LOOPS = 300


def _probe_loop() -> int:
    found = []
    for i in range(_LOOPS):
        found.append(tuple(sorted(frozenset((i % 7, i % 11, i % 13)))))
    return len(set(found))


def factor(durations: list[float]) -> float:
    """Mean speed factor of some probe times."""
    return statistics.fmean(REFERENCE_S / d for d in durations)


def probe_now() -> list[float]:
    """Times the probe loop ``GAP_LOOPS`` times in a row, outside any timer."""
    durations = []
    for _ in range(GAP_LOOPS):
        started = time.perf_counter()
        _probe_loop()
        durations.append(time.perf_counter() - started)
    return durations


class SpeedProbe:
    """Times the probe loop every ``INTERVAL_S`` seconds while entered."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self._previous = None

    def _fire(self, signum, frame) -> None:
        started = time.perf_counter()
        _probe_loop()
        self.durations.append(time.perf_counter() - started)

    def factor_around(self, start: int, end: int) -> float:
        """Speed factor of a span during which probes ``start:end`` fired: over
        those probes, widened to the ``NEAREST`` probes around a shorter span."""
        if not self.durations:
            self._fire(None, None)
        count = len(self.durations)
        while end - start < NEAREST and (start > 0 or end < count):
            start, end = max(0, start - 1), min(count, end + 1)
        return factor(self.durations[start:end])

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
