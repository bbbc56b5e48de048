"""Speed probe: turns measured times into times at one fixed reference speed.

On a shared virtual machine the same pass can take twice as long for tens of
seconds while a neighbour loads the hardware the virtual CPU runs on; CPU time
grows with wall time, so nothing is waiting, every cycle is slower.  Medians
over one run cannot remove that: a whole run can fall in a slow minute.

While a workload runs, a SIGALRM handler runs a fixed pure-Python probe every
``INTERVAL_S`` seconds of wall time and records when it ran and how long it
took.  The probe's mean time around a window is the machine's speed there.  A
window's time, less the probe time inside it, times REFERENCE_PROBE_S over
that mean, is the time the same work takes at the speed where the probe takes
REFERENCE_PROBE_S (about the full, uncontended speed of a 2-vCPU Xeon virtual
machine).  That is what every time metric reports; the raw times are kept in
the detail line.

The mean drops the slowest tenth of the probes in the window: a probe that
spans a stall of the virtual CPU (an interrupt, a preemption by the host)
would otherwise move the mean far more than the stall moves the work.

The probe is the program's kind of work (Python function calls on small
ints; of the probes tried, it tracked cutlab's own slowdowns best) and shares
no data with it, so a change to cutlab
changes the corrected times as much as the raw ones.  Results are comparable
only between runs of the same probe, Python and machine (the stamp).
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.005
REFERENCE_PROBE_S = 15e-6
KEPT_FRACTION = 0.9  # of the probes in a window, fastest first
MIN_WINDOW_PROBES = 20  # the fewest probes a window's speed is taken from


def _step(a: int, b: int) -> int:
    return (a * b) ^ (a + b)


def _probe() -> int:
    x = 0
    for i in range(120):
        x = _step(x & 1023, i)
    return x


class SpeedProbe:
    """Samples the machine's speed from a timer signal while it is started."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        _probe()
        t1 = perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self._busy = False

    def _mean(self, durations: list[float]) -> float:
        kept = sorted(durations)[: max(1, int(len(durations) * KEPT_FRACTION))]
        return statistics.fmean(kept)

    def adjust(self, t0: float, t1: float) -> float:
        """Time of the work done in [t0, t1) at the reference speed.

        The probe time inside the window is taken out.  The speed is that of
        the probes in the window, widened to the nearest probes on both sides
        until it holds MIN_WINDOW_PROBES; the machine's speed holds for
        hundreds of milliseconds, so a short item is judged by its neighbours.
        Without any probe the raw time is returned.
        """
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        spent = sum(self.durations[lo:hi])
        while hi - lo < MIN_WINDOW_PROBES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if hi == lo:
            return t1 - t0
        return (t1 - t0 - spent) * REFERENCE_PROBE_S / self._mean(self.durations[lo:hi])
