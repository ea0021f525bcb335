"""Host-speed sampling, to report times at a fixed nominal host speed.

A shared host runs the benchmark's process at a speed that drifts by
tens of percent over seconds to minutes, as other tenants load the same
cores.  Wall times taken at different moments then differ by more than
any change worth measuring.  To factor that out, a fixed probe (a short
mix of interpreter work, linear big-integer steps and one medium
multiplication, like machinpi's own mix) runs on a SIGALRM timer every
PERIOD_S seconds and BRACKET times right before and after each timed
interval.  An interval's paced time is its wall time, less the probes that ran
inside it, scaled by NOMINAL_PROBE_S / (mean probe time around it): the
time it would have taken at the speed where one probe takes
NOMINAL_PROBE_S.  The probe is the benchmark's own code and does not
change with machinpi, so a faster machinpi gives a smaller paced time
just as it gives a smaller wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.1
# Probes before and after each interval, so that short intervals (an
# import of a few tens of ms) still get a steady speed estimate.
BRACKET = 3
# One probe's time on a 2-core 2.1 GHz Xeon VM with the host quiet.
NOMINAL_PROBE_S = 0.0013

_LINEAR = 7 ** 8000
_WIDE = 3 ** 18000


def probe() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(5000):
        table[i & 63] = acc
        acc += i * i % 7
    z = _LINEAR
    for j in range(3, 131, 2):
        z = z // j + _LINEAR * j
    return acc + (z * _WIDE).bit_length()


class Pacer:
    """Probe samples taken on a timer while active (use as a context
    manager), and paced timing of single calls."""

    def __init__(self, period: float = PERIOD_S, clock=time.perf_counter):
        self.period = period
        self.samples: list[float] = []
        self._clock = clock
        self._busy = False
        self._previous = None

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a timer tick during a probe: skip it
            return
        self._busy = True
        try:
            start = self._clock()
            probe()
            self.samples.append(self._clock() - start)
        finally:
            self._busy = False

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        """Run fn(); return (its result, wall seconds less the probes run
        inside it, paced seconds)."""
        for _ in range(BRACKET):
            self.sample()
        first = len(self.samples)
        start = self._clock()
        result = fn()
        wall = self._clock() - start
        inside = self.samples[first:]
        for _ in range(BRACKET):
            self.sample()
        around = self.samples[first - BRACKET:]
        wall -= sum(inside)
        return result, wall, paced(wall, around)


def paced(wall: float, probe_samples: list[float]) -> float:
    """wall at the speed where one probe takes NOMINAL_PROBE_S."""
    return wall * NOMINAL_PROBE_S / statistics.fmean(probe_samples)
