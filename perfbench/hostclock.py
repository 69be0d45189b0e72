"""Wall times corrected for the shared host's changing speed.

On a shared virtual machine the speed of a vCPU drifts, by up to 1.7x,
in phases that last from seconds to minutes, and the guest cannot see
it: steal time stays flat and CPU time equals wall time.  An engine
call takes 5 to 11 s, so two calls of the same code a minute apart
differ by as much as the drift.  A calibration kernel timed before or
after a call does not track it; one timed *during* the call does.

While a timed block runs, a SIGALRM handler fires after every
``PERIOD_S`` of the block's own time and times one short, fixed
calibration kernel.  The block's wall time is measured without the
handler's share, and its reference time is that wall time times the
mean of ``REF_S / t`` over the ticks, where ``t`` is each tick's kernel
time: the time the block would have taken had the host run the kernel
at its reference speed throughout.  On a quiet host of the kind
``REF_S`` was taken on (2-vCPU Xeon VM, CPython 3.11) the reference
time is close to the wall time.

The kernel is a loop of dictionary updates, interpreter-bound like the
program build and like the engines' per-step dispatch.  Over 10 to 26
consecutive calls on that host, correcting by it cut the spread of
engine-call times (standard deviation / mean) from 0.10-0.12 to
0.016-0.018 for the analytical engine and from 0.07 to 0.011 for Monte
Carlo, and of set-up times from 0.13 to 0.055; an 8,192-word
sort-and-compare kernel and a 1 MB insert kernel tracked the analytical
engine worse (0.046 to 0.056).  The kernel uses no paulitree code, so a
change to the program cannot move its own yardstick.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

#: seconds of timed work between two ticks (a tick costs about 0.2 ms)
PERIOD_S = 0.01

#: the kernel's reference time: about its uncontended time on the host
#: named above, so that reference time reads close to wall time there
REF_S = 1.6e-4

_counts: dict[int, int] = {}


def _kernel() -> None:
    for i in range(1000):
        _counts[i & 255] = _counts.get(i & 255, 0) + i


@dataclass
class Timing:
    """One timed block: its wall time without the ticks, its reference
    time, and each tick's kernel time."""

    wall_s: float = 0.0
    ref_s: float = 0.0
    ticks: list[float] = field(default_factory=list)

    @property
    def slowdown(self) -> float:
        """How much slower than reference the host ran the block."""
        return self.wall_s / self.ref_s


class HostClock:
    """Times blocks of work against the calibration kernel."""

    def __init__(self):
        self._ticks: list[float] = []
        self._spent = 0.0
        self._active = False

    def _sample(self) -> None:
        t0 = perf_counter()
        _kernel()
        self._ticks.append(perf_counter() - t0)

    def _tick(self, *_) -> None:
        if not self._active:  # a signal still pending as the block ended
            return
        t0 = perf_counter()
        self._sample()
        self._spent += perf_counter() - t0
        # re-armed after the kernel: ticks are PERIOD_S of timed work apart
        # and a slow tick can never nest inside another
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    @contextmanager
    def timed(self):
        """``with clock.timed() as t:`` fills ``t`` when the block ends,
        also when it raises; the timer is off outside the block."""
        timing = Timing()
        self._ticks, self._spent = [], 0.0
        _kernel()  # warm, outside the block
        self._sample()  # at least one tick, also for a block shorter than a period
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        try:
            yield timing
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
            timing.wall_s = elapsed - self._spent
            timing.ticks = self._ticks
            timing.ref_s = timing.wall_s * statistics.fmean(REF_S / t for t in self._ticks)
