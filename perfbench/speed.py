"""Core-speed sampling, so that timings are steady on a shared host.

The benchmark runs on a few cores of a shared host.  Such a core switches,
on time scales from milliseconds to minutes, between a fast state and one
up to about twice as slow (another tenant busy on the same physical core),
and user plus system CPU time stretches with it.  That swing is larger than
any change the benchmark has to resolve, and medians over a run do not
remove it, because the share of slow time itself drifts from one minute to
the next.

A ``SpeedSampler`` measures the swing while the work runs.  Every
``PERIOD_S`` of wall time a ``SIGALRM`` handler runs a fixed pure-Python
kernel on the benchmark's own thread and records how long it took.
``adjust`` then rescales what was measured in a window, less the handler's
own time, by ``REF_KERNEL_S`` over the kernel's mean time in that window:
the time the work would have taken on a core that runs the kernel in
``REF_KERNEL_S``.  A change to drloss moves the adjusted time as it moves
the raw one; a slower or busier core moves the kernel as well, and cancels.
The kernel touches nothing of drloss, so no change to drloss can move it.
Python runs the handler only between bytecodes, so a long numpy call is
sampled just after it returns.
"""

from __future__ import annotations

import signal
import time
from statistics import fmean

PERIOD_S = 0.01        # one kernel sample per 10 ms of wall time, about 1% of it
KERNEL_LOOPS = 1500
REF_KERNEL_S = 1e-4    # the kernel's time on an uncontended core of the baseline machine


def _kernel() -> int:
    acc = 0
    for i in range(KERNEL_LOOPS):
        acc += i * i % 7
    return acc


class SpeedSampler:
    """Samples the kernel's time every ``PERIOD_S`` while in a ``with`` block."""

    def __init__(self):
        self.kernel_s: list = []   # duration of every kernel run
        self.handler_s = 0.0       # their sum, taken off the times ``adjust`` rescales
        self._previous = None

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        _kernel()
        took = time.perf_counter() - start
        self.kernel_s.append(took)
        self.handler_s += took

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple:
        """Start of a window, for ``adjust``."""
        return len(self.kernel_s), self.handler_s

    def adjust(self, mark: tuple, *seconds: float) -> list:
        """Rescale durations measured since ``mark`` to the reference core.

        Call it right after the measured span ends.  A window too short to
        hold a sample gets one, taken now and outside the span.
        """
        count, handler = mark
        handler = self.handler_s - handler
        if len(self.kernel_s) == count:
            self._sample()
        scale = REF_KERNEL_S / fmean(self.kernel_s[count:])
        return [(s - handler) * scale for s in seconds]
