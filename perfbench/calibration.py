"""Machine-speed calibration, so that timings measure the program and not the host.

On a small virtual machine shared with other jobs, the speed of one core
drifts by 20-35% over seconds and minutes; a slow stretch can last a whole
run.  Every time the benchmark reports is therefore scaled by the machine's
speed while it was taken.  A ``Sampler`` times a small fixed pure-Python
kernel (dicts, tuples, frozensets; no demoflow code) every ``INTERVAL_S`` of
wall time, from a ``SIGALRM`` handler, so the samples fall inside the
operations being timed.  An operation that took ``t`` seconds, less the
handler's own time, while the kernel took ``k`` on average is reported as
``t * REFERENCE_S / k``: the seconds it would take on a machine where the
kernel takes ``REFERENCE_S``.

The kernel runs with the cyclic garbage collector off and frees everything
it makes, so its time does not depend on how much the program keeps alive.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# the kernel's usual time on the reference machine (2-vCPU Xeon VM, CPython
# 3.11); it fixes the unit of every scaled time, nothing else
REFERENCE_S = 0.00025
INTERVAL_S = 0.02  # about 1.5% of the time goes to the kernel
NEAREST = 5  # an operation with fewer samples inside uses this many nearest


def _kernel() -> int:
    seen: dict = {}
    state = (0, 0, 0)
    for i in range(400):
        state = (state[1], state[2], (state[0] * 31 + i) % 1009)
        key = frozenset((state, i & 15))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


class Sampler:
    """Times the kernel every INTERVAL_S while active (a context manager).
    Needs the main thread, as every signal handler does."""

    def __init__(self) -> None:
        self.ends: list[float] = []  # perf_counter when each sample ended
        self.times: list[float] = []  # each sample's seconds

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        _kernel()
        ended = time.perf_counter()
        if enabled:
            gc.enable()
        self.ends.append(ended)
        self.times.append(ended - started)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, started: float, ended: float) -> tuple[float, float]:
        """The interval's seconds less the samples taken inside it, and the
        factor that scales them to the reference machine: REFERENCE_S over
        the mean sample inside the interval, or over the NEAREST samples
        around its middle when fewer fell inside."""
        lo, hi = bisect.bisect_left(self.ends, started), bisect.bisect_right(self.ends, ended)
        own = self.times[lo:hi]
        if len(own) < NEAREST:
            middle = bisect.bisect_left(self.ends, (started + ended) / 2)
            first = max(0, min(middle - NEAREST // 2, len(self.times) - NEAREST))
            nearby = self.times[first : first + NEAREST]
        else:
            nearby = own
        return ended - started - sum(own), REFERENCE_S / statistics.fmean(nearby)

    def median_s(self) -> float:
        return statistics.median(self.times)
