"""Host-normalised time: wall time scaled by the speed the host gave us.

The benchmark shares its machine with other work, which slows every
instruction by a varying amount (on the 2-core machine the benchmark was
written on, by up to a third for seconds at a time). A timer signal runs a
small fixed calibration kernel every ``PERIOD`` seconds in this process and
records how long it took. Between two samples the host is taken to run at
the speed their mean duration shows, and an interval of wall time is
converted to *reference seconds*: seconds on a host where the kernel takes
``REFERENCE`` seconds. Time spent in the kernel itself is left out.

No thread or process is started; the kernel runs in the signal handler,
between two bytecodes of whatever the main thread is doing.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD = 0.05
REFERENCE = 0.0005
SMOOTHING = 5  # samples on each side


def _kernel() -> Fraction:
    # Fraction arithmetic allocates and frees small objects much as fairdiv
    # does, so it slows down under the same contention as the program.
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7)
    return acc


class HostClock:
    """Samples host speed while running; converts wall intervals afterwards."""

    def __init__(self):
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._previous = None
        self._segments: list[tuple[float, float, float, float]] | None = None
        self.running = False

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self._starts.append(t0)
        self._durations.append(t1 - t0)

    def start(self) -> None:
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self.running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.running = False
        self._sample(None, None)
        # Segment k runs from the end of sample k-1 to the start of sample k.
        # Its speed is the median kernel time over the samples within
        # SMOOTHING of it: one sample is too short to read the host alone,
        # and the host's speed changes over seconds, not milliseconds. Store
        # (start, end, reference seconds per wall second, reference seconds before it).
        durations = self._durations
        segments = []
        cum = 0.0
        for k in range(1, len(self._starts)):
            left = self._starts[k - 1] + durations[k - 1]
            right = max(left, self._starts[k])
            near = durations[max(0, k - SMOOTHING) : k + SMOOTHING]
            rate = REFERENCE / statistics.median(near)
            segments.append((left, right, rate, cum))
            cum += (right - left) * rate
        self._segments = segments
        self._ends = [s[1] for s in segments]

    def _reference_at(self, t: float) -> float:
        segments = self._segments
        k = min(bisect.bisect_left(self._ends, t), len(segments) - 1)
        left, right, rate, cum = segments[k]
        return cum + (min(max(t, left), right) - left) * rate

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of program work between two ``perf_counter`` readings."""
        if self._segments is None:
            raise RuntimeError("HostClock.stop() must run before intervals are converted")
        return self._reference_at(t1) - self._reference_at(t0)

    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self._starts, self._durations))

    def mean_kernel_s(self) -> float:
        return sum(self._durations) / len(self._durations)
