"""Host-speed reference for the yibre benchmark.

The benchmark runs on shared hosts whose speed drifts by tens of percent over
seconds to minutes, while CPU time stays close to wall time.  A fixed loop of
exact-rational arithmetic, independent of yibre, is timed every
``INTERVAL_S`` seconds of yibre work (from a ``SIGALRM`` handler, so it
interleaves even with one long ``verify`` call).  Each stretch of yibre work
between two samples is scaled by ``REFERENCE_S`` over the mean of the two
samples around it, which gives the time the work would have taken on a host
where the loop takes ``REFERENCE_S``.  A change to yibre moves the scaled time
as it moves the raw time; a change of host speed moves both the work and the
loop, and cancels.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1
# the loop's median time on the 2-core VM the bounds were set on
REFERENCE_S = 0.004

_N = 12
_MATRIX = {(i, j): Fraction(7 * i + j + 1, (i + 2 * j) % 5 + 1)
           for i in range(_N) for j in range(_N) if (i + j) % 3}


def calibrate() -> float:
    """Seconds one sparse exact-rational matrix square takes now."""
    enabled = gc.isenabled()
    gc.disable()  # never collect yibre's heap inside the reference loop
    try:
        started = time.perf_counter()
        rows: dict[int, dict[int, Fraction]] = {}
        for (i, k), x in _MATRIX.items():
            row = rows.setdefault(i, {})
            for j in range(_N):
                y = _MATRIX.get((k, j))
                if y is not None:
                    row[j] = row.get(j, 0) + x * y
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, samples: list[float]) -> float:
    """``seconds`` of work scaled by the mean of the samples taken around it."""
    return seconds * REFERENCE_S * len(samples) / sum(samples)


class HostClock:
    """Times a region of work, sampling host speed every ``INTERVAL_S``.

    Use as a context manager; afterwards ``raw_s`` is the time spent outside
    the samples and ``scaled_s`` the same time at reference host speed.
    """

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []  # (start, end, loop seconds)
        self._previous = None

    def _sample(self) -> None:
        started = time.perf_counter()
        loop = calibrate()
        self.marks.append((started, time.perf_counter(), loop))

    def _on_alarm(self, signum, frame) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "HostClock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _segments(self):
        for (_, end, left), (start, _, right) in zip(self.marks, self.marks[1:]):
            yield start - end, left, right

    @property
    def raw_s(self) -> float:
        return sum(work for work, _, _ in self._segments())

    @property
    def scaled_s(self) -> float:
        return sum(scaled(work, [left, right]) for work, left, right in self._segments())

    @property
    def samples(self) -> list[float]:
        return [loop for _, _, loop in self.marks]
