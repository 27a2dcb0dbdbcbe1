"""Wall time scaled to a reference host speed.

The benchmark shares a few cores of a host with other machines' work,
and that work slows every instruction the benchmark runs, not only its
waits: a fixed pure-Python loop runs 1.2 to 2.5 times slower, changing
within milliseconds, and CPU time grows with wall time.  The slowdown
differs between the two cores from one moment to the next, so only a
probe on the core running the work, at the time it runs, tells how
slow that work was made.

So the gated time metrics are given in *reference seconds*: wall time
divided by the host factor, how slow the host ran at that time relative
to a quiet host.  :class:`Sampler` measures the factor inside every
timed interval: a timer signal interrupts the work every
:data:`PERIOD_S` and runs one fixed slice of pure-Python work
(dictionary and list operations and calls, the kind of work the program
does) on the interrupted thread.

The slice imports nothing from ``repro``, so no change to the program
can make it faster or slower; a program that does more work still
takes more reference seconds.  The raw wall-clock figures and the host
factor are printed next to the gated ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Tuple

#: Loop iterations in one slice (about a millisecond).
SLICE_ITERATIONS = 8000
#: Seconds one slice takes on the reference host (the mean slice on a
#: quiet 2-vCPU Intel Xeon VM); a host factor of 1.0 means that speed.
REFERENCE_SLICE_S = 1.1e-3
#: Wall seconds between two samples of a :class:`Sampler`.
PERIOD_S = 0.05
#: An interval with fewer samples inside is scaled by this many samples
#: nearest to it.
MIN_SAMPLES = 5


def _step(table: dict, i: int) -> int:
    key = i & 127
    table[key] = table.get(key, 0) + i // 3
    return key


def _slice() -> int:
    table: dict = {}
    keys = []
    for i in range(SLICE_ITERATIONS):
        keys.append(_step(table, i))
    return len(keys) + len(table)


def _factor(samples: List[Tuple[float, float]]) -> float:
    return statistics.mean(end - start for start, end in samples) / REFERENCE_SLICE_S


class Sampler:
    """Samples the host factor every :data:`PERIOD_S` of wall time on the
    main thread while it is running (``with Sampler() as clock:``), and
    scales intervals timed meanwhile to reference seconds.

    Each sample is one slice run from a ``SIGALRM`` handler, so it
    interrupts whatever the main thread is doing, at an even pace.  An
    interval ``[start, end]`` is worth its wall time minus the samples
    inside it, divided by the mean factor of those samples (or of the
    :data:`MIN_SAMPLES` samples nearest to it, for a short interval).
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        #: ``(start, end)`` of every sample, in ``time.perf_counter`` time.
        self.samples: List[Tuple[float, float]] = []
        self._starts: List[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _slice()
        self.samples.append((start, time.perf_counter()))

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def stop(self) -> None:
        """Stop sampling (again is harmless); the samples stay."""
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _split(self, start: float, end: float):
        """The samples inside ``[start, end]``, and those its factor is
        taken from."""
        if len(self._starts) != len(self.samples):
            self._starts = [sample[0] for sample in self.samples]
        starts = self._starts
        inside = self.samples[bisect.bisect_left(starts, start):bisect.bisect_left(starts, end)]
        around = inside
        if len(around) < MIN_SAMPLES:
            middle = (start + end) / 2.0
            nearest = bisect.bisect_left(starts, middle)
            window = self.samples[max(0, nearest - MIN_SAMPLES):nearest + MIN_SAMPLES]
            around = sorted(window, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
        if not around:
            raise RuntimeError("no host samples were taken")
        return inside, around

    def wall(self, start: float, end: float) -> float:
        """Wall seconds of ``[start, end]`` without the samples inside it."""
        inside, _ = self._split(start, end)
        return end - start - sum(min(e, end) - s for s, e in inside)

    def reference(self, start: float, end: float) -> float:
        """Reference seconds of the interval ``[start, end]``."""
        _, around = self._split(start, end)
        return self.wall(start, end) / _factor(around)

    def factor(self) -> float:
        """The mean host factor over every sample (printed, not gated)."""
        return _factor(self.samples)
