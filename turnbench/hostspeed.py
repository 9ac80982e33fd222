"""Host-speed reference, so timings compare across a shared host's moods.

On a shared host the speed of one core swings by up to 1.7x within a
tenth of a second and drifts over minutes, and process CPU time swings
with it, so the wall-clock figures of one run move by a quarter or more
from the next.  The benchmark therefore times a small fixed reference
workload, which shares no code with ``src/``, every ``SAMPLE_EVERY``
seconds: between turns, and from a timer signal during set-up, which
cannot be interleaved by hand.  Each stretch of the program's time is
scaled by how much faster or slower than nominal the reference ran
around it.  A change to the program moves its timings and never the
reference.  Measured next to a fixed three-turn conversation, the
reference followed the host's swings with a correlation of 0.96.

Nominal speed is the speed at which one reference sample takes
``NOMINAL_S`` seconds, about what it takes on a 2-core x86 VM with
Python 3.11, so normalised figures stay near wall-clock ones there.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

#: Duration of one reference sample at nominal host speed, in seconds.
NOMINAL_S = 0.0004

#: Seconds between reference samples.
SAMPLE_EVERY = 0.02

#: Reference samples nearest an instant whose median gives the speed there.
NEIGHBOURS = 5

_WORDS = [f"w{i * 7919 % 1000:03d}" for i in range(320)]


def reference_work() -> int:
    """A fixed mix of interpreter work: string slicing, dict updates, a
    keyed sort and float arithmetic."""
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word[:3]] = counts.get(word[:3], 0) + 1
    ordered = sorted(_WORDS, key=lambda w: (w[::-1], len(w)))
    total = 0.0
    for i, word in enumerate(ordered):
        total += (i * 0.5 + len(word) + counts[word[:3]]) ** 0.5
    return int(total)


class HostSpeed:
    """Reference samples over time and the stretches they normalise."""

    def __init__(self) -> None:
        self._begun: list[float] = []
        self._ended: list[float] = []
        self._durations: list[float] = []

    def sample(self) -> None:
        begun = time.perf_counter()
        reference_work()
        ended = time.perf_counter()
        self._begun.append(begun)
        self._ended.append(ended)
        self._durations.append(ended - begun)

    @contextmanager
    def sampling(self):
        """Take a sample every ``SAMPLE_EVERY`` seconds from a timer
        signal while the block runs, and one at each end."""
        previous = signal.signal(signal.SIGALRM, lambda *__: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def scale(self, at: float) -> float:
        """Factor that takes a timing made at ``at`` to nominal speed."""
        i = bisect.bisect_left(self._begun, at)
        high = min(len(self._durations),
                   max(i + NEIGHBOURS // 2 + 1, NEIGHBOURS))
        low = max(0, high - NEIGHBOURS)
        return NOMINAL_S / statistics.median(self._durations[low:high])

    def span(self, begun: float, ended: float) -> float:
        """Seconds from ``begun`` to ``ended`` at nominal speed, without
        the reference samples taken in between."""
        total = 0.0
        start = begun
        first = bisect.bisect_left(self._begun, begun)
        last = bisect.bisect_left(self._begun, ended)
        for i in range(first, last):
            total += self._piece(start, self._begun[i])
            start = max(start, self._ended[i])
        return total + self._piece(start, ended)

    def _piece(self, begun: float, ended: float) -> float:
        if ended <= begun:
            return 0.0
        return (ended - begun) * self.scale((begun + ended) / 2)

    def median_scale(self) -> float:
        return NOMINAL_S / statistics.median(self._durations)
