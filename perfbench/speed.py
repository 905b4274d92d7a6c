"""Machine-speed calibration for the benchmark's timings.

On the shared 2-vCPU machine the benchmark was defined on, load outside
the container switched the machine between two speeds about 1.6x apart,
often for longer than a whole run: the same pass took 5.3 s in one run
and 8.9 s in the next.  No statistic over one run's passes can absorb
that, but a fixed loop of dict and set operations slowed by nearly the
same factor.  Every pass therefore samples that loop between its timed
units (never inside them), and its times are scaled to the loop's
reference speed.  Reported seconds are seconds at that speed; the
measured pass times and the speed factors are printed beside them.
"""

from __future__ import annotations

import statistics
import time

#: seconds one calibration loop takes at the reference speed: about its
#: median on the machine the benchmark was defined on (Python 3.11)
REFERENCE_SECONDS = 0.0030
#: least spacing between samples, in seconds of wall time
INTERVAL = 0.2
_TABLE = {key: key for key in range(50_000)}


def loop_seconds() -> float:
    """Seconds for one fixed loop of dict lookups and set updates.

    The loop runs twice and the second run is timed, so the time does
    not depend on what the preceding unit left in the caches.
    """
    _loop()
    began = time.perf_counter()
    _loop()
    return time.perf_counter() - began


def _loop() -> None:
    table = _TABLE
    seen = set()
    key = 1
    for _ in range(10_000):
        key = (key * 1103515245 + 12345) & 0xFFFF
        value = table.get(key, 0)
        if value in seen:
            seen.discard(value)
        else:
            seen.add(value)


class SpeedProbe:
    """Samples :func:`loop_seconds` at most every :data:`INTERVAL`."""

    def __init__(self) -> None:
        self.samples = [loop_seconds()]
        self._due = time.perf_counter() + INTERVAL

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() >= self._due:
            self.samples.append(loop_seconds())
            self._due = time.perf_counter() + INTERVAL

    def factor_of(self, start: int, stop: int) -> float:
        """Multiply a measured time by this to get reference seconds,
        judging the speed by ``samples[start:stop]``."""
        return REFERENCE_SECONDS / statistics.median(
            self.samples[start:stop] or self.samples[-1:]
        )

    @property
    def factor(self) -> float:
        """The factor over all samples of a pass."""
        return self.factor_of(0, len(self.samples))
