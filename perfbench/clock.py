"""Host time scaled to a reference host speed.

Shared hosts run the same interpreter-bound code at speeds up to 1.7x
apart, switching within seconds as neighbours come and go, and a workload
and a fixed calibration loop slow down together.  A :class:`ScaledClock`
runs the calibration loop at pace points the caller chooses and charges
each stretch of wall time between two pace points at the reference speed
implied by the calibrations at its two ends.  Time spent calibrating is
charged to nothing.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, Iterator, List, Tuple

#: Host seconds of :func:`calibration_s` on the reference host, a 2.1 GHz
#: Xeon vCPU in its fast state; scaled timings read as on that host.
REFERENCE_CALIBRATION_S = 0.012


def calibration_s() -> float:
    """Host seconds of a fixed interpreter-bound loop, best of two."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        heap: List[int] = []
        counts: Dict[int, int] = {}
        for i in range(20_000):
            heapq.heappush(heap, (i * 7919) % 10007)
            counts[i % 997] = counts.get(i % 997, 0) + 1
        while heap:
            heapq.heappop(heap)
        best = min(best, time.perf_counter() - started)
    return best


class ScaledClock:
    """Wall-clock intervals, scaled by the host speed measured around them.

    Without pace points it is a plain wall clock.

        >>> clock = ScaledClock()
        >>> clock.scaled(1.0, 3.0), clock.wall(1.0, 3.0)
        (2.0, 2.0)
    """

    def __init__(self) -> None:
        #: (start, end, calibration seconds) of every pace point
        self.marks: List[Tuple[float, float, float]] = []

    def now(self) -> float:
        return time.perf_counter()

    def pace(self) -> None:
        """Measure the host speed here."""
        started = time.perf_counter()
        seconds = calibration_s()
        self.marks.append((started, time.perf_counter(), seconds))

    def _stretches(self, start: float, end: float
                   ) -> Iterator[Tuple[float, float]]:
        """(wall seconds, scale) of each part of ``[start, end]`` that lies
        between two pace points, or before the first or after the last."""
        marks = self.marks
        if not marks:
            yield end - start, 1.0
            return
        bounds = [(float("-inf"), marks[0][0],
                   marks[0][2], marks[0][2])]
        bounds += [(a[1], b[0], a[2], b[2]) for a, b in zip(marks, marks[1:])]
        bounds.append((marks[-1][1], float("inf"), marks[-1][2],
                       marks[-1][2]))
        for low, high, left, right in bounds:
            overlap = min(end, high) - max(start, low)
            if overlap > 0:
                yield overlap, 2 * REFERENCE_CALIBRATION_S / (left + right)

    def scaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` on the reference host."""
        return sum(wall * scale for wall, scale in self._stretches(start, end))

    def wall(self, start: float, end: float) -> float:
        """Host seconds of ``[start, end]``, less any time calibrating."""
        return sum(wall for wall, _scale in self._stretches(start, end))
