"""Host speed probe for scaling end-to-end timings.

The host this benchmark was built on changes speed by about ±20% over
minutes while running the same code, so raw times of two runs of the same
commit differ by more than the regressions worth catching.  A fixed kernel
that shares no code with the program is timed between operations, and the
run's timings are scaled by how fast the kernel ran around them.  The kernel does the
kinds of work the program spends its time on: heap and dict operations over
a working set of small Python objects visited in scattered order, and small
matrix products, so it slows down with the host the way the program does.
"""

from __future__ import annotations

import heapq
import random
import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the 2-CPU reference host; scaled timings read as
# the times on a host where the kernel takes this long.
REFERENCE_SECONDS = 0.02


class Calibration:
    """Kernel timings taken in groups between the timed intervals of a run.

    Group ``j`` is taken just before interval ``j`` and group ``j + 1`` just
    after it, so each interval is scaled by the host speed on both sides.
    """

    def __init__(self):
        rnd = random.Random(7)
        self.objects = [(rnd.random(), i % 5) for i in range(60000)]
        self.order = rnd.sample(range(len(self.objects)), 12000)
        rng = np.random.default_rng(7)
        self.states, self.weights = rng.random((500, 10)), rng.random((10, 32))
        self.samples: list = []
        self.groups: list = []

    def _kernel(self) -> float:
        start = perf_counter()
        heap, seen, acc = [], {}, 0.0
        for j in self.order:
            t, u = self.objects[j]
            heapq.heappush(heap, (t, j))
            if len(heap) > 500:
                t, i = heapq.heappop(heap)
                seen[i] = t
                acc += t * u
        for _ in range(50):
            np.maximum(self.states @ self.weights, 0.0).sum(axis=0)
        return perf_counter() - start

    def measure(self, samples: int) -> None:
        """Time the kernel ``samples`` times, as one group."""
        group = [self._kernel() for _ in range(samples)]
        self.samples.extend(group)
        self.groups.append(group)

    def scale(self, interval: int) -> float:
        """Factor that turns host seconds of the given interval into reference
        seconds: the median over the groups just before and just after it,
        so that one slow burst inside a group does not decide it."""
        around = self.groups[interval] + self.groups[interval + 1]
        return REFERENCE_SECONDS / statistics.median(around)
