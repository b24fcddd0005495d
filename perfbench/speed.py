"""Machine-speed probe: a fixed reference kernel timed between operations.

On the shared 2-core machine this benchmark was built on, the speed of
pure-Python code drifted by 10-30 % over seconds to minutes, and the parts
of a pass slowed down together: across ten one_particle runs the pass time
ranged from 0.94 to 1.39 s while the ratio of ``moments`` to ``pairs`` time
stayed between 1.8 and 2.3.  Across 8-second windows of one_particle passes,
the pass time varied by 14 % (coefficient of variation), and the pass time
over this kernel's time by 3 %.

``SpeedProbe.factor()`` is ``REFERENCE_S`` over the run's median kernel
time, so a time multiplied by it is in seconds at a fixed reference speed.
The kernel is benchmark code only: no change to qfsp changes what it runs.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# median kernel time on the machine the benchmark was built on (Intel Xeon,
# 2 cores, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 on one thread)
REFERENCE_S = 0.0105
# at most one kernel run per this many seconds, always between operations
INTERVAL_S = 0.2


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(120, 120)) + 1j * rng.normal(size=(120, 120))
        self._herm = m + m.conj().T
        self._dense = rng.normal(size=(160, 160)) + 1j * rng.normal(size=(160, 160))
        self._small = [rng.normal(size=(2, 2)) for _ in range(100)]
        self.samples: list[float] = []
        self._last = float("-inf")

    def _kernel(self) -> float:
        """A pure-Python loop, small numpy calls and dense BLAS/LAPACK work:
        the three kinds of work the workloads spend their time in."""
        t0 = perf_counter()
        total = 0
        for i in range(40_000):
            total += (i * i) % 7
        for a in self._small:
            np.abs(a - np.diag(np.diag(a))).max()
        self._dense @ self._dense
        np.linalg.eigh(self._herm)
        return perf_counter() - t0

    def maybe_sample(self):
        """Run the kernel unless it ran less than INTERVAL_S ago."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(self._kernel())
            self._last = perf_counter()

    def kernel_s(self) -> float:
        return statistics.median(self.samples)

    def factor(self) -> float:
        return REFERENCE_S / self.kernel_s()
