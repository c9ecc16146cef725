"""Machine-speed probe for a shared, noisy CPU.

On a shared virtual machine with two Intel Xeon vCPUs, the CPU's speed
drifts by 30 % and more over tens of seconds as other tenants load the
host.  A fixed kernel of small complex SVDs, timed between chunks of the
workload, tracks that drift: over 3-second windows its rate and the
construct-then-verify draw rate correlated at 0.96, and their ratio varied
by 4.6 % where the draw rate alone varied by 16 %.

Timings are therefore reported at a nominal machine speed: the times of
one pass of the workload are multiplied by the speed the probe ran at
during that pass, its rate divided by ``NOMINAL_RATE``.  A pass (one to
three seconds) averages out the probe's jitter within milliseconds, which
scaling each chunk by its own probe sample did not, and still follows the
drift.  The probe uses only NumPy, never the package under test, and
holds its own reference to ``numpy.linalg.svd``, so layer tracing neither
sees nor slows it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# SVDs per second of the probe kernel on that machine when it runs fast;
# it only sets the scale of the reported figures.
NOMINAL_RATE = 60000.0
SHARE = 0.10  # probe time per unit of workload time
_BATCH = 16


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
                      for _ in range(_BATCH)]
        self._svd = np.linalg.svd
        self.svds = 0
        self.seconds = 0.0

    def _batch(self) -> None:
        for m in self._mats:
            a = np.asarray(m, dtype=np.complex128)
            if np.all(np.isfinite(a)):
                sv = self._svd(a, compute_uv=False)
                int(np.count_nonzero(sv > 1e-12))

    def after(self, work_seconds: float) -> None:
        """Run the kernel for SHARE of the workload time just measured."""
        target = SHARE * work_seconds
        spent = 0.0
        while spent < target or not spent:
            t0 = perf_counter()
            self._batch()
            spent += perf_counter() - t0
            self.svds += _BATCH
        self.seconds += spent

    def mark(self) -> tuple[int, float]:
        return self.svds, self.seconds

    def speed(self, since: tuple[int, float] = (0, 0.0)) -> float:
        """Probe rate since ``mark()`` (default: ever), relative to the
        nominal rate."""
        return (self.svds - since[0]) / (self.seconds - since[1]) / NOMINAL_RATE
