"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed of the CPU drifts by tens of percent over
minutes, which swamps the changes the benchmark exists to detect.  Two
fixed kernels that use none of inls_lab are timed every
CALIBRATE_EVERY_S seconds between operations:

* ``numeric``: a LAPACK banded solve and NumPy element-wise work on
  4096-point arrays, the work that dominates the library's solvers;
* ``dispatch``: many NumPy calls on 8-point arrays, where the time goes
  to the interpreter and NumPy's call overhead, as in the steps of
  ``scipy.integrate.solve_ivp`` behind the shooting oracle.

A slow spell does not slow both alike (the shooting oracle slowed by a
factor of 2.0 where the numeric kernel slowed by 1.6), so each
operation kind is calibrated with the kernel whose work it resembles.
Each end-to-end timing is reported as

    raw seconds * REF_S[kernel] / (kernel seconds around that timing),

where the kernel seconds are the median of the kernel timings just
before and just after it, i.e. in seconds of a machine that runs the
kernel in REF_S[kernel].  A change to the library cannot move the
kernels, so it moves these numbers exactly as it moves the raw ones; a
slow spell of the machine moves both.  The raw seconds and the kernel
medians are kept in the details file of every run.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.linalg import solve_banded

# Kernel times on a 2-core x86-64 machine in a quiet spell (Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1); they only fix the unit of the
# calibrated figures.
REF_S = {"numeric": 0.0100, "dispatch": 0.0045}
CALIBRATE_EVERY_S = 0.25
N = 4096


class Calibration:
    """Times the kernel between operations and gives the scale factor."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.ab = rng.standard_normal((3, N)) + 1j * rng.standard_normal((3, N))
        self.ab[1] += 10.0
        self.rhs = rng.standard_normal(N) + 0j
        self.x = rng.standard_normal(N)
        self.small = rng.standard_normal(8)
        self.kernels = {"numeric": self.numeric, "dispatch": self.dispatch}
        self.samples: dict[str, list[float]] = {k: [] for k in self.kernels}
        self.starts: list[float] = []
        self._last = -np.inf
        for kernel in self.kernels.values():
            kernel()  # first call pays one-off costs

    def numeric(self) -> float:
        acc = 0.0
        for _ in range(30):
            y = solve_banded((1, 1), self.ab, self.rhs)
            acc += float(np.sum(np.abs(y) ** 2))
            z = np.exp(1j * self.x * np.abs(y))
            acc += float(np.diff(z).real.sum())
        return acc

    def dispatch(self) -> float:
        acc = 0.0
        a = self.small
        for _ in range(1000):
            y = a * 0.5 + a
            acc += float(np.max(np.abs(y)))
        return acc

    def sample(self) -> None:
        self.starts.append(time.perf_counter())
        for name, kernel in self.kernels.items():
            t0 = time.perf_counter()
            kernel()
            self._last = time.perf_counter()
            self.samples[name].append(self._last - t0)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.sample()

    def scale_at(self, t: float, kernel: str = "numeric") -> float:
        """Factor from raw to calibrated seconds for work started at t.

        Uses the kernel timings just before and just after t, so that it
        follows the machine's speed through the run.
        """
        i = bisect.bisect(self.starts, t)
        return REF_S[kernel] / statistics.median(self.samples[kernel][max(0, i - 1):i + 1])
