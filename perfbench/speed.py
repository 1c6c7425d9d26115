"""Speed probes that put timings from a shared machine on one scale.

The machines this benchmark runs on are shared, and their speed swings
by up to 1.7x over seconds to minutes as other tenants come and go: the
same tractlab code measured 3.6 ms and 6.0 ms per tower_periodic job in
two sets of runs twenty minutes apart. A probe is a fixed computation
that does not touch tractlab. The worker times one after every job and
multiplies each job's time by the probe's reference time over the mean
probe time around that job. That gives times at the reference speed,
the probe's usual speed on the machine the benchmark was defined on (a
shared virtual machine with 2 vCPUs, Intel Xeon at 2.1 GHz).

The Python probe follows interpreter-bound work: over 25-second windows
of one tower_periodic stream, the spread of the median job time fell
from 2-10% as measured to about 1% scaled. The NumPy probe, one grid
step on a 2 MB grid, follows render's memory-bound array work: over ten
render runs the timing spreads were 5-7% scaled against 10-14% as
measured.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np


class Probe:
    def __init__(self, kernel, reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s

    def time(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0


def _python_kernel() -> complex:
    acc = 0j
    z = 0.3 + 0.2j
    for i in range(300):
        w = cmath.exp(z) - 10.0
        acc += cmath.log(w + 10.0 + i) * z.conjugate()
        z = complex(math.fmod(z.real + 0.1, 3.0), z.imag)
    return acc


# one escape-time grid step on a 2 MB grid: gather the active pixels,
# map them, test their size; memory-bound like the grid kernel
_GRID = np.linspace(-1.0, 1.0, 512)[None, :] + 1j * np.linspace(-1.0, 1.0, 256)[:, None]
_ACTIVE = np.abs(_GRID) < 0.9


def _numpy_kernel() -> int:
    idx = np.nonzero(_ACTIVE)
    w = np.exp(_GRID[idx])
    return int(np.count_nonzero(np.abs(w) < 1.5))


PYTHON = Probe(_python_kernel, 0.29e-3)
NUMPY = Probe(_numpy_kernel, 4.9e-3)
