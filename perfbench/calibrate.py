"""Machine-speed calibration for the benchmark's time metrics.

On a shared machine the speed of a core drifts by tens of percent over
minutes, which would swamp the differences the benchmark exists to show.  A
fixed numpy kernel (dense matmul, FFT, transcendental and memory-bound
elementwise work, and a loop of small calls that tracks interpreter speed)
runs between consecutive timed tasks and cold launches.  Each raw time is
scaled by ``REFERENCE_S`` over the mean of the two kernel times around it,
giving seconds on a machine where the kernel takes ``REFERENCE_S``.  The
kernel calls no geoquant code, so a change to geoquant cannot move it.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: kernel time on the machine the benchmark was defined on (2-core Xeon VM,
#: numpy 2.4 with OpenBLAS, one thread); only fixes the unit
REFERENCE_S = 0.032
#: wall time of the reference launch on the same machine
LAUNCH_REFERENCE_S = 0.5
_LAUNCH_CODE = "import numpy, scipy.linalg, scipy.sparse"


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._mat = rng.standard_normal((384, 384))
        self._wave = rng.standard_normal(1 << 17) + 0j
        self._field = rng.standard_normal(1 << 19)
        self._big = rng.standard_normal(1 << 20)
        self._small = rng.standard_normal(8)

    def sample(self) -> float:
        """Run the kernel once and return its wall time."""
        start = time.perf_counter()
        self._mat @ self._mat
        np.fft.ifft(np.fft.fft(self._wave))
        np.sort(np.exp(-self._field * self._field))
        self._big + 1.0
        acc = self._small
        for _ in range(5000):
            acc = np.add(acc, self._small) * 0.5
        return time.perf_counter() - start

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Raw to reference seconds for work bracketed by two kernel times."""
        return 2.0 * REFERENCE_S / (before + after)


def launch_sample() -> float:
    """Wall time of a fresh interpreter importing numpy and scipy."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", _LAUNCH_CODE], check=True,
                   capture_output=True, timeout=60)
    return time.monotonic() - start


def launch_factor(before: float, after: float) -> float:
    """Raw to reference seconds for a launch bracketed by two reference launches."""
    return 2.0 * LAUNCH_REFERENCE_S / (before + after)
