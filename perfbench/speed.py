"""Host-speed calibration for the benchmark's operation times.

On a shared virtual machine the same CPU-bound operation can take 1.7x
longer for minutes at a time, because the host runs other work on the
same cores.  Run-level medians of raw wall time then spread by 17-51%
across 20 s runs.  The harness therefore times a fixed calibration load
between operations and scales each operation's wall time by
reference / (calibration time around it).  The result reads as
milliseconds on a host where the load takes its reference time.

There are two loads, because the host's slow spells do not slow all code
alike: ``interp`` (an interpreter loop and a numpy-scalar loop, 2.5 ms)
for the workloads whose hot path runs in the interpreter, and
``gauss_rule`` (scipy's tridiagonal eigensolver with eigenvectors at size
2010, the shape of the Gauss rule ``stieltjes_h`` builds, 0.28 s,
calibrated at most every 2 s) for the one dominated by that rule.  Its
32 MB eigenvector matrix makes it memory-bound like the rule itself; a
cache-resident size-400 problem sped up 1.5x in spells where the rule
sped up 1.2x.  Neither load touches the package, so a change to the
package moves the scaled times exactly as it moves the wall times.  Raw
wall times are kept in the run record.
"""

from __future__ import annotations

import time
from bisect import bisect_right

import numpy as np
from scipy.linalg import eigh_tridiagonal

_COEFFS = np.linspace(1.0, 2.0, 2000)
_RULE_SIZE = 2010
_K = np.arange(1, _RULE_SIZE, dtype=float)
_OFF = _K / np.sqrt(4.0 * _K * _K - 1.0)  # Golub-Welsch matrix of Gauss-Legendre
_DIAG = np.zeros(_RULE_SIZE)


def _interp() -> None:
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    value = 0.5
    for k in range(1, _COEFFS.size):
        value = (0.3 - _COEFFS[k]) * value / _COEFFS[k - 1] + 0.1
    if acc < 0 or value != value:  # keeps both loops' results live
        raise RuntimeError("calibration load misbehaved")


def _gauss_rule() -> None:
    eigh_tridiagonal(_DIAG, _OFF)


# load name -> (function, its time on the reference host in seconds,
# least seconds between calibrations)
LOADS = {"interp": (_interp, 2.5e-3, 0.2), "gauss_rule": (_gauss_rule, 0.28, 2.0)}


class SpeedLog:
    """Calibrations interleaved with a sequence of operations.

    ``before(i)`` calibrates ahead of operation i when the load's interval
    has passed since the last calibration; ``close(n)`` calibrates after
    the last one.  Operation i is scaled by the mean of the calibrations
    just before and just after it.
    """

    def __init__(self, load: str, interval: float | None = None) -> None:
        self.load, self.reference, default = LOADS[load]
        self.interval = default if interval is None else interval
        self.samples: list[tuple[int, float]] = []  # (next operation index, seconds)
        self._last = -float("inf")

    def _calibrate(self, index: int) -> None:
        start = time.perf_counter()
        self.load()
        self._last = time.perf_counter()
        self.samples.append((index, self._last - start))

    def before(self, index: int) -> None:
        if time.perf_counter() - self._last >= self.interval:
            self._calibrate(index)

    def close(self, count: int) -> None:
        self._calibrate(count)

    def factors(self, count: int) -> list[float]:
        starts = [index for index, _ in self.samples]
        out = []
        for i in range(count):
            j = bisect_right(starts, i) - 1  # last calibration before operation i
            mean = 0.5 * (self.samples[j][1] + self.samples[j + 1][1])
            out.append(self.reference / mean)
        return out

    def median_factor(self) -> float:
        ordered = sorted(s for _, s in self.samples)
        return self.reference / ordered[len(ordered) // 2]
