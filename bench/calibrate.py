"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark's host changes speed by up to 2x within seconds, because
other tenants share its processors.  Between executions run.py times this
kernel in its own process, so that each execution's run and import times can
be scaled to a nominal machine speed.  The kernel never changes with the program.  It mixes
the kinds of work fracsrc does: small Python functions doing complex
arithmetic per element, many NumPy calls on short arrays, and ``.17g``
formatting.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

# Median time of one pass on the machine the baseline in README.md was
# measured on (2 vCPUs at 2.1 GHz, Python 3.11.7, numpy 2.4.6).
NOMINAL_S = 0.05


def _power(x: float, a: float) -> complex:
    mag = abs(x) ** a
    return complex(mag * math.cos(0.5 * a * math.pi), math.copysign(mag, x) * math.sin(0.5 * a * math.pi))


def _symbol(x: float) -> complex:
    z = 1.0 + _power(x, 0.9)
    h = (-0.9 + cmath.sqrt(0.81 + 0.4 * z)) / 0.2
    return z / (1.0 - cmath.exp(-0.5 * h))


def calibrate() -> float:
    """Wall time in seconds of one pass of the reference kernel."""
    start = time.perf_counter()
    grid = np.arange(-128, 128) * 0.3
    table = np.array([_symbol(float(x)) for x in np.tile(grid, 28)], dtype=complex)
    signal = np.cos(grid)
    for _ in range(700):
        samples = np.asarray(signal + 1e-3, dtype=float)
        signal = np.fft.ifft(np.fft.fft(samples) * table[:256]).real * 1e-3
        signal[0] += float(np.all(np.isfinite(signal)))
    "\n".join(f"{v:.17g},{v * 0.5:.17g}" for v in (table.real * signal[0]).tolist())
    return time.perf_counter() - start
