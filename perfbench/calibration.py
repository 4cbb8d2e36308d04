"""Host-speed calibration: a fixed kernel timed next to the work.

On a shared host the cores slow down and speed up by 40% or more
within seconds as other tenants' load changes, and process CPU time
moves with them, so neither the wall time nor the CPU time of one run
is steady from run to run.  A fixed kernel that does not depend on the
program, timed right next to the work, slows down the same way.  The
benchmark reports each time at the reference speed::

    seconds * REFERENCE_S / kernel seconds measured next to them

A change to the program moves its times and not the kernel's, so it
shows in full; a change of host speed moves both and cancels.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Kernel seconds that define the reference speed (about the kernel's
#: time on the 2-vCPU Xeon virtual machine the benchmark was built on).
REFERENCE_S = 0.004

#: Samples in one calibration block.
BLOCK = 5

_VALUES = np.random.default_rng(20000).integers(0, 1 << 30, size=1 << 17)


def kernel_seconds() -> float:
    """Seconds of one run of the kernel: a numpy sort of 128 Ki
    integers and a pure-Python loop, like the program's mix of numpy
    calls and interpreter work."""
    started = time.perf_counter()
    np.sort(_VALUES)
    sum(i * i for i in range(50_000))
    return time.perf_counter() - started


def block() -> List[float]:
    """``BLOCK`` kernel samples in a row."""
    return [kernel_seconds() for _ in range(BLOCK)]


def at_reference(seconds: float, samples: List[float]) -> float:
    """``seconds`` at the reference speed, given kernel samples taken
    next to them."""
    return seconds * REFERENCE_S / statistics.median(samples)
