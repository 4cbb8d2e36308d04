"""Prefetching pixel-FIFO model — validating the zero-latency claim.

The paper leans on Igehy, Eldridge & Proudfoot: "prefetching with a
pixel buffer reaches the performance of a zero latency system", and
therefore models memory as pure bandwidth.  This module earns that
assumption instead of asserting it: a fragment-granularity simulation
of the prefetch architecture — the texel address generator runs ahead,
issuing each fragment's line fetches into a latency+bandwidth memory,
while the fragment waits in a pixel FIFO; the filter retires fragments
in order once their data has arrived.

With a FIFO deeper than (latency x issue rate) the pipeline time
collapses to ``max(compute, bandwidth) + one latency``, i.e. the
zero-latency model the machine simulator uses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable

import numpy as np

from repro.cache import kernels
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PrefetchResult:
    """Outcome of one pixel-pipeline run."""

    cycles: float
    zero_latency_cycles: float
    fragments: int

    @property
    def slowdown(self) -> float:
        """Time relative to the zero-latency machine (1.0 == hidden)."""
        if self.zero_latency_cycles == 0:
            return 1.0
        return self.cycles / self.zero_latency_cycles


def simulate_prefetch_pipeline(
    misses_per_fragment: np.ndarray,
    fifo_depth: int,
    memory_latency: float,
    bus_ratio: float,
    texels_per_miss: int = 16,
) -> PrefetchResult:
    """Simulate the prefetching pixel pipeline over one fragment stream.

    Parameters
    ----------
    misses_per_fragment:
        Cache misses (line fetches) each fragment triggers, in stream
        order — exactly what a cache replay produces.
    fifo_depth:
        Fragments the pixel FIFO can hold between the address generator
        and the filter.
    memory_latency:
        Cycles from fetch issue to data return (pipelined: requests
        overlap; bandwidth is the separate ``bus_ratio`` limit).
    bus_ratio:
        Sustained texels per cycle the memory can deliver.
    """
    if fifo_depth < 1:
        raise ConfigurationError(f"pixel FIFO depth must be >= 1, got {fifo_depth}")
    if memory_latency < 0:
        raise ConfigurationError(f"latency must be >= 0, got {memory_latency}")
    if bus_ratio <= 0:
        raise ConfigurationError(f"bus ratio must be positive, got {bus_ratio}")

    misses = np.asarray(misses_per_fragment, dtype=np.int64)
    transfer = texels_per_miss / bus_ratio
    cycles = _pipeline_cycles(misses, fifo_depth, memory_latency, transfer)
    # The zero-latency reference is the same pipeline with instant
    # memory and an unbounded FIFO — the model the machine simulator
    # uses (bandwidth-only).
    zero_latency = _pipeline_cycles(misses, len(misses) + 1, 0.0, transfer)
    return PrefetchResult(
        cycles=cycles, zero_latency_cycles=zero_latency, fragments=len(misses)
    )


def _pipeline_cycles(
    misses: np.ndarray, fifo_depth: int, memory_latency: float, transfer: float
) -> float:
    n = len(misses)

    # Dataflow recurrence.  Fragment k is issued one cycle after k-1 at
    # the earliest, but no earlier than the retirement of fragment
    # (k - fifo_depth) — at most fifo_depth fragments sit between the
    # address generator and the filter.  Its data is ready one latency
    # after its bandwidth-serialised transfer; fragments retire in
    # order at one per cycle once their data is there.
    # Premultiply the per-fragment transfer costs in one array pass;
    # ``count * transfer`` is elementwise-identical either way, and the
    # recurrence below is the only genuinely sequential part.  The
    # miss/hit branch still tests ``count``: a miss with a zero-cost
    # transfer must take the latency path.
    costs = misses * transfer
    compiled = kernels.pipeline_cycles(misses, costs, fifo_depth, memory_latency)
    if compiled is not None:
        return compiled

    # Python reference loop (the compiled kernel runs the same operations).
    retires: Deque[float] = deque()
    issue = -1.0
    bus_free = 0.0
    last_retire = -1.0
    for count, cost in zip(misses.tolist(), costs.tolist()):
        issue += 1.0
        if len(retires) >= fifo_depth:
            issue = max(issue, retires.popleft())
        if count:
            begin = max(bus_free, issue)
            bus_free = begin + cost
            ready = bus_free + memory_latency
        else:
            ready = issue
        last_retire = max(last_retire + 1.0, ready)
        retires.append(last_retire)

    return last_retire + 1.0 if n else 0.0


def latency_hiding_curve(
    misses_per_fragment: np.ndarray,
    fifo_depths: Iterable[int],
    memory_latency: float,
    bus_ratio: float,
) -> Dict[int, float]:
    """Slowdown vs FIFO depth — the Igehy validation sweep."""
    return {
        depth: simulate_prefetch_pipeline(
            misses_per_fragment, depth, memory_latency, bus_ratio
        ).slowdown
        for depth in fifo_depths
    }
