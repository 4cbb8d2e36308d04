"""Event-driven machine: in-order distributor plus node processes.

This is where the triangle-buffer study (Section 8 / Figure 8) happens.
The geometry stage emits triangles in strict OpenGL order; each is
pushed into the FIFO of every node its bounding box touches.  Because
the stream is a single ordered sequence, ONE full FIFO blocks the
distributor — and therefore starves every other node.  That head-of-line
blocking is the "local load imbalance" a big buffer exists to hide.

When a finite-rate geometry stage is configured, each triangle also
carries a release time the distributor must wait for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bus.bus import BusModel
from repro.cache import kernels
from repro.core.node import triangle_service_time
from repro.errors import ConfigurationError
from repro.sim.fifo import BoundedFifo
from repro.sim.kernel import ProcessGenerator, Simulator

if TYPE_CHECKING:
    from repro.obs.recorder import RecorderLike

#: FIFO sentinel: end of the triangle stream.
_END = None

#: Stream entry: (triangle id, node, pixels, texels).
StreamEntry = Tuple[int, int, int, int]


def _distributor_process(
    sim: Simulator,
    fifos: List[BoundedFifo],
    stream: Sequence[StreamEntry],
    release: Optional[np.ndarray],
    stats: Dict[str, Any],
) -> ProcessGenerator:
    """Generator feeding work items in strict submission order.

    ``stats`` collects the head-of-line accounting: cycles the
    distributor spent blocked on a full FIFO (``blocked_cycles``) and
    which node blocked it most (``blocked_per_node``).
    """
    blocked_per_node = stats.setdefault(
        "blocked_per_node", [0.0] * len(fifos)
    )
    recorder = sim.recorder
    for triangle, node, pixels, texels in stream:
        if release is not None and sim.now < release[triangle]:
            yield sim.timeout(release[triangle] - sim.now)
        before = sim.now
        yield fifos[node].put((pixels, texels))
        waited = sim.now - before
        if waited > 0:
            stats["blocked_cycles"] = stats.get("blocked_cycles", 0.0) + waited
            blocked_per_node[node] += waited
            if recorder is not None:
                recorder.span(
                    ("sim", "distributor"), "blocked", before, sim.now,
                    args={"node": node, "triangle": triangle},
                )
    for fifo in fifos:
        yield fifo.put(_END)


def _node_process(
    sim: Simulator,
    fifo: BoundedFifo,
    setup_cycles: int,
    bus: BusModel,
    finish_out: List[float],
    node_id: int,
) -> ProcessGenerator:
    """Generator draining one node's FIFO until the end sentinel."""
    recorder = sim.recorder
    track = ("sim", f"node-{node_id}")
    while True:
        item = yield fifo.get()
        if item is _END:
            break
        pixels, texels = item
        start = sim.now
        end = triangle_service_time(start, pixels, texels, setup_cycles, bus)
        if recorder is not None:
            # The engine is occupied for max(pixels, setup) cycles; any
            # extra wait for the bus shows up as an explicit stall span.
            busy_end = start + max(pixels, setup_cycles)
            recorder.span(track, "busy", start, busy_end, args={"texels": texels})
            if end > busy_end:
                recorder.span(track, "stall", busy_end, end)
        if end > sim.now:
            yield sim.timeout(end - sim.now)
        finish_out[node_id] = sim.now


def interleave_stream(
    triangles: List[np.ndarray],
    pixels: List[np.ndarray],
    texels: List[np.ndarray],
) -> np.ndarray:
    """Merge per-node work lists back into global submission order.

    Produces the distributor's stream as an ``(M, 4)`` int64 array of
    ``(triangle, node, pixels, texels)`` rows, ordered by triangle id
    and, within one triangle, by node id — the order a broadcast
    distribution network would emit.
    """
    counts = [len(ids) for ids in triangles]
    if sum(counts) == 0:
        return np.empty((0, 4), dtype=np.int64)
    triangle = np.concatenate(triangles).astype(np.int64, copy=False)
    node = np.repeat(np.arange(len(triangles), dtype=np.int64), counts)
    columns = (triangle, node, np.concatenate(pixels), np.concatenate(texels))
    # (triangle, node) is unique, so this is the order of sorted rows.
    order = np.lexsort((node, triangle))
    return np.stack(columns, axis=1).astype(np.int64, copy=False)[order]


def _stream_array(stream: Union[np.ndarray, Sequence[StreamEntry]]) -> np.ndarray:
    entries = np.ascontiguousarray(stream, dtype=np.int64)
    if entries.size == 0:
        return entries.reshape(0, 4)
    if entries.ndim != 2 or entries.shape[1] != 4:
        raise ValueError("stream entries must be (triangle, node, pixels, texels)")
    return entries


def run_event_machine(
    stream: Union[np.ndarray, Sequence[StreamEntry]],
    num_processors: int,
    fifo_capacity: int,
    setup_cycles: int,
    bus_ratio: float,
    release: Optional[np.ndarray] = None,
    stats: Optional[Dict[str, Any]] = None,
    recorder: Optional["RecorderLike"] = None,
) -> Tuple[float, List[float]]:
    """Simulate the machine with finite FIFOs; returns (cycles, per-node finish).

    ``stream`` is :func:`interleave_stream`'s array or any sequence of
    ``(triangle, node, pixels, texels)`` entries.  ``release``
    (per-triangle geometry release times) throttles the distributor
    when a finite-rate geometry stage is modelled.  ``stats``
    (optional dict) receives head-of-line accounting:
    ``blocked_cycles``, ``blocked_per_node``, ``fifo_high_water`` and
    aggregate ``bus_totals``.

    Without a ``recorder`` the compiled FIFO machine
    (:func:`repro.cache.kernels.fifo_machine`) runs when it is
    available; it replays the event kernel's schedule exactly, so
    every return value and stats entry is bit-identical.  With a
    ``recorder`` (or without the compiled kernels) the event kernel
    runs, with the recorder threaded into the kernel, the FIFOs and
    the node processes; simulated timing is identical either way.
    """
    if fifo_capacity < 1:
        raise ConfigurationError(f"fifo capacity must be >= 1, got {fifo_capacity}")
    if bus_ratio <= 0:
        raise ConfigurationError(f"bus bandwidth must be positive, got {bus_ratio}")
    entries = _stream_array(stream)
    if len(entries):
        nodes = entries[:, 1]
        if nodes.min() < 0 or nodes.max() >= num_processors:
            raise IndexError(f"stream node ids must lie in [0, {num_processors})")
        if release is not None and (
            entries[:, 0].min() < 0 or entries[:, 0].max() >= len(release)
        ):
            raise IndexError("stream triangle ids must index the release array")
    if stats is None:
        stats = {}
    blocked_per_node = stats.setdefault("blocked_per_node", [0.0] * num_processors)
    run = None
    if recorder is None:
        run = kernels.fifo_machine(
            entries,
            num_processors,
            fifo_capacity,
            setup_cycles,
            bus_ratio,
            release=release,
            blocked_cycles=stats.get("blocked_cycles", 0.0),
            blocked_per_node=blocked_per_node,
        )
    if run is not None:
        if run.blocks:
            stats["blocked_cycles"] = run.blocked_cycles
        blocked_per_node[:] = run.blocked_per_node.tolist()
        stats["fifo_high_water"] = run.high_water.tolist()
        stats["bus_totals"] = {
            "transfers": len(entries),
            "texels": sum(run.bus_texels.tolist()),
            "busy_cycles": sum(run.bus_cycles.tolist()),
        }
        return run.cycles, run.finish.tolist()

    sim = Simulator(recorder=recorder)
    fifos = [
        BoundedFifo(sim, fifo_capacity, name=f"tri-fifo-{n}", recorder=recorder)
        for n in range(num_processors)
    ]
    buses = [BusModel(bus_ratio) for _ in range(num_processors)]
    finish = [0.0] * num_processors
    processes = [
        sim.process(
            _node_process(sim, fifos[n], setup_cycles, buses[n], finish, n),
            name=f"node-{n}",
        )
        for n in range(num_processors)
    ]
    processes.append(
        sim.process(
            _distributor_process(sim, fifos, entries.tolist(), release, stats),
            name="distributor",
        )
    )
    total = sim.run_all(processes)
    stats["fifo_high_water"] = [fifo.high_water for fifo in fifos]
    stats["bus_totals"] = {
        "transfers": sum(bus.transfers for bus in buses),
        "texels": sum(bus.texels_delivered for bus in buses),
        "busy_cycles": sum(bus.busy_cycles for bus in buses),
    }
    return total, finish
