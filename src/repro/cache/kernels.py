"""Compiled kernels for the sequential parts of the hot path.

``_kernels.c`` holds the set-associative LRU replay behind
:meth:`repro.cache.lru.LruCache.simulate`, the prefetch pipeline
recurrence behind :func:`repro.core.prefetch.simulate_prefetch_pipeline`
and the finite-FIFO machine behind
:func:`repro.core.distributor.run_event_machine`, which replays the
event kernel's schedule (``repro.sim``) event for event.
On the first kernel call it is compiled with the system ``cc`` into
``$XDG_CACHE_HOME/repro/kernels`` (default ``~/.cache/repro/kernels``),
named by a hash of the source and flags, and loaded through ``ctypes``.

The backend follows only from what the code can observe: when no
compiler is found, or the build or load fails, every entry point
returns ``None`` and the caller runs its Python code (a loop, or the
event kernel for the FIFO machine), which is also the bit-exact
reference the tests compare against.  The resolved
backend is published as the gauge ``cache.kernel_backend`` (1 = C,
0 = Python).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from repro import obs

_SOURCE = Path(__file__).with_name("_kernels.c")
#: No FP contraction: a fused multiply-add would round differently
#: from the Python reference.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
#: A compile normally takes well under a second.
_BUILD_TIMEOUT_S = 60.0

_I64P = ctypes.POINTER(ctypes.c_int64)
_F64P = ctypes.POINTER(ctypes.c_double)
_U8P = ctypes.POINTER(ctypes.c_uint8)


class _Unresolved:
    """Marks a library not looked up yet."""


#: The loaded library, ``None`` for the Python backend.
_lib: Union[ctypes.CDLL, None, _Unresolved] = _Unresolved()
_RESOLVE_LOCK = threading.Lock()


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "kernels"


def _build() -> Path:
    """Path of the compiled library, compiling it when not cached yet.

    Raises ``OSError`` or ``subprocess.SubprocessError`` when there is
    no compiler or the build fails.
    """
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    target = _cache_dir() / f"kernels-{digest}.so"
    if target.exists():
        return target
    compiler = shutil.which("cc")
    if compiler is None:
        raise FileNotFoundError("no C compiler (cc) on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    # Concurrent builders each compile to their own name; os.replace
    # makes whichever finishes last win atomically.
    handle, name = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    os.close(handle)
    partial = Path(name)
    try:
        subprocess.run(
            [compiler, *_CFLAGS, "-o", str(partial), str(_SOURCE)],
            check=True,
            capture_output=True,
            timeout=_BUILD_TIMEOUT_S,
        )
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)
    return target


def _load() -> Optional[ctypes.CDLL]:
    try:
        lib = ctypes.CDLL(str(_build()))
    except (OSError, subprocess.SubprocessError):
        return None
    lib.lru_replay.argtypes = [
        _I64P, ctypes.c_int64, _I64P, ctypes.c_int64, ctypes.c_int64, _U8P,
    ]
    lib.lru_replay.restype = None
    lib.pipeline_cycles.argtypes = [
        _I64P, _F64P, ctypes.c_int64, ctypes.c_int64, ctypes.c_double, _F64P,
    ]
    lib.pipeline_cycles.restype = ctypes.c_double
    lib.fifo_machine.argtypes = [
        _I64P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_double, _F64P, ctypes.c_int64,
        _F64P, _F64P, _I64P, _I64P, _F64P, _F64P,
    ]
    lib.fifo_machine.restype = ctypes.c_int64
    return lib


def library() -> Optional[ctypes.CDLL]:
    """The compiled kernels, building them on first use; ``None`` if unavailable."""
    global _lib
    with _RESOLVE_LOCK:
        lib = _lib
        if isinstance(lib, _Unresolved):
            lib = _lib = _load()
            obs.registry().gauge(
                "cache.kernel_backend", "1 when the compiled kernels are in use, 0 for Python"
            ).set(0.0 if lib is None else 1.0)
    return lib


def backend() -> str:
    """``"c"`` or ``"python"``: which implementation the kernels run on."""
    return "python" if library() is None else "c"


def lru_replay(lines: np.ndarray, state: np.ndarray) -> Optional[np.ndarray]:
    """Replay ``lines`` through the LRU ``state`` in place; the miss mask.

    ``lines`` must be a contiguous 1-D int64 array of non-negative line
    ids and ``state`` a C-contiguous ``(num_sets, ways)`` int64 array,
    MRU first with -1 for empty slots.  Returns ``None`` (touching
    nothing) when the compiled kernels are unavailable.
    """
    lib = library()
    if lib is None:
        return None
    if lines.dtype != np.int64 or lines.ndim != 1 or not lines.flags.c_contiguous:
        raise ValueError("lru_replay needs a contiguous 1-D int64 line array")
    if state.dtype != np.int64 or state.ndim != 2 or not state.flags.c_contiguous:
        raise ValueError("lru_replay needs a C-contiguous 2-D int64 state array")
    misses = np.empty(len(lines), dtype=np.bool_)
    lib.lru_replay(
        lines.ctypes.data_as(_I64P),
        len(lines),
        state.ctypes.data_as(_I64P),
        state.shape[0],
        state.shape[1],
        misses.ctypes.data_as(_U8P),
    )
    return misses


def pipeline_cycles(
    misses: np.ndarray, costs: np.ndarray, fifo_depth: int, memory_latency: float
) -> Optional[float]:
    """The prefetch recurrence in C; ``None`` when the kernels are unavailable.

    ``misses`` (int64) and ``costs`` (float64, ``misses * transfer``)
    are contiguous 1-D arrays of one length; ``fifo_depth >= 1``.
    """
    lib = library()
    if lib is None:
        return None
    misses = np.ascontiguousarray(misses, dtype=np.int64)
    costs = np.ascontiguousarray(costs, dtype=np.float64)
    n = len(misses)
    if misses.ndim != 1 or costs.shape != (n,) or fifo_depth < 1:
        raise ValueError("pipeline_cycles needs equal-length 1-D arrays and depth >= 1")
    ring = np.empty(min(fifo_depth, n), dtype=np.float64)
    return float(
        lib.pipeline_cycles(
            misses.ctypes.data_as(_I64P),
            costs.ctypes.data_as(_F64P),
            n,
            fifo_depth,
            float(memory_latency),
            ring.ctypes.data_as(_F64P),
        )
    )


class FifoRun(NamedTuple):
    """One frame of the finite-FIFO machine, as :func:`fifo_machine` returns it."""

    #: Frame time: the time of the last event.
    cycles: float
    #: Per-node time its last triangle completed.
    finish: np.ndarray
    #: Number of puts that blocked the distributor.
    blocks: int
    #: Cycles the distributor spent blocked, in total and per node.
    blocked_cycles: float
    blocked_per_node: np.ndarray
    #: Per-node peak FIFO occupancy (int64), END items included.
    high_water: np.ndarray
    #: Per-node texels and busy cycles of the texture bus.
    bus_texels: np.ndarray
    bus_cycles: np.ndarray


def fifo_machine(
    stream: np.ndarray,
    num_processors: int,
    capacity: int,
    setup_cycles: int,
    bus_ratio: float,
    release: Optional[np.ndarray] = None,
    blocked_cycles: float = 0.0,
    blocked_per_node: Optional[Sequence[float]] = None,
) -> Optional[FifoRun]:
    """The finite-FIFO machine in C; ``None`` when the kernels are unavailable.

    ``stream`` is a C-contiguous ``(M, 4)`` int64 array of
    ``(triangle, node, pixels, texels)`` rows in submission order and
    ``capacity >= 1``.  ``blocked_cycles`` and ``blocked_per_node``
    seed the blocked-time accumulators.  Raises ``IndexError`` for a
    node id outside ``[0, num_processors)`` or a triangle id outside
    ``release``.
    """
    lib = library()
    if lib is None:
        return None
    if (
        stream.dtype != np.int64
        or stream.ndim != 2
        or stream.shape[1] != 4
        or not stream.flags.c_contiguous
    ):
        raise ValueError("fifo_machine needs a C-contiguous (M, 4) int64 stream")
    if capacity < 1:
        raise ValueError(f"fifo_machine needs capacity >= 1, got {capacity}")
    n = num_processors
    blocked = np.zeros(n)
    if blocked_per_node is not None:
        blocked = np.array(blocked_per_node, dtype=np.float64)
        if blocked.shape != (n,):
            raise ValueError("blocked_per_node needs one entry per node")
    if release is not None:
        release = np.ascontiguousarray(release, dtype=np.float64).reshape(-1)
    finish = np.zeros(n)
    high_water = np.zeros(n, dtype=np.int64)
    bus_texels = np.zeros(n, dtype=np.int64)
    bus_cycles = np.zeros(n)
    totals = np.array([0.0, blocked_cycles])
    blocks = lib.fifo_machine(
        stream.ctypes.data_as(_I64P),
        len(stream),
        n,
        # A FIFO never holds more than its node's entries plus END.
        min(capacity, len(stream) + 1),
        setup_cycles,
        float(bus_ratio),
        None if release is None else release.ctypes.data_as(_F64P),
        0 if release is None else len(release),
        finish.ctypes.data_as(_F64P),
        blocked.ctypes.data_as(_F64P),
        high_water.ctypes.data_as(_I64P),
        bus_texels.ctypes.data_as(_I64P),
        bus_cycles.ctypes.data_as(_F64P),
        totals.ctypes.data_as(_F64P),
    )
    if blocks == -2:
        raise MemoryError("fifo_machine could not allocate its work arrays")
    if blocks == -1:
        raise IndexError(
            "stream has a node id outside [0, num_processors) "
            "or a triangle id outside the release array"
        )
    return FifoRun(
        float(totals[0]), finish, int(blocks), float(totals[1]), blocked,
        high_water, bus_texels, bus_cycles,
    )
