"""The compiled finite-FIFO machine against the event kernel it replaces.

Without a recorder ``run_event_machine`` runs
:func:`repro.cache.kernels.fifo_machine`; the generator-based event
kernel (``repro.sim``) stays the reference.  Every comparison is
exact: frame time, per-node finish times and every ``stats`` entry,
including the FIFO high-water marks, which depend on how same-cycle
events are ordered.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments.common import BUFFER_SIZES, FIG8_WIDTHS
from repro.cache import kernels
from repro.core.distributor import interleave_stream, run_event_machine
from repro.core.geometry_stage import geometry_release_times
from repro.core.node import drain_node
from repro.core.routing import build_routed_work
from repro.distribution import BlockInterleaved
from repro.errors import ConfigurationError


def _run(stream, num_processors, capacity, setup_cycles, bus_ratio, release=None):
    stats: dict = {}
    cycles, finish = run_event_machine(
        stream, num_processors, capacity, setup_cycles, bus_ratio,
        release=release, stats=stats,
    )
    return cycles, finish, stats


def _event_kernel_run(*args, **kwargs):
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(kernels, "_lib", None)
        return _run(*args, **kwargs)


@st.composite
def machines(draw):
    """A random stream with its machine: every node count, empty nodes,
    zero pixels and texels, and fractional or duplicate release times."""
    num_processors = draw(st.integers(min_value=1, max_value=8))
    num_triangles = draw(st.integers(min_value=0, max_value=40))
    work = st.tuples(
        st.sampled_from([0, 1, 3, 10, 25, 40, 100]), st.sampled_from([0, 4, 16, 33, 64])
    )
    stream = []
    for triangle in range(num_triangles):
        nodes = draw(st.sets(st.integers(0, num_processors - 1), max_size=num_processors))
        for node in sorted(nodes):
            pixels, texels = draw(work)
            stream.append((triangle, node, pixels, texels))
    release = None
    if draw(st.booleans()):
        gaps = draw(
            st.lists(
                st.sampled_from([0.0, 0.0, 0.5, 1.75, 7.0, 30.25]),
                min_size=num_triangles,
                max_size=num_triangles,
            )
        )
        release = np.cumsum(np.asarray(gaps, dtype=np.float64))
    return {
        "stream": stream,
        "num_processors": num_processors,
        "setup_cycles": draw(st.sampled_from([0, 1, 25])),
        "bus_ratio": draw(st.sampled_from([0.7, 1.0, 2.0, 3.0, math.inf])),
        "release": release,
    }


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        machine=machines(),
        capacity=st.one_of(st.integers(min_value=1, max_value=5), st.just(10**9)),
    )
    def test_matches_event_kernel(self, machine, capacity):
        assert _run(capacity=capacity, **machine) == _event_kernel_run(
            capacity=capacity, **machine
        )

    @settings(max_examples=60, deadline=None)
    @given(machine=machines(), extra=st.integers(min_value=0, max_value=2))
    def test_never_full_fifo_equals_drain_node(self, machine, extra):
        """With room for every entry each node drains as if alone."""
        stream = machine["stream"]
        n = machine["num_processors"]
        per_node = [[entry for entry in stream if entry[1] == node] for node in range(n)]
        capacity = max(1, max(len(entries) for entries in per_node) + extra)
        compiled = _run(capacity=capacity, **machine)
        assert compiled == _event_kernel_run(capacity=capacity, **machine)

        release = machine["release"]
        expected = [
            drain_node(
                np.array([entry[2] for entry in entries], dtype=np.int64),
                np.array([entry[3] for entry in entries], dtype=np.int64),
                machine["setup_cycles"],
                machine["bus_ratio"],
                arrivals=(
                    None if release is None else release[[entry[0] for entry in entries]]
                ),
            ).finish
            for entries in per_node
        ]
        cycles, finish, _stats = compiled
        assert finish == expected
        assert cycles == max(expected)

    def test_huge_capacity_is_not_allocated(self):
        stream = [(t, t % 3, 10 + t % 7, 4 * (t % 5)) for t in range(200)]
        expected = _event_kernel_run(stream, 3, 10**9, 25, 1.0)
        assert _run(stream, 3, 10**9, 25, 1.0) == expected
        # Past int64 as well: a FIFO never holds more than its node's
        # entries plus END, so the kernel sees a clamped capacity.
        assert _run(stream, 3, 10**30, 25, 1.0) == expected

    def test_figure8_streams_match_event_kernel(self, tiny_bench_scene):
        """Real Figure-8 streams: 64-processor block widths x buffer sizes."""
        release = geometry_release_times(tiny_bench_scene.num_triangles, 2, 50.0)
        checked = 0
        for width in FIG8_WIDTHS[::3]:
            work = build_routed_work(
                tiny_bench_scene, BlockInterleaved(64, width), cache_spec="perfect"
            )
            stream = interleave_stream(work.triangles, work.pixels, work.texels)
            for capacity in BUFFER_SIZES:
                for ratio, throttle in ((1.0, None), (2.0, None), (2.0, release)):
                    args = (stream, 64, capacity, 25, ratio, throttle)
                    compiled = _run(*args)
                    assert compiled == _event_kernel_run(*args), (width, capacity, ratio)
                    checked += compiled[2].get("blocked_cycles", 0.0) > 0
        assert checked, "some points must block the distributor"


@pytest.mark.parametrize("backend", ["default", "python"])
class TestBoundaryContract:
    """The event path's errors, raised before the compiled kernel runs."""

    @pytest.fixture(autouse=True)
    def _backend(self, request, backend):
        if backend == "python":
            request.getfixturevalue("python_kernels")

    def test_capacity_below_one(self):
        with pytest.raises(ConfigurationError):
            run_event_machine([(0, 0, 10, 0)], 1, 0, 25, 1.0)

    def test_non_positive_bus_ratio(self):
        with pytest.raises(ConfigurationError):
            run_event_machine([(0, 0, 10, 0)], 1, 4, 25, 0.0)

    @pytest.mark.parametrize("node", [-1, 2])
    def test_node_outside_machine(self, node):
        with pytest.raises(IndexError):
            run_event_machine([(0, 0, 10, 0), (1, node, 10, 0)], 2, 4, 25, 1.0)

    def test_triangle_outside_release(self):
        with pytest.raises(IndexError):
            run_event_machine(
                [(0, 0, 10, 0), (3, 1, 10, 0)], 2, 4, 25, 1.0, release=np.zeros(3)
            )

    def test_malformed_stream(self):
        with pytest.raises(ValueError):
            run_event_machine([(0, 0, 10)], 1, 4, 25, 1.0)

    def test_empty_stream(self):
        stats: dict = {}
        assert run_event_machine([], 2, 4, 25, 1.0, stats=stats) == (0.0, [0.0, 0.0])
        assert stats == {
            "blocked_per_node": [0.0, 0.0],
            # Both nodes wait from time 0, so END is handed straight over.
            "fifo_high_water": [0, 0],
            "bus_totals": {"transfers": 0, "texels": 0, "busy_cycles": 0.0},
        }

    def test_kernel_checks_its_arrays(self, backend):
        stream = np.array([[0, 0, 10, 0], [1, 1, 12, 4]], dtype=np.int64)
        if backend == "python":
            assert kernels.fifo_machine(stream, 2, 4, 25, 1.0) is None
            return
        assert kernels.fifo_machine(stream, 2, 4, 25, 1.0) is not None
        for bad in (stream.astype(np.int32), np.asfortranarray(stream), stream[:, :3]):
            with pytest.raises(ValueError):
                kernels.fifo_machine(bad, 2, 4, 25, 1.0)
        with pytest.raises(ValueError):
            kernels.fifo_machine(stream, 2, 0, 25, 1.0)
        # The kernel itself refuses ids it would index out of bounds.
        with pytest.raises(IndexError):
            kernels.fifo_machine(stream, 1, 4, 25, 1.0)
        with pytest.raises(IndexError):
            kernels.fifo_machine(stream, 2, 4, 25, 1.0, release=np.zeros(1))
