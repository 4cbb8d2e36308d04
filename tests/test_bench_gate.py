"""The bench gate's ``obs`` block reads what the simulator publishes."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro import obs
from repro.core import MachineConfig, simulate_machine
from repro.distribution import BlockInterleaved

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_gate.py"


def _bench_gate():
    spec = importlib.util.spec_from_file_location("bench_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counter_total_sums_labeled_children(tiny_bench_scene):
    bench_gate = _bench_gate()
    config = MachineConfig(distribution=BlockInterleaved(4, 16))
    result = simulate_machine(tiny_bench_scene, config)
    counters = obs.registry().snapshot()["counters"]
    assert result.cache.line_accesses > 0
    assert bench_gate.counter_total(counters, "cache.line_accesses") == (
        result.cache.line_accesses
    )
    assert bench_gate.counter_total(counters, "cache.misses") == result.cache.misses
    assert bench_gate.counter_total(counters, "cache.never_published") is None


def test_counter_total_adds_every_child_and_the_parent():
    counters = {
        "cache.misses": 1.0,
        "cache.misses{scene=a}": 2.0,
        "cache.misses{scene=b}": 4.0,
        "cache.misses_total": 100.0,
    }
    assert _bench_gate().counter_total(counters, "cache.misses") == 7.0
