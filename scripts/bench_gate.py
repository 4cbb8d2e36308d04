#!/usr/bin/env python
"""Perf-trajectory gate: measure a pinned workload set, emit BENCH_*.json.

This is the measurement backbone of ROADMAP item 5: a fixed set of
workloads — the three golden scenes plus pinned benchmark kernels
(event-driven timing, prefetch pipeline) — is run cold (the in-memory
artifact store is cleared between timed regions, and no disk tier is
attached) and summarised as machine-readable JSON:

* per-workload wall seconds and simulated cycles per wall second,
* pipeline hit rates (miss rate, texel-to-fragment) straight from the
  simulation results and the ``repro.obs`` registry,
* peak RSS of the whole run.

Simulated cycle counts are deterministic, so ``--check`` compares them
with *exact* equality (a free, wide golden gate) while wall times get a
tolerance budget — CI runners are noisy, so only a large regression
fails the gate.

Snapshots are numbered ``BENCH_<n>.json`` at the repo root; each PR
that changes the perf story appends the next number so the trajectory
stays readable from the file list alone.  The sentinels ``latest``
(highest committed number) and ``next`` (one past it, ``--out`` only)
resolve against that sequence.

Usage::

    # measure and append the next numbered snapshot, with speedups
    # relative to the previous one embedded
    PYTHONPATH=src python scripts/bench_gate.py --out next --baseline latest

    # CI: measure and compare against the newest committed snapshot
    PYTHONPATH=src python scripts/bench_gate.py --check latest \
        --tolerance 0.75 --out bench_now.json
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro import pipeline  # noqa: E402
from repro.cache import kernels  # noqa: E402
from repro.analysis.batch import (  # noqa: E402
    distribution_from_spec,
    machine_config_from_spec,
)
from repro.core.machine import simulate_machine  # noqa: E402
from repro.core.prefetch import simulate_prefetch_pipeline  # noqa: E402
from repro.workloads.scenes import build_scene  # noqa: E402

#: Schema version of the emitted document.
SCHEMA = 1

#: Linear scene scale the gate runs at.  Large enough that the batch
#: core's throughput dominates fixed overheads, small enough for CI.
BENCH_SCALE = 0.25

#: The golden scenes, in the order tests/golden/ pins them.
BENCH_SCENES = ("truc640", "blowout775", "quake")

#: (family, size, processors) machine points per scene.
BENCH_MACHINES = (("block", 16, 1), ("block", 16, 4), ("sli", 2, 4))

#: The virtual-texturing pan-sequence point (paged path end to end).
VT_BENCH_SCENE = "vt-quake"
VT_BENCH_SCALE = 0.125


def committed_snapshots() -> "List[Tuple[int, Path]]":
    """The repo's numbered ``BENCH_<n>.json`` snapshots, sorted by n."""
    found = []
    for path in REPO_ROOT.glob("BENCH_*.json"):
        suffix = path.stem[len("BENCH_"):]
        if suffix.isdigit():
            found.append((int(suffix), path))
    return sorted(found)


def resolve_snapshot_arg(value: str) -> Path:
    """Resolve ``--check``/``--baseline``/``--out`` path arguments.

    ``latest`` names the highest-numbered committed ``BENCH_<n>.json``;
    ``next`` names the one after it (for ``--out``).  Anything else is
    taken as a literal path.
    """
    if value in ("latest", "next"):
        snapshots = committed_snapshots()
        if value == "latest":
            if not snapshots:
                raise SystemExit("bench_gate: no committed BENCH_<n>.json to resolve 'latest'")
            return snapshots[-1][1]
        number = snapshots[-1][0] + 1 if snapshots else 1
        return REPO_ROOT / f"BENCH_{number}.json"
    return Path(value)


def _cold_store() -> None:
    """Drop memoized pipeline artifacts so every timed run recomputes."""
    pipeline.store().clear()


def _timed(fn: Callable[[], Dict[str, object]]) -> Dict[str, object]:
    started = time.perf_counter()
    metrics = fn()
    metrics["wall_seconds"] = time.perf_counter() - started
    return metrics


def _scene_point(scene_name: str, family: str, size: int, processors: int) -> Dict:
    """Time one cold simulate_machine run (raster + routing + replay + timing)."""
    scene = build_scene(scene_name, scale=BENCH_SCALE)
    spec = {"family": family, "size": size, "processors": processors}
    distribution = distribution_from_spec(spec, scene.height)
    config = machine_config_from_spec(spec, distribution)
    _cold_store()

    def run() -> Dict[str, object]:
        result = simulate_machine(scene, config)
        return {
            "simulated_cycles": result.cycles,
            "fragments": result.cache.fragments,
            "line_accesses": result.cache.line_accesses,
            "miss_rate": result.cache.miss_rate,
            "texel_to_fragment": result.texel_to_fragment,
        }

    metrics = _timed(run)
    wall = float(metrics["wall_seconds"])
    metrics["cycles_per_second"] = float(metrics["simulated_cycles"]) / wall if wall else 0.0
    metrics["fragments_per_second"] = float(metrics["fragments"]) / wall if wall else 0.0
    return metrics


def _event_point() -> Dict:
    """The event-driven timing path on a finite-FIFO machine."""
    scene = build_scene("truc640", scale=0.125)
    spec = {"family": "block", "size": 16, "processors": 4}
    distribution = distribution_from_spec(spec, scene.height)
    config = machine_config_from_spec(spec, distribution)
    _cold_store()
    # Warm the routed-work prefix so the timed region is timing-only.
    simulate_machine(scene, config)

    def run() -> Dict[str, object]:
        result = simulate_machine(scene, config, timing_mode="event")
        return {"simulated_cycles": result.cycles}

    metrics = _timed(run)
    wall = float(metrics["wall_seconds"])
    metrics["cycles_per_second"] = float(metrics["simulated_cycles"]) / wall if wall else 0.0
    return metrics


def _prefetch_point() -> Dict:
    """The Igehy prefetch-pipeline validation kernel."""
    rng = np.random.default_rng(20000)
    misses = (rng.random(200_000) < 0.12).astype(np.int64)

    def run() -> Dict[str, object]:
        result = simulate_prefetch_pipeline(
            misses, fifo_depth=64, memory_latency=100.0, bus_ratio=1.0
        )
        return {"simulated_cycles": result.cycles, "fragments": result.fragments}

    metrics = _timed(run)
    wall = float(metrics["wall_seconds"])
    metrics["cycles_per_second"] = float(metrics["simulated_cycles"]) / wall if wall else 0.0
    return metrics


def _vt_point() -> Dict:
    """The virtual-texturing pan sequence: translate + observe + page.

    Scene construction stays outside the timed region (like the scene
    points); the timed region covers every frame's routed work through
    the page table plus the paging feedback loop itself.
    """
    from repro.workloads.vt import require_vt_spec, run_vt_sequence, vt_frames

    spec = require_vt_spec(VT_BENCH_SCENE)
    frames = vt_frames(spec, VT_BENCH_SCALE)
    _cold_store()

    def run() -> Dict[str, object]:
        result = run_vt_sequence(
            spec,
            {"family": "block", "size": 16, "processors": 4},
            scale=VT_BENCH_SCALE,
            scenes=frames,
        )
        final = result.final
        return {
            "simulated_cycles": result.total_cycles,
            "frames": len(result.frames),
            "miss_rate": final.miss_rate,
            "fault_rate": result.mean_fault_rate,
            "paged_in": result.total_paged_in,
        }

    metrics = _timed(run)
    wall = float(metrics["wall_seconds"])
    metrics["cycles_per_second"] = float(metrics["simulated_cycles"]) / wall if wall else 0.0
    return metrics


def counter_total(counters: Dict[str, Any], series: str) -> Optional[float]:
    """``series`` summed over its unlabeled value and every labeled child.

    ``counters`` is the ``"counters"`` part of a registry snapshot.
    ``simulate_machine`` publishes the cache and bus series only on
    ``scene=``-labeled children, so the unlabeled value alone reads 0.
    ``None`` when the series was never published.
    """
    values = [
        float(value)
        for name, value in counters.items()
        if name == series or name.startswith(series + "{")
    ]
    return sum(values) if values else None


def measure(label: str) -> Dict:
    """Run every pinned workload; returns the snapshot document."""
    workloads: Dict[str, Dict] = {}
    total_started = time.perf_counter()
    for scene_name in BENCH_SCENES:
        for family, size, processors in BENCH_MACHINES:
            name = f"{scene_name}_{family}{size}_p{processors}"
            workloads[name] = _scene_point(scene_name, family, size, processors)
            print(f"  {name:<28} {workloads[name]['wall_seconds']:8.3f}s", flush=True)
    workloads["event_truc640_p4"] = _event_point()
    print(f"  {'event_truc640_p4':<28} {workloads['event_truc640_p4']['wall_seconds']:8.3f}s")
    workloads["prefetch_pipeline"] = _prefetch_point()
    print(f"  {'prefetch_pipeline':<28} {workloads['prefetch_pipeline']['wall_seconds']:8.3f}s")
    workloads["vt_quake_block16_p4"] = _vt_point()
    print(
        f"  {'vt_quake_block16_p4':<28} "
        f"{workloads['vt_quake_block16_p4']['wall_seconds']:8.3f}s"
    )
    total_wall = time.perf_counter() - total_started

    counters = obs.registry().snapshot()["counters"]
    cache_totals: Dict[str, Optional[float]] = {
        series: counter_total(counters, series)
        for series in ("cache.fragments", "cache.line_accesses", "cache.misses")
    }
    accesses = cache_totals["cache.line_accesses"]
    misses = cache_totals["cache.misses"]
    cache_totals["cache.hit_rate"] = (
        1.0 - misses / accesses if accesses and misses is not None else None
    )

    return {
        "schema": SCHEMA,
        "label": label,
        "scale": BENCH_SCALE,
        "workloads": workloads,
        "totals": {
            "wall_seconds": total_wall,
            "golden_scene_wall_seconds": sum(
                w["wall_seconds"]
                for name, w in workloads.items()
                if name
                not in ("event_truc640_p4", "prefetch_pipeline", "vt_quake_block16_p4")
            ),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        },
        "obs": cache_totals,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "kernels": kernels.backend(),
        },
    }


def compare(committed: Dict, fresh: Dict, tolerance: float) -> "Tuple[list, list]":
    """Gate the fresh snapshot against a committed one.

    Returns ``(problems, notes)``.  Problems (non-empty == fail):
    simulated cycle counts must match exactly; wall seconds may regress
    at most ``tolerance`` (fractional) per workload and in total.
    Notes are informational — a workload absent from the committed
    baseline is expected right after the pinned set grows, and becomes
    gated once the next snapshot is committed.
    """
    problems = []
    notes = []
    committed_work = committed.get("workloads", {})
    for name, have in fresh.get("workloads", {}).items():
        want = committed_work.get(name)
        if want is None:
            notes.append(f"{name}: new workload, not in committed baseline (ungated)")
            continue
        if want.get("simulated_cycles") != have.get("simulated_cycles"):
            problems.append(
                f"{name}: simulated_cycles {have.get('simulated_cycles')!r} != "
                f"committed {want.get('simulated_cycles')!r} (determinism drift)"
            )
        budget = want["wall_seconds"] * (1.0 + tolerance)
        if have["wall_seconds"] > budget:
            problems.append(
                f"{name}: wall {have['wall_seconds']:.3f}s exceeds budget "
                f"{budget:.3f}s ({want['wall_seconds']:.3f}s committed "
                f"+ {tolerance:.0%} tolerance)"
            )
    committed_total = committed.get("totals", {}).get("wall_seconds")
    fresh_total = fresh.get("totals", {}).get("wall_seconds")
    if committed_total and fresh_total:
        if fresh_total > committed_total * (1.0 + tolerance):
            problems.append(
                f"total wall {fresh_total:.3f}s exceeds committed "
                f"{committed_total:.3f}s + {tolerance:.0%}"
            )
    return problems, notes


def attach_baseline(document: Dict, baseline: Dict) -> None:
    """Embed a prior snapshot and the resulting speedup table."""
    speedups = {}
    for name, work in document["workloads"].items():
        base = baseline.get("workloads", {}).get(name)
        if base and work["wall_seconds"] > 0:
            speedups[name] = base["wall_seconds"] / work["wall_seconds"]
    base_total = baseline.get("totals", {}).get("golden_scene_wall_seconds")
    now_total = document["totals"].get("golden_scene_wall_seconds")
    document["baseline"] = {
        "label": baseline.get("label"),
        "workloads": {
            name: {"wall_seconds": w["wall_seconds"]}
            for name, w in baseline.get("workloads", {}).items()
        },
        "totals": baseline.get("totals", {}),
    }
    document["speedup"] = {
        "per_workload": speedups,
        "golden_scenes": (base_total / now_total) if base_total and now_total else None,
        "geomean": (
            math.exp(sum(math.log(s) for s in speedups.values()) / len(speedups))
            if speedups
            else None
        ),
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        help="write the snapshot JSON here ('next' = BENCH_<latest+1>.json)",
    )
    parser.add_argument(
        "--check",
        help="committed snapshot to gate against ('latest' = highest BENCH_<n>.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.75,
        help="fractional wall-time regression budget (default 0.75)",
    )
    parser.add_argument(
        "--baseline",
        help="prior snapshot to embed as the speedup baseline ('latest' accepted)",
    )
    parser.add_argument("--label", default="", help="free-form snapshot label")
    args = parser.parse_args(argv)
    out_path = resolve_snapshot_arg(args.out) if args.out else None
    check_path = resolve_snapshot_arg(args.check) if args.check else None
    baseline_path = resolve_snapshot_arg(args.baseline) if args.baseline else None

    print(f"bench_gate: measuring pinned workloads at scale {BENCH_SCALE}", flush=True)
    document = measure(args.label)
    total = document["totals"]
    print(
        f"bench_gate: total {total['wall_seconds']:.2f}s "
        f"(golden scenes {total['golden_scene_wall_seconds']:.2f}s), "
        f"peak RSS {total['peak_rss_kb']} kB"
    )

    if baseline_path:
        attach_baseline(document, json.loads(baseline_path.read_text()))
        speedup = document["speedup"]["golden_scenes"]
        if speedup is not None:
            print(f"bench_gate: golden-scene speedup vs baseline: {speedup:.2f}x")

    if out_path:
        out_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"bench_gate: wrote {out_path}")

    if check_path:
        committed = json.loads(check_path.read_text())
        problems, notes = compare(committed, document, args.tolerance)
        for note in notes:
            print(f"bench_gate: note — {note}")
        if problems:
            print("bench_gate: FAIL")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print(f"bench_gate: PASS (within {args.tolerance:.0%} of {check_path.name})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
