#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``, the pinned outputs.

Runs every operation of every workload once, inline, at the benchmark
scale and at the self-test scale, and records its deterministic
output: per machine point the simulated cycles, fragments, line
accesses and misses; per prefetch depth the slowdown and both cycle
counts; per job of the service mix the digest of its ``metrics`` dict.
Re-pin only when a change is meant to alter simulated results::

    python3 perfbench/pin.py
"""

import json
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    REFERENCE_PATH,
    SCALES,
    SMOKE_SCALE,
    FifoTiming,
    Fig7Sweep,
    job_space,
    metrics_digest,
    scale_key,
)


def pin_sweep(workload) -> dict:
    workload.setup_round(nullcontext, final=True)
    workload.prepare_pass()
    pinned = {}
    for op in workload.run_pass(traced=False):
        if op.error is not None:
            raise SystemExit(f"pin: {workload.name} {op.name} failed: {op.error}")
        pinned[op.name] = op.counters
    workload.close()
    return pinned


def pin_jobs(scale: float) -> dict:
    from repro.service.jobs import execute_payload

    return {
        name: metrics_digest(execute_payload(payload)["metrics"])
        for name, payload in job_space(scale)
    }


def main() -> int:
    pinners = {
        Fig7Sweep.name: lambda scale: pin_sweep(Fig7Sweep(scale, 0)),
        FifoTiming.name: lambda scale: pin_sweep(FifoTiming(scale, 0)),
        "service-mix": pin_jobs,
    }
    reference: dict = {}
    for name, pin in pinners.items():
        for scale in sorted({SCALES[name], SMOKE_SCALE}):
            reference.setdefault(name, {})[scale_key(scale)] = pin(scale)
            print(f"pin: {name} at scale {scale:g} done", flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"pin: wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
