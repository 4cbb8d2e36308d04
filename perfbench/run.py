#!/usr/bin/env python3
"""Run the repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig7-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, both runs

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer metrics; leaving ``--trace`` out (or naming ``all``
workloads) runs each requested workload both ways in child processes.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOAD_NAMES  # noqa: E402

#: Environment variables that would change what the program does.
PROGRAM_ENV = ("REPRO_WORKERS", "REPRO_ARTIFACT_DIR", "REPRO_ARTIFACT_ENTRIES", "REPRO_SCALE")

#: A child run is stopped after this many seconds beyond its budget.
CHILD_GRACE_S = 170


def environment(kernel_samples) -> str:
    import numpy as np

    from perfbench.calibration import REFERENCE_S

    quartiles = [1e3 * cut for cut in statistics.quantiles(kernel_samples, n=4)]
    return (
        f"environment: python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {os.cpu_count()}, cc {'present' if shutil.which('cc') else 'absent'}, "
        f"calibration kernel {quartiles[1]:.3f} ms median "
        f"(quartiles {quartiles[0]:.3f}-{quartiles[2]:.3f}, {len(kernel_samples)} samples; "
        f"reference speed {1e3 * REFERENCE_S:g} ms)"
    )


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        # The program's modules load here, inside the set-up time.
        import repro.analysis.experiments  # noqa: F401
        import repro.service.scheduler  # noqa: F401
        import repro.workloads.vt  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from perfbench.harness import (
        END_TO_END,
        PER_LAYER,
        best_op_seconds,
        layer_table,
        peak_rss_mb,
        run_workload,
    )

    report = run_workload(workload, seed, seconds, trace, started=STARTED)
    untraced = len(report.untraced_passes())
    print(
        f"perfbench {workload}: seed {seed}, scale {report.scale:g}, "
        f"{'traced' if trace else 'untraced'} run, {len(report.passes)} passes "
        f"({untraced} untraced, {len(report.passes) - untraced} traced)"
    )
    print("pass wall seconds: " + " ".join(
        f"{one.work_seconds:.3f}{'*' if one.traced else ''}" for one in report.passes
    ) + ("  (* traced)" if trace else ""))
    print("pass seconds at the reference speed: " + " ".join(
        f"{one.norm_seconds:.3f}{'*' if one.traced else ''}" for one in report.passes
    ))
    failed_frac = report.failed / report.attempted if report.attempted else 1.0
    print(
        f"operations: {report.attempted} attempted, {report.failed} failed "
        f"(failed_frac {failed_frac:.4f})"
    )
    for failure in report.failures:
        print(f"  FAILED {failure}")
    for failure in report.check_failures:
        print(f"  CHECK FAILED {failure}")
    units = PER_LAYER if trace else END_TO_END
    if trace:
        print("per-layer spans (traced passes):")
        for line in layer_table(report):
            print(line)
        print("per-layer metrics:")
    else:
        print("end-to-end metrics:")
    for name, unit in units.items():
        print(f"  {name:<30} {report.metrics[name]:>14.6g} {unit}")
    if not trace:
        print(
            f"  (op percentiles over {len(best_op_seconds(report))} distinct operations, "
            f"each at its fastest of {report.attempted} executions in {len(report.passes)} passes)"
        )
        median_pass = statistics.median(one.work_seconds for one in report.passes)
        print(
            f"  (uncalibrated wall time: median pass {median_pass:.4f} s, "
            f"set-up {report.setup_wall_s:.4f} s)"
        )
    own_mb, worker_mb = peak_rss_mb()
    if not trace and worker_mb:
        print(f"  (peak RSS: benchmark process {own_mb:.1f} MB, largest worker {worker_mb:.1f} MB)")
    print(environment(report.kernel_samples()))
    document = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(document), flush=True)
    return 0


def run_children(workloads, seed: int, seconds: float, traces) -> int:
    """Run each (workload, trace) in its own process; print their reports."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        for trace in traces:
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", f"{seconds:g}",
                "--trace", str(trace),
            ]
            child = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, timeout=seconds + CHILD_GRACE_S
            )
            lines = child.stdout.splitlines()
            if child.returncode != 0 or not lines:
                print(f"perfbench: {workload} (trace {trace}) exited {child.returncode}")
                return child.returncode or 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}:{name}"] = metric
            print()
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload == "all" or args.trace is None:
        workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        traces = (0, 1) if args.trace is None else (args.trace,)
        return run_children(workloads, args.seed, args.seconds, traces)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
