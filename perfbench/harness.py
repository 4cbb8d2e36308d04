"""Runs one workload: set-up rounds, measured passes, checks, metrics.

End-to-end metrics come from an untraced run, every time taken at the
reference host speed (:mod:`perfbench.calibration`) and each operation
and pass counted at its fastest execution in the run; per-layer
metrics from a traced run (``trace=True``), in which the executions of
each distinct pass alternate untraced and traced, so the tracer's own
overhead is measured in the same process.
Every operation's deterministic output is compared with the pinned
reference (``reference.json``) and, within a run, with every other
execution of the same operation.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import calibration
from perfbench.tracer import TRACE_KEY, Tracer, merge, stage_deltas
from perfbench.workloads import (
    SCALES,
    Op,
    labeled_line_accesses,
    load_reference,
    make_workdir,
    make_workload,
    remove_workdir,
    scale_key,
)

ROOT = Path(__file__).resolve().parent.parent

#: Set-up is repeated this many times; ``setup_s`` takes the median.
SETUP_ROUNDS = 3

#: name -> unit of every end-to-end metric (untraced run).  Every time
#: is at the reference host speed.
END_TO_END = {
    "norm_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "norm_op_p50_ms": "ms",
    "norm_op_p90_ms": "ms",
}

#: name -> unit of every per-layer metric (traced run).
PER_LAYER = {
    "workloads.generate_s": "s",
    "workloads.triangles": "count",
    "raster.rasterize_s": "s",
    "raster.fragments": "count",
    "routing.plan_s": "s",
    "routing.routed_pairs": "count",
    "routing.assemble_s": "s",
    "texture.line_addresses_s": "s",
    "texture.lines": "count",
    "texture.translate_s": "s",
    "texture.paged_in": "count",
    "cache.lru_s": "s",
    "cache.replay_other_s": "s",
    "cache.streams": "count",
    "cache.line_accesses": "count",
    "cache.misses": "count",
    "cache.hit_rate": "fraction",
    "cache.mean_stream_len": "lines",
    "timing.fast_s": "s",
    "timing.interleave_s": "s",
    "timing.event_s": "s",
    "timing.event_triangles": "count",
    "timing.event_us_per_triangle": "us",
    "prefetch.pipeline_s": "s",
    "prefetch.fragments": "count",
    "pipeline.scene.hit_rate": "fraction",
    "pipeline.fragments.hit_rate": "fraction",
    "pipeline.routing.hit_rate": "fraction",
    "pipeline.replay.hit_rate": "fraction",
    "pipeline.routed.hit_rate": "fraction",
    "service.submit_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.execute_ms": "ms",
    "service.dedup_frac": "fraction",
    "service.result_hit_frac": "fraction",
    "service.retries": "count",
    "service.requeues": "count",
    "trace.overhead_frac": "fraction",
}

#: Per-layer time metric -> the span whose self time it reports.
LAYER_SPANS = {
    "routing.plan_s": "routing.plan",
    "routing.assemble_s": "routing.assemble",
    "texture.line_addresses_s": "texture.line_addresses",
    "texture.translate_s": "texture.translate",
    "cache.lru_s": "cache.lru",
    "cache.replay_other_s": "cache.replay",
    "timing.fast_s": "timing.fast",
    "timing.interleave_s": "timing.interleave",
    "timing.event_s": "timing.event",
    "prefetch.pipeline_s": "prefetch.pipeline",
}

#: Per-layer count metrics reported per measured pass.
PASS_COUNTS = (
    "routing.routed_pairs",
    "texture.lines",
    "texture.paged_in",
    "cache.streams",
    "cache.line_accesses",
    "cache.misses",
    "timing.event_triangles",
    "prefetch.fragments",
)

PIPELINE_STAGES = ("scene", "fragments", "routing", "replay", "routed")


@dataclass
class Pass:
    traced: bool
    #: Wall seconds, calibration samples before operations included.
    seconds: float
    ops: List[Op]
    #: Which of the workload's distinct passes this was.
    index: int = 0
    #: Calibration blocks taken before and after a pass of overlapping
    #: jobs (inline passes sample before each operation instead).
    kernel_s: List[float] = field(default_factory=list)
    #: The pass's work at the reference speed.
    norm_seconds: float = 0.0

    @property
    def work_seconds(self) -> float:
        """Wall seconds less the calibration samples taken inside."""
        return self.seconds - sum(op.kernel_s for op in self.ops)


def normalize(one: Pass) -> None:
    """Set the pass's and its operations' times at the reference speed.

    An inline pass sampled the kernel before every operation: each
    operation is scaled by the median of the five samples around it,
    the time between operations by the median of all of them.  A pass
    of overlapping jobs is scaled whole by the blocks around it.
    """
    if one.kernel_s:
        for op in one.ops:
            op.norm_seconds = calibration.at_reference(op.seconds, one.kernel_s)
        one.norm_seconds = calibration.at_reference(one.seconds, one.kernel_s)
        return
    samples = [op.kernel_s for op in one.ops]
    for index, op in enumerate(one.ops):
        nearby = samples[max(0, index - 2) : index + 3]
        op.norm_seconds = calibration.at_reference(op.seconds, nearby)
    between = one.work_seconds - sum(op.seconds for op in one.ops)
    one.norm_seconds = sum(op.norm_seconds for op in one.ops) + calibration.at_reference(
        between, samples
    )


@dataclass
class Report:
    """Everything one run measured and checked."""

    workload: str
    seed: int
    scale: float
    trace: bool
    #: The workload runs its operations one at a time in this process.
    inline: bool = True
    setup_s: float = 0.0
    #: Set-up wall seconds (imports plus the median round), uncalibrated.
    setup_wall_s: float = 0.0
    #: Every calibration sample of set-up.
    setup_kernel_s: List[float] = field(default_factory=list)
    passes: List[Pass] = field(default_factory=list)
    #: One line per failed operation, by name.
    failures: List[str] = field(default_factory=list)
    #: One line per failed consistency check of the benchmark itself.
    check_failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    setup_trace: Dict[str, Dict[str, float]] = field(default_factory=dict)
    measured_trace: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Per traced pass: (pass seconds, busiest thread's self seconds).
    busy: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def ops(self) -> List[Op]:
        return [op for one in self.passes for op in one.ops]

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.check_failures and self.attempted > 0

    def kernel_samples(self) -> List[float]:
        """Every calibration sample the run took."""
        return self.setup_kernel_s + [
            sample
            for one in self.passes
            for sample in one.kernel_s + [op.kernel_s for op in one.ops if op.kernel_s]
        ]

    def traced_passes(self) -> List[Pass]:
        return [one for one in self.passes if one.traced]

    def untraced_passes(self) -> List[Pass]:
        return [one for one in self.passes if not one.traced]


def check_ops(report: Report, reference: Dict[str, Any]) -> None:
    """Compare every op with the pinned reference and with its own
    earlier executions; record each mismatch as the op's error."""
    seen: Dict[str, Any] = {}
    for op in report.ops:
        if op.error is not None:
            report.failures.append(f"{op.name}: {op.error}")
            continue
        if op.name in seen and seen[op.name] != op.counters:
            op.error = f"output {op.counters!r} differs from an earlier run's {seen[op.name]!r}"
        elif op.name not in reference:
            op.error = "no pinned reference output"
        elif reference[op.name] != op.counters:
            op.error = f"output {op.counters!r} != pinned {reference[op.name]!r}"
        seen.setdefault(op.name, op.counters)
        if op.error is not None:
            report.failures.append(f"{op.name}: {op.error}")


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: Optional[float] = None,
    started: Optional[float] = None,
) -> Report:
    """Set up and measure one workload for about ``seconds`` seconds.

    ``started`` is the process's start mark (``time.perf_counter()``
    before the first import); set-up time counts from it.
    """
    from repro import pipeline

    scale = SCALES[name] if scale is None else scale
    entered = time.perf_counter()
    imports_s = entered - started if started is not None else 0.0
    report = Report(name, seed, scale, trace)
    tracer = Tracer() if trace else None
    scope = tracer.installed if tracer is not None else nullcontext
    workdir = make_workdir(ROOT)
    workload = make_workload(name, scale, seed, workdir, trace)
    report.inline = workload.inline
    try:
        rounds, norm_rounds = [], []
        for index in range(SETUP_ROUNDS):
            # Calibrate before each round; the first block also scales
            # the imports, which ran just before it.
            samples = calibration.block()
            report.setup_kernel_s += samples
            if index == 0:
                norm_imports_s = calibration.at_reference(imports_s, samples)
            round_started = time.perf_counter()
            workload.setup_round(scope, final=index == SETUP_ROUNDS - 1)
            rounds.append(time.perf_counter() - round_started)
            norm_rounds.append(calibration.at_reference(rounds[-1], samples))
        report.setup_s = norm_imports_s + statistics.median(norm_rounds)
        report.setup_wall_s = imports_s + statistics.median(rounds)
        if tracer is not None:
            report.setup_trace = tracer.take()

        phase_started = time.perf_counter()
        executions: Dict[int, int] = {}
        while True:
            index = workload.prepare_pass()
            # A traced run alternates untraced and traced executions of
            # each distinct pass, so the two compare pass for pass.
            traced = trace and executions.get(index, 0) % 2 == 1
            executions[index] = executions.get(index, 0) + 1
            stages_before = pipeline.stats()
            obs_before = labeled_line_accesses()
            # Inline operations calibrate one by one; overlapping jobs
            # are calibrated around the pass, while no worker is busy.
            samples = [] if workload.inline else calibration.block()
            pass_started = time.perf_counter()
            with scope() if traced else nullcontext():
                ops = workload.run_pass(traced)
            pass_seconds = time.perf_counter() - pass_started
            if not workload.inline:
                samples += calibration.block()
            one = Pass(traced, pass_seconds, ops, index, samples)
            normalize(one)
            report.passes.append(one)
            _check_obs_sum(report, workload, ops, labeled_line_accesses() - obs_before)
            if traced:
                _collect_trace(report, tracer, workload, ops, one.work_seconds, stages_before)
            elapsed = time.perf_counter() - phase_started
            if elapsed >= seconds and (report.traced_passes() or not trace):
                break
    finally:
        workload.close()
        remove_workdir(workdir)

    check_ops(report, load_reference().get(name, {}).get(scale_key(scale), {}))
    if trace:
        report.metrics = layer_metrics(report)
        for pass_seconds, busiest in report.busy:
            if busiest > pass_seconds:
                report.check_failures.append(
                    f"layer self times of one thread ({busiest:.4f} s) exceed "
                    f"the pass wall time ({pass_seconds:.4f} s)"
                )
    else:
        report.metrics = end_to_end_metrics(report)
    return report


def _check_obs_sum(report: Report, workload: Any, ops: List[Op], published: int) -> None:
    """The registry's labeled ``cache.line_accesses`` must add up to the
    line accesses of the pass's machine points."""
    if any(op.error is not None for op in ops):
        return
    expected = workload.expected_line_accesses(ops)
    if expected is not None and expected != published:
        report.check_failures.append(
            f"obs registry cache.line_accesses sum {published} != {expected} "
            "summed over the pass's machine points"
        )


def _collect_trace(
    report: Report,
    tracer: Tracer,
    workload: Any,
    ops: List[Op],
    pass_seconds: float,
    stages_before: Dict[str, Dict[str, float]],
) -> None:
    """Fold one traced pass into the report's measured trace."""
    from repro import pipeline

    summary = tracer.take()
    summary["pipeline"] = stage_deltas(stages_before, pipeline.stats())
    service: Dict[str, float] = {}
    executed = set()
    for op in ops:
        result = op.info.get("result") or {}
        job = op.info.get("job")
        if op.info.get("cached") or job in executed or TRACE_KEY not in result:
            continue
        executed.add(job)
        merge(summary, result[TRACE_KEY])
        service["jobs_executed"] = service.get("jobs_executed", 0) + 1
        service["queue_wait_s"] = service.get("queue_wait_s", 0.0) + op.info["queue_wait_s"]
        service["execute_s"] = service.get("execute_s", 0.0) + op.info["execute_s"]
    for counter, amount in getattr(workload, "pass_counters", {}).items():
        service[counter] = service.get(counter, 0) + amount
    summary["service"] = service
    busiest = max(summary["busy_s"].values(), default=0.0)
    report.busy.append((pass_seconds, busiest))
    merge(report.measured_trace, summary)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(report: Report) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    ``workloads.*`` and ``raster.*`` are per set-up round (that is when
    scenes are built); every other layer is per traced measured pass.
    """
    setup = report.setup_trace
    measured = report.measured_trace
    passes = len(report.traced_passes())
    self_s = measured.get("self_s", {})
    counts = measured.get("counts", {})
    metrics: Dict[str, float] = {
        "workloads.generate_s": setup["self_s"].get("workloads.generate", 0.0) / SETUP_ROUNDS,
        "workloads.triangles": setup["counts"].get("workloads.triangles", 0) / SETUP_ROUNDS,
        "raster.rasterize_s": setup["self_s"].get("raster.rasterize", 0.0) / SETUP_ROUNDS,
        "raster.fragments": setup["counts"].get("raster.fragments", 0) / SETUP_ROUNDS,
    }
    for metric, span in LAYER_SPANS.items():
        metrics[metric] = self_s.get(span, 0.0) / passes
    for metric in PASS_COUNTS:
        metrics[metric] = counts.get(metric, 0) / passes
    lines = counts.get("cache.line_accesses", 0)
    metrics["cache.hit_rate"] = 1.0 - _ratio(counts.get("cache.misses", 0), lines) if lines else 0.0
    metrics["cache.mean_stream_len"] = _ratio(lines, counts.get("cache.streams", 0))
    metrics["timing.event_us_per_triangle"] = 1e6 * _ratio(
        self_s.get("timing.event", 0.0), counts.get("timing.event_triangles", 0)
    )
    stages = measured.get("pipeline", {})
    for stage in PIPELINE_STAGES:
        metrics[f"pipeline.{stage}.hit_rate"] = _ratio(
            stages.get(f"{stage}.hits", 0), stages.get(f"{stage}.calls", 0)
        )
    service = measured.get("service", {})
    calls = measured.get("calls", {})
    total_s = measured.get("total_s", {})
    executed = service.get("jobs_executed", 0)
    metrics["service.submit_ms"] = 1e3 * _ratio(
        total_s.get("service.submit", 0.0), calls.get("service.submit", 0)
    )
    metrics["service.queue_wait_ms"] = 1e3 * _ratio(service.get("queue_wait_s", 0.0), executed)
    metrics["service.execute_ms"] = 1e3 * _ratio(service.get("execute_s", 0.0), executed)
    submitted = service.get("submitted", 0)
    metrics["service.dedup_frac"] = _ratio(service.get("deduped", 0), submitted)
    metrics["service.result_hit_frac"] = _ratio(service.get("cache_hits", 0), submitted)
    metrics["service.retries"] = service.get("retries", 0) / passes
    metrics["service.requeues"] = service.get("requeues", 0) / passes
    traced = best_pass_seconds(report.traced_passes())
    untraced = best_pass_seconds(report.untraced_passes())
    both = traced.keys() & untraced.keys()
    metrics["trace.overhead_frac"] = (
        sum(traced[index] for index in both) / sum(untraced[index] for index in both) - 1.0
    )
    return metrics


def percentile(values: List[float], fraction: float) -> float:
    """The ``fraction`` quantile (exclusive method, as ``statistics``)."""
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100)
    return cuts[round(fraction * 100) - 1]


def peak_rss_mb() -> Tuple[float, float]:
    """Peak RSS of this process and of its largest ended child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def best_op_seconds(report: Report) -> Dict[str, float]:
    """Each operation's fastest execution in the run at the reference
    speed, by slot."""
    best: Dict[str, float] = {}
    for op in report.ops:
        slot = op.slot or op.name
        best[slot] = min(op.norm_seconds, best.get(slot, op.norm_seconds))
    return best


def best_pass_seconds(passes: List[Pass]) -> Dict[int, float]:
    """Each distinct pass's fastest execution among ``passes`` at the
    reference speed, by index."""
    best: Dict[int, float] = {}
    for one in passes:
        best[one.index] = min(one.norm_seconds, best.get(one.index, one.norm_seconds))
    return best


def end_to_end_metrics(report: Report) -> Dict[str, float]:
    """The run's end-to-end metrics, each operation and each pass
    counted with its fastest execution in the run: calibration takes
    out the host's drift, the fastest execution its short bursts."""
    latencies = list(best_op_seconds(report).values())
    if report.inline:
        # One pass is the operations one after another, plus the time
        # between them.
        wall_s = sum(latencies) + min(
            one.norm_seconds - sum(op.norm_seconds for op in one.ops) for one in report.passes
        )
    else:
        # The service mix's jobs overlap: take each distinct pass whole.
        wall_s = statistics.mean(best_pass_seconds(report.passes).values())
    return {
        "norm_wall_s": wall_s,
        "setup_s": report.setup_s,
        "peak_rss_mb": max(peak_rss_mb()),
        "norm_op_p50_ms": 1e3 * statistics.median(latencies),
        "norm_op_p90_ms": 1e3 * percentile(latencies, 0.9),
    }


def layer_table(report: Report) -> List[str]:
    """Printable per-span table: self seconds per set-up round and per
    traced pass, calls per pass, and the share of the traced pass."""
    passes = len(report.traced_passes())
    wall = statistics.mean(one.work_seconds for one in report.traced_passes())
    setup = report.setup_trace.get("self_s", {})
    measured = report.measured_trace.get("self_s", {})
    calls = report.measured_trace.get("calls", {})
    names = sorted(set(setup) | set(measured), key=lambda n: -measured.get(n, 0.0))
    lines = [
        f"  {'span':<24} {'setup s/round':>14} {'self s/pass':>12} "
        f"{'calls/pass':>11} {'% of pass':>10}"
    ]
    for name in names:
        per_pass = measured.get(name, 0.0) / passes
        lines.append(
            f"  {name:<24} {setup.get(name, 0.0) / SETUP_ROUNDS:>14.4f} {per_pass:>12.4f} "
            f"{calls.get(name, 0) / passes:>11.1f} {100 * per_pass / wall:>9.1f}%"
        )
    lines.append(
        f"  mean traced pass {wall:.4f} s over {passes} traced passes; worker-process "
        "layers run in parallel, so their shares can add past 100%"
    )
    return lines
