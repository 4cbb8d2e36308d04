"""Self-tests of the benchmark, at the small self-test scale.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import END_TO_END, PER_LAYER, run_workload  # noqa: E402
from perfbench.tracer import HOOKS, resolve  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    REPEAT_EVERY,
    SMOKE_SCALE,
    WORKLOAD_NAMES,
    FifoTiming,
    Fig7Sweep,
    SERVICE_PROCESSORS,
    SERVICE_SCENES,
    ServiceMix,
    job_passes,
    job_space,
    labeled_line_accesses,
    load_reference,
    scale_key,
)

_reports: dict = {}

#: Every traced target's object before any test has traced anything.
ORIGINALS = {hook.target: vars(resolve(hook.target)[0])[resolve(hook.target)[1]] for hook in HOOKS}


def smoke(workload: str, trace: bool):
    """One shortest run of ``workload`` at the self-test scale (cached)."""
    key = (workload, trace)
    if key not in _reports:
        _reports[key] = run_workload(workload, seed=3, seconds=0, trace=trace, scale=SMOKE_SCALE)
    return _reports[key]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_smoke_run_has_no_failed_operation(workload, trace):
    report = smoke(workload, trace)
    assert report.attempted > 0
    assert report.failures == []
    assert report.failed == 0
    assert report.check_failures == []
    assert report.correct
    assert set(report.metrics) == set(PER_LAYER if trace else END_TO_END)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_reproduces_untraced_counters(workload):
    pinned = load_reference()[workload][scale_key(SMOKE_SCALE)]
    untraced = {op.name: op.counters for op in smoke(workload, False).ops}
    traced = smoke(workload, True)
    traced_ops = [op for one in traced.traced_passes() for op in one.ops]
    assert traced_ops
    for op in traced_ops:
        assert op.counters == pinned[op.name], op.name
        assert op.counters == untraced.get(op.name, op.counters), op.name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_layer_self_times_fit_in_the_pass(workload):
    report = smoke(workload, True)
    assert report.busy, "no traced pass"
    for pass_seconds, busiest_thread in report.busy:
        assert 0 < busiest_thread <= pass_seconds
    if workload != "service-mix":
        # One thread does all the work inline: the layers' self times
        # sum to at most the traced passes' wall time.
        total_self = sum(report.measured_trace["self_s"].values())
        assert total_self <= sum(one.work_seconds for one in report.traced_passes())


def test_dominant_layers_match_the_workload_design():
    fig7 = smoke("fig7-sweep", True).metrics
    layer_times = {name: value for name, value in fig7.items() if name.endswith("_s")}
    assert max(layer_times, key=layer_times.get) == "cache.lru_s"
    fifo = smoke("fifo-timing", True)
    wall = sum(one.work_seconds for one in fifo.traced_passes()) / len(fifo.traced_passes())
    assert fifo.metrics["cache.lru_s"] < 0.1 * wall
    assert fifo.metrics["timing.event_s"] > fifo.metrics["cache.lru_s"]
    service = smoke("service-mix", True).metrics
    assert service["service.queue_wait_ms"] > 0
    assert service["service.execute_ms"] > 0
    assert service["texture.translate_s"] > 0


def test_tracer_restores_every_wrapped_object():
    for workload in WORKLOAD_NAMES:
        smoke(workload, True)
    for target, original in ORIGINALS.items():
        owner, attribute = resolve(target)
        assert vars(owner)[attribute] is original, target


@pytest.mark.parametrize("workload_class", [Fig7Sweep, FifoTiming])
def test_obs_labeled_sum_matches_point_line_accesses(workload_class):
    from contextlib import nullcontext

    workload = workload_class(SMOKE_SCALE, seed=1)
    workload.setup_round(nullcontext, final=True)
    workload.prepare_pass()
    before = labeled_line_accesses()
    ops = workload.run_pass(traced=False)
    published = labeled_line_accesses() - before
    assert published > 0
    assert published == workload.expected_line_accesses(ops)


def test_job_mix_is_a_function_of_the_seed():
    assert job_passes(7, SMOKE_SCALE) == job_passes(7, SMOKE_SCALE)
    assert job_passes(7, SMOKE_SCALE) != job_passes(8, SMOKE_SCALE)
    passes = job_passes(7, SMOKE_SCALE)
    submissions = [name for one in passes for name, _payload in one]
    # Every distinct job once, plus a fixed share of exact repeats of
    # earlier submissions.
    assert sorted(set(submissions)) == sorted(name for name, _payload in job_space(SMOKE_SCALE))
    for index, name in enumerate(submissions):
        if index % REPEAT_EVERY == REPEAT_EVERY - 1:
            assert name in submissions[:index]
        else:
            assert name not in submissions[:index]
    # Each pass runs one job per (scene, processors) pair and one vt job.
    seen = set()
    for one in passes:
        fresh = []
        for name, payload in one:
            if name not in seen:
                fresh.append(payload)
                seen.add(name)
        pairs = [(p["scene"], p["processors"]) for p in fresh if "scene" in p]
        assert len(pairs) == len(set(pairs)) == len(SERVICE_SCENES) * len(SERVICE_PROCESSORS)
        assert sum("vt_scene" in p for p in fresh) == 1


def test_seed_does_not_change_the_sweep_grids():
    assert list(Fig7Sweep(SMOKE_SCALE, 1).points()) == list(Fig7Sweep(SMOKE_SCALE, 2).points())
    first = run_workload("fifo-timing", seed=1, seconds=0, trace=False, scale=SMOKE_SCALE)
    second = smoke("fifo-timing", False)
    assert [(op.name, op.counters) for op in first.ops] == [
        (op.name, op.counters) for op in second.ops
    ]


def test_benchmark_json_names_every_metric():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == PER_LAYER
    assert [w["name"] for w in document["workloads"]] == list(WORKLOAD_NAMES)


def test_prefetch_ops_match_the_validation_experiment():
    # fifo-timing rebuilds the prefetch experiment's miss stream itself
    # so it can time one op per depth; its slowdowns must stay those the
    # experiment prints.
    from repro.analysis.experiments.validation import validation_prefetch

    lines = validation_prefetch(SMOKE_SCALE / 2).splitlines()
    rule = next(index for index, line in enumerate(lines) if line.startswith("---"))
    printed = {int(depth): float(slowdown) for depth, slowdown in map(str.split, lines[rule + 1 :])}
    measured = {
        int(op.name.split("/d")[1]): round(op.counters[0], 3)
        for op in smoke("fifo-timing", False).ops
        if op.name.startswith("prefetch/d")
    }
    assert measured == printed


def test_service_mix_runs_its_jobs_again_in_a_new_round(tmp_path):
    from contextlib import nullcontext

    workload = ServiceMix(SMOKE_SCALE, seed=5, workdir=tmp_path, traced_run=False)
    workload.mix = workload.mix[:1]  # a round of one pass
    try:
        workload.setup_round(nullcontext, final=True)
        rounds = []
        for _ in range(2):
            workload.prepare_pass()
            rounds.append({op.slot: op for op in workload.run_pass(traced=False)})
    finally:
        workload.close()
    first, second = rounds
    assert set(first) == set(second)
    first_submission = {}
    for position, (name, _payload) in enumerate(workload.mix[0]):
        first_submission.setdefault(name, f"0/{position}")
    for slot, op in second.items():
        assert op.error is None
        assert (op.name, op.counters) == (first[slot].name, first[slot].counters)
        if first_submission[op.name] == slot:
            assert not op.info["cached"], f"{slot} hit the previous round's result"


def test_end_to_end_times_count_each_execution_at_its_fastest():
    from perfbench.calibration import REFERENCE_S
    from perfbench.harness import Pass, Report, end_to_end_metrics, normalize
    from perfbench.workloads import Op

    ref = REFERENCE_S
    inline = Report("fig7-sweep", 1, SMOKE_SCALE, False)
    inline.passes = [
        # Wall seconds include the two kernel samples (one per op).
        Pass(False, 0.40 + 2 * ref, [Op("a", 0.10, kernel_s=ref), Op("b", 0.25, kernel_s=ref)]),
        Pass(False, 0.35 + 2 * ref, [Op("a", 0.20, kernel_s=ref), Op("b", 0.14, kernel_s=ref)]),
    ]
    for one in inline.passes:
        normalize(one)
    metrics = end_to_end_metrics(inline)
    # Fastest a and b, plus the smallest time between operations.
    assert metrics["norm_wall_s"] == pytest.approx(0.10 + 0.14 + 0.01)
    assert metrics["norm_op_p50_ms"] == pytest.approx(120.0)

    service = Report("service-mix", 1, SMOKE_SCALE, False, inline=False)
    service.passes = [
        Pass(False, 2.0, [Op("x", 1.0, slot="0/0")], index=0, kernel_s=[ref]),
        Pass(False, 1.0, [Op("y", 0.8, slot="1/0")], index=1, kernel_s=[ref]),
        Pass(False, 1.5, [Op("x", 0.5, slot="0/0")], index=0, kernel_s=[ref]),
    ]
    for one in service.passes:
        normalize(one)
    metrics = end_to_end_metrics(service)
    assert metrics["norm_wall_s"] == pytest.approx((1.5 + 1.0) / 2)
    assert metrics["norm_op_p50_ms"] == pytest.approx(650.0)


def test_times_at_the_reference_speed_cancel_host_speed():
    from perfbench.calibration import REFERENCE_S
    from perfbench.harness import Pass, normalize
    from perfbench.workloads import Op

    def inline_pass(slowdown: float) -> Pass:
        ops = [
            Op(name, seconds * slowdown, kernel_s=REFERENCE_S * slowdown)
            for name, seconds in (("a", 0.1), ("b", 0.3), ("c", 0.2))
        ]
        return Pass(False, (0.6 + 0.05 + 3 * REFERENCE_S) * slowdown, ops)

    normal, slow = inline_pass(1.0), inline_pass(1.6)
    for one in (normal, slow):
        normalize(one)
    assert slow.norm_seconds == pytest.approx(normal.norm_seconds)
    assert normal.norm_seconds == pytest.approx(0.65)
    assert [op.norm_seconds for op in slow.ops] == pytest.approx([0.1, 0.3, 0.2])
