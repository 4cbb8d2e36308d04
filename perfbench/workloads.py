"""The benchmark's three workloads.

Each workload builds its inputs in a set-up round, then runs measured
passes of a fixed amount of work.  Every pass returns one :class:`Op`
per operation — a machine point, a prefetch depth or a service job —
with its host seconds and the deterministic counters it produced, so
the harness can time it and check it against the pinned reference.

* ``fig7-sweep`` — the Figure-7 grid on ``massive32_1255``: both
  families x {4, 16, 64} processors plus the 1-processor baseline,
  16 KB LRU, 1x bus, never-full FIFO.  Many short per-node streams:
  LRU replay dominates.
* ``fifo-timing`` — the Figure-8 buffer sweep on ``truc640`` with the
  perfect cache (no replay at all) plus the prefetch latency-hiding
  curve.  A cache change should not move it; a timing change should.
* ``service-mix`` — a closed loop of 2 clients against an in-process
  :class:`~repro.service.scheduler.Scheduler` with 2 worker processes,
  over a seeded mix of single-point ``simulate`` jobs, ``vt`` jobs and
  exact repeats, in passes of equal cost profile.  Long per-node
  streams, dedup / result-store hits and the split of job latency into
  queue wait and execution.

Only ``service-mix`` depends on the seed; the sweep grids are fixed.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import shutil
import tempfile
import threading
import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from perfbench.calibration import kernel_seconds

#: Scene scale of each workload at its benchmark size.
SCALES = {"fig7-sweep": 0.0625, "fifo-timing": 0.125, "service-mix": 0.125}
#: Scene scale the self-tests run every workload at.
SMOKE_SCALE = 0.03125

REFERENCE_PATH = Path(__file__).with_name("reference.json")

Scope = Callable[[], AbstractContextManager]


@dataclass
class Op:
    """One measured operation and what it produced."""

    name: str
    seconds: float
    #: JSON-able deterministic output, compared with the pinned value.
    counters: Any = None
    error: Optional[str] = None
    #: The operation's place in the workload's work, the same each time
    #: the work repeats; empty means the name identifies it.
    slot: str = ""
    #: Workload-specific observations (job stamps, worker traces).
    info: Dict[str, Any] = field(default_factory=dict)
    #: Calibration kernel seconds measured right before the operation
    #: (inline workloads; 0 where the pass is calibrated as a whole).
    kernel_s: float = 0.0
    #: ``seconds`` at the reference speed, set once the pass has run.
    norm_seconds: float = 0.0


def timed_op(name: str, compute: Callable[[], Any]) -> Op:
    """Calibrate, then run one operation; an exception is recorded,
    not raised."""
    kernel_s = kernel_seconds()
    started = time.perf_counter()
    try:
        counters = compute()
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        error = f"{type(exc).__name__}: {exc}"
        return Op(name, time.perf_counter() - started, error=error, kernel_s=kernel_s)
    return Op(name, time.perf_counter() - started, counters=counters, kernel_s=kernel_s)


def canonical(value: Any) -> Any:
    """The JSON round trip of ``value`` (tuples -> lists, exact floats)."""
    return json.loads(json.dumps(value))


def machine_counters(result: Any) -> List[float]:
    """Pinned output of a machine point: cycles, fragments, lines, misses."""
    cache = result.cache
    return canonical([result.cycles, cache.fragments, cache.line_accesses, cache.misses])


def labeled_line_accesses() -> int:
    """Sum of the ``scene=``-labeled ``cache.line_accesses`` counters.

    ``simulate_machine`` publishes cache totals only on labeled
    children, so the unlabeled parent a snapshot reader would look at
    stays zero; summing the children recovers the real total.
    """
    from repro import obs

    counters = obs.registry().snapshot()["counters"]
    return int(
        sum(value for name, value in counters.items() if name.startswith("cache.line_accesses{"))
    )


# -- fig7-sweep -------------------------------------------------------------


class Fig7Sweep:
    """The Figure-7 speedup grid, every point cold below the rasterizer."""

    name = "fig7-sweep"
    #: Runs its operations one at a time in this process.
    inline = True
    scene_name = "massive32_1255"

    def __init__(self, scale: float, seed: int) -> None:
        self.scale = scale
        self.scene: Any = None

    def setup_round(self, scope: Scope, final: bool) -> None:
        from repro import pipeline
        from repro.workloads import scenes

        # Drop the previous round's scene first: one set of scenes is
        # alive at a time, as in a single set-up.
        self.scene = None
        pipeline.store().clear()
        with scope():
            scene = scenes.build_scene(self.scene_name, self.scale)
            scene.fragments()
        self.scene = scene

    def points(self) -> Iterator[Tuple[str, str, int, int]]:
        from repro.analysis.experiments.common import PROCESSOR_COUNTS, family_sizes
        from repro.analysis.experiments.fig7 import FAMILIES

        for family in FAMILIES:
            for size in family_sizes(family):
                for processors in PROCESSOR_COUNTS:
                    yield f"{family}{size}/p{processors}", family, size, processors

    def prepare_pass(self) -> int:
        """Reset for the next pass; returns its index (every pass is
        the same work)."""
        from repro import pipeline

        # Routing and replay start cold every pass; the Scene object
        # keeps its rasterization, so fragments stay warm.
        pipeline.store().clear()
        return 0

    def run_pass(self, traced: bool) -> List[Op]:
        from repro.analysis.load_balance import make_distribution
        from repro.core import machine
        from repro.core.config import MachineConfig
        from repro.distribution.single import SingleProcessor

        scene = self.scene
        baseline: Dict[str, float] = {}

        def run_baseline() -> List[float]:
            config = MachineConfig(distribution=SingleProcessor(), cache="lru", bus_ratio=1.0)
            result = machine.simulate_machine(scene, config)
            baseline["cycles"] = result.cycles
            return machine_counters(result)

        ops = [timed_op("baseline", run_baseline)]
        for name, family, size, processors in self.points():

            def run_point(family: str = family, size: int = size, processors: int = processors):
                config = MachineConfig(
                    distribution=make_distribution(family, processors, size),
                    cache="lru",
                    bus_ratio=1.0,
                )
                result = machine.simulate_machine(
                    scene, config, baseline_cycles=baseline.get("cycles")
                )
                return machine_counters(result)

            ops.append(timed_op(name, run_point))
        return ops

    def expected_line_accesses(self, ops: List[Op]) -> int:
        return sum(op.counters[2] for op in ops)

    def close(self) -> None:
        self.scene = None


# -- fifo-timing ------------------------------------------------------------

#: Pixel-FIFO depths and memory latency of the prefetch validation.
PREFETCH_DEPTHS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
PREFETCH_LATENCY = 50.0
PREFETCH_BUS = 2.0


def prefetch_miss_stream(scene: Any) -> Any:
    """Per-fragment miss counts of the ``prefetch`` validation experiment.

    The same steps as ``repro.analysis.experiments.validation.
    validation_prefetch``: one LRU replay of the whole frame, per-
    triangle miss rates spread over the triangle's fragments with the
    experiment's fixed generator seed.
    """
    import numpy as np

    from repro.cache.models import make_cache_model
    from repro.cache.stream import replay_fragments
    from repro.texture.filtering import TrilinearFilter

    fragments = scene.fragments()
    tex_filter = TrilinearFilter(scene.memory_layout())
    run = replay_fragments(fragments, tex_filter, make_cache_model("lru"))
    per_triangle = run.texels_by_triangle // 16
    pixel_counts = fragments.triangle_pixel_counts()
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(pixel_counts > 0, per_triangle / np.maximum(pixel_counts, 1), 0.0)
    rng = np.random.default_rng(0)
    return (rng.random(len(fragments)) < rate[fragments.triangle]).astype(np.int64)


class FifoTiming:
    """Figure 8 with the perfect cache, plus the prefetch pipeline curve.

    Neither part replays a cache per node: the perfect cache skips the
    replay and the prefetch curve replays one single-node stream.  The
    prefetch scene runs at half the Figure-8 scale so the finite-FIFO
    event path stays the larger share of the pass.
    """

    name = "fifo-timing"
    inline = True
    fig8_scene = "truc640"
    prefetch_scene = "massive32_1255"

    def __init__(self, scale: float, seed: int) -> None:
        self.scale = scale
        self.scenes: Dict[str, Any] = {}

    def setup_round(self, scope: Scope, final: bool) -> None:
        from repro import pipeline
        from repro.workloads import scenes

        self.scenes = {}
        pipeline.store().clear()
        with scope():
            fig8 = scenes.build_scene(self.fig8_scene, self.scale)
            fig8.fragments()
            prefetch = scenes.build_scene(self.prefetch_scene, self.scale / 2)
            prefetch.fragments()
        self.scenes = {"fig8": fig8, "prefetch": prefetch}

    def prepare_pass(self) -> int:
        from repro import pipeline

        pipeline.store().clear()
        return 0

    def expected_line_accesses(self, ops: List[Op]) -> int:
        return sum(op.counters[2] for op in ops if op.name.startswith("fig8/"))

    def run_pass(self, traced: bool) -> List[Op]:
        from repro.analysis.experiments.common import BUFFER_SIZES, FIG8_WIDTHS
        from repro.analysis.load_balance import make_distribution
        from repro.core import machine, prefetch
        from repro.core.config import MachineConfig
        from repro.distribution.single import SingleProcessor

        scene = self.scenes["fig8"]
        baseline: Dict[str, float] = {}

        def run_baseline() -> List[float]:
            config = MachineConfig(
                distribution=SingleProcessor(), cache="perfect", bus_ratio=2.0
            )
            result = machine.simulate_machine(scene, config)
            baseline["cycles"] = result.cycles
            return machine_counters(result)

        ops = [timed_op("fig8/baseline", run_baseline)]
        for width in FIG8_WIDTHS:
            distribution = make_distribution("block", 64, width)
            for buffer_size in BUFFER_SIZES:

                def run_point(distribution: Any = distribution, buffer_size: int = buffer_size):
                    config = MachineConfig(
                        distribution=distribution,
                        cache="perfect",
                        bus_ratio=2.0,
                        fifo_capacity=buffer_size,
                    )
                    result = machine.simulate_machine(
                        scene, config, baseline_cycles=baseline.get("cycles")
                    )
                    return machine_counters(result)

                ops.append(timed_op(f"fig8/block{width}/b{buffer_size}", run_point))

        misses = prefetch_miss_stream(self.scenes["prefetch"])
        for depth in PREFETCH_DEPTHS:

            def run_depth(depth: int = depth) -> List[float]:
                result = prefetch.simulate_prefetch_pipeline(
                    misses, depth, PREFETCH_LATENCY, bus_ratio=PREFETCH_BUS
                )
                return canonical([result.slowdown, result.cycles, result.zero_latency_cycles])

            ops.append(timed_op(f"prefetch/d{depth}", run_depth))
        return ops

    def close(self) -> None:
        self.scenes = {}


# -- service-mix ------------------------------------------------------------

SERVICE_SCENES = ("truc640", "quake", "blowout775", "massive32_1255")
SERVICE_SIZES = {"block": (4, 8, 16, 32, 64, 128), "sli": (1, 2, 4, 8, 16, 32)}
SERVICE_PROCESSORS = (1, 2, 4, 8, 16)
VT_PAGES = (16, 64)
VT_RESIDENCY = (0.25, 0.5, 0.75)
VT_MACHINES = (("block", 16, 4), ("sli", 2, 16))
VT_FRAMES = 2
#: Closed-loop clients (= worker processes = the host's 2 cores).
CLIENTS = 2
WORKERS = 2
#: Every REPEAT_EVERY-th submission repeats an earlier one.
REPEAT_EVERY = 4
#: Seconds a client waits for one job before counting it failed.
JOB_TIMEOUT = 120.0


def job_space(scale: float) -> List[Tuple[str, Dict[str, Any]]]:
    """Every distinct job the service mix submits, in a fixed order:
    4 scenes x 12 block/SLI sizes x 5 processor counts of ``simulate``
    jobs, then 12 ``vt`` jobs."""
    space = []
    for scene in SERVICE_SCENES:
        for processors in SERVICE_PROCESSORS:
            for family, sizes in SERVICE_SIZES.items():
                for size in sizes:
                    payload = {
                        "scene": scene,
                        "scale": scale,
                        "family": family,
                        "size": size,
                        "processors": processors,
                    }
                    space.append((f"{scene}/{family}{size}/p{processors}", payload))
    for pages in VT_PAGES:
        for residency in VT_RESIDENCY:
            for family, size, processors in VT_MACHINES:
                payload = {
                    "vt_scene": "vt-quake",
                    "scale": scale,
                    "vt_pages": pages,
                    "vt_residency": residency,
                    "vt_frames": VT_FRAMES,
                    "family": family,
                    "size": size,
                    "processors": processors,
                }
                name = f"vt-quake/pages{pages}/res{residency:g}/{family}{size}/p{processors}"
                space.append((name, payload))
    return space


def job_passes(seed: int, scale: float) -> List[List[Tuple[str, Dict[str, Any]]]]:
    """The seeded submissions, one list per measured pass.

    Pass ``k`` holds one ``simulate`` job of every (scene, processor
    count) pair — the pair's ``k``-th size in a seeded order — plus one
    ``vt`` job, shuffled; so every pass has the same cost profile and
    a run sees every distinct job once.  Every ``REPEAT_EVERY``-th
    submission is an exact repeat of a uniformly chosen earlier one.
    """
    rng = random.Random(seed)
    strata: Dict[Any, List[Tuple[str, Dict[str, Any]]]] = {}
    for name, payload in job_space(scale):
        key = (payload["scene"], payload["processors"]) if "scene" in payload else "vt"
        strata.setdefault(key, []).append((name, payload))
    for jobs in strata.values():
        rng.shuffle(jobs)
    submitted: List[Tuple[str, Dict[str, Any]]] = []
    passes = []
    for index in range(len(strata["vt"])):
        distinct = [jobs[index] for jobs in strata.values()]
        rng.shuffle(distinct)
        one = []
        for item in distinct:
            if len(submitted) % REPEAT_EVERY == REPEAT_EVERY - 1:
                repeat = submitted[rng.randrange(len(submitted))]
                submitted.append(repeat)
                one.append(repeat)
            submitted.append(item)
            one.append(item)
        passes.append(one)
    return passes


def metrics_digest(metrics: Dict[str, float]) -> str:
    """Pinned form of a job's ``metrics`` dict."""
    text = json.dumps(metrics, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: A set-up job outside the mix (bus ratio 2): it starts the pool.
WARMUP_JOB = {"scene": "truc640", "family": "block", "size": 16, "processors": 2, "bus_ratio": 2.0}


def join_children(timeout: float = 10.0) -> None:
    """Wait for every child process this process started to end."""
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join(timeout)


class ServiceMix:
    """A closed loop of 2 clients against the in-process job service."""

    name = "service-mix"
    inline = False

    def __init__(self, scale: float, seed: int, workdir: Path, traced_run: bool) -> None:
        from perfbench.tracer import LayerExecutor

        self.scale = scale
        self.mix = job_passes(seed, scale)
        #: Indices into ``mix`` of the passes left in this round.
        self.queue: List[int] = []
        self.workdir = workdir
        self.artifact_dir: Optional[str] = None
        # Traced runs execute jobs through a picklable executor that can
        # trace inside the worker; untraced runs use the default path.
        self.executor = LayerExecutor() if traced_run else None
        self.scheduler: Any = None
        #: Scheduler counter deltas of the last pass.
        self.pass_counters: Dict[str, int] = {}

    def setup_round(self, scope: Scope, final: bool) -> None:
        from repro import pipeline
        from repro.errors import ServiceError
        from repro.service.scheduler import Scheduler
        from repro.workloads import scenes

        self._stop_scheduler()
        # A fresh disk tier per round, inside the checkout, so the
        # warm-up job really executes every round.
        if self.artifact_dir is not None:
            shutil.rmtree(self.artifact_dir, ignore_errors=True)
        artifact_dir = self.artifact_dir = tempfile.mkdtemp(prefix="artifacts-", dir=self.workdir)
        os.environ[pipeline.ARTIFACT_DIR_ENV_VAR] = artifact_dir
        pipeline.configure(disk_dir=artifact_dir)
        with scope():
            for name in SERVICE_SCENES:
                scenes.build_scene(name, self.scale).fragments()
        # The pool forks at the first submission; the scenes built
        # above are already in the store the workers inherit.
        scheduler = Scheduler(workers=WORKERS, executor=self.executor).start()
        self.scheduler = scheduler
        job, _ = scheduler.submit({**WARMUP_JOB, "scale": self.scale})
        job = scheduler.wait(job.id, timeout=JOB_TIMEOUT)
        if job.state != "done":
            raise ServiceError(f"warm-up job ended {job.state}: {job.error}")
        if final:
            self.queue = list(range(len(self.mix)))
        else:
            self._stop_scheduler()

    def _stop_scheduler(self) -> None:
        if self.scheduler is not None:
            self.scheduler.stop()
            self.scheduler = None
            join_children()

    def counters(self) -> Dict[str, int]:
        return dict(self.scheduler.metrics()["counters"])

    def _client(self, index: int, batch: Iterator, lock: threading.Lock, ops: List[Op]) -> None:
        scheduler = self.scheduler
        while True:
            with lock:
                item = next(batch, None)
            if item is None:
                return
            position, (name, payload) = item
            slot = f"{index}/{position}"
            started = time.perf_counter()
            try:
                job, _deduped = scheduler.submit(payload)
                job = scheduler.wait(job.id, timeout=JOB_TIMEOUT)
                result = scheduler.result(job.result_key) if job.state == "done" else None
            except Exception as exc:  # noqa: BLE001 - refused or lost: a failed op
                error = f"{type(exc).__name__}: {exc}"
                ops.append(Op(name, time.perf_counter() - started, error=error, slot=slot))
                continue
            seconds = time.perf_counter() - started
            info: Dict[str, Any] = {"job": job.id, "cached": job.cached}
            if job.started_at is not None:
                # Wall-clock stamps: a queue wait is too short for a clock
                # adjustment to matter, and Job keeps no monotonic submit mark.
                info["queue_wait_s"] = job.started_at - job.created_at
                info["execute_s"] = job.duration_seconds
            if result is None:
                error = f"job {job.id} ended {job.state}: {job.error}"
                ops.append(Op(name, seconds, error=error, slot=slot, info=info))
                continue
            info["result"] = result
            digest = metrics_digest(result["metrics"])
            ops.append(Op(name, seconds, counters=digest, slot=slot, info=info))

    def prepare_pass(self) -> int:
        """Returns the index into the mix of the next pass.  Once every
        pass of the mix has run, start the mix again on a fresh
        scheduler, worker pool and disk tier, so its jobs execute again
        rather than hit the previous round's results."""
        if not self.queue:
            self.setup_round(nullcontext, final=True)
        return self.queue[0]

    def expected_line_accesses(self, ops: List[Op]) -> Optional[int]:
        return None  # jobs publish into the worker processes' registries

    def run_pass(self, traced: bool) -> List[Op]:
        index = self.queue.pop(0)
        batch = self.mix[index]
        if self.executor is not None:
            self.executor.trace = traced
        before = self.counters()
        ops: List[Op] = []
        lock = threading.Lock()
        iterator = iter(enumerate(batch))
        clients = [
            threading.Thread(
                target=self._client, args=(index, iterator, lock, ops), name=f"client-{client}"
            )
            for client in range(CLIENTS)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        after = self.counters()
        self.pass_counters = {name: after[name] - before.get(name, 0) for name in after}
        return ops

    def close(self) -> None:
        from repro import pipeline

        self._stop_scheduler()
        # Detach the run's disk tier: the work directory is about to go.
        os.environ.pop(pipeline.ARTIFACT_DIR_ENV_VAR, None)
        pipeline.configure()


def make_workload(name: str, scale: float, seed: int, workdir: Path, traced_run: bool) -> Any:
    if name == Fig7Sweep.name:
        return Fig7Sweep(scale, seed)
    if name == FifoTiming.name:
        return FifoTiming(scale, seed)
    if name == ServiceMix.name:
        return ServiceMix(scale, seed, workdir, traced_run)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = tuple(SCALES)


def load_reference() -> Dict[str, Dict[str, Dict[str, Any]]]:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def scale_key(scale: float) -> str:
    return repr(float(scale))


def make_workdir(root: Path) -> Path:
    """A scratch directory for one run, inside the checkout."""
    parent = root / ".perfbench-work"
    parent.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=parent))


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run still uses it
