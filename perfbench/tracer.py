"""Span tracer for the benchmark's traced run.

The traced run patches the public entry point of each ``repro`` layer
at the name its caller looks up (``repro.core.machine.drain_node``,
``repro.cache.lru.LruCache.simulate``, ...) with a wrapper that records
a span — name, start, end, parent — and the work counts the call
carries (fragments, line accesses, misses, ...).  Nothing under
``src/`` changes: :meth:`Tracer.installed` puts every original object
back when the block exits.

A layer's self time is its spans' durations minus the time their child
spans cover, so self times never double count nested layers
(``compute_replay`` contains ``line_addresses`` and ``LruCache.simulate``).
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

Counts = Dict[str, float]


class Hook(NamedTuple):
    """One traced entry point.

    ``target`` is ``"<module>:<attribute path>"``; the attribute is
    replaced on its owner (module or class).  ``count`` maps
    ``(args, result)`` to work counts; ``skip`` routes a call around the
    tracer (a memo hit that does no work of the layer).
    """

    target: str
    span: str
    count: Optional[Callable[[tuple, Any], Counts]] = None
    skip: Optional[Callable[[tuple], bool]] = None


def _triangles(args: tuple, scene: Any) -> Counts:
    return {"workloads.triangles": scene.num_triangles}


def _fragments(args: tuple, fragments: Any) -> Counts:
    return {"raster.fragments": len(fragments)}


def _already_rasterized(args: tuple) -> bool:
    return getattr(args[0], "_fragments", None) is not None


def _routed_pairs(args: tuple, plan: Any) -> Counts:
    return {"routing.routed_pairs": sum(len(nodes) for nodes in plan.routed)}


def _lines(args: tuple, lines: Any) -> Counts:
    return {"texture.lines": lines.size}


def _paged_in(args: tuple, stats: Any) -> Counts:
    return {"texture.paged_in": stats["paged_in"]}


def _lru(args: tuple, miss_mask: Any) -> Counts:
    return {
        "cache.streams": 1,
        "cache.line_accesses": len(miss_mask),
        "cache.misses": int(miss_mask.sum()),
    }


def _event_triangles(args: tuple, stream: Any) -> Counts:
    return {"timing.event_triangles": len(stream)}


def _prefetch_fragments(args: tuple, result: Any) -> Counts:
    return {"prefetch.fragments": result.fragments}


#: Every traced entry point, patched where its caller looks it up.
HOOKS: Tuple[Hook, ...] = (
    # pipeline.stages imports generate_scene at call time; pan_sequence
    # (the virtual-texturing frames) holds its own module-level name.
    Hook("repro.workloads.generator:generate_scene", "workloads.generate", _triangles),
    Hook("repro.workloads.sequence:generate_scene", "workloads.generate", _triangles),
    Hook(
        "repro.geometry.scene:Scene.fragments",
        "raster.rasterize",
        _fragments,
        skip=_already_rasterized,
    ),
    Hook("repro.core.routing:compute_routing_plan", "routing.plan", _routed_pairs),
    Hook("repro.core.routing:assemble_routed_work", "routing.assemble"),
    Hook("repro.core.routing:compute_replay", "cache.replay"),
    Hook(
        "repro.texture.filtering:TrilinearFilter.line_addresses", "texture.line_addresses", _lines
    ),
    Hook("repro.texture.pages:PageTable.translate", "texture.translate"),
    Hook("repro.texture.pages:PageTable.advance_frame", "texture.advance", _paged_in),
    Hook("repro.cache.lru:LruCache.simulate", "cache.lru", _lru),
    Hook("repro.core.machine:drain_node", "timing.fast"),
    Hook("repro.core.machine:interleave_stream", "timing.interleave", _event_triangles),
    Hook("repro.core.machine:run_event_machine", "timing.event"),
    Hook(
        "repro.core.prefetch:simulate_prefetch_pipeline",
        "prefetch.pipeline",
        _prefetch_fragments,
    ),
    Hook("repro.service.scheduler:Scheduler.submit", "service.submit"),
    Hook("repro.service.scheduler:Scheduler.wait", "service.wait"),
    Hook("repro.service.scheduler:Scheduler.metrics", "service.metrics"),
)


def resolve(target: str) -> Tuple[Any, str]:
    """``"<module>:<a.b>"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute


class Tracer:
    """Records spans and work counts from patched layer entry points.

    Spans nest per thread.  Each record is ``[name, start, end, parent
    record or None, thread key]``; :meth:`take` folds the records into
    per-layer self times and clears them.
    """

    def __init__(self) -> None:
        self._spans: List[list] = []
        self._counts: Counts = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        tracer = self
        thread_key = f"{os.getpid()}"

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if hook.skip is not None and hook.skip(args):
                return original(*args, **kwargs)
            stack = tracer._stack()
            record = [
                hook.span,
                time.perf_counter(),
                0.0,
                stack[-1] if stack else None,
                f"{thread_key}/{threading.get_ident()}",
            ]
            stack.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                tracer._spans.append(record)
            if hook.count is not None:
                counts = hook.count(args, result)
                with tracer._lock:
                    for name, amount in counts.items():
                        tracer._counts[name] = tracer._counts.get(name, 0) + amount
            return result

        return traced

    def install(self) -> None:
        """Patch every hook's target; idempotent per tracer."""
        if self._saved:
            return
        for hook in HOOKS:
            owner, attribute = resolve(hook.target)
            original = vars(owner)[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(hook, original))

    def restore(self) -> None:
        """Put every original object back, in reverse patch order."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def take(self) -> Dict[str, Dict[str, float]]:
        """Fold the recorded spans into a summary and start afresh.

        The summary holds, per span name, ``self_s`` (duration minus
        child spans), ``calls`` and ``total_s``; ``busy_s`` per thread
        (the sum of its top-level spans, i.e. of its self times); and
        the work ``counts``.
        """
        spans, self._spans = self._spans, []
        with self._lock:
            counts, self._counts = self._counts, {}
        child_time: Dict[int, float] = {}
        for name, start, end, parent, _thread in spans:
            if parent is not None:
                child_time[id(parent)] = child_time.get(id(parent), 0.0) + end - start
        summary: Dict[str, Dict[str, float]] = {
            "self_s": {},
            "total_s": {},
            "calls": {},
            "busy_s": {},
            "counts": dict(counts),
        }
        for record in spans:
            name, start, end, parent, thread = record
            duration = end - start
            own = duration - child_time.get(id(record), 0.0)
            _add(summary["self_s"], name, own)
            _add(summary["total_s"], name, duration)
            _add(summary["calls"], name, 1)
            _add(summary["busy_s"], thread, own)
        return summary


def _add(table: Dict[str, float], key: str, amount: float) -> None:
    table[key] = table.get(key, 0) + amount


def merge(into: Dict[str, Dict[str, float]], summary: Dict[str, Dict[str, float]]) -> None:
    """Add one :meth:`Tracer.take` summary into an accumulator."""
    for section, table in summary.items():
        target = into.setdefault(section, {})
        for key, amount in table.items():
            _add(target, key, amount)


#: Result-payload key a traced job execution attaches its summary under.
TRACE_KEY = "perfbench_trace"


class LayerExecutor:
    """The service-mix job executor: ``execute_payload``, optionally traced.

    The scheduler pickles its executor into the worker process with
    every job, so flipping :attr:`trace` between passes switches tracing
    for the jobs dispatched afterwards.  A traced execution installs a
    fresh :class:`Tracer` in the worker for the one job and attaches its
    summary, plus the worker's pipeline-stage counter deltas, to the
    result payload.
    """

    def __init__(self) -> None:
        self.trace = False

    def __call__(self, payload: Dict) -> Dict:
        from repro import pipeline
        from repro.service.jobs import execute_payload

        if not self.trace:
            return execute_payload(payload)
        before = pipeline.stats()
        tracer = Tracer()
        with tracer.installed():
            result = execute_payload(payload)
        summary = tracer.take()
        summary["pipeline"] = stage_deltas(before, pipeline.stats())
        return {**result, TRACE_KEY: summary}


def stage_deltas(
    before: Dict[str, Dict[str, float]], after: Dict[str, Dict[str, float]]
) -> Dict[str, float]:
    """Per-stage ``calls`` and ``hits`` added between two pipeline snapshots."""
    deltas: Dict[str, float] = {}
    for stage, stats in after.items():
        old = before.get(stage, {})
        hits = stats["memory_hits"] + stats["disk_hits"]
        old_hits = old.get("memory_hits", 0) + old.get("disk_hits", 0)
        deltas[f"{stage}.calls"] = stats["calls"] - old.get("calls", 0)
        deltas[f"{stage}.hits"] = hits - old_hits
    return deltas
