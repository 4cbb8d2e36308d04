"""Scheduler of the experiment service: one lease protocol for every worker.

The :class:`Scheduler` owns the job lifecycle.  Submissions become
:class:`~repro.service.jobs.Job` records coalesced on their
content-addressed result key (a duplicate of a live job attaches to
it; one of a completed job is served from the result store).  Jobs
leave a tenant-fair priority queue only under a **lease**
(:meth:`lease_next` / :meth:`heartbeat_lease` / :meth:`complete_lease`
/ :meth:`fail_lease`), and every worker is a client of those calls:
remote worker nodes over HTTP (``local=False`` makes the scheduler a
pure coordinator), and ``max(1, workers)`` local threads in-process.
Each local thread runs its attempts in its own single-process pool
(``workers >= 1``) or inline (``workers == 0``).

Failure semantics, the same for every worker:

* an attempt that raises consumes the job's retry budget: the job
  re-enters the queue's back lane once its exponential backoff elapses
  (a delayed-retry heap the reaper flushes), and ends ``failed`` when
  the budget is spent;
* an attempt past the job's timeout goes through the same budget,
  ending ``timed-out``: a local one terminates only its own thread's
  child, and the reaper takes a remote one's lease back, so the
  worker's next heartbeat or delivery is stale;
* an attempt **lost** with its worker (a remote lease expiring without
  a heartbeat, a local child dying) is requeued at the front of its
  priority class, FIFO, by one function; losses do not consume the
  retry budget, but more than ``max_requeues`` fail the job.

Local leases have no deadline, since their own thread reports every
outcome; they still show in ``GET /leases`` and ``workers_known``.
``max_queue_depth`` bounds the fresh-submission backlog (past it,
:meth:`submit` raises :class:`~repro.errors.BackpressureError`, HTTP
429); duplicates and result-store hits are never rejected.  Durations
are monotonic: the ``clock`` seam drives lease deadlines, remote
attempt timeouts and backoff readiness alike, and wall-clock reads only
produce display timestamps.  Local per-job timeouts need a child to
terminate, so inline mode cannot enforce them.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import wait as wait_futures
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs, pipeline
from repro.analysis.parallel import share_artifacts
from repro.errors import (
    BackpressureError,
    ServiceError,
    StaleLeaseError,
    UnknownJobError,
)
from repro.obs.spans import span
from repro.service.jobs import (
    DEFAULT_TENANT,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    STATES,
    TERMINAL_STATES,
    TIMED_OUT,
    Job,
    execute_payload,
    parse_submission,
)
from repro.service.leases import Lease, LeaseManager
from repro.service.queue import JobQueue
from repro.service.results import ResultStore

#: Lifecycle counters ``metrics()["counters"]`` reports, zeros included.
#: Their one store is the registry's unlabeled ``service.<name>`` series.
COUNTERS = (
    "submitted", "deduped", "cache_hits", "completed", "failed", "retries",
    "timeouts", "pool_restarts", "requeues", "rejected", "leases",
    "heartbeats", "lease_expiries", "searches", "searches_completed",
    "searches_failed",
)

#: Seconds a local worker blocks on the queue, or on its child, before
#: it looks at the stop flag again.
_POLL = 0.05

#: Held while a local worker submits to its child pool, whose first
#: submit forks the child.  A child forked while another thread's fork
#: is in flight inherits the write end of that child's liveness pipe
#: and keeps it open, so the other child's death would go unnoticed.
#: Forks are process-wide, so the lock is too (one per scheduler would
#: not cover two schedulers in one process).
_FORK_LOCK = threading.Lock()


class _Overtime(Exception):
    """A local attempt ran past its job's timeout."""


def _terminate(pool: Optional[ProcessPoolExecutor]) -> None:
    """Kill a local worker's child and drop its executor."""
    if pool is None:
        return
    for process in list(getattr(pool, "_processes", {}).values()):
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


class Scheduler:
    """The experiment job service: queue + leases + local workers + results."""

    def __init__(
        self,
        workers: int = 0,
        default_timeout: Optional[float] = None,
        default_retries: int = 2,
        backoff_base: float = 0.5,
        backoff_factor: float = 2.0,
        backoff_max: float = 30.0,
        max_requeues: int = 3,
        max_queue_depth: Optional[int] = None,
        lease_timeout: float = 30.0,
        local: bool = True,
        reaper_interval: float = 0.05,
        results: Optional[ResultStore] = None,
        executor: Optional[Callable[[Dict], Dict]] = None,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[obs.MetricsRegistry] = None,
    ) -> None:
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ServiceError(
                f"max_queue_depth must be >= 1 or None, got {max_queue_depth}"
            )
        self.workers = workers
        self.default_timeout = default_timeout
        self.default_retries = default_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.max_requeues = max_requeues
        self.max_queue_depth = max_queue_depth
        self.local = local
        self.reaper_interval = reaper_interval
        self._clock = clock
        self.queue = JobQueue()
        self.leases = LeaseManager(timeout=lease_timeout, clock=clock)
        self.results = results if results is not None else ResultStore()
        self._executor = executor if executor is not None else execute_payload
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._live_by_key: Dict[str, Job] = {}
        #: Retry backlog: (ready time on ``clock``, tiebreak, job) heap
        #: the reaper flushes back into the queue once backoff elapses.
        self._delayed: List[Tuple[float, int, Job]] = []
        #: worker name -> last-seen ``clock`` stamp (lease or heartbeat).
        self._workers_seen: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._delay_ids = itertools.count(1)
        self._search_ids = itertools.count(1)
        #: search id -> mutable state record (see ``start_search``).
        self._searches: Dict[str, Dict] = {}
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started_at = time.time()  # display timestamp only
        self._started_monotonic = clock()
        #: The one counter store: lifecycle counters land here as
        #: ``service.<name>``, next to the simulator-level series
        #: (cache.*, bus.*, span.*) the workers publish, so one
        #: ``/metrics`` read shows queue and simulation health together.
        self.registry = registry if registry is not None else obs.registry()

    def _count(self, name: str) -> None:
        self.registry.counter(f"service.{name}").inc()

    # -- lifecycle ---------------------------------------------------

    def start(self) -> "Scheduler":
        """Spawn the local worker threads (if executing locally) and the
        lease/backoff reaper."""
        if self._threads:
            return self
        self._stop.clear()
        if self.local:
            for index in range(max(1, self.workers)):
                thread = threading.Thread(
                    target=self._local_worker,
                    args=(index,),
                    name=f"repro-local-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        reaper = threading.Thread(
            target=self._reaper_loop, name="repro-lease-reaper", daemon=True
        )
        reaper.start()
        self._threads.append(reaper)
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the threads; each local worker terminates its own child
        (one caught mid-attempt requeues its job as a lost attempt)."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()

    # -- submission --------------------------------------------------

    def submit(self, payload: Dict) -> Tuple[Job, bool]:
        """Validate and enqueue a submission; returns ``(job, deduped)``.

        Duplicate of a live (queued/running) job → that job, ``True``.
        Duplicate of a stored result → a new job born ``done`` with the
        cached payload (a result-store hit).  Otherwise a fresh job is
        queued — unless the queue already sits at ``max_queue_depth``,
        in which case :class:`~repro.errors.BackpressureError` asks the
        client to retry later (deduped and cached submissions are never
        rejected: they add no queue pressure).
        """
        spec, options = parse_submission(payload)
        key = spec.result_key()
        with self._lock:
            self._count("submitted")
            live = self._live_by_key.get(key)
            if live is not None and live.state not in TERMINAL_STATES:
                self._count("deduped")
                return live, True
        found, _cached = self.results.get(key)
        with self._lock:
            # Re-check: another thread may have queued the same key
            # while the (possibly disk-touching) store lookup ran.
            live = self._live_by_key.get(key)
            if live is not None and live.state not in TERMINAL_STATES:
                self._count("deduped")
                return live, True
            if not found and self.max_queue_depth is not None:
                if len(self.queue) >= self.max_queue_depth:
                    self._count("rejected")
                    raise BackpressureError(
                        f"queue depth {len(self.queue)} is at the limit "
                        f"({self.max_queue_depth}); retry later"
                    )
            job = Job(
                id=f"job-{next(self._ids)}",
                spec=spec,
                priority=options.get("priority", 0),
                tenant=options.get("tenant", DEFAULT_TENANT),
                timeout=options.get("timeout", self.default_timeout),
                retries=options.get("retries", self.default_retries),
            )
            self._jobs[job.id] = job
            if found:
                self._count("cache_hits")
                job.cached = True
                job.finish(DONE)
                return job, False
            self._live_by_key[key] = job
        self.queue.push(job)
        return job, False

    def job(self, job_id: str) -> Job:
        with self._lock:
            if job_id not in self._jobs:
                raise UnknownJobError(f"unknown job {job_id!r}")
            return self._jobs[job_id]

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job reaches a terminal state."""
        job = self.job(job_id)
        if not job.terminal.wait(timeout=timeout):
            raise ServiceError(f"{job_id} still {job.state} after {timeout}s")
        return job

    def result(self, key: str) -> Optional[Dict]:
        """Client-facing result lookup (counts into the hit metrics)."""
        found, payload = self.results.get(key)
        return payload if found else None

    # -- local workers: in-process lease clients ---------------------

    def _local_worker(self, index: int) -> None:
        """Lease, run, report: the remote worker's loop, in-process."""
        worker = f"local-{index}"
        child: Optional[ProcessPoolExecutor] = None
        try:
            while not self._stop.is_set():
                lease = self.lease_next(worker, wait=_POLL, expires=False)
                if lease is None:
                    continue
                try:
                    child = self._run_local(lease, child)
                except Exception as exc:  # defensive: never kill a local worker
                    # Its lease has no deadline, so nothing else would
                    # ever settle the job.
                    with contextlib.suppress(StaleLeaseError):
                        self.leases.release(lease.id)
                    with self._lock:
                        if lease.job.state == RUNNING:
                            self._count("failed")
                            self._finish(lease.job, FAILED, f"scheduler error: {exc}")
        finally:
            _terminate(child)

    def _run_local(
        self, lease: Lease, child: Optional[ProcessPoolExecutor]
    ) -> Optional[ProcessPoolExecutor]:
        """Run one leased attempt and report its outcome; returns this
        thread's child pool (``None`` once it had to be terminated)."""
        job = lease.job
        payload = job.spec.to_payload()
        try:
            # The span times the whole attempt (child startup + run) and
            # lands in the ``span.service.execute`` histogram of /metrics.
            with span("service.execute", kind=job.spec.kind, job=job.id):
                if self.workers == 0:
                    result = self._executor(payload)
                else:
                    if child is None:
                        share_artifacts()
                        child = ProcessPoolExecutor(max_workers=1)
                    with _FORK_LOCK:
                        future = child.submit(self._executor, payload)
                    result = self._await_child(future, job.timeout)
        except (BrokenProcessPool, _Overtime) as lost:
            # Terminating the child is the only way to reclaim one stuck
            # past its timeout; it is this thread's own, so no other
            # job's attempt goes down with it.
            _terminate(child)
            self._count("pool_restarts")
            if isinstance(lost, _Overtime):
                self._count("timeouts")
                self._retry_or_finish(
                    self.leases.release(lease.id), TIMED_OUT, "attempt timed out"
                )
            else:
                self.leases.release(lease.id)
                self._requeue_lost(lease, "worker process died")
            return None
        except Exception as exc:
            self.fail_lease(lease.id, str(exc) or repr(exc))
        else:
            self.complete_lease(lease.id, result)
        return child

    def _await_child(self, future: Future, timeout: Optional[float]) -> Dict:
        """The child's result; raises :class:`_Overtime` past ``timeout``
        (real seconds) and ``BrokenProcessPool`` if the child died or the
        scheduler is stopping."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            left = _POLL if deadline is None else min(_POLL, deadline - time.monotonic())
            if left <= 0:
                raise _Overtime()
            done, _pending = wait_futures([future], timeout=left)
            if done:
                return future.result()
            if self._stop.is_set():
                raise BrokenProcessPool("the scheduler stopped mid-attempt")

    # -- the lease protocol: lease / heartbeat / complete / fail -------

    def lease_next(
        self, worker: str, wait: float = 0.0, expires: bool = True
    ) -> Optional[Lease]:
        """Hand the next queued job to ``worker`` under a lease.

        Returns ``None`` when the queue stays empty for ``wait``
        seconds.  ``expires=False`` grants a lease without a deadline,
        for the local workers, which report every outcome themselves.
        Jobs whose result appeared while they sat queued are finished
        as cache hits and skipped.
        """
        while True:
            job = self.queue.pop(timeout=wait)
            if job is None:
                return None
            found, _payload = self.results.peek(job.result_key)
            if found:
                with self._lock:
                    job.cached = True
                    self._finish(job, DONE)
                continue
            with self._lock:
                job.state = RUNNING
                job.mark_started()
                job.attempts += 1
                self._workers_seen[worker] = self._clock()
            self._count("leases")
            lease = self.leases.grant(job, worker, expires=expires)
            self.registry.counter("service.leases").labels(worker=worker).inc()
            self.registry.gauge("service.leases_active").set(len(self.leases))
            return lease

    def heartbeat_lease(self, lease_id: str) -> Lease:
        """Renew a worker's claim; stale leases raise ``StaleLeaseError``."""
        lease = self.leases.heartbeat(lease_id)
        with self._lock:
            self._workers_seen[lease.worker] = self._clock()
        self._count("heartbeats")
        self.registry.counter("service.heartbeats").labels(worker=lease.worker).inc()
        return lease

    def complete_lease(self, lease_id: str, payload: Dict) -> Job:
        """A worker delivered its result: store it and finish the job.

        The result is stored even if the lease went stale in flight —
        it is content-addressed, so a duplicate execution elsewhere
        will coalesce on it — but a stale lease still raises so the
        worker knows its claim was lost.
        """
        try:
            lease = self.leases.release(lease_id)
        except StaleLeaseError:
            key = payload.get("key") if isinstance(payload, dict) else None
            if key:
                self.results.put(key, payload)
            raise
        self.results.put(lease.job.result_key, payload)
        self._count("completed")
        with self._lock:
            self._finish(lease.job, DONE)
        self.registry.gauge("service.leases_active").set(len(self.leases))
        return lease.job

    def fail_lease(self, lease_id: str, error: str) -> Job:
        """A worker's attempt raised: consume retry budget with backoff."""
        return self._retry_or_finish(self.leases.release(lease_id), FAILED, error)

    def _retry_or_finish(self, lease: Lease, state: str, error: str) -> Job:
        """The one retry-budget path (failed or timed-out attempts).

        With budget left the retry is **delayed**: the job re-enters
        the queue's back lane once its backoff elapses on ``clock`` (the
        reaper flushes it); otherwise the job finishes as ``state``.
        """
        job = lease.job
        with self._lock:
            if job.attempts > job.retries:
                if state == FAILED:
                    self._count("failed")
                self._finish(job, state, error)
            else:
                self._count("retries")
                job.error = error  # visible while the retry is pending
                job.state = QUEUED
                ready = self._clock() + self._backoff_delay(job.attempts)
                heapq.heappush(self._delayed, (ready, next(self._delay_ids), job))
        self.registry.gauge("service.leases_active").set(len(self.leases))
        return job

    def _backoff_delay(self, attempts: int) -> float:
        """Exponential backoff before attempt ``attempts + 1``."""
        return min(
            self.backoff_base * self.backoff_factor ** (attempts - 1),
            self.backoff_max,
        )

    def _requeue_lost(self, lease: Lease, cause: str) -> None:
        """The one infrastructure-requeue path, for an attempt lost with
        its worker (a reaped lease, a dead local child).  The caller has
        already removed ``lease`` from the manager.  The job goes back
        to the front of its priority class; the lost attempt does not
        count against the retry budget, but too many losses fail it."""
        job = lease.job
        with self._lock:
            job.requeues += 1
            job.attempts -= 1  # the lost attempt never really ran
            if job.requeues > self.max_requeues:
                self._count("failed")
                self._finish(
                    job,
                    FAILED,
                    f"{cause} {job.requeues} times (last worker: {lease.worker})",
                )
                return
            self._count("requeues")
            job.state = QUEUED
        self.queue.push(job, front=True)

    def _finish(self, job: Job, state: str, error: Optional[str] = None) -> None:
        """Terminal transition; caller holds the lock."""
        job.finish(state, error)
        if self._live_by_key.get(job.result_key) is job:
            del self._live_by_key[job.result_key]

    def _reaper_loop(self) -> None:
        """Requeue jobs of expired leases, time out remote attempts past
        their job's timeout, and flush elapsed backoffs."""
        while not self._stop.is_set():
            self._reap_once()
            self._stop.wait(self.reaper_interval)

    def _reap_once(self) -> None:
        for lease in self.leases.harvest_expired():
            self._count("lease_expiries")
            self._requeue_lost(lease, "lease expired")
        # A remote worker cannot be made to stop an attempt, so its
        # timeout is the coordinator's: the lease is taken back and the
        # worker's next heartbeat or delivery is refused as stale.
        for lease in self.leases.harvest_overtime():
            self._count("timeouts")
            self._retry_or_finish(lease, TIMED_OUT, "attempt timed out")
        self.registry.gauge("service.leases_active").set(len(self.leases))
        now = self._clock()
        ready: List[Job] = []
        with self._lock:
            while self._delayed and self._delayed[0][0] <= now:
                _ready_at, _tiebreak, job = heapq.heappop(self._delayed)
                ready.append(job)
        for job in ready:
            self.queue.push(job)  # a retry, not an infra failure: back lane

    # -- auto-search (the POST /searches convenience) -----------------

    def start_search(self, payload: Dict) -> Dict:
        """Validate and launch a budgeted auto-search in the background.

        Trials are dispatched back through :meth:`submit`, so they ride
        the normal queue — deduped on result keys, executed by the
        local workers or the remote worker fleet, counted in ``/metrics``
        — while the driver archives every trial and the final report
        into the shared :class:`~repro.expfw.archive.RunArchive`.
        Returns the search's JSON state record (state ``running``).
        """
        from repro.expfw.search import SchedulerDispatcher, SearchDriver, parse_search_payload

        config = parse_search_payload(payload)
        driver = SearchDriver(config, dispatcher=SchedulerDispatcher(self))
        with self._lock:
            search_id = f"search-{next(self._search_ids)}"
            record = {
                "id": search_id,
                "state": "running",
                "experiment": config.experiment,
                "config": config.to_json(),
                "created_at": time.time(),  # display timestamp only
                "report_key": None,
                "trials": 0,
                "winner": None,
                "error": None,
            }
            self._searches[search_id] = record
            self._count("searches")
        thread = threading.Thread(
            target=self._run_search,
            args=(search_id, driver),
            name=f"repro-{search_id}",
            daemon=True,
        )
        thread.start()
        return dict(record)

    def _run_search(self, search_id: str, driver) -> None:
        try:
            report = driver.run()
        except Exception as exc:  # surfaced through GET /searches/<id>
            with self._lock:
                self._count("searches_failed")
                record = self._searches[search_id]
                record["state"] = "failed"
                record["error"] = str(exc) or repr(exc)
                record["trials"] = len(driver.trials)
            return
        with self._lock:
            self._count("searches_completed")
            record = self._searches[search_id]
            record["state"] = "done"
            record["report_key"] = report["key"]
            record["trials"] = len(report["trials"])
            record["winner"] = report["winner"]

    def search(self, search_id: str) -> Dict:
        """One search's JSON state; unknown ids raise (HTTP 404)."""
        with self._lock:
            if search_id not in self._searches:
                raise UnknownJobError(f"unknown search {search_id!r}")
            return dict(self._searches[search_id])

    def searches(self) -> List[Dict]:
        with self._lock:
            return [dict(record) for record in self._searches.values()]

    # -- introspection -----------------------------------------------

    def lease_snapshot(self) -> List[Dict]:
        """Active leases as JSON records (the ``GET /leases`` document)."""
        now = self._clock()
        return [lease.to_json(now) for lease in self.leases.active()]

    def metrics(self) -> Dict:
        """The `/metrics` document: queue, states, counters, stores,
        leases, plus the obs registry (the service.* counters behind
        ``counters``, simulator-level cache/bus counters and span
        histograms)."""
        with self._lock:
            by_state = {state: 0 for state in STATES}
            for job in self._jobs.values():
                by_state[job.state] += 1
            delayed = len(self._delayed)
            workers_seen = len(self._workers_seen)
            searches_by_state: Dict[str, int] = {}
            for record in self._searches.values():
                state = record["state"]
                searches_by_state[state] = searches_by_state.get(state, 0) + 1
        self.registry.gauge("service.queue_depth").set(len(self.queue))
        tenants = self.queue.tenant_depths()
        for tenant, depth in tenants.items():
            self.registry.gauge("service.queue_depth").labels(tenant=tenant).set(depth)
        for state, count in by_state.items():
            self.registry.gauge("service.jobs").labels(state=state).set(count)
        self.registry.gauge("service.workers_known").set(workers_seen)
        counters = {
            name: int(self.registry.counter(f"service.{name}").value) for name in COUNTERS
        }
        return {
            "uptime_seconds": self._clock() - self._started_monotonic,
            "started_at": self._started_at,
            "workers": self.workers,
            "local_execution": self.local,
            "queue_depth": len(self.queue),
            "max_queue_depth": self.max_queue_depth,
            "tenants": tenants,
            "delayed_retries": delayed,
            "jobs": by_state,
            "counters": counters,
            "leases": {
                "active": len(self.leases),
                "timeout": self.leases.timeout,
                "workers_known": workers_seen,
            },
            "searches": searches_by_state,
            "result_store": self.results.snapshot(),
            "pipeline": pipeline.stats(),
            "obs": self.registry.snapshot(),
        }

    def healthz(self) -> Dict:
        return {
            "status": "ok",
            "workers": self.workers,
            "local_execution": self.local,
            "dispatchers": sum(thread.is_alive() for thread in self._threads),
            "uptime_seconds": self._clock() - self._started_monotonic,
        }
