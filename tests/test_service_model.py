"""Model-based test of the job service's queue/lease/requeue protocol.

A Hypothesis ``RuleBasedStateMachine`` drives one coordinator
(``Scheduler(workers=0, local=False)``) through random interleavings of
submissions (some with a per-job timeout), remote and local leases,
heartbeats, completions, failures, clock advances, reaper ticks,
remote attempts that outrun their timeout, vanishing remote workers,
crashing local children and stale completions, all on a fake
monotonic clock, and checks it step by step against a small reference
model of the protocol:

* every accepted job is in exactly one of queued, leased, delayed
  (backing off before a retry) or terminal;
* ``attempts <= retries + 1`` and ``requeues <= max_requeues``;
* a job ends in the model's terminal state (``done``, ``failed`` or
  ``timed-out``), and after a reaper tick no remote lease has run past
  its job's timeout: the tick times it out through the retry budget;
* the queue's dispatch order is the model's: priority class first, the
  requeue lane first-in first-out, then tenant round-robin, whose bound
  (a waiting tenant is passed over at most ``tenants - 1`` times) is
  checked on every fresh dispatch;
* stale completions raise, are idempotent, and still store the result;
* duplicates of live jobs coalesce onto them.

Nothing executes: the remote workers are the rules themselves, so each
example is a few milliseconds of bookkeeping.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import obs
from repro.errors import BackpressureError, StaleLeaseError
from repro.pipeline.store import ArtifactStore
from repro.service import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    TIMED_OUT,
    Job,
    Lease,
    ResultStore,
    Scheduler,
    parse_submission,
)

SCALES = (0.01, 0.02, 0.03, 0.04, 0.05)
TENANTS = ("ann", "bob", "cy")
TIMEOUTS = (None, 0.5, 2.0, 8.0)  # 8 s outlives a lease only with heartbeats
WORKERS = ("w1", "w2", "w3")
LEASE_TIMEOUT = 5.0
MAX_REQUEUES = 2
MAX_QUEUE_DEPTH = 4
BACKOFF = dict(backoff_base=0.5, backoff_factor=2.0, backoff_max=2.0)


class FakeClock:
    """A monotonic clock that only moves when the test says so."""

    def __init__(self, start: float = 1000.0) -> None:
        self.t = start

    def now(self) -> float:
        return self.t

    def elapse(self, seconds: float) -> None:
        self.t += seconds


@dataclass
class ModelLease:
    job_id: str
    worker: str
    expires: float  # inf: a local lease, which has no deadline
    grant: int
    granted_at: float


def _backoff(attempts: int) -> float:
    delay = BACKOFF["backoff_base"] * BACKOFF["backoff_factor"] ** (attempts - 1)
    return min(delay, BACKOFF["backoff_max"])


class ServiceProtocol(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = FakeClock()
        self.scheduler = Scheduler(
            workers=0,
            local=False,
            registry=obs.MetricsRegistry(),
            results=ResultStore(ArtifactStore()),
            lease_timeout=LEASE_TIMEOUT,
            max_requeues=MAX_REQUEUES,
            max_queue_depth=MAX_QUEUE_DEPTH,
            clock=self.clock.now,
            **BACKOFF,
        )
        # -- the reference model ------------------------------------
        self.state: Dict[str, str] = {}  # job id -> queued/leased/delayed/terminal
        self.outcome: Dict[str, str] = {}  # job id -> its terminal state
        self.timeout: Dict[str, Optional[float]] = {}
        self.timeouts = 0
        self.jobs: Dict[str, Job] = {}  # job id -> the scheduler's Job
        self.live_by_key: Dict[str, str] = {}
        self.stored: Set[str] = set()
        self.sequence = itertools.count()
        self.requeued: Dict[int, Deque[str]] = {}
        self.fresh: Dict[int, Dict[str, Deque[Tuple[int, str]]]] = {}
        self.last_tenant: Dict[int, str] = {}
        self.passed_over: Dict[Tuple[int, str], int] = {}
        self.delayed: List[Tuple[float, int, str]] = []
        self.leases: Dict[str, ModelLease] = {}  # granted, not yet released/reaped
        self.abandoned: Set[str] = set()  # held by a vanished worker
        self.stale: List[str] = []  # lease ids the coordinator took back
        self.granted: Dict[str, Lease] = {}  # every lease ever granted, by id
        self.attempts: Dict[str, int] = {}
        self.requeues: Dict[str, int] = {}
        self.grants = itertools.count()

    # -- model helpers ----------------------------------------------

    def _queue_len(self) -> int:
        return sum(len(lane) for lane in self.requeued.values()) + sum(
            len(fifo) for tenants in self.fresh.values() for fifo in tenants.values()
        )

    def _push_fresh(self, job) -> None:
        tenants = self.fresh.setdefault(job.priority, {})
        tenants.setdefault(job.tenant, deque()).append((next(self.sequence), job.id))
        self.state[job.id] = "queued"

    def _push_requeued(self, job) -> None:
        self.requeued.setdefault(job.priority, deque()).append(job.id)
        self.state[job.id] = "queued"

    def _pop_model(self) -> Optional[str]:
        """The reference dispatch order (mirrors JobQueue's contract)."""
        candidates = [p for p, lane in self.requeued.items() if lane]
        candidates += [p for p, ts in self.fresh.items() if any(ts.values())]
        if not candidates:
            return None
        best = min(candidates)
        lane = self.requeued.get(best)
        if lane:
            return lane.popleft()
        tenants = self.fresh[best]
        waiting = sorted(name for name, fifo in tenants.items() if fifo)
        last = self.last_tenant.get(best)
        tenant = next((name for name in waiting if last is not None and name > last), waiting[0])
        self.last_tenant[best] = tenant
        # Round-robin bound (the lease rule checks the real queue agrees
        # with this order): a waiting tenant is passed over at most once
        # per other tenant.
        for name in waiting:
            key = (best, name)
            self.passed_over[key] = 0 if name == tenant else self.passed_over.get(key, 0) + 1
            assert self.passed_over[key] <= len(TENANTS) - 1, (name, self.passed_over)
        return tenants[tenant].popleft()[1]

    def _finish(self, job_id: str, outcome: str) -> None:
        self.state[job_id] = "terminal"
        self.outcome[job_id] = outcome
        key = self.jobs[job_id].result_key
        if self.live_by_key.get(key) == job_id:
            del self.live_by_key[key]

    def _live(self, lease_id: str) -> bool:
        lease = self.leases.get(lease_id)
        return lease is not None and lease.expires > self.clock.now()

    def _held(self, local: Optional[bool] = None) -> List[str]:
        return sorted(
            lid for lid, lease in self.leases.items()
            if lid not in self.abandoned
            and (local is None or local == math.isinf(lease.expires))
        )

    def _lose(self, lease_id: str) -> None:
        """An attempt lost with its worker: requeued in front, or failed."""
        job = self.jobs[self.leases.pop(lease_id).job_id]
        self.abandoned.discard(lease_id)
        self.stale.append(lease_id)
        self.attempts[job.id] -= 1  # the lost attempt never really ran
        self.requeues[job.id] += 1
        if self.requeues[job.id] > MAX_REQUEUES:  # lost too often
            self._finish(job.id, FAILED)
        else:
            self._push_requeued(job)

    def _retry_or_finish(self, lease_id: str, outcome: str) -> None:
        """A failed or timed-out attempt: a delayed retry, or the end."""
        job = self.jobs[self.leases.pop(lease_id).job_id]
        self.stale.append(lease_id)
        if self.attempts[job.id] > job.retries:
            self._finish(job.id, outcome)
        else:
            ready = self.clock.now() + _backoff(self.attempts[job.id])
            self.delayed.append((ready, next(self.sequence), job.id))
            self.state[job.id] = "delayed"

    # -- rules --------------------------------------------------------

    @rule(
        scale=st.sampled_from(SCALES),
        tenant=st.sampled_from(TENANTS),
        priority=st.integers(0, 1),
        retries=st.integers(0, 2),
        timeout=st.sampled_from(TIMEOUTS),
    )
    def submit(self, scale, tenant, priority, retries, timeout):
        payload = {
            "experiment": "table1",
            "scale": scale,
            "tenant": tenant,
            "priority": priority,
            "retries": retries,
        }
        if timeout is not None:
            payload["timeout"] = timeout
        key = parse_submission(payload)[0].result_key()
        live = self.live_by_key.get(key)
        if live is None and key not in self.stored and self._queue_len() >= MAX_QUEUE_DEPTH:
            with pytest.raises(BackpressureError):
                self.scheduler.submit(payload)
            return
        job, deduped = self.scheduler.submit(payload)
        if live is not None:
            assert deduped and job.id == live  # duplicates of live jobs coalesce
            return
        assert not deduped and job.id not in self.jobs
        self.jobs[job.id] = job
        self.attempts[job.id] = self.requeues[job.id] = 0
        self.timeout[job.id] = timeout
        assert job.timeout == timeout
        if key in self.stored:
            assert job.state == DONE and job.cached
            self._finish(job.id, DONE)
            return
        self.live_by_key[key] = job.id
        self._push_fresh(job)

    @rule(worker=st.sampled_from(WORKERS))
    def lease(self, worker):
        self._lease(worker, expires=True)

    @rule(index=st.integers(0, 1))
    def lease_local(self, index):
        """A local worker thread takes a job: a lease without a deadline."""
        self._lease(f"local-{index}", expires=False)

    def _lease(self, worker: str, expires: bool) -> None:
        expected = self._pop_model()
        while expected is not None and self.jobs[expected].result_key in self.stored:
            self._finish(expected, DONE)  # the result appeared while it sat queued
            expected = self._pop_model()
        lease = self.scheduler.lease_next(worker, expires=expires)
        if expected is None:
            assert lease is None
            return
        assert lease is not None and lease.job.id == expected
        assert lease.job.state == RUNNING
        self.state[expected] = "leased"
        self.attempts[expected] += 1
        self.granted[lease.id] = lease
        deadline = self.clock.now() + LEASE_TIMEOUT if expires else math.inf
        self.leases[lease.id] = ModelLease(
            expected, worker, deadline, next(self.grants), self.clock.now()
        )

    @precondition(lambda self: self._held())
    @rule(pick=st.integers(0, 99))
    def heartbeat(self, pick):
        self._heartbeat(self._held()[pick % len(self._held())])

    def _heartbeat(self, lease_id: str) -> None:
        if self._live(lease_id):
            self.scheduler.heartbeat_lease(lease_id)
            lease = self.leases[lease_id]
            if not math.isinf(lease.expires):  # a local lease keeps no deadline
                lease.expires = self.clock.now() + LEASE_TIMEOUT
        else:
            with pytest.raises(StaleLeaseError):
                self.scheduler.heartbeat_lease(lease_id)

    @precondition(lambda self: self._held())
    @rule(pick=st.integers(0, 99))
    def complete(self, pick):
        lease_id = self._held()[pick % len(self._held())]
        job = self.jobs[self.leases[lease_id].job_id]
        payload = {"key": job.result_key, "text": f"by {lease_id}"}
        if not self._live(lease_id):
            # Expired but not yet reaped: refused, the result still kept.
            with pytest.raises(StaleLeaseError):
                self.scheduler.complete_lease(lease_id, payload)
            self.stored.add(job.result_key)
            return
        assert self.scheduler.complete_lease(lease_id, payload) is job
        del self.leases[lease_id]
        self.stale.append(lease_id)
        self.stored.add(job.result_key)
        self._finish(job.id, DONE)

    @precondition(lambda self: self._held())
    @rule(pick=st.integers(0, 99))
    def fail(self, pick):
        lease_id = self._held()[pick % len(self._held())]
        job = self.jobs[self.leases[lease_id].job_id]
        if not self._live(lease_id):
            with pytest.raises(StaleLeaseError):
                self.scheduler.fail_lease(lease_id, "boom")
            return
        self.scheduler.fail_lease(lease_id, "boom")
        self._retry_or_finish(lease_id, FAILED)

    @rule(seconds=st.sampled_from((0.25, 0.5, 1.0, 2.0, 3.0, 6.0)))
    def advance_clock(self, seconds):
        self.clock.elapse(seconds)

    @rule()
    def reap(self):
        """Expired leases are lost first; of the live remote ones, those
        past their job's timeout then go through the retry budget."""
        now = self.clock.now()
        expired = sorted(
            (lease.grant, lid) for lid, lease in self.leases.items() if lease.expires <= now
        )
        overtime = sorted(
            (lease.grant, lid) for lid, lease in self.leases.items()
            if now < lease.expires < math.inf  # live and remote
            and now - lease.granted_at > (self.timeout[lease.job_id] or math.inf)
        )
        self.scheduler._reap_once()
        for _grant, lease_id in expired:
            self._lose(lease_id)
        for _grant, lease_id in overtime:
            self.abandoned.discard(lease_id)
            self.timeouts += 1
            self._retry_or_finish(lease_id, TIMED_OUT)
        for lease in self.scheduler.leases.active():
            if lease.timeout is not None and lease.job.timeout is not None:
                assert now - lease.granted_monotonic <= lease.job.timeout
        for ready, seq, job_id in sorted(self.delayed):
            if ready <= now:
                self.delayed.remove((ready, seq, job_id))
                self._push_fresh(self.jobs[job_id])

    @precondition(lambda self: self._held(local=False))
    @rule(pick=st.integers(0, 99))
    def long_attempt(self, pick):
        """A remote worker heartbeats every second while its attempt runs
        past its job's timeout (1 s without one), then the reaper ticks."""
        remote = self._held(local=False)
        lease_id = remote[pick % len(remote)]
        lease = self.leases[lease_id]
        timeout = self.timeout[lease.job_id] or 1.0
        while self._live(lease_id) and self.clock.now() - lease.granted_at <= timeout:
            self._heartbeat(lease_id)
            self.clock.elapse(1.0)
        self.reap()

    @precondition(lambda self: self._held(local=False))
    @rule(pick=st.integers(0, 99))
    def worker_vanishes(self, pick):
        """A remote worker dies mid-job: its leases go silent, then expire."""
        remote = self._held(local=False)
        worker = self.leases[remote[pick % len(remote)]].worker
        self.abandoned.update(
            lid for lid, lease in self.leases.items() if lease.worker == worker
        )
        self.clock.elapse(LEASE_TIMEOUT)
        self.reap()

    @precondition(lambda self: self._held(local=True))
    @rule(pick=st.integers(0, 99))
    def local_crash(self, pick):
        """A local worker's child dies: its thread hands the lease to the
        same requeue function the reaper uses for expired leases."""
        local = self._held(local=True)
        lease_id = local[pick % len(local)]
        self.scheduler.leases.release(lease_id)
        self.scheduler._requeue_lost(self.granted[lease_id], "worker process died")
        self._lose(lease_id)

    @precondition(lambda self: self.stale)
    @rule(pick=st.integers(0, 99))
    def stale_completion(self, pick):
        """A late delivery on a lease the coordinator already took back."""
        lease_id = self.stale[pick % len(self.stale)]
        key = self.granted[lease_id].job.result_key
        before = {jid: (job.state, job.attempts, job.requeues) for jid, job in self.jobs.items()}
        for _ in range(2):  # idempotent: the second delivery changes nothing
            with pytest.raises(StaleLeaseError):
                self.scheduler.complete_lease(lease_id, {"key": key, "text": "late"})
            after = {jid: (job.state, job.attempts, job.requeues) for jid, job in self.jobs.items()}
            assert after == before
        self.stored.add(key)
        assert self.scheduler.results.peek(key)[0]

    # -- invariants -------------------------------------------------

    @invariant()
    def each_job_in_exactly_one_place(self):
        scheduler = self.scheduler
        queued = [job.id for job in scheduler.queue.snapshot()]
        leased = [lease.job.id for lease in scheduler.leases.active()]
        delayed = [job.id for _ready, _tie, job in scheduler._delayed]
        for job in scheduler.jobs():
            places = (
                queued.count(job.id)
                + leased.count(job.id)
                + delayed.count(job.id)
                + (job.state in TERMINAL_STATES)
            )
            assert places == 1, (job.id, job.state, queued, leased, delayed)
            assert (job.attempts, job.requeues) == (self.attempts[job.id], self.requeues[job.id])
            expected = self.state[job.id]
            if expected == "terminal":
                assert job.state == self.outcome[job.id]
            elif expected == "leased":
                assert job.state == RUNNING and job.id in leased
            elif expected == "delayed":
                assert job.state == QUEUED and job.id in delayed
            else:
                assert job.state == QUEUED and job.id in queued

    @invariant()
    def timeouts_are_counted(self):
        assert self.scheduler.metrics()["counters"]["timeouts"] == self.timeouts

    @invariant()
    def budgets_hold(self):
        for job in self.scheduler.jobs():
            assert 0 <= job.attempts <= job.retries + 1
            # The loss that exhausts the budget is counted, then fails the job.
            assert job.requeues <= MAX_REQUEUES + (job.state == FAILED)

    @invariant()
    def queue_order_matches_the_model(self):
        expected: List[str] = []
        for priority in sorted(set(self.requeued) | set(self.fresh)):
            expected += list(self.requeued.get(priority, ()))
            expected += [
                job_id for _seq, job_id in sorted(
                    entry for fifo in self.fresh.get(priority, {}).values() for entry in fifo
                )
            ]
        assert [job.id for job in self.scheduler.queue.snapshot()] == expected

    @invariant()
    def live_keys_are_unique(self):
        live = [
            job.result_key for job in self.scheduler.jobs()
            if job.state not in TERMINAL_STATES
        ]
        assert len(live) == len(set(live))


ServiceProtocol.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServiceProtocol = ServiceProtocol.TestCase


@pytest.mark.slow
class TestServiceProtocolLong(ServiceProtocol.TestCase):
    """The same machine with ten times the example budget (slow CI job)."""

    settings = settings(
        max_examples=600,
        stateful_step_count=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
