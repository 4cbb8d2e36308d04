"""Work leases: every worker's claim on the job it is running.

A worker that pulls a job gets a :class:`Lease`: a claim on that job.
A remote worker's lease has a deadline it renews by heartbeating; if
heartbeats stop (worker crashed, network partition, OOM-killed
container) the lease expires and the scheduler's reaper requeues the
job at the front of its priority class.  The scheduler's local worker
threads take leases **without a deadline**: each thread reports every
outcome of its attempt itself (a dead child included), so the reaper
never has to take their job back, however long the attempt runs.

All deadlines are **monotonic-clock** deltas: a wall-clock adjustment
on the coordinator can never spuriously expire (or immortalize) a
lease.  The manager is its own small lock domain; the scheduler calls
into it without holding its job lock.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import StaleLeaseError
from repro.service.jobs import Job


@dataclass
class Lease:
    """One worker's claim on one running job (``timeout=None``: no deadline)."""

    id: str
    job: Job
    worker: str
    timeout: Optional[float]
    granted_monotonic: float
    expires_monotonic: float
    heartbeats: int = field(default=0)

    def remaining(self, now: float) -> float:
        """Seconds until expiry (negative = already expired; inf = never)."""
        return self.expires_monotonic - now

    def to_json(self, now: float) -> Dict:
        return {
            "lease_id": self.id,
            "job_id": self.job.id,
            "worker": self.worker,
            "timeout": self.timeout,
            "heartbeats": self.heartbeats,
            "expires_in": None if self.timeout is None else self.remaining(now),
        }


class LeaseManager:
    """Tracks active leases and harvests the expired and overtime ones."""

    def __init__(
        self,
        timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if timeout <= 0:
            raise StaleLeaseError(f"lease timeout must be positive, got {timeout}")
        self.timeout = timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._leases: Dict[str, Lease] = {}
        self._ids = itertools.count(1)

    def grant(self, job: Job, worker: str, expires: bool = True) -> Lease:
        """Create a lease on ``job`` for ``worker``.

        ``expires=False`` grants it without a deadline: it is never
        harvested, and only its holder can release it."""
        now = self._clock()
        timeout = self.timeout if expires else None
        with self._lock:
            lease = Lease(
                id=f"lease-{next(self._ids)}",
                job=job,
                worker=worker,
                timeout=timeout,
                granted_monotonic=now,
                expires_monotonic=now + timeout if timeout is not None else math.inf,
            )
            self._leases[lease.id] = lease
            return lease

    def heartbeat(self, lease_id: str) -> Lease:
        """Extend a live lease's deadline; stale ids raise."""
        now = self._clock()
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is None or lease.remaining(now) <= 0:
                raise StaleLeaseError(
                    f"lease {lease_id!r} is unknown or expired; abandon the attempt"
                )
            if lease.timeout is not None:
                lease.expires_monotonic = now + lease.timeout
            lease.heartbeats += 1
            return lease

    def release(self, lease_id: str) -> Lease:
        """Remove and return a live lease (worker completed/failed it).

        An expired lease stays in place for the reaper, which requeues
        its job; dropping it here would strand the job ``running``.
        """
        now = self._clock()
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is None or lease.remaining(now) <= 0:
                raise StaleLeaseError(
                    f"lease {lease_id!r} is unknown or expired; abandon the attempt"
                )
            del self._leases[lease_id]
            return lease

    def harvest_expired(self) -> List[Lease]:
        """Remove and return every expired lease (reaper's tick)."""
        return self._harvest(lambda lease, now: lease.remaining(now) <= 0)

    def harvest_overtime(self) -> List[Lease]:
        """Remove and return every live lease with a deadline whose attempt
        has run longer than its job's ``timeout`` (reaper's tick)."""
        return self._harvest(
            lambda lease, now: lease.timeout is not None
            and lease.job.timeout is not None
            and lease.remaining(now) > 0
            and now - lease.granted_monotonic > lease.job.timeout
        )

    def _harvest(self, due: Callable[[Lease, float], bool]) -> List[Lease]:
        """Remove and return the leases ``due`` picks, oldest grant first."""
        now = self._clock()
        with self._lock:
            picked = [lease for lease in self._leases.values() if due(lease, now)]
            for lease in picked:
                del self._leases[lease.id]
            return picked

    def active(self) -> List[Lease]:
        """Live leases, oldest grant first (for ``GET /leases``)."""
        with self._lock:
            return sorted(
                self._leases.values(), key=lambda lease: lease.granted_monotonic
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._leases)
