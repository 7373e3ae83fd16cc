"""Admission control: bounded per-tenant queues + deterministic WRR.

Two protections for a saturated service:

* **Bounded queue depth** — each tenant may hold at most
  ``max_queue_depth`` queued jobs. The bound is per tenant, so one
  flooding tenant exhausts its own budget, not the service's. Over
  the bound, ``submit`` raises an honest
  :class:`~repro.errors.AdmissionRejected` carrying the observed
  depth and a ``retry_after_s`` hint derived from the mean observed
  job duration.

* **Deterministic weighted round-robin** — dispatch order between
  tenants uses the *smooth* WRR algorithm (the nginx variant): every
  pick adds each active tenant's weight to its running ``current``
  score, picks the maximum (ties broken by tenant name), and subtracts
  the total active weight from the winner. A weight-2 tenant gets
  exactly twice the picks of a weight-1 tenant, interleaved rather
  than bursty, and the order is a pure function of the queue states —
  no clocks, no randomness — so fairness is unit-testable.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.errors import AdmissionRejected, ConfigurationError

__all__ = ["AdmissionController", "TenantState"]

#: Fallback duration estimate (wall seconds) before any job completed.
_DEFAULT_JOB_S = 0.05


class TenantState:
    """One tenant's queue and WRR bookkeeping."""

    def __init__(self, name: str, weight: int):
        self.name = name
        self.weight = weight
        self.current = 0          # smooth-WRR running score
        self.queue: deque = deque()
        # Lifetime tallies for the service report.
        self.submitted = 0
        self.admitted = 0
        self.rejected = 0

    def __repr__(self) -> str:
        return (
            f"<TenantState {self.name} w={self.weight} "
            f"depth={len(self.queue)}>"
        )


class AdmissionController:
    """Per-tenant fair queuing for the co-execution service."""

    def __init__(self, max_queue_depth: int = 8, metrics=None):
        if max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self.max_queue_depth = max_queue_depth
        self.metrics = metrics
        self._lock = threading.Lock()
        self._tenants: dict = {}          # name -> TenantState
        # Completed-job wall seconds, as a count and a running sum:
        # the estimator's state stays O(1) for a long-lived service.
        self._jobs_timed = 0
        self._job_s_total = 0.0
        self.total_admitted = 0
        self.total_rejected = 0

    # -- tenants -----------------------------------------------------------

    def register(self, name: str, weight: int = 1) -> TenantState:
        """Register (or re-weight) a tenant. Weight must be >= 1."""
        if weight < 1:
            raise ConfigurationError(
                f"tenant weight must be >= 1, got {name}={weight}"
            )
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                state = self._tenants[name] = TenantState(name, weight)
            else:
                state.weight = weight
            return state

    def tenants(self) -> list:
        with self._lock:
            return [self._tenants[name] for name in sorted(self._tenants)]

    def queue_depth(self, tenant: str) -> int:
        with self._lock:
            state = self._tenants.get(tenant)
            return len(state.queue) if state is not None else 0

    # -- duration feedback -------------------------------------------------

    def observe_duration(self, wall_s: float) -> None:
        """Feed one completed job's wall time into the retry-after
        estimator."""
        with self._lock:
            self._jobs_timed += 1
            self._job_s_total += max(wall_s, 0.0)

    def _retry_after_s(self) -> float:
        """The pending backlog times the mean observed job duration.
        Caller holds the lock."""
        pending = sum(len(s.queue) for s in self._tenants.values())
        mean = (
            self._job_s_total / self._jobs_timed
            if self._jobs_timed
            else _DEFAULT_JOB_S
        )
        return max(pending, 1) * mean

    def retry_after_hint_s(self) -> float:
        """How long a rejected client should back off: the pending
        backlog ahead of it times the mean observed job duration."""
        with self._lock:
            return self._retry_after_s()

    # -- submission --------------------------------------------------------

    def enqueue(self, tenant: str, job, force: bool = False) -> None:
        """Queue a job for a registered tenant, or raise the typed
        :class:`AdmissionRejected` when the tenant is at its depth
        bound. ``force`` bypasses the bound — recovery re-admits
        journaled jobs that were already admitted once and must not
        be dropped by a depth race on restart."""
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                raise ConfigurationError(
                    f"unknown tenant {tenant!r}; register it first"
                )
            state.submitted += 1
            depth = len(state.queue)
            if depth >= self.max_queue_depth and not force:
                state.rejected += 1
                self.total_rejected += 1
                hint = self._retry_after_s()
                raise AdmissionRejected(
                    f"tenant {tenant!r} queue is full "
                    f"({depth}/{self.max_queue_depth}); "
                    f"retry in ~{hint:.3g}s",
                    tenant=tenant,
                    queue_depth=depth,
                    retry_after_s=hint,
                )
            state.queue.append(job)
            state.admitted += 1
            self.total_admitted += 1

    # -- dispatch ----------------------------------------------------------

    def next_job(self, exclude=()):
        """Pop the next job to dispatch under smooth WRR, or None when
        every (non-excluded) tenant queue is empty.

        ``exclude`` names tenants the dispatcher already tried this
        round (their head job could not get a lease); they keep their
        queue position and their WRR score untouched.
        """
        exclude = set(exclude)
        with self._lock:
            active = [
                self._tenants[name]
                for name in sorted(self._tenants)
                if self._tenants[name].queue and name not in exclude
            ]
            if not active:
                return None
            total = sum(s.weight for s in active)
            best = None
            for state in active:
                state.current += state.weight
                if best is None or state.current > best.current:
                    # Strict > keeps ties on the first tenant in name
                    # order — deterministic by construction.
                    best = state
            best.current -= total
            return best.queue.popleft()

    def requeue_front(self, job) -> None:
        """Put a popped-but-undispatchable job back at the head of its
        tenant's queue (its turn comes around again next round)."""
        with self._lock:
            state = self._tenants.get(job.tenant)
            if state is None:
                raise ConfigurationError(
                    f"unknown tenant {job.tenant!r}"
                )
            state.queue.appendleft(job)

    def remove(self, job) -> bool:
        """Drop a queued job (cancellation before dispatch). True when
        the job was found and removed."""
        with self._lock:
            state = self._tenants.get(job.tenant)
            if state is None:
                return False
            try:
                state.queue.remove(job)
                return True
            except ValueError:
                return False

    def snapshot(self) -> list:
        """Tenant rows for the ``repro.service/1`` report."""
        with self._lock:
            return [
                {
                    "tenant": name,
                    "weight": state.weight,
                    "queued": len(state.queue),
                    "submitted": state.submitted,
                    "admitted": state.admitted,
                    "rejected": state.rejected,
                }
                for name, state in sorted(self._tenants.items())
            ]
