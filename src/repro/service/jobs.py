"""Job records for the co-execution service.

A :class:`Job` is one submitted task-graph run: source program, entry
point, arguments, the tenant it belongs to, and the lifecycle state
the service moves it through:

    QUEUED ──dispatch──► RUNNING ──► COMPLETED
       │                    │   └──► FAILED      (typed error)
       └────cancel──────────┴──────► CANCELLED   (explicit or deadline)

Every job carries its own :class:`~repro.runtime.cancel.CancelToken`
(deadline included) and a ``done`` event callers wait on. The record
itself is dumb data plus synchronization — all policy lives in
:class:`~repro.service.service.CoExecutionService`.
"""

from __future__ import annotations

import threading

from repro.runtime.cancel import CancelToken

__all__ = [
    "Job",
    "QUEUED", "RUNNING", "COMPLETED", "FAILED", "CANCELLED",
    "JOB_STATES",
]

QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = (QUEUED, RUNNING, COMPLETED, FAILED, CANCELLED)


class Job:
    """One submitted run and everything the service knows about it."""

    def __init__(
        self,
        job_id: str,
        tenant: str,
        source: str,
        entry: str,
        args: list,
        app: str = "",
        filename: str = "<lime>",
        deadline_s: float | None = None,
        clock=None,
    ):
        self.job_id = job_id
        self.tenant = tenant
        self.source = source
        self.entry = entry
        self.args = list(args or [])
        self.app = app or filename
        self.filename = filename
        self.token = CancelToken(
            job_id=job_id,
            tenant=tenant,
            deadline_s=deadline_s,
            clock=clock,
        )
        self.state = QUEUED
        #: Device families the compiled program has artifacts for —
        #: the lease universe (set by the service at submit time).
        self.device_families: tuple = ()
        #: Typed compile failure captured at submit; surfaces when
        #: the job runs (submission itself stays non-throwing).
        self.compile_error: "BaseException | None" = None
        self.lease = None
        self.outcome = None                # RunOutcome on COMPLETED
        self.error: BaseException | None = None
        self.leased_families: tuple = ()
        self.wall_s = 0.0                  # dispatch-to-finish wall time
        self.done = threading.Event()
        #: True when the job was re-admitted by recovery (journal
        #: replay) rather than a fresh ``submit()``.
        self.recovered = False
        #: How the recovered job resumes: "checkpoint" | "scratch".
        self.recovery_mode = ""
        #: (spec_index, call_index) crash firings already journaled —
        #: suppressed on re-run so the job converges past its crash.
        self.crash_suppression: set = set()
        #: The journaled frame chain a checkpoint-mode recovery
        #: resumes (consumed by the job's first run).
        self.checkpoints: list = []
        #: Outcome digest (see ``repro.service.journal.outcome_digest``)
        #: — the bit-identity certificate recovery verifies against.
        self.digest: "str | None" = None
        #: Canonical fault-log payload captured at completion.
        self.fault_log: "list | None" = None

    @property
    def finished(self) -> bool:
        return self.state in (COMPLETED, FAILED, CANCELLED)

    def describe(self) -> dict:
        """The job's row in ``status()`` and the service report."""
        row = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "app": self.app,
            "entry": self.entry,
            "state": self.state,
            "leased": list(self.leased_families),
        }
        if self.outcome is not None:
            row["simulated_s"] = self.outcome.ledger.total_s
        if self.digest is not None:
            row["digest"] = self.digest
        if self.recovered:
            row["recovered"] = True
            row["recovery_mode"] = self.recovery_mode
        if self.error is not None:
            row["error"] = {
                "type": type(self.error).__name__,
                "message": str(self.error),
                "job_id": getattr(self.error, "job_id", None),
                "tenant": getattr(self.error, "tenant", None),
            }
        return row

    def __repr__(self) -> str:
        return f"<Job {self.job_id} {self.tenant} {self.app} {self.state}>"
