"""repro.service — the long-lived co-execution service.

A persistent, multi-tenant front end over the compiler and runtime:
one shared artifact cache, one service-scoped health registry, a
:class:`DevicePool` of simulated accelerator slots, and an
:class:`AdmissionController` enforcing bounded per-tenant queues with
deterministic weighted round-robin. See docs/SERVICE.md.
"""

from repro.service.admission import AdmissionController, TenantState
from repro.service.jobs import (
    CANCELLED,
    COMPLETED,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    Job,
)
from repro.service.journal import (
    JOURNAL_SCHEMA,
    NULL_JOURNAL,
    RECOVER_SCHEMA,
    RECOVER_SPEC,
    JobJournal,
    JobReplay,
    JournalSnapshot,
    RecoveredOutcome,
    load_journal,
    outcome_digest,
    render_recover_report,
)
from repro.service.pool import DevicePool, Lease
from repro.service.service import (
    SERVICE_SCHEMA,
    SERVICE_SPEC,
    CoExecutionService,
    ServiceConfig,
    render_service_report,
    run_recovery_driver,
    run_service_driver,
)

__all__ = [
    "JOURNAL_SCHEMA",
    "RECOVER_SCHEMA",
    "RECOVER_SPEC",
    "JobJournal",
    "NULL_JOURNAL",
    "JobReplay",
    "JournalSnapshot",
    "RecoveredOutcome",
    "load_journal",
    "outcome_digest",
    "render_recover_report",
    "run_recovery_driver",
    "AdmissionController",
    "TenantState",
    "DevicePool",
    "Lease",
    "Job",
    "JOB_STATES",
    "QUEUED",
    "RUNNING",
    "COMPLETED",
    "FAILED",
    "CANCELLED",
    "SERVICE_SCHEMA",
    "SERVICE_SPEC",
    "CoExecutionService",
    "ServiceConfig",
    "run_service_driver",
    "render_service_report",
]
