"""The long-lived co-execution service (docs/SERVICE.md).

:class:`CoExecutionService` keeps the whole runtime stack alive across
jobs: one :class:`~repro.compiler.CompilerSession` (sharing one
artifact cache and an in-memory compile memo), one *service-scoped*
:class:`~repro.runtime.health.HealthRegistry` (breaker state shared
across jobs — a device quarantined by tenant A's failures is
quarantined for tenant B too, and re-promotes for everyone), one
:class:`~repro.service.pool.DevicePool` of simulated accelerator
slots, and one :class:`~repro.service.admission.AdmissionController`
enforcing bounded per-tenant queues with deterministic weighted
round-robin dispatch.

The API is ``submit / status / result / cancel / drain``. Each
admitted job runs a full task-graph runtime on its own (pooled) thread
with its own interpreter, timing ledger, and fault injector — simulated
time is per job, so concurrent execution is bit-identical to standalone
execution — while device access is arbitrated by slot leases and the
shared breakers.

Degradation matrix (see docs/SERVICE.md):

==================  =============================================
Pool family full    job stays QUEUED; other tenants' heads tried
Family breaker OPEN job dispatches *without* that family's lease;
                    its spans run bytecode via the shared breaker,
                    advancing the quarantine clock toward probing
Deadline expired    job CANCELLED before it acquires any lease
Cancel mid-run      cooperative stop at the next firing boundary;
                    queues drained, threads joined, lease released
==================  =============================================
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from dataclasses import dataclass, field

from repro import schema
from repro.backends.common import FPGA, GPU
from repro.compiler import CompileOptions, CompilerSession
from repro.errors import (
    AdmissionRejected,
    CheckpointReplayError,
    ConfigurationError,
    JobCancelledError,
    JobResultTimeout,
    LiquidMetalError,
    ProcessCrash,
)
from repro.obs.metrics import NULL_METRICS
from repro.runtime.checkpoint import (
    DEFAULT_INTERVAL as CHECKPOINT_DEFAULT_INTERVAL,
    CheckpointRecorder,
    capture_refusal,
)
from repro.runtime.engine import Runtime, RuntimeConfig
from repro.runtime.faults import fault_log_payload
from repro.runtime.health import HealthRegistry
from repro.runtime.workers import spawn
from repro.service.admission import AdmissionController
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
    NULL_JOURNAL,
    RECOVER_SCHEMA,
    JobJournal,
    canonical_args,
    encode_args,
    load_journal,
    outcome_digest,
)
from repro.service.pool import DevicePool
from repro.values import deserialize

__all__ = [
    "SERVICE_SCHEMA",
    "ServiceConfig",
    "CoExecutionService",
    "SERVICE_SPEC",
    "render_service_report",
    "run_service_driver",
    "run_recovery_driver",
]

#: Schema stamp for service reports.
SERVICE_SCHEMA = "repro.service/1"


@dataclass
class ServiceConfig:
    """Knobs for one co-execution service instance."""

    #: Simulated accelerator slots in the shared pool.
    gpu_slots: int = 2
    fpga_slots: int = 1
    #: Concurrent jobs actually executing (threads), not queue depth.
    max_running: int = 4
    #: Per-tenant queued-job bound; over it, submit() rejects.
    max_queue_depth: int = 8
    #: Base runtime config every job derives from (scheduler, retry,
    #: breaker cool-down, fault plan, tracer...). Per-job fields
    #: (job_id/tenant/policy) are overridden at dispatch.
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    #: Compiler options for the service's shared CompilerSession
    #: (point its CacheOptions at a cache_dir to share artifacts).
    compile_options: "CompileOptions | None" = None
    #: Wall clock used for job deadlines and retry-after estimates —
    #: injectable so deadline tests are deterministic.
    clock: object = time.monotonic
    #: Directory for the durable job journal, ``journal.rj``, which
    #: also holds every job's checkpoint frames (docs/RECOVERY.md).
    #: None disables crash consistency.
    journal_dir: "str | None" = None
    #: Decision points between persisted checkpoint frames (only
    #: meaningful with a journal_dir). The default keeps the modeled
    #: persist cost under the documented 10% overhead bar
    #: (docs/RECOVERY.md).
    checkpoint_interval: int = CHECKPOINT_DEFAULT_INTERVAL

    def __post_init__(self):
        if self.gpu_slots < 0 or self.fpga_slots < 0:
            raise ConfigurationError("pool slots must be >= 0")
        if self.max_running < 1:
            raise ConfigurationError(
                f"max_running must be >= 1, got {self.max_running}"
            )
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, "
                f"got {self.max_queue_depth}"
            )
        if self.checkpoint_interval < 1:
            raise ConfigurationError(
                f"checkpoint_interval must be >= 1, "
                f"got {self.checkpoint_interval}"
            )


class CoExecutionService:
    """A persistent, multi-tenant front end over the runtime stack."""

    def __init__(self, config: "ServiceConfig | None" = None,
                 journal_dir: "str | None" = None):
        self.config = config or ServiceConfig()
        if journal_dir is not None:
            self.config = dataclasses.replace(
                self.config, journal_dir=journal_dir
            )
        self.tracer = self.config.runtime.tracer
        self.metrics = getattr(self.tracer, "metrics", NULL_METRICS)
        self.session = CompilerSession(self.config.compile_options)
        # Service-scoped health: one registry for every job's runtime.
        self.health = HealthRegistry(
            self.config.runtime.cooldown_s, tracer=self.tracer
        )
        self.pool = DevicePool(
            {GPU: self.config.gpu_slots, FPGA: self.config.fpga_slots},
            metrics=self.metrics,
        )
        self.admission = AdmissionController(
            self.config.max_queue_depth, metrics=self.metrics
        )
        self._lock = threading.RLock()
        self._jobs: dict = {}       # job_id -> Job (insertion-ordered)
        self._handles: list = []    # pooled job threads (runtime.workers)
        self._seq = 0
        self._running = 0
        self._draining = False
        # Crash consistency (docs/RECOVERY.md): load whatever journal
        # survived the previous incarnation *before* opening it for
        # append, so recovery sees exactly the pre-crash records.
        self._crashed: "ProcessCrash | None" = None
        self._to_recover: list = []  # JobReplay rows needing a re-run
        self._deduped: list = []     # report rows for replayed jobs
        self._rejected_ids: list = []
        self._journal_torn_bytes = 0
        self._journal_prior_records = 0
        if self.config.journal_dir is None:
            self.journal = NULL_JOURNAL
        else:
            snapshot = load_journal(self.config.journal_dir)
            self.journal = JobJournal(
                self.config.journal_dir, tracer=self.tracer,
                snapshot=snapshot,
            )
            self._ingest_journal(snapshot)

    def _ingest_journal(self, snapshot) -> None:
        """Fold a prior incarnation's journal into this service:
        terminal jobs become deduplicated Job records (``result()``
        serves them without re-running), non-terminal admitted jobs
        queue for :meth:`recover`, submitted-but-never-admitted jobs
        stay rejected (their admission never committed)."""
        counters = self.tracer.counters
        self._journal_torn_bytes = snapshot.torn_bytes
        self._journal_prior_records = snapshot.records
        for job_id, replay in snapshot.jobs.items():
            number = job_id.rsplit("-", 1)[-1]
            if number.isdigit():
                self._seq = max(self._seq, int(number))
            if not replay.admitted:
                self._rejected_ids.append(job_id)
                continue
            if replay.terminal:
                job = Job(
                    job_id=job_id,
                    tenant=replay.tenant,
                    source=replay.source,
                    entry=replay.entry,
                    args=replay.args or [],
                    app=replay.app,
                    filename=replay.filename,
                    clock=self.config.clock,
                )
                job.recovered = True
                job.state = replay.state
                if replay.state == COMPLETED:
                    job.outcome = replay.outcome()
                    job.digest = job.outcome.digest
                    job.fault_log = list(job.outcome.fault_log)
                else:
                    job.error = LiquidMetalError(
                        f"[journaled {replay.error_type}] {replay.error}"
                    )
                job.done.set()
                self.admission.register(replay.tenant, 1)
                self._jobs[job_id] = job
                self._deduped.append({
                    "job_id": job_id,
                    "app": replay.app,
                    "tenant": replay.tenant,
                    "state": replay.state,
                    "digest": (replay.completed or {}).get("digest"),
                })
                counters.add("recover.dedup")
            else:
                self._to_recover.append(replay)

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "CoExecutionService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()

    # -- tenants -----------------------------------------------------------

    def register_tenant(self, name: str, weight: int = 1) -> None:
        """Register a tenant (or change its weight). Submissions for
        unregistered tenants are auto-registered at weight 1."""
        self.admission.register(name, weight)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        source: str,
        entry: str,
        args: "list | None" = None,
        *,
        tenant: str,
        app: str = "",
        filename: str = "<lime>",
        deadline_s: "float | None" = None,
    ) -> str:
        """Admit one job. Returns its job id, or raises the typed
        :class:`~repro.errors.AdmissionRejected` when the tenant's
        queue is at its bound (or the service is draining)."""
        counters = self.tracer.counters
        with self._lock:
            self._check_crashed()
            if self._draining:
                counters.add("service.reject")
                raise AdmissionRejected(
                    "service is draining; not admitting new jobs",
                    tenant=tenant,
                    queue_depth=self.admission.queue_depth(tenant),
                    retry_after_s=self.admission.retry_after_hint_s(),
                    reason="draining",
                )
            if tenant not in (t.name for t in self.admission.tenants()):
                self.admission.register(tenant, 1)
            self._seq += 1
            job = Job(
                job_id=f"job-{self._seq:04d}",
                tenant=tenant,
                source=source,
                entry=entry,
                args=args,
                app=app,
                filename=filename,
                deadline_s=deadline_s,
                clock=self.config.clock,
            )
            wire = None
            if self.journal.enabled:
                # Wire-canonical inputs (docs/RECOVERY.md): a
                # recovered re-run gets its arguments back out of the
                # journal, so the first run must execute the same
                # post-round-trip values. Encoded once: the job runs
                # the decoded bytes and the journal records them.
                # Unserializable arguments stay as-is; the journal
                # marks the job unrecoverable.
                try:
                    wire = encode_args(job.args)
                except Exception:
                    pass
                else:
                    job.args = [deserialize(w) for w in wire]
            # Write-ahead: the submitted record (full deterministic
            # inputs) lands before the queue commit; a crash between
            # the two leaves a submitted-but-never-admitted record
            # that recovery treats as rejected.
            self.journal.record_submitted(job, wire)
            try:
                self.admission.enqueue(tenant, job)
            except AdmissionRejected:
                counters.add("service.reject")
                counters.add(f"service.reject[{tenant}]")
                raise
            self._jobs[job.job_id] = job
            self.journal.record_admitted(job.job_id)
        # Compile up front (memoized across jobs) so dispatch knows
        # which device families this program can actually use — a
        # gpu-only job must not hold the fpga slot. Compile failures
        # are captured, not raised: the job fails typed when it runs.
        try:
            compiled = self.session.compile_cached(
                source, filename=filename
            )
        except LiquidMetalError as exc:
            job.compile_error = exc
        else:
            job.device_families = tuple(
                family
                for family in self.config.runtime.policy.device_order
                if compiled.store.for_device(family)
            )
        counters.add("service.admit")
        counters.add(f"service.admit[{tenant}]")
        with self.tracer.span(
            "service.job.submit",
            job_id=job.job_id,
            tenant=tenant,
            app=job.app,
            deadline_s=deadline_s,
        ):
            pass
        self._dispatch()
        return job.job_id

    # -- inspection --------------------------------------------------------

    def _job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ConfigurationError(f"unknown job id {job_id!r}")
        return job

    def status(self, job_id: str) -> dict:
        """A point-in-time row for one job (state, tenant, leases,
        error if any)."""
        return self._job(job_id).describe()

    def result(self, job_id: str, timeout_s: "float | None" = None):
        """Block until the job finishes; return its
        :class:`~repro.runtime.engine.RunOutcome` or re-raise the
        job's typed error (FAILED and CANCELLED both raise)."""
        job = self._job(job_id)
        if not job.done.wait(timeout_s):
            raise JobResultTimeout(
                f"job {job_id} still {job.state} after {timeout_s}s",
                job_id=job_id,
                state=job.state,
                timeout_s=timeout_s,
            )
        if job.state == COMPLETED:
            return job.outcome
        if job.error is not None:
            raise job.error
        raise ConfigurationError(
            f"job {job_id} finished in state {job.state!r} "
            f"without an error record"
        )

    # -- cancellation ------------------------------------------------------

    def cancel(self, job_id: str, reason: str = "cancelled") -> str:
        """Cancel a job. A queued job is removed immediately; a
        running job's token is tripped and its runtime unwinds at the
        next firing boundary (queues drained, lease released). Returns
        the job's state after the attempt (finished jobs are left
        alone)."""
        job = self._job(job_id)
        with self._lock:
            if job.state == QUEUED and self.admission.remove(job):
                job.token.cancel(reason)
                self._finish_unrun(job)
                return job.state
        if job.state == RUNNING:
            job.token.cancel(reason)
        return job.state

    def _finish_unrun(self, job: Job) -> None:
        """Finish a job that never ran (cancelled or deadline-expired
        while queued): record the typed error, count it, wake waiters.
        Caller holds the lock or owns the job."""
        try:
            job.token.check()
        except JobCancelledError as exc:
            job.error = exc
        job.state = CANCELLED
        counters = self.tracer.counters
        counters.add("service.job.cancelled")
        counters.add(f"service.job.cancelled[{job.tenant}]")
        job.done.set()

    # -- dispatch ----------------------------------------------------------

    def _lease_request(self, job: Job) -> tuple:
        """Device families this job should lease: every family its
        compiled program has artifacts for that has configured slots —
        minus any family with an OPEN breaker (graceful degradation:
        the job runs, its spans fall back to bytecode through the
        shared breakers, and the quarantine clock keeps advancing so
        the family can re-promote)."""
        if not self.config.runtime.policy.use_accelerators:
            return ()
        return tuple(
            family
            for family in job.device_families
            if self.pool.capacity(family) > 0
            and not self.health.family_open(family)
        )

    def _dispatch(self) -> None:
        """Fill free running slots from the tenant queues (smooth WRR
        order). A head job whose lease cannot be granted is requeued
        at the front and its tenant skipped for the rest of the round,
        so one starved tenant never blocks the others."""
        to_start: list = []
        with self._lock:
            if self._crashed is not None:
                # The simulated process is dead: nothing dispatches
                # until a restarted service recovers the journal.
                return
            tried: set = set()
            while self._running + len(to_start) < self.config.max_running:
                job = self.admission.next_job(exclude=tried)
                if job is None:
                    break
                if job.token.cancelled():
                    # Deadline expired (or cancel raced the queue):
                    # finish it before it ever takes a lease.
                    self._finish_unrun(job)
                    continue
                lease = self.pool.acquire(self._lease_request(job))
                if lease is None:
                    self.admission.requeue_front(job)
                    tried.add(job.tenant)
                    continue
                job.lease = lease
                job.leased_families = lease.families
                job.state = RUNNING
                self.journal.record_leased(job.job_id, lease.families)
                self.journal.record_running(job.job_id)
                to_start.append(job)
            self._running += len(to_start)
            # Finished jobs' handles are dropped here; drain joins the
            # rest.
            self._handles = [h for h in self._handles if h.is_alive()]
            for job in to_start:
                # The job reads done once its worker is idle again, so
                # a client that waits and resubmits reuses it.
                self._handles.append(spawn(
                    functools.partial(self._run_job, job),
                    f"svc-{job.job_id}",
                    done=job.done.set,
                ))

    def _runtime_config(self, job: Job) -> RuntimeConfig:
        base = self.config.runtime
        families = tuple(
            family
            for family in base.policy.device_order
            if self.pool.capacity(family) > 0
        )
        # The job keeps OPEN families in its policy: the shared
        # breakers mediate every batch, serving bytecode while OPEN
        # and shadow-probing in HALF_OPEN — that is how a quarantined
        # family re-promotes across jobs.
        policy = dataclasses.replace(base.policy, device_order=families)
        return base.with_overrides(
            policy=policy, job_id=job.job_id, tenant=job.tenant
        )

    def _make_recorder(self, job: Job) -> "CheckpointRecorder | None":
        """A checkpoint recorder for this job run — replaying the
        job's frame chain, which only the first run of a
        checkpoint-mode recovery has — or None when the service has no
        journal or the runtime config is not capturable
        (:func:`capture_refusal`)."""
        if not self.journal.enabled:
            return None
        if capture_refusal(self.config.runtime) is not None:
            return None
        chain, job.checkpoints = job.checkpoints, []
        if job.recovery_mode == "checkpoint" and not chain:
            # No valid frame: the re-run starts from scratch.
            job.recovery_mode = "scratch"
        return CheckpointRecorder(
            self.journal,
            job.job_id,
            interval=self.config.checkpoint_interval,
            tracer=self.tracer,
            chain=chain,
        )

    def _prepare_faults(self, runtime: Runtime, job: Job) -> None:
        """Arm crash suppression on the job's injector: firings this
        job already journaled burn their budget silently on the re-run
        (counters and RNG stay aligned with the uninterrupted
        baseline)."""
        if job.crash_suppression:
            runtime.faults.suppress(job.crash_suppression)

    def _check_crashed(self) -> None:
        with self._lock:
            crashed = self._crashed
        if crashed is not None:
            raise crashed

    def _die(self, crash: ProcessCrash) -> None:
        """Simulate the process dying: all later journal writes are
        lost — checkpoint frames included, so a zombie runtime thread
        cannot race the restarted service with stale frames — every
        running job's token trips so its thread unwinds, and the
        public API raises the crash.

        The crash is set under ``_lock`` before the journal dies, and
        :meth:`submit` journals under the same lock after checking it:
        an id ``submit`` returns is journaled, so a restarted service
        never hands it to another job."""
        with self._lock:
            self._crashed = crash
            running = [
                j for j in self._jobs.values()
                if j.state == RUNNING and j.error is None
            ]
        self.journal.mark_dead()
        for other in running:
            other.token.cancel("process crash")

    def _run_job(self, job: Job) -> None:
        counters = self.tracer.counters
        start_wall = time.perf_counter()
        runtime = None
        try:
            with self.tracer.span(
                "service.job.run",
                job_id=job.job_id,
                tenant=job.tenant,
                app=job.app,
                leased=",".join(job.leased_families),
            ) as span:
                if job.compile_error is not None:
                    raise job.compile_error
                compiled = self.session.compile_cached(
                    job.source, filename=job.filename
                )
                while True:
                    recorder = self._make_recorder(job)
                    try:
                        runtime = Runtime(
                            compiled,
                            self._runtime_config(job),
                            health_registry=self.health,
                            cancel_token=job.token,
                            checkpointer=recorder,
                        )
                        self._prepare_faults(runtime, job)
                        outcome = runtime.run(job.entry, job.args)
                    except CheckpointReplayError:
                        # The frame does not match the re-run (config
                        # drift, torn memo): scrub the breakers it
                        # restored and re-run from scratch — still
                        # bit-identical, just slower. The journaled
                        # mode makes the chain unresumable.
                        if recorder is not None:
                            recorder.invalidate(self.health)
                        if runtime is not None:
                            runtime.shutdown_active()
                            runtime = None
                        job.recovery_mode = "scratch"
                        self.journal.record_recovered(
                            job.job_id, job.recovery_mode
                        )
                        counters.add("service.job.checkpoint_invalid")
                        continue
                    break
                job.outcome = outcome
                job.fault_log = fault_log_payload(runtime.faults.log)
                job.digest = outcome_digest(
                    outcome.value,
                    outcome.output,
                    outcome.ledger.total_s,
                    job.fault_log,
                )
                job.state = COMPLETED
                self.journal.record_completed(job)
                span.set(
                    state=COMPLETED, simulated_s=outcome.ledger.total_s
                )
            counters.add("service.job.completed")
            counters.add(f"service.job.completed[{job.tenant}]")
        except JobCancelledError as exc:
            job.error = exc
            job.state = CANCELLED
            self.journal.record_cancelled(job.job_id, exc)
            counters.add("service.job.cancelled")
            counters.add(f"service.job.cancelled[{job.tenant}]")
        except ProcessCrash as exc:
            # The simulated process dies here. Journal the one record
            # a dying process gets to write — which firing killed it —
            # then lose everything after it.
            job.error = exc
            job.state = FAILED
            counters.add("service.crash")
            self.journal.record_crashed(job.job_id, exc)
            self._die(exc)
        except LiquidMetalError as exc:
            job.error = exc
            job.state = FAILED
            self.journal.record_failed(job.job_id, exc)
            counters.add("service.job.failed")
            counters.add(f"service.job.failed[{job.tenant}]")
        except BaseException as exc:  # defensive: never hang a waiter
            job.error = exc
            job.state = FAILED
            self.journal.record_failed(job.job_id, exc)
            counters.add("service.job.failed")
        finally:
            if runtime is not None:
                # Drain any wreckage a cancellation left behind.
                runtime.shutdown_active()
            self.pool.release(job.lease)
            job.wall_s = time.perf_counter() - start_wall
            self.admission.observe_duration(job.wall_s)
            with self._lock:
                self._running -= 1
            self._dispatch()

    # -- drain -------------------------------------------------------------

    def drain(self, timeout_s: "float | None" = 60.0) -> dict:
        """Stop admitting, finish (or time out on) every job already
        admitted, join worker threads, and return the final service
        report."""
        with self._lock:
            self._draining = True
            jobs = list(self._jobs.values())
        self._check_crashed()
        self._dispatch()
        deadline = (
            None if timeout_s is None
            else time.perf_counter() + timeout_s
        )
        for job in jobs:
            self._wait_job(job, deadline, "drain")
        for handle in list(self._handles):
            handle.join(1.0)
        self.journal.close()
        self._check_crashed()
        return self.to_report()

    def _wait_job(self, job: Job, deadline: "float | None",
                  what: str) -> None:
        """Wait for one job in short slices so a simulated process
        crash on a worker thread surfaces promptly to the caller
        (the crash, not a drain timeout, is the real story)."""
        while True:
            self._check_crashed()
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.perf_counter())
            )
            slice_s = 0.05 if remaining is None else min(0.05, remaining)
            if job.done.wait(slice_s):
                return
            if remaining is not None and remaining <= slice_s:
                raise TimeoutError(
                    f"{what} timed out waiting on {job.job_id} "
                    f"({job.state})"
                )

    # -- recovery ----------------------------------------------------------

    def has_job(self, job_id: str) -> bool:
        """True when this incarnation knows the job (live, deduped
        from the journal, or re-admitted by recovery)."""
        with self._lock:
            return job_id in self._jobs

    def recover(self, timeout_s: "float | None" = 60.0,
                use_checkpoints: bool = True) -> dict:
        """Deterministic restart: re-admit every journaled job that
        never reached a terminal state, run each to completion
        (resuming from its latest valid checkpoint frame when
        ``use_checkpoints``, else from scratch), and return the
        ``repro.recover/1`` report. Completed/failed/cancelled jobs
        were already deduplicated at construction — replaying them is
        idempotent. Call it on a fresh service even over an empty
        journal; the report is then trivially empty."""
        self._check_crashed()
        counters = self.tracer.counters
        with self._lock:
            replays = list(self._to_recover)
            self._to_recover = []
        resumed: list = []
        for replay in replays:
            self.admission.register(replay.tenant, 1)
            with self._lock:
                job = Job(
                    job_id=replay.job_id,
                    tenant=replay.tenant,
                    source=replay.source,
                    entry=replay.entry,
                    args=replay.args or [],
                    app=replay.app,
                    filename=replay.filename,
                    clock=self.config.clock,
                )
                job.recovered = True
                job.crash_suppression = set(replay.crashes)
                job.recovery_mode = (
                    "checkpoint" if use_checkpoints else "scratch"
                )
                if use_checkpoints:
                    job.checkpoints = replay.checkpoints
                if replay.unrecoverable:
                    job.recovery_mode = "unrecoverable"
                    job.error = ConfigurationError(
                        f"job {job.job_id} cannot be recovered: its "
                        f"arguments were outside the wire format"
                    )
                    job.state = FAILED
                    job.done.set()
                    self._jobs[job.job_id] = job
                    self.journal.record_failed(job.job_id, job.error)
                    resumed.append(job)
                    continue
                # force=True: the job was admitted once already; a
                # depth bound must not drop it on restart.
                self.admission.enqueue(replay.tenant, job, force=True)
                self._jobs[job.job_id] = job
            self.journal.record_recovered(
                job.job_id, job.recovery_mode
            )
            counters.add("recover.resumed")
            try:
                compiled = self.session.compile_cached(
                    job.source, filename=job.filename
                )
            except LiquidMetalError as exc:
                job.compile_error = exc
            else:
                job.device_families = tuple(
                    family
                    for family in (
                        self.config.runtime.policy.device_order
                    )
                    if compiled.store.for_device(family)
                )
            resumed.append(job)
        self._dispatch()
        deadline = (
            None if timeout_s is None
            else time.perf_counter() + timeout_s
        )
        for job in resumed:
            self._wait_job(job, deadline, "recover")
        with self._lock:
            deduped = list(self._deduped)
            rejected = list(self._rejected_ids)
        recovered_rows = [
            {
                "job_id": job.job_id,
                "app": job.app,
                "tenant": job.tenant,
                "mode": job.recovery_mode,
                "state": job.state,
                "digest": job.digest,
                "crashes_suppressed": len(job.crash_suppression),
            }
            for job in resumed
        ]
        modes = [row["mode"] for row in recovered_rows]
        return {
            "schema": RECOVER_SCHEMA,
            "journal": {
                "path": self.journal.path,
                "records": self._journal_prior_records,
                "torn_bytes": self._journal_torn_bytes,
            },
            "deduped": deduped,
            "recovered": recovered_rows,
            "rejected": rejected,
            "totals": {
                "jobs": len(deduped) + len(recovered_rows),
                "deduped": len(deduped),
                "recovered": len(recovered_rows),
                "from_checkpoint": modes.count("checkpoint"),
                "from_scratch": modes.count("scratch"),
                "rejected": len(rejected),
            },
        }

    # -- report ------------------------------------------------------------

    def to_report(self) -> dict:
        """The machine-readable service report (``repro.service/1``)."""
        with self._lock:
            jobs = list(self._jobs.values())
            running = self._running
        rows = [job.describe() for job in jobs]
        by_state = {state: 0 for state in JOB_STATES}
        for row in rows:
            by_state[row["state"]] += 1
        by_tenant: dict = {}
        for row in rows:
            slot = by_tenant.setdefault(
                row["tenant"], {state: 0 for state in JOB_STATES}
            )
            slot[row["state"]] += 1
        tenants = []
        for tenant_row in self.admission.snapshot():
            counts = by_tenant.get(
                tenant_row["tenant"], {state: 0 for state in JOB_STATES}
            )
            tenants.append({**tenant_row, **{
                "completed": counts[COMPLETED],
                "failed": counts[FAILED],
                "cancelled": counts[CANCELLED],
            }})
        health_totals = self.health.to_report()["totals"]
        cfg = self.config
        return {
            "schema": SERVICE_SCHEMA,
            "config": {
                "gpu_slots": cfg.gpu_slots,
                "fpga_slots": cfg.fpga_slots,
                "max_running": cfg.max_running,
                "max_queue_depth": cfg.max_queue_depth,
                "scheduler": cfg.runtime.scheduler,
            },
            "tenants": tenants,
            "jobs": rows,
            "pool": self.pool.snapshot(),
            "admission": {
                "admitted": self.admission.total_admitted,
                "rejected": self.admission.total_rejected,
            },
            "health": health_totals,
            "totals": {
                "jobs": len(rows),
                "running": running,
                **by_state,
            },
        }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"<CoExecutionService jobs={len(self._jobs)} "
                f"running={self._running} "
                f"draining={self._draining}>"
            )


# ---------------------------------------------------------------------------
# The report document / rendering
# ---------------------------------------------------------------------------


def _job_has_typed_error(job: dict) -> list:
    if job["state"] in (FAILED, CANCELLED):
        error = job.get("error")
        if not isinstance(error, dict) or "type" not in error:
            return [f"is {job['state']} but has no typed error record"]
    return []


def _state_counts_agree(report: dict) -> list:
    counts = (report["totals"].get(state, 0) for state in JOB_STATES)
    if sum(counts) != len(report["jobs"]):
        return ["totals per-state counts do not sum to totals.jobs"]
    return []


def _no_leaked_leases(report: dict) -> list:
    totals = report["totals"]
    in_use = report["pool"].get("in_use", {})
    quiescent = totals.get(RUNNING, 0) == 0 and totals.get(QUEUED, 0) == 0
    if quiescent and any(v != 0 for v in in_use.values()):
        return [
            f"leaked device leases: pool.in_use={in_use} with no "
            f"running or queued jobs"
        ]
    return []


#: The ``repro.service/1`` document (:mod:`repro.schema`).
SERVICE_SPEC = schema.obj(
    {
        "schema": schema.one_of(SERVICE_SCHEMA),
        **schema.keys("config", "admission", "health"),
        "tenants": schema.array(schema.obj(schema.keys(
            "tenant", "weight", "queued", "submitted", "admitted",
            "rejected", "completed", "failed", "cancelled",
        ))),
        "jobs": schema.array(schema.obj(
            {
                **schema.keys("job_id", "tenant", "app", "entry", "leased"),
                "state": schema.one_of(*JOB_STATES, noun="state"),
            },
            checks=(_job_has_typed_error,),
        )),
        "pool": schema.obj(optional={"in_use": schema.OBJECT}),
        "totals": schema.obj(
            optional=dict.fromkeys(JOB_STATES, schema.NUMBER)
        ),
    },
    checks=(schema.totals_match("jobs"), _state_counts_agree,
            _no_leaked_leases),
)


def render_service_report(report: dict) -> str:
    """The human-readable form of a service report (CLI default)."""
    lines = []
    cfg = report.get("config", {})
    lines.append(
        "co-execution service — {s} scheduler, pool gpu={g} fpga={f}, "
        "max_running={r}, queue_depth<={q}".format(
            s=cfg.get("scheduler", "?"),
            g=cfg.get("gpu_slots", "?"),
            f=cfg.get("fpga_slots", "?"),
            r=cfg.get("max_running", "?"),
            q=cfg.get("max_queue_depth", "?"),
        )
    )
    lines.append("")
    for row in report.get("tenants", []):
        lines.append(
            "tenant {t} (w={w}): submitted={s} admitted={a} "
            "rejected={j} completed={c} failed={f} cancelled={x}".format(
                t=row.get("tenant"),
                w=row.get("weight"),
                s=row.get("submitted"),
                a=row.get("admitted"),
                j=row.get("rejected"),
                c=row.get("completed"),
                f=row.get("failed"),
                x=row.get("cancelled"),
            )
        )
    lines.append("")
    for row in report.get("jobs", []):
        extra = ""
        if "simulated_s" in row:
            extra = f"  {row['simulated_s'] * 1e3:.6g}ms"
        if "error" in row:
            extra = f"  {row['error']['type']}: {row['error']['message']}"
        lines.append(
            f"{row['job_id']}  {row['tenant']:<6} {row['app']:<16} "
            f"[{row['state'].upper()}]{extra}"
        )
    pool = report.get("pool", {})
    lines.append("")
    lines.append(
        "pool: slots={slots} peak={peak} in_use={in_use} "
        "granted={granted} denied={denied}".format(
            slots=pool.get("slots"),
            peak=pool.get("peak"),
            in_use=pool.get("in_use"),
            granted=pool.get("granted"),
            denied=pool.get("denied"),
        )
    )
    totals = report.get("totals", {})
    health = report.get("health", {})
    lines.append(
        "totals: {n} job(s) — {c} completed, {f} failed, {x} cancelled; "
        "admission {a} admitted / {r} rejected; health: {b} breaker(s), "
        "{t} trip(s), {p} re-promotion(s)".format(
            n=totals.get("jobs", 0),
            c=totals.get(COMPLETED, 0),
            f=totals.get(FAILED, 0),
            x=totals.get(CANCELLED, 0),
            a=report.get("admission", {}).get("admitted", 0),
            r=report.get("admission", {}).get("rejected", 0),
            b=health.get("breakers", 0),
            t=health.get("trips", 0),
            p=health.get("repromotions", 0),
        )
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Deterministic multi-tenant driver (CLI `serve` / make serve-smoke)
# ---------------------------------------------------------------------------

#: Apps the driver cycles through — light, deterministic workloads
#: spanning stream/map/reduce flavors and both device families.
DRIVER_APPS = (
    "bitflip",
    "gray_pipeline",
    "parity",
    "crc8",
    "running_sum",
    "saxpy",
    "vector_sum",
    "convolution",
)

#: The drivers' threaded stage watchdog (the sequential scheduler never
#: arms one).
DRIVER_STAGE_TIMEOUT_S = 10.0


def run_service_driver(
    tenants: int = 3,
    jobs_per_tenant: int = 8,
    gpu_slots: int = 2,
    fpga_slots: int = 1,
    max_running: int = 4,
    max_queue_depth: int = 8,
    scheduler: str = "sequential",
    fault_plan=None,
    verify: bool = False,
) -> dict:
    """Drive a service deterministically: ``tenants`` tenants (weights
    cycling 1,2,3) each submit ``jobs_per_tenant`` jobs cycling over
    :data:`DRIVER_APPS`, then the service drains. Saturation is
    handled honestly: an :class:`AdmissionRejected` submission waits
    for this tenant's oldest unfinished job and retries.

    With ``verify=True`` every completed job is compared against a
    standalone fault-free run of the same app on the same scheduler:
    values and printed output must match bit-identically, and — when
    the driver itself runs fault-free — simulated seconds too. The
    returned ``repro.service/1`` report gains a ``driver`` section
    with the verification tally; mismatches raise.
    """
    from repro.apps import SUITE, workloads

    runtime = RuntimeConfig(
        scheduler=scheduler,
        fault_plan=fault_plan,
        stage_timeout_s=DRIVER_STAGE_TIMEOUT_S,
    )
    service = CoExecutionService(ServiceConfig(
        gpu_slots=gpu_slots,
        fpga_slots=fpga_slots,
        max_running=max_running,
        max_queue_depth=max_queue_depth,
        runtime=runtime,
    ))
    for i in range(tenants):
        service.register_tenant(f"t{i}", weight=(i % 3) + 1)

    submitted: list = []        # (job_id, app, tenant)
    pending_by_tenant: dict = {f"t{i}": [] for i in range(tenants)}
    cycle = 0
    for _ in range(jobs_per_tenant):
        for i in range(tenants):
            tenant = f"t{i}"
            app = DRIVER_APPS[cycle % len(DRIVER_APPS)]
            cycle += 1
            entry, args = workloads.small_args(app)
            while True:
                try:
                    job_id = service.submit(
                        SUITE[app].source,
                        entry,
                        args,
                        tenant=tenant,
                        app=app,
                        filename=f"<{app}.lime>",
                    )
                    submitted.append((job_id, app, tenant))
                    pending_by_tenant[tenant].append(job_id)
                    break
                except AdmissionRejected:
                    # Honest backpressure: wait out the oldest job we
                    # have in flight for this tenant, then retry.
                    waiting = pending_by_tenant[tenant]
                    if not waiting:
                        raise
                    service.result(waiting.pop(0), timeout_s=60.0)

    report = service.drain()

    if verify:
        solo_cache: dict = {}
        checked = 0
        for job_id, app, _tenant in submitted:
            outcome = service.result(job_id)
            if app not in solo_cache:
                entry, args = workloads.small_args(app)
                compiled = service.session.compile_cached(
                    SUITE[app].source, filename=f"<{app}.lime>"
                )
                solo = Runtime(
                    compiled, RuntimeConfig(scheduler=scheduler)
                ).run(entry, args)
                solo_cache[app] = solo
            solo = solo_cache[app]
            if repr(outcome.value) != repr(solo.value):
                raise LiquidMetalError(
                    f"{job_id} ({app}): concurrent value diverged "
                    f"from the standalone run"
                )
            if outcome.output != solo.output:
                raise LiquidMetalError(
                    f"{job_id} ({app}): concurrent output diverged "
                    f"from the standalone run"
                )
            if fault_plan is None and (
                outcome.ledger.total_s != solo.ledger.total_s
            ):
                raise LiquidMetalError(
                    f"{job_id} ({app}): simulated seconds diverged "
                    f"({outcome.ledger.total_s} != "
                    f"{solo.ledger.total_s})"
                )
            checked += 1
        report["driver"] = {
            "verified_jobs": checked,
            "apps": sorted(solo_cache),
            "timing_checked": fault_plan is None,
        }
    return report


# ---------------------------------------------------------------------------
# Deterministic crash/restart driver (CLI `recover` / make recover-smoke)
# ---------------------------------------------------------------------------


#: The recovery driver's marshaling batch. Small batches split each
#: stream across several device decision points, so the seeded crash
#: lands mid-stream and checkpoint frames exist to resume from. The
#: uninterrupted baselines use the same size: batch size is visible to
#: the injector's call stream, so it is part of the determinism
#: contract.
RECOVERY_BATCH_SIZE = 8


def run_recovery_driver(
    journal_dir: str,
    jobs: int = 6,
    scheduler: str = "sequential",
    seed: int = 1,
    crash_call: int = 3,
    checkpoint_interval: int = 2,
    use_checkpoints: bool = True,
    max_restarts: int = 32,
) -> dict:
    """Submit ``jobs`` jobs against a journaled service under a seeded
    crash schedule (each job's injector fires a ``crash`` fault at its
    ``crash_call``-th device consult), then crash-and-restart the
    service in a loop — recover the journal, resubmit whatever was
    never journaled, drain — until a pass completes with no crash.

    Every job's outcome digest is then verified bit-identical to a
    standalone uninterrupted baseline: the same app under the same
    fault plan with every crash suppressed (the suppression burns the
    same fire budget and RNG draws the recovered runs burn, so fault
    logs align too). The returned ``repro.recover/1`` report gains a
    ``driver`` section; a divergence or non-convergence raises.
    """
    from repro.apps import SUITE, workloads
    from repro.runtime.faults import (
        FaultInjector,
        FaultPlan,
        FaultSpec,
    )

    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    plan = FaultPlan(
        [FaultSpec(site="device", error="crash", target="*",
                   on_calls=(crash_call,))],
        seed=seed,
    )
    slots = []
    for index in range(jobs):
        app = DRIVER_APPS[index % len(DRIVER_APPS)]
        entry, args = workloads.small_args(app)
        slots.append({
            # Wire-canonical arguments: exactly what the journaled
            # service executes, so the uninterrupted baselines below
            # see the same inputs a recovered re-run sees.
            "app": app, "entry": entry,
            "args": canonical_args(args),
            "tenant": f"t{index % 3}", "job_id": None,
        })

    def build_service() -> CoExecutionService:
        runtime = RuntimeConfig(
            scheduler=scheduler,
            fault_plan=plan,
            batch_size=RECOVERY_BATCH_SIZE,
            stage_timeout_s=DRIVER_STAGE_TIMEOUT_S,
        )
        return CoExecutionService(ServiceConfig(
            max_running=2,
            max_queue_depth=max(jobs, 8),
            runtime=runtime,
            journal_dir=journal_dir,
            checkpoint_interval=checkpoint_interval,
        ))

    restarts = 0
    from_checkpoint = 0
    from_scratch = 0
    service = None
    report = None
    while True:
        service = build_service()
        try:
            report = service.recover(use_checkpoints=use_checkpoints)
            from_checkpoint += report["totals"]["from_checkpoint"]
            from_scratch += report["totals"]["from_scratch"]
            for slot in slots:
                if slot["job_id"] is not None and service.has_job(
                    slot["job_id"]
                ):
                    continue
                slot["job_id"] = service.submit(
                    SUITE[slot["app"]].source,
                    slot["entry"],
                    slot["args"],
                    tenant=slot["tenant"],
                    app=slot["app"],
                    filename=f"<{slot['app']}.lime>",
                )
            service.drain()
        except ProcessCrash:
            restarts += 1
            if restarts > max_restarts:
                raise LiquidMetalError(
                    f"recovery did not converge after {max_restarts} "
                    f"restarts (crash schedule seed={seed})"
                )
            continue
        break

    # Uninterrupted baselines: same plan, every crash suppressed.
    solo_digests: dict = {}
    verified = 0
    for slot in slots:
        app = slot["app"]
        if app not in solo_digests:
            injector = FaultInjector(plan)
            injector.suppress_all_crashes = True
            compiled = service.session.compile_cached(
                SUITE[app].source, filename=f"<{app}.lime>"
            )
            solo = Runtime(
                compiled,
                RuntimeConfig(
                    scheduler=scheduler,
                    fault_plan=injector,
                    batch_size=RECOVERY_BATCH_SIZE,
                ),
            ).run(slot["entry"], slot["args"])
            solo_digests[app] = outcome_digest(
                solo.value,
                solo.output,
                solo.ledger.total_s,
                fault_log_payload(injector.log),
            )
        row = service.status(slot["job_id"])
        if row["state"] != COMPLETED:
            raise LiquidMetalError(
                f"{slot['job_id']} ({app}) finished {row['state']!r} "
                f"after recovery; expected completed"
            )
        if row.get("digest") != solo_digests[app]:
            raise LiquidMetalError(
                f"{slot['job_id']} ({app}): recovered digest "
                f"{row.get('digest')} diverged from the uninterrupted "
                f"baseline {solo_digests[app]}"
            )
        verified += 1
    report["driver"] = {
        "jobs": jobs,
        "scheduler": scheduler,
        "seed": seed,
        "crash_call": crash_call,
        "restarts": restarts,
        "verified_jobs": verified,
        "checkpoint_resumes": from_checkpoint,
        "scratch_resumes": from_scratch,
        "use_checkpoints": use_checkpoints,
        "apps": sorted({slot["app"] for slot in slots}),
    }
    return report
