"""Crash/restart differential tests for the journaled co-execution
service (docs/RECOVERY.md).

The contract under test: a run crashed at a seeded point and recovered
— from the journal alone or from a stage checkpoint — is bit-identical
in value, output, simulated seconds, and fault log (all folded into
the outcome digest) to the same run never interrupted. Plus: chaos
soak (three successive crashes on one workload converge), idempotent
completed-job dedup (no re-execution), unrecoverable-args handling,
and rejected (submitted-but-never-admitted) jobs."""

import json
import os

import pytest

from repro import schema
from repro.apps import SUITE, compile_app, workloads
from repro.errors import ProcessCrash
from repro.obs import NULL_TRACER, Tracer
from repro.runtime import (
    CHECKPOINT_SCHEMA,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    Runtime,
    RuntimeConfig,
    fault_log_payload,
)
from repro.service import (
    COMPLETED,
    FAILED,
    RECOVER_SPEC,
    CoExecutionService,
    Job,
    JobJournal,
    ServiceConfig,
    outcome_digest,
    run_recovery_driver,
)
from repro.service.journal import (
    JOURNAL_FILE,
    JOURNAL_MAGIC,
    RecoveredOutcome,
    canonical_args,
)
from repro.values import unframe_records

ALL_APPS = sorted(SUITE)
BATCH = 8


def _crash_plan(crash_calls=(1,), times=1, seed=5):
    return FaultPlan(
        [
            FaultSpec(
                site="device",
                error="crash",
                target="*",
                on_calls=tuple(crash_calls),
                times=times,
            )
        ],
        seed=seed,
    )


def _service(journal_dir, plan, scheduler, interval=1, batch_size=BATCH,
             tracer=NULL_TRACER):
    return CoExecutionService(
        ServiceConfig(
            runtime=RuntimeConfig(
                scheduler=scheduler,
                fault_plan=plan,
                batch_size=batch_size,
                tracer=tracer,
                stage_timeout_s=(
                    10.0 if scheduler == "threaded" else None
                ),
            ),
            journal_dir=str(journal_dir),
            checkpoint_interval=interval,
        )
    )


def _baseline_digest(app, entry, args, plan, scheduler):
    """The uninterrupted run: same plan, every crash suppressed (the
    suppression burns the same fire budget, so fault logs align)."""
    injector = FaultInjector(plan)
    injector.suppress_all_crashes = True
    outcome = Runtime(
        compile_app(app),
        RuntimeConfig(
            scheduler=scheduler,
            fault_plan=injector,
            batch_size=BATCH,
        ),
    ).run(entry, args)
    return outcome_digest(
        outcome.value,
        outcome.output,
        outcome.ledger.total_s,
        fault_log_payload(injector.log),
    )


def _run_to_convergence(journal_dir, app, entry, args, plan, scheduler,
                        interval=1, use_checkpoints=True,
                        max_restarts=8):
    """Submit one job, crash-and-restart until a pass completes.
    Returns (job_id, final status row, last recover report,
    restarts)."""
    job_id = None
    restarts = 0
    while True:
        service = _service(journal_dir, plan, scheduler, interval)
        try:
            report = service.recover(use_checkpoints=use_checkpoints)
            if job_id is None or not service.has_job(job_id):
                job_id = service.submit(
                    SUITE[app].source,
                    entry,
                    args,
                    tenant="t0",
                    app=app,
                    filename=f"<{app}.lime>",
                )
            service.drain()
        except ProcessCrash:
            restarts += 1
            assert restarts <= max_restarts, (
                f"{app}/{scheduler}: no convergence after "
                f"{max_restarts} restarts"
            )
            continue
        return job_id, service.status(job_id), report, restarts


@pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
@pytest.mark.parametrize("app", ALL_APPS)
def test_crash_recover_bit_identical(tmp_path, app, scheduler):
    """Every suite app x both schedulers: crash at the first device
    consult, recover from the journal, digest equals the uninterrupted
    baseline. Host-only apps never consult a device — they complete
    uninterrupted, which must also match."""
    entry, args = workloads.small_args(app)
    args = canonical_args(args)
    plan = _crash_plan(crash_calls=(1,))
    job_id, row, report, restarts = _run_to_convergence(
        tmp_path / "journal", app, entry, args, plan, scheduler
    )
    assert schema.problems(report, RECOVER_SPEC) == []
    assert row["state"] == COMPLETED
    assert row["digest"] == _baseline_digest(
        app, entry, args, plan, scheduler
    )
    assert restarts <= 1


@pytest.mark.parametrize(
    "app", ["bitflip", "gray_pipeline", "parity", "crc8"]
)
def test_checkpoint_resume_bit_identical(tmp_path, app):
    """Stream apps under the sequential scheduler: crash at the third
    device consult with frames persisted every decision point, so the
    recovery genuinely resumes from a checkpoint — and still matches
    the uninterrupted digest."""
    entry, args = workloads.small_args(app)
    args = canonical_args(args)
    plan = _crash_plan(crash_calls=(3,))
    job_id, row, report, restarts = _run_to_convergence(
        tmp_path / "journal", app, entry, args, plan, "sequential",
        interval=1,
    )
    assert restarts == 1
    modes = [r["mode"] for r in report["recovered"]]
    assert modes == ["checkpoint"], modes
    assert row["state"] == COMPLETED
    assert row["digest"] == _baseline_digest(
        app, entry, args, plan, "sequential"
    )


def test_checkpoint_disabled_recovers_from_scratch(tmp_path):
    entry, args = workloads.small_args("gray_pipeline")
    args = canonical_args(args)
    plan = _crash_plan(crash_calls=(3,))
    job_id, row, report, restarts = _run_to_convergence(
        tmp_path / "journal", "gray_pipeline", entry, args, plan,
        "sequential", interval=1, use_checkpoints=False,
    )
    assert restarts == 1
    assert [r["mode"] for r in report["recovered"]] == ["scratch"]
    assert row["digest"] == _baseline_digest(
        "gray_pipeline", entry, args, plan, "sequential"
    )


def _crash_with_frames(journal_dir, app, entry, args, plan):
    """First incarnation: persist a frame per decision point, then
    crash. Returns the job id."""
    tracer = Tracer()
    service = _service(journal_dir, plan, "sequential", tracer=tracer)
    job_id = service.submit(
        SUITE[app].source, entry, args, tenant="t0", app=app,
    )
    with pytest.raises(ProcessCrash):
        service.drain()
    assert tracer.counters.get("checkpoint.frame.persisted") >= 1
    return job_id


def _recover_after_discard(journal_dir, app, entry, args, plan, job_id):
    """Last incarnation: the frames of the first are stale, so the job
    recovers from scratch and still matches the baseline."""
    service = _service(journal_dir, plan, "sequential")
    report = service.recover()
    assert [r["mode"] for r in report["recovered"]] == ["scratch"]
    row = service.status(job_id)
    assert row["state"] == COMPLETED
    assert row["digest"] == _baseline_digest(
        app, entry, args, plan, "sequential"
    )


def test_scratch_recovery_discards_stale_frames(tmp_path):
    """A scratch recovery that persists no frame before crashing again
    still leaves the first incarnation's frames unresumable."""
    app = "gray_pipeline"
    entry, args = workloads.small_args(app)
    args = canonical_args(args)
    plan = _crash_plan(crash_calls=(2, 4), times=2)
    journal_dir = tmp_path / "journal"
    job_id = _crash_with_frames(journal_dir, app, entry, args, plan)
    tracer = Tracer()
    scratch = _service(journal_dir, plan, "sequential", interval=10**6,
                       tracer=tracer)
    with pytest.raises(ProcessCrash):
        scratch.recover(use_checkpoints=False)
        scratch.drain()
    assert tracer.counters.get("checkpoint.frame.persisted") == 0
    _recover_after_discard(journal_dir, app, entry, args, plan, job_id)


def test_replay_error_fallback_discards_stale_frames(tmp_path):
    """A resume refused mid-replay (the batch size changed, so the
    first memo sees another item count) falls back to scratch; when
    that run crashes before persisting, the refused frames stay
    unresumable."""
    app = "gray_pipeline"
    entry, args = workloads.small_args(app)
    args = canonical_args(args)
    plan = _crash_plan(crash_calls=(2, 4), times=2)
    journal_dir = tmp_path / "journal"
    job_id = _crash_with_frames(journal_dir, app, entry, args, plan)
    tracer = Tracer()
    fallback = _service(journal_dir, plan, "sequential", interval=10**6,
                        batch_size=BATCH // 2, tracer=tracer)
    with pytest.raises(ProcessCrash):
        fallback.recover()
        fallback.drain()
    counters = tracer.counters
    assert counters.get("service.job.checkpoint_invalid") == 1
    assert counters.get("checkpoint.frame.persisted") == 0
    _recover_after_discard(journal_dir, app, entry, args, plan, job_id)


def test_chaos_soak_three_crashes_one_workload(tmp_path):
    """Three successive crashes on ONE workload (calls 2, 4, 6 of the
    same job) converge: each restart suppresses the journaled crash
    and advances to the next, and the final digest still matches the
    crash-free baseline."""
    app = "gray_pipeline"
    entry, args = workloads.small_args(app)
    args = canonical_args(args)
    plan = _crash_plan(crash_calls=(2, 4, 6), times=3)
    job_id, row, report, restarts = _run_to_convergence(
        tmp_path / "journal", app, entry, args, plan, "sequential"
    )
    assert restarts == 3
    assert row["state"] == COMPLETED
    assert row["digest"] == _baseline_digest(
        app, entry, args, plan, "sequential"
    )
    final = report["recovered"][-1]
    assert final["crashes_suppressed"] >= 2


@pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
def test_recovery_driver_converges(tmp_path, scheduler):
    """The multi-job chaos driver: seeded crash schedule across 6
    jobs, restart loop, every digest verified inside the driver."""
    report = run_recovery_driver(
        str(tmp_path / "journal"), jobs=6, scheduler=scheduler, seed=1,
        crash_call=3,
    )
    assert schema.problems(report, RECOVER_SPEC) == []
    driver = report["driver"]
    assert driver["verified_jobs"] == 6
    assert driver["restarts"] >= 3
    if scheduler == "sequential":
        assert driver["checkpoint_resumes"] >= 1


@pytest.mark.parametrize("interval", [1, 10**6])
def test_checkpoint_file_only_for_jobs_that_persist(tmp_path, interval):
    """Checkpoint frames are records of the one journal file: the
    journal directory holds only ``journal.rj``, and a job that never
    reaches an interval writes no frame."""
    journal_dir = tmp_path / "journal"
    service = _service(journal_dir, None, "sequential", interval=interval)
    entry, args = workloads.small_args("gray_pipeline")
    job_id = service.submit(
        SUITE["gray_pipeline"].source, entry, args, tenant="t0",
        app="gray_pipeline",
    )
    service.drain()
    assert service.status(job_id)["state"] == COMPLETED
    assert os.listdir(journal_dir) == [JOURNAL_FILE]
    data = (journal_dir / JOURNAL_FILE).read_bytes()
    payloads, _torn = unframe_records(data[len(JOURNAL_MAGIC):])
    frames = [
        payload for payload in payloads
        if json.loads(payload)["schema"] == CHECKPOINT_SCHEMA
    ]
    assert bool(frames) == (interval == 1)


class TestIdempotentDedup:
    def test_completed_jobs_never_rerun(self, tmp_path):
        journal_dir = tmp_path / "journal"
        service = _service(journal_dir, None, "sequential")
        entry, args = workloads.small_args("bitflip")
        job_id = service.submit(
            SUITE["bitflip"].source, entry, args, tenant="t0",
            app="bitflip",
        )
        service.drain()
        first = service.status(job_id)
        assert first["state"] == COMPLETED

        tracer = Tracer()
        reborn = CoExecutionService(
            ServiceConfig(
                runtime=RuntimeConfig(
                    scheduler="sequential", tracer=tracer
                ),
                journal_dir=str(journal_dir),
            )
        )
        report = reborn.recover()
        assert report["totals"]["deduped"] == 1
        assert report["totals"]["recovered"] == 0
        assert reborn.has_job(job_id)
        row = reborn.status(job_id)
        assert row["state"] == COMPLETED
        assert row["digest"] == first["digest"]
        outcome = reborn.result(job_id)
        assert isinstance(outcome, RecoveredOutcome)
        counters = tracer.counters.snapshot()
        assert counters.get("recover.dedup", 0) == 1
        # No execution happened in the reborn service: dedup is a
        # journal fold, not a re-run.
        assert counters.get("service.job.completed", 0) == 0

    def test_deduped_outcome_returns_the_value(self, tmp_path):
        """A deduplicated job answers with the value its entry returned,
        decoded from the journal — not just the digest over it."""
        journal_dir = tmp_path / "journal"
        service = _service(journal_dir, None, "sequential")
        entry, args = workloads.small_args("vector_sum")
        job_id = service.submit(
            SUITE["vector_sum"].source, entry, args, tenant="t0",
            app="vector_sum",
        )
        service.drain()
        value = service.result(job_id).value
        assert value is not None
        reborn = _service(journal_dir, None, "sequential")
        assert reborn.recover()["totals"]["deduped"] == 1
        outcome = reborn.result(job_id)
        assert isinstance(outcome, RecoveredOutcome)
        assert repr(outcome.value) == repr(value)

    def test_recover_twice_is_stable(self, tmp_path):
        journal_dir = tmp_path / "journal"
        service = _service(journal_dir, None, "sequential")
        entry, args = workloads.small_args("parity")
        job_id = service.submit(
            SUITE["parity"].source, entry, args, tenant="t0",
            app="parity",
        )
        service.drain()
        for _ in range(2):
            reborn = _service(journal_dir, None, "sequential")
            report = reborn.recover()
            assert report["totals"]["deduped"] == 1
            assert reborn.status(job_id)["state"] == COMPLETED


class TestJournalEdgeCases:
    def test_unrecoverable_args_fail_typed(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        job = Job(
            job_id="job-0001",
            tenant="t0",
            source=SUITE["bitflip"].source,
            entry="Bitflip.taskFlip",
            args=[object()],           # not wire-serializable
            app="bitflip",
        )
        journal.record_submitted(job)
        journal.record_admitted(job.job_id)
        journal.record_running(job.job_id)
        journal.close()

        service = CoExecutionService(
            ServiceConfig(
                runtime=RuntimeConfig(scheduler="sequential"),
                journal_dir=str(tmp_path),
            )
        )
        report = service.recover()
        rows = [
            r for r in report["recovered"] if r["job_id"] == "job-0001"
        ]
        assert rows and rows[0]["mode"] == "unrecoverable"
        assert rows[0]["state"] == FAILED
        assert service.status("job-0001")["state"] == FAILED

    def test_submitted_without_admitted_is_rejected(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        job = Job(
            job_id="job-0001",
            tenant="t0",
            source=SUITE["bitflip"].source,
            entry="Bitflip.taskFlip",
            args=[7],
            app="bitflip",
        )
        journal.record_submitted(job)   # crash before admission
        journal.close()

        service = CoExecutionService(
            ServiceConfig(
                runtime=RuntimeConfig(scheduler="sequential"),
                journal_dir=str(tmp_path),
            )
        )
        report = service.recover()
        assert report["totals"]["rejected"] == 1
        assert "job-0001" in report["rejected"]
        assert not service.has_job("job-0001")

    def test_new_job_ids_continue_past_journal(self, tmp_path):
        journal_dir = tmp_path / "journal"
        service = _service(journal_dir, None, "sequential")
        entry, args = workloads.small_args("bitflip")
        first = service.submit(
            SUITE["bitflip"].source, entry, args, tenant="t0",
            app="bitflip",
        )
        service.drain()

        reborn = _service(journal_dir, None, "sequential")
        reborn.recover()
        second = reborn.submit(
            SUITE["bitflip"].source, entry, args, tenant="t0",
            app="bitflip",
        )
        assert second != first
        assert int(second.split("-")[1]) > int(first.split("-")[1])
        reborn.drain()

    def test_an_id_submit_returned_is_never_reused(self, tmp_path):
        """Another thread crashes the process while submit journals:
        the id submit hands back was journaled, so the restarted
        service neither loses the job nor gives its id to another."""
        import threading

        journal_dir = tmp_path / "journal"
        service = _service(journal_dir, None, "sequential")
        write = service.journal.record_submitted
        crashers = []

        def crash_elsewhere_then_write(job, wire):
            crasher = threading.Thread(
                target=service._die, args=(ProcessCrash("elsewhere"),)
            )
            crashers.append(crasher)
            crasher.start()
            crasher.join(timeout=0.05)
            write(job, wire)

        service.journal.record_submitted = crash_elsewhere_then_write
        entry, args = workloads.small_args("bitflip")
        first = service.submit(
            SUITE["bitflip"].source, entry, args, tenant="t0",
            app="bitflip",
        )
        (crasher,) = crashers
        crasher.join(timeout=5.0)
        assert not crasher.is_alive()

        reborn = _service(journal_dir, None, "sequential")
        reborn.recover()
        assert reborn.status(first)["app"] == "bitflip"
        entry, args = workloads.small_args("gray_pipeline")
        second = reborn.submit(
            SUITE["gray_pipeline"].source, entry, args, tenant="t0",
            app="gray_pipeline",
        )
        assert second != first
        reborn.drain()


def test_crash_poisons_service_api(tmp_path):
    """After a simulated crash the incarnation is dead: every later
    API call re-raises the crash, and the journal accepts no more
    writes (lost-writes semantics)."""
    entry, args = workloads.small_args("gray_pipeline")
    plan = _crash_plan(crash_calls=(1,))
    service = _service(tmp_path / "journal", plan, "sequential")
    with pytest.raises(ProcessCrash):
        service.submit(
            SUITE["gray_pipeline"].source, entry, args, tenant="t0",
            app="gray_pipeline",
        )
        service.drain()
    with pytest.raises(ProcessCrash):
        service.submit(
            SUITE["gray_pipeline"].source, entry, args, tenant="t0",
            app="gray_pipeline",
        )
    with pytest.raises(ProcessCrash):
        service.drain()
