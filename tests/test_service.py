"""Tests for the long-lived co-execution service (repro.service).

Covers the device pool, admission control (deterministic WRR
fairness, queue-depth rejection), job-scoped deadlines and
cancellation (no leaked leases), graceful degradation with shared
breakers re-promoting across jobs, and the ``repro.service/1``
report."""

import threading

import pytest

from repro import schema
from repro.apps import SUITE, workloads
from repro.errors import (
    AdmissionRejected,
    ConfigurationError,
    JobCancelledError,
    JobResultTimeout,
    LiquidMetalError,
)
from repro.runtime import (
    FaultPlan,
    FaultSpec,
    Runtime,
    RuntimeConfig,
    SubstitutionPolicy,
)
from repro.runtime.cancel import CancelToken
from repro.service import (
    CANCELLED,
    COMPLETED,
    SERVICE_SPEC,
    AdmissionController,
    CoExecutionService,
    DevicePool,
    ServiceConfig,
    render_service_report,
    run_service_driver,
)

GPU = "gpu"
FPGA = "fpga"


def _service(**overrides):
    runtime = overrides.pop(
        "runtime", RuntimeConfig(scheduler="sequential")
    )
    return CoExecutionService(
        ServiceConfig(runtime=runtime, **overrides)
    )


def _submit_app(service, app, tenant, **kwargs):
    entry, args = workloads.small_args(app)
    return service.submit(
        SUITE[app].source,
        entry,
        args,
        tenant=tenant,
        app=app,
        filename=f"<{app}.lime>",
        **kwargs,
    )


# ----------------------------------------------------------------------
# DevicePool
# ----------------------------------------------------------------------


class TestDevicePool:
    def test_acquire_release_roundtrip(self):
        pool = DevicePool({GPU: 2, FPGA: 1})
        lease = pool.acquire((GPU, FPGA))
        assert lease is not None
        assert pool.occupancy() == {GPU: 1, FPGA: 1}
        pool.release(lease)
        assert pool.occupancy() == {GPU: 0, FPGA: 0}

    def test_all_or_nothing(self):
        pool = DevicePool({GPU: 2, FPGA: 1})
        first = pool.acquire((FPGA,))
        assert first is not None
        # GPU has free slots but FPGA does not: nothing is taken.
        assert pool.acquire((GPU, FPGA)) is None
        assert pool.occupancy() == {GPU: 0, FPGA: 1}
        assert pool.leases_denied == 1
        pool.release(first)

    def test_empty_request_always_succeeds(self):
        pool = DevicePool({GPU: 0, FPGA: 0})
        lease = pool.acquire(())
        assert lease is not None and lease.families == ()
        pool.release(lease)

    def test_release_is_idempotent_and_none_tolerant(self):
        pool = DevicePool({GPU: 1})
        lease = pool.acquire((GPU,))
        pool.release(lease)
        pool.release(lease)
        pool.release(None)
        assert pool.occupancy() == {GPU: 0}
        assert pool.leases_released == 1

    def test_unknown_family_raises(self):
        pool = DevicePool({GPU: 1})
        with pytest.raises(ConfigurationError):
            pool.acquire(("tpu",))

    def test_negative_slots_rejected(self):
        with pytest.raises(ConfigurationError):
            DevicePool({GPU: -1})

    def test_snapshot_tracks_peak(self):
        pool = DevicePool({GPU: 2})
        a = pool.acquire((GPU,))
        b = pool.acquire((GPU,))
        pool.release(a)
        pool.release(b)
        snap = pool.snapshot()
        assert snap["peak"] == {GPU: 2}
        assert snap["in_use"] == {GPU: 0}
        assert snap["granted"] == 2
        assert snap["released"] == 2


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class _FakeJob:
    def __init__(self, tenant, n):
        self.tenant = tenant
        self.n = n

    def __repr__(self):
        return f"{self.tenant}#{self.n}"


class TestAdmissionFairness:
    def _saturated(self, weights, depth=8):
        ctl = AdmissionController(max_queue_depth=depth)
        for name, weight in weights.items():
            ctl.register(name, weight)
        for name in weights:
            for n in range(depth):
                ctl.enqueue(name, _FakeJob(name, n))
        return ctl

    def test_smooth_wrr_order_is_deterministic(self):
        # a:2, b:1 under saturation — smooth WRR interleaves 2:1,
        # never bursts, and the order is a pure function of state.
        ctl = self._saturated({"a": 2, "b": 1}, depth=8)
        order = [ctl.next_job().tenant for _ in range(6)]
        assert order == ["a", "b", "a", "a", "b", "a"]

    def test_wrr_order_reproducible_across_controllers(self):
        runs = []
        for _ in range(2):
            ctl = self._saturated({"a": 3, "b": 2, "c": 1}, depth=6)
            runs.append([ctl.next_job().tenant for _ in range(12)])
        assert runs[0] == runs[1]
        # Over one full cycle each tenant gets exactly its weight.
        counts = {t: runs[0][:6].count(t) for t in ("a", "b", "c")}
        assert counts == {"a": 3, "b": 2, "c": 1}

    def test_equal_weights_tie_breaks_by_name(self):
        ctl = self._saturated({"x": 1, "y": 1}, depth=4)
        assert [ctl.next_job().tenant for _ in range(4)] == [
            "x", "y", "x", "y",
        ]

    def test_fifo_within_tenant(self):
        ctl = self._saturated({"a": 1}, depth=4)
        assert [ctl.next_job().n for _ in range(4)] == [0, 1, 2, 3]

    def test_exclude_skips_tenant_without_penalty(self):
        ctl = self._saturated({"a": 2, "b": 1}, depth=4)
        job = ctl.next_job(exclude={"a"})
        assert job.tenant == "b"
        assert job.n == 0

    def test_requeue_front_preserves_order(self):
        ctl = self._saturated({"a": 1}, depth=3)
        job = ctl.next_job()
        ctl.requeue_front(job)
        assert ctl.next_job() is job

    def test_queue_depth_rejection_is_typed(self):
        ctl = AdmissionController(max_queue_depth=2)
        ctl.register("a", 1)
        ctl.enqueue("a", _FakeJob("a", 0))
        ctl.enqueue("a", _FakeJob("a", 1))
        with pytest.raises(AdmissionRejected) as excinfo:
            ctl.enqueue("a", _FakeJob("a", 2))
        err = excinfo.value
        assert err.tenant == "a"
        assert err.queue_depth == 2
        assert err.retry_after_s > 0.0
        assert ctl.total_rejected == 1
        assert ctl.total_admitted == 2

    def test_retry_after_scales_with_observed_durations(self):
        ctl = AdmissionController(max_queue_depth=1)
        ctl.register("a", 1)
        ctl.enqueue("a", _FakeJob("a", 0))
        ctl.observe_duration(2.0)
        with pytest.raises(AdmissionRejected) as excinfo:
            ctl.enqueue("a", _FakeJob("a", 1))
        assert excinfo.value.retry_after_s == pytest.approx(2.0)

    def test_unknown_tenant_raises(self):
        ctl = AdmissionController()
        with pytest.raises(ConfigurationError):
            ctl.enqueue("ghost", _FakeJob("ghost", 0))

    def test_remove_cancelled_queued_job(self):
        ctl = self._saturated({"a": 1}, depth=3)
        target = ctl.next_job()
        ctl.requeue_front(target)
        assert ctl.remove(target)
        assert not ctl.remove(target)
        assert ctl.queue_depth("a") == 2


# ----------------------------------------------------------------------
# Service lifecycle: submit / status / result / cancel / drain
# ----------------------------------------------------------------------


class TestServiceLifecycle:
    def test_submit_result_roundtrip(self):
        svc = _service()
        job_id = _submit_app(svc, "bitflip", "alice")
        outcome = svc.result(job_id, timeout_s=30.0)
        assert outcome.ledger.total_s > 0.0
        row = svc.status(job_id)
        assert row["state"] == COMPLETED
        assert row["tenant"] == "alice"
        report = svc.drain()
        assert schema.problems(report, SERVICE_SPEC) == []
        assert report["pool"]["in_use"] == {GPU: 0, FPGA: 0}

    def test_finished_job_threads_are_pruned(self):
        svc = _service()
        for _ in range(50):
            svc.result(_submit_app(svc, "bitflip", "alice"), timeout_s=30.0)
        assert len(svc._handles) <= svc.config.max_running
        svc.drain()

    def test_unknown_job_id_raises(self):
        svc = _service()
        with pytest.raises(ConfigurationError):
            svc.status("job-9999")

    def test_result_timeout_is_typed_not_a_failure(self):
        # Hold the only running slot so the job stays queued, then ask
        # for its result with a zero budget: the wait must surface the
        # typed JobResultTimeout (job id + observed state), and the
        # job itself must be untouched — it completes normally once
        # the slot frees up.
        svc = _service(max_running=1)
        with svc._lock:
            svc._running = 1
        job_id = _submit_app(svc, "bitflip", "alice")
        with pytest.raises(JobResultTimeout) as excinfo:
            svc.result(job_id, timeout_s=0.0)
        err = excinfo.value
        assert err.job_id == job_id
        assert err.state == "queued"
        assert err.timeout_s == 0.0
        assert svc.status(job_id)["state"] == "queued"
        with svc._lock:
            svc._running = 0
        svc._dispatch()
        outcome = svc.result(job_id, timeout_s=30.0)
        assert outcome.ledger.total_s > 0.0
        assert svc.status(job_id)["state"] == COMPLETED

    def test_deadline_expired_job_never_acquires_a_lease(self):
        # deadline_s=0 expires immediately: dispatch must finish the
        # job CANCELLED before touching the pool.
        svc = _service()
        job_id = _submit_app(
            svc, "bitflip", "alice", deadline_s=0.0
        )
        with pytest.raises(JobCancelledError) as excinfo:
            svc.result(job_id, timeout_s=10.0)
        err = excinfo.value
        assert err.reason == "deadline"
        assert err.job_id == job_id
        assert err.tenant == "alice"
        assert svc.status(job_id)["state"] == CANCELLED
        snap = svc.pool.snapshot()
        assert snap["granted"] == 0
        assert snap["in_use"] == {GPU: 0, FPGA: 0}

    def test_deadline_on_fake_clock_cancels_queued_job(self):
        # A queued job whose deadline passes (on an injected clock)
        # while it waits is cancelled at the next dispatch, before it
        # leases anything.
        tick = [100.0]
        svc = CoExecutionService(ServiceConfig(
            runtime=RuntimeConfig(scheduler="sequential"),
            max_running=1,
            clock=lambda: tick[0],
        ))
        with svc._lock:
            svc._running = 1  # hold the only running slot
        job_id = _submit_app(
            svc, "bitflip", "alice", deadline_s=5.0
        )
        assert svc.status(job_id)["state"] == "queued"
        tick[0] = 106.0
        with svc._lock:
            svc._running = 0
        svc._dispatch()
        with pytest.raises(JobCancelledError) as excinfo:
            svc.result(job_id, timeout_s=10.0)
        assert excinfo.value.reason == "deadline"
        assert svc.pool.snapshot()["granted"] == 0

    def test_cancel_queued_job(self):
        svc = _service(max_running=1)
        with svc._lock:
            svc._running = 1  # force the next submission to queue
        job_id = _submit_app(svc, "saxpy", "bob")
        assert svc.status(job_id)["state"] == "queued"
        assert svc.cancel(job_id) == CANCELLED
        with pytest.raises(JobCancelledError) as excinfo:
            svc.result(job_id, timeout_s=10.0)
        assert excinfo.value.job_id == job_id
        assert excinfo.value.tenant == "bob"
        assert svc.admission.queue_depth("bob") == 0
        assert svc.pool.snapshot()["granted"] == 0
        with svc._lock:
            svc._running = 0

    def test_cancel_finished_job_is_a_noop(self):
        svc = _service()
        job_id = _submit_app(svc, "bitflip", "alice")
        svc.result(job_id, timeout_s=30.0)
        assert svc.cancel(job_id) == COMPLETED
        assert svc.result(job_id).ledger.total_s > 0.0

    def test_cancel_racing_a_running_job_leaks_nothing(self):
        # The cancel may land before, during, or after the run — all
        # three must terminate promptly with zero leases held.
        svc = _service()
        job_id = _submit_app(svc, "mandelbrot", "alice")
        svc.cancel(job_id)
        job = svc._job(job_id)
        assert job.done.wait(30.0)
        assert job.state in (COMPLETED, CANCELLED)
        report = svc.drain()
        assert report["pool"]["in_use"] == {GPU: 0, FPGA: 0}
        assert schema.problems(report, SERVICE_SPEC) == []

    def test_draining_service_rejects_submissions(self):
        svc = _service()
        _submit_app(svc, "bitflip", "alice")
        svc.drain()
        with pytest.raises(AdmissionRejected) as excinfo:
            _submit_app(svc, "bitflip", "alice")
        assert excinfo.value.reason == "draining"

    def test_queue_depth_rejection_through_service(self):
        svc = _service(max_running=1, max_queue_depth=1)
        with svc._lock:
            svc._running = 1
        _submit_app(svc, "bitflip", "alice")
        with pytest.raises(AdmissionRejected) as excinfo:
            _submit_app(svc, "bitflip", "alice")
        assert excinfo.value.queue_depth == 1
        assert excinfo.value.retry_after_s > 0.0
        with svc._lock:
            svc._running = 0
        svc._dispatch()
        svc.drain()

    def test_compile_error_surfaces_as_typed_job_failure(self):
        svc = _service()
        job_id = svc.submit(
            "this is not lime", "Nope.nope", [], tenant="alice"
        )
        with pytest.raises(LiquidMetalError):
            svc.result(job_id, timeout_s=30.0)
        row = svc.status(job_id)
        assert row["state"] == "failed"
        assert row["error"]["type"]
        report = svc.drain()
        assert schema.problems(report, SERVICE_SPEC) == []

    def test_context_manager_drains(self):
        with _service() as svc:
            job_id = _submit_app(svc, "bitflip", "alice")
        assert svc.status(job_id)["state"] == COMPLETED


# ----------------------------------------------------------------------
# Cooperative cancellation inside the runtime
# ----------------------------------------------------------------------


class _TripAfter(CancelToken):
    """Trips itself after N cancellation polls — deterministic
    mid-stage cancellation without wall-clock races."""

    def __init__(self, polls, **kwargs):
        super().__init__(**kwargs)
        self._polls = polls
        self._seen = 0

    def cancelled(self):
        self._seen += 1
        if self._seen > self._polls:
            self.cancel()
        return super().cancelled()


class TestRuntimeCancellation:
    @pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
    def test_pre_cancelled_token_stops_run_immediately(
        self, scheduler
    ):
        from repro.apps import compile_app

        compiled = compile_app("bitflip")
        token = CancelToken(job_id="job-x", tenant="t")
        token.cancel()
        runtime = Runtime(
            compiled,
            RuntimeConfig(scheduler=scheduler),
            cancel_token=token,
        )
        entry, args = workloads.small_args("bitflip")
        with pytest.raises(JobCancelledError) as excinfo:
            runtime.run(entry, args)
        assert excinfo.value.job_id == "job-x"

    @pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
    def test_mid_stage_cancel_unwinds_both_schedulers(
        self, scheduler
    ):
        # Trip after a handful of polls: the token fires *inside* the
        # task loops. The threaded scheduler must drain its queues and
        # join its workers instead of deadlocking on a full FIFO.
        from repro.apps import compile_app

        compiled = compile_app("gray_pipeline")
        token = _TripAfter(2, job_id="job-y", tenant="t")
        runtime = Runtime(
            compiled,
            RuntimeConfig(scheduler=scheduler),
            cancel_token=token,
        )
        entry, args = workloads.small_args("gray_pipeline")
        with pytest.raises(JobCancelledError):
            runtime.run(entry, args)
        assert runtime.shutdown_active(timeout_s=2.0)


# ----------------------------------------------------------------------
# Degradation and cross-job re-promotion (shared breakers)
# ----------------------------------------------------------------------


def _faulty_service(cooldown_s, shared_injector=False):
    plan = FaultPlan(
        [FaultSpec(site="device", error="device", target="*",
                   until_call=1)],
        seed=7,
    )
    if shared_injector:
        # A service-scoped injector: the call counter spans jobs, so
        # "the first device call fails" means the first call the
        # *service* makes — a genuinely transient outage rather than
        # one that re-fires per job.
        from repro.runtime.faults import FaultInjector

        plan = FaultInjector(plan)
    runtime = RuntimeConfig(
        scheduler="sequential",
        fault_plan=plan,
        max_attempts=1,
        cooldown_s=cooldown_s,
        batch_size=16,
    )
    return CoExecutionService(ServiceConfig(
        runtime=runtime, max_running=1
    ))


class TestSharedBreakers:
    def test_breaker_state_is_service_scoped(self):
        # Job 1 trips the gpu breaker (its first device call faults).
        # With a long cool-down the breaker is still OPEN when job 2
        # dispatches: job 2 must lease *without* gpu (degradation) yet
        # still complete with output identical to a cpu-only run.
        svc = _faulty_service(cooldown_s=10.0)
        first = _submit_app(svc, "gray_pipeline", "alice")
        svc.result(first, timeout_s=30.0)
        assert svc.health.family_open(GPU)
        second = _submit_app(svc, "gray_pipeline", "alice")
        svc.result(second, timeout_s=30.0)
        assert GPU not in svc.status(second)["leased"]

        reference = Runtime(
            svc.session.compile_cached(
                SUITE["gray_pipeline"].source,
                filename="<gray_pipeline.lime>",
            ),
            RuntimeConfig(
                scheduler="sequential",
                policy=SubstitutionPolicy(use_accelerators=False),
            ),
        ).run(*workloads.small_args("gray_pipeline"))
        for job_id in (first, second):
            outcome = svc.result(job_id)
            assert outcome.output == reference.output
            assert repr(outcome.value) == repr(reference.value)
        report = svc.drain()
        assert report["health"]["trips"] >= 1
        assert report["pool"]["in_use"] == {GPU: 0, FPGA: 0}

    def test_breaker_repromotes_across_jobs(self):
        # A transient outage in *service* time (shared injector): job
        # 1 trips the breaker and finishes with it still quarantined;
        # later jobs' fallback traffic advances the shared breaker
        # through HALF_OPEN probing back to CLOSED — re-promotion
        # happens across jobs, exactly as it does within one run.
        # Cool-down tuned between one job's fallback traffic (~1.2us
        # of breaker-local simulated time) and two jobs' worth.
        svc = _faulty_service(cooldown_s=2e-6, shared_injector=True)
        first = _submit_app(svc, "gray_pipeline", "alice")
        svc.result(first, timeout_s=30.0)
        assert svc.health.family_open(GPU)
        for _ in range(3):
            job_id = _submit_app(svc, "gray_pipeline", "alice")
            svc.result(job_id, timeout_s=30.0)
        report = svc.drain()
        assert report["health"]["trips"] == 1
        assert report["health"]["repromotions"] >= 1
        assert not svc.health.family_open(GPU)


# ----------------------------------------------------------------------
# Report shape
# ----------------------------------------------------------------------


class TestServiceReport:
    def test_driver_report_validates_and_renders(self):
        report = run_service_driver(
            tenants=2, jobs_per_tenant=2, scheduler="sequential"
        )
        assert schema.problems(report, SERVICE_SPEC) == []
        text = render_service_report(report)
        assert "co-execution service" in text
        assert "t0" in text and "t1" in text

    def test_validator_rejects_garbage(self):
        assert schema.problems([], SERVICE_SPEC) != []
        assert schema.problems({"schema": "nope"}, SERVICE_SPEC) != []

    def test_validator_flags_leaked_leases(self):
        report = run_service_driver(
            tenants=1, jobs_per_tenant=1, scheduler="sequential"
        )
        report["pool"]["in_use"][GPU] = 1
        problems = schema.problems(report, SERVICE_SPEC)
        assert any("leaked" in p for p in problems)

    def test_validator_flags_state_count_mismatch(self):
        report = run_service_driver(
            tenants=1, jobs_per_tenant=1, scheduler="sequential"
        )
        report["totals"]["completed"] += 1
        assert schema.problems(report, SERVICE_SPEC) != []

    def test_error_rows_carry_job_and_tenant_context(self):
        svc = _service()
        job_id = _submit_app(
            svc, "bitflip", "carol", deadline_s=0.0
        )
        svc._job(job_id).done.wait(10.0)
        row = svc.status(job_id)
        assert row["error"]["type"] == "JobCancelledError"
        assert row["error"]["job_id"] == job_id
        assert row["error"]["tenant"] == "carol"
        svc.drain()


# ----------------------------------------------------------------------
# CancelToken unit behaviour
# ----------------------------------------------------------------------


class TestCancelToken:
    def test_first_reason_wins(self):
        token = CancelToken(job_id="j", tenant="t")
        assert token.cancel("deadline")
        assert not token.cancel("cancelled")
        assert token.reason == "deadline"

    def test_deadline_on_injected_clock(self):
        tick = [10.0]
        token = CancelToken(
            job_id="j", deadline_s=5.0, clock=lambda: tick[0]
        )
        assert not token.cancelled()
        assert token.remaining_s() == pytest.approx(5.0)
        tick[0] = 15.0
        assert token.cancelled()
        assert token.reason == "deadline"
        assert token.remaining_s() == 0.0

    def test_check_raises_typed_error(self):
        token = CancelToken(job_id="j", tenant="t")
        token.check()  # live token: no-op
        token.cancel()
        with pytest.raises(JobCancelledError) as excinfo:
            token.check()
        assert excinfo.value.job_id == "j"
        assert excinfo.value.tenant == "t"

    def test_thread_safe_single_trip(self):
        token = CancelToken()
        wins = []
        barrier = threading.Barrier(4)

        def racer(reason):
            barrier.wait()
            if token.cancel(reason):
                wins.append(reason)

        threads = [
            threading.Thread(target=racer, args=(f"r{i}",))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert token.reason == wins[0]
