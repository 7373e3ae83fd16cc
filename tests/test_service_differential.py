"""Concurrent-vs-solo differential for the co-execution service.

Every suite app is submitted by 4 tenants at once through one
long-lived service (shared compiler session, shared health registry,
shared device pool) and each job's output, final value, and simulated
seconds must be bit-identical to a standalone run of the same
compiled program — on both schedulers. Concurrency arbitrates device
*slots*; it must never perturb results or simulated time."""

import pytest

from repro import schema
from repro.apps import SUITE, workloads
from repro.runtime import Runtime, RuntimeConfig
from repro.service import (
    COMPLETED,
    SERVICE_SPEC,
    CoExecutionService,
    ServiceConfig,
)

TENANTS = ("t0", "t1", "t2", "t3")
APPS = sorted(SUITE)


def _fingerprint(outcome):
    return (
        outcome.output,
        repr(outcome.value),
        outcome.ledger.summary()["total_s"],
    )


@pytest.fixture(scope="module", params=["sequential", "threaded"])
def service_run(request):
    """One service per scheduler: every app submitted by 4 tenants
    concurrently, then drained. Yields per-job fingerprints plus solo
    baselines computed from the same compiled programs."""
    scheduler = request.param
    svc = CoExecutionService(ServiceConfig(
        runtime=RuntimeConfig(scheduler=scheduler),
        max_running=4,
        max_queue_depth=len(APPS),
        gpu_slots=2,
        fpga_slots=1,
    ))
    for index, tenant in enumerate(TENANTS):
        svc.register_tenant(tenant, weight=(index % 3) + 1)
    jobs = {}
    for app in APPS:
        for tenant in TENANTS:
            entry, args = workloads.small_args(app)
            job_id = svc.submit(
                SUITE[app].source,
                entry,
                args,
                tenant=tenant,
                app=app,
                filename=f"<{app}.lime>",
            )
            jobs[job_id] = app
    report = svc.drain()

    solo = {}
    for app in APPS:
        compiled = svc.session.compile_cached(
            SUITE[app].source, filename=f"<{app}.lime>"
        )
        entry, args = workloads.small_args(app)
        outcome = Runtime(
            compiled, RuntimeConfig(scheduler=scheduler)
        ).run(entry, args)
        solo[app] = _fingerprint(outcome)

    concurrent = {
        job_id: (jobs[job_id], _fingerprint(svc.result(job_id)))
        for job_id in jobs
    }
    return scheduler, svc, report, concurrent, solo


class TestServiceDifferential:
    def test_all_jobs_completed(self, service_run):
        _, svc, report, concurrent, _ = service_run
        assert report["totals"]["completed"] == len(concurrent)
        assert report["totals"]["failed"] == 0
        assert report["totals"]["cancelled"] == 0

    def test_every_job_bit_identical_to_solo(self, service_run):
        scheduler, _, _, concurrent, solo = service_run
        mismatches = []
        for job_id, (app, fingerprint) in sorted(concurrent.items()):
            if fingerprint != solo[app]:
                mismatches.append((scheduler, job_id, app))
        assert mismatches == []

    def test_simulated_time_unperturbed_by_concurrency(
        self, service_run
    ):
        # The four concurrent copies of each app must agree with each
        # other too (not just with solo): simulated time is job-local.
        _, _, _, concurrent, _ = service_run
        by_app = {}
        for _job_id, (app, fingerprint) in concurrent.items():
            by_app.setdefault(app, set()).add(fingerprint[2])
        diverging = {
            app: times
            for app, times in by_app.items()
            if len(times) != 1
        }
        assert diverging == {}

    def test_no_leaked_leases_and_valid_report(self, service_run):
        _, svc, report, _, _ = service_run
        assert schema.problems(report, SERVICE_SPEC) == []
        assert all(
            used == 0 for used in report["pool"]["in_use"].values()
        )
        assert svc.pool.occupancy() == {
            family: 0 for family in svc.pool.slots
        }

    def test_pool_actually_shared(self, service_run):
        # Sanity that the differential exercised contention: more
        # grants than slots, and the peak hit the configured bound.
        _, _, report, concurrent, _ = service_run
        pool = report["pool"]
        assert pool["granted"] > pool["slots"]["gpu"]
        assert pool["peak"]["gpu"] >= 1

    def test_compile_memo_shared_across_tenants(self, service_run):
        # 4 tenants x N apps but each program compiles once: the
        # service session memoizes by source hash.
        _, svc, _, concurrent, _ = service_run
        assert len(concurrent) == 4 * len(APPS)
        assert len(svc.session._memo) == len(APPS)

    def test_jobs_describe_finished_states(self, service_run):
        _, _, report, _, _ = service_run
        assert all(
            row["state"] == COMPLETED for row in report["jobs"]
        )
