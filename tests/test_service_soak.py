"""Chaos soak: the service under fault injection must never hang.

3 tenants x 8 jobs run through the co-execution service with
``examples/fault_plans/transient_gpu_window.json`` active in every
job's runtime. The contract is *honesty under chaos*: every job
either completes with output and value bit-identical to its
fault-free standalone run (shadow probes keep bytecode
authoritative), or surfaces a typed LiquidMetalError with job/tenant
context — and the whole drain finishes inside a hard wall-clock
bound. Simulated seconds are exempt: retries and bytecode fallbacks
legitimately change modeled time."""

import os
import time

import pytest

from repro import schema
from repro.apps import SUITE, workloads
from repro.errors import JobCancelledError, LiquidMetalError
from repro.runtime import (
    Runtime,
    RuntimeConfig,
    load_fault_plan,
)
from repro.service import (
    COMPLETED,
    SERVICE_SPEC,
    CoExecutionService,
    ServiceConfig,
)

PLAN_PATH = os.path.join(
    os.path.dirname(__file__),
    os.pardir,
    "examples",
    "fault_plans",
    "transient_gpu_window.json",
)

TENANTS = 3
JOBS_PER_TENANT = 8
SOAK_APPS = (
    "gray_pipeline", "bitflip", "saxpy", "vector_sum",
    "parity", "crc8", "convolution", "running_sum",
)
#: Generous hard bound: simulated runs take milliseconds of wall
#: time; only a hang can approach this.
WALL_BUDGET_S = 300.0


@pytest.fixture(
    scope="module", params=["sequential", "threaded"]
)
def soak(request):
    scheduler = request.param
    plan = load_fault_plan(PLAN_PATH)
    svc = CoExecutionService(ServiceConfig(
        runtime=RuntimeConfig(
            scheduler=scheduler,
            fault_plan=plan,
            max_attempts=2,
            stage_timeout_s=(
                10.0 if scheduler == "threaded" else None
            ),
        ),
        max_running=4,
        max_queue_depth=JOBS_PER_TENANT,
    ))
    started = time.perf_counter()
    jobs = []
    cycle = 0
    for _ in range(JOBS_PER_TENANT):
        for t in range(TENANTS):
            app = SOAK_APPS[cycle % len(SOAK_APPS)]
            cycle += 1
            entry, args = workloads.small_args(app)
            job_id = svc.submit(
                SUITE[app].source,
                entry,
                args,
                tenant=f"t{t}",
                app=app,
                filename=f"<{app}.lime>",
            )
            jobs.append((job_id, app))
    report = svc.drain(timeout_s=WALL_BUDGET_S)
    elapsed = time.perf_counter() - started

    baselines = {}
    for app in {app for _, app in jobs}:
        compiled = svc.session.compile_cached(
            SUITE[app].source, filename=f"<{app}.lime>"
        )
        outcome = Runtime(
            compiled, RuntimeConfig(scheduler=scheduler)
        ).run(*workloads.small_args(app))
        baselines[app] = (outcome.output, repr(outcome.value))
    return svc, report, jobs, baselines, elapsed


class TestChaosSoak:
    def test_finishes_inside_the_wall_budget(self, soak):
        _, _, _, _, elapsed = soak
        assert elapsed < WALL_BUDGET_S

    def test_every_job_completed_or_failed_typed(self, soak):
        svc, _, jobs, baselines, _ = soak
        bad = []
        for job_id, app in jobs:
            row = svc.status(job_id)
            if row["state"] == COMPLETED:
                outcome = svc.result(job_id)
                if (
                    outcome.output,
                    repr(outcome.value),
                ) != baselines[app]:
                    bad.append((job_id, app, "diverged"))
            else:
                try:
                    svc.result(job_id, timeout_s=1.0)
                    bad.append((job_id, app, "no error raised"))
                except JobCancelledError:
                    bad.append((job_id, app, "spurious cancel"))
                except LiquidMetalError as exc:
                    if exc.job_id != job_id:
                        bad.append((job_id, app, "missing job_id"))
                    if not getattr(exc, "tenant", None):
                        bad.append((job_id, app, "missing tenant"))
        assert bad == []

    def test_faults_actually_fired(self, soak):
        # The soak is vacuous if the plan never injected: the
        # transient window guarantees at least the first device call
        # of each job's injector faulted (absorbed by retry or
        # surfaced — either way the retry loop saw traffic).
        svc, report, jobs, _, _ = soak
        assert report["totals"]["jobs"] == TENANTS * JOBS_PER_TENANT
        assert report["totals"]["completed"] >= 1

    def test_no_leaked_leases_under_chaos(self, soak):
        svc, report, _, _, _ = soak
        assert schema.problems(report, SERVICE_SPEC) == []
        assert all(
            used == 0 for used in report["pool"]["in_use"].values()
        )
        assert svc.pool.occupancy() == {
            family: 0 for family in svc.pool.slots
        }

    def test_breakers_left_consistent(self, soak):
        # Shared breakers end in a legal state and the health section
        # of the report agrees with the registry.
        svc, report, _, _, _ = soak
        for breaker in svc.health.breakers():
            assert breaker.state in ("closed", "open", "half_open")
        assert report["health"]["breakers"] == len(
            list(svc.health.breakers())
        )
