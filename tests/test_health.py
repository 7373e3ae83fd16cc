"""Device health subsystem: circuit breakers, shadow probes, and
probationary re-promotion (docs/RESILIENCE.md).

Covers the breaker state machine and registry in isolation,
burst/corrupt fault specs, and the end-to-end acceptance property:
under a seeded transient-fault-window plan a GPU span is demoted,
probed, and re-promoted within one run, with output bit-identical to
the fault-free reference on both schedulers and a transition sequence
that is deterministic in simulated time. A span that ends a run OPEN
keeps being substituted, so its breaker recovers across later runs.
"""

import json
import sys
import threading

import pytest

from repro import schema
from repro.apps import SUITE, compile_app
from repro.compiler import CompileOptions, compile_program
from repro.errors import (
    ConfigurationError,
    DeviceError,
    RetryExhaustedError,
)
from repro.obs import Tracer
from repro.runtime import (
    HEALTH_SPEC,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    HealthRegistry,
    Runtime,
    RuntimeConfig,
    SubstitutionPolicy,
    render_health_report,
)
from repro.runtime.graph import Pipeline
from repro.runtime.health import (
    CLOSED,
    HALF_OPEN,
    MAX_COOLDOWN_S,
    OPEN,
    PROBE_BATCHES,
    QUARANTINE_MULTIPLIER,
    RUN_BYTECODE,
    RUN_DEVICE,
    RUN_PROBE,
    DeviceHealth,
    RetryStreams,
    cooldown_for_trip,
)
from repro.runtime.scheduler import SequentialScheduler, ThreadedScheduler
from repro.runtime.tasks import (
    DeviceTask,
    ExecutionContext,
    SinkTask,
    SourceTask,
)
from repro.runtime.timing import OffloadRecord, TimingLedger
from repro.values import KIND_FLOAT, KIND_INT, MutableArray, ValueArray
from tests.test_supervisor import failing, mediate, stub_runtime


# ----------------------------------------------------------------------
# The breaker's policy: one setting and three constants
# ----------------------------------------------------------------------


class TestHealthPolicy:
    """What the report's ``policy`` object lists: the cool-down
    (``RuntimeConfig.cooldown_s``) and its escalation constants."""

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="cooldown_s"):
            RuntimeConfig(cooldown_s=-1.0)
        assert RuntimeConfig(cooldown_s=0.0).cooldown_s == 0.0

    def test_recovery_disabled_by_default(self):
        assert RuntimeConfig().cooldown_s is None
        assert cooldown_for_trip(None, 1) is None

    def test_quarantine_escalates_and_caps(self):
        assert (PROBE_BATCHES, QUARANTINE_MULTIPLIER, MAX_COOLDOWN_S) == (
            2, 2.0, 1.0
        )
        assert cooldown_for_trip(0.3, 1) == pytest.approx(0.3)
        assert cooldown_for_trip(0.3, 2) == pytest.approx(0.6)
        assert cooldown_for_trip(0.3, 3) == pytest.approx(1.0)  # capped
        assert cooldown_for_trip(0.3, 9) == pytest.approx(1.0)
        assert cooldown_for_trip(1e-6, 3) == pytest.approx(4e-6)


# ----------------------------------------------------------------------
# DeviceHealth state machine
# ----------------------------------------------------------------------


def make_breaker(cooldown_s=1e-6) -> DeviceHealth:
    return DeviceHealth("gpu", "art:span", cooldown_s)


class TestDeviceHealth:
    def test_starts_closed_and_runs_device(self):
        breaker = make_breaker()
        assert breaker.state == CLOSED
        assert breaker.decide() == (RUN_DEVICE, None)

    def test_opens_at_failure_threshold(self):
        """The threshold is one failure while CLOSED."""
        breaker = make_breaker()
        breaker.record_success(1e-7)
        breaker.record_success(1e-7)
        assert breaker.state == CLOSED
        transition = breaker.record_failure(1e-7, "DeviceError")
        assert transition is not None
        assert (transition.from_state, transition.to_state) == (CLOSED, OPEN)
        assert transition.reason == "failures >= 1 (DeviceError)"
        assert breaker.state == OPEN
        assert breaker.trips == 1
        assert breaker.decide()[0] == RUN_BYTECODE
        # A failure while OPEN does not trip again.
        assert breaker.record_failure(1e-7, "DeviceError") is None
        assert breaker.trips == 1

    def test_cooldown_expiry_goes_half_open_then_probes(self):
        breaker = make_breaker()
        breaker.record_failure(0.0)
        assert breaker.state == OPEN
        action, transition = breaker.decide()
        assert action == RUN_BYTECODE and transition is None
        breaker.record_fallback(2e-6)  # clock passes the quarantine
        action, transition = breaker.decide()
        assert action == RUN_PROBE
        assert (transition.from_state, transition.to_state) == (
            OPEN,
            HALF_OPEN,
        )
        # HALF_OPEN keeps probing until the verdict is in.
        assert breaker.decide() == (RUN_PROBE, None)

    def test_clean_probes_close_and_repromote(self):
        breaker = make_breaker()
        breaker.record_failure(0.0)
        breaker.record_fallback(2e-6)
        breaker.decide()
        assert breaker.record_probe(True, 1e-7) is None
        transition = breaker.record_probe(True, 1e-7)
        assert (transition.from_state, transition.to_state) == (
            HALF_OPEN,
            CLOSED,
        )
        assert breaker.state == CLOSED
        assert breaker.repromotions == 1
        assert breaker.decide()[0] == RUN_DEVICE

    def test_failed_probe_reopens_with_escalated_quarantine(self):
        breaker = make_breaker()
        breaker.record_failure(0.0)
        breaker.record_fallback(2e-6)
        breaker.decide()
        transition = breaker.record_probe(False, 1e-7, "DeviceError")
        assert (transition.from_state, transition.to_state) == (
            HALF_OPEN,
            OPEN,
        )
        assert breaker.trips == 2
        assert transition.cooldown_s == pytest.approx(2e-6)
        # Not yet cooled: the first quarantine's worth is not enough.
        breaker.record_fallback(1e-6)
        assert breaker.decide()[0] == RUN_BYTECODE
        breaker.record_fallback(1.5e-6)
        assert breaker.decide()[0] == RUN_PROBE

    def test_permanent_demotion_without_cooldown(self):
        breaker = make_breaker(cooldown_s=None)
        breaker.record_failure(0.0)
        breaker.record_fallback(10.0)  # any amount of traffic
        assert breaker.decide() == (RUN_BYTECODE, None)
        assert breaker.state == OPEN

    def test_transitions_are_monotonic_in_simulated_time(self):
        breaker = make_breaker()
        breaker.record_failure(1e-7)
        breaker.record_fallback(2e-6)
        breaker.decide()
        breaker.record_probe(False, 1e-7)
        stamps = [t.at_s for t in breaker.transitions]
        assert stamps == sorted(stamps)
        assert len(breaker.transitions) == 3


# ----------------------------------------------------------------------
# HealthRegistry
# ----------------------------------------------------------------------


class TestHealthRegistry:
    def test_breaker_identity_and_state(self):
        registry = HealthRegistry(cooldown_s=1e-6)
        breaker = registry.breaker("gpu", "a", covered_task_ids=["t:f0"])
        assert registry.breaker("gpu", "a") is breaker
        assert registry.breaker("fpga", "a") is not breaker
        assert registry.state_of("gpu", "a") == CLOSED
        assert registry.state_of("gpu", "missing") is None
        assert breaker.covered_task_ids == ["t:f0"]

    def test_outcomes_counters_and_gauge(self):
        tracer = Tracer()
        registry = HealthRegistry(cooldown_s=1e-6, tracer=tracer)
        assert registry.decide("gpu", "a", ["t:f0"]) == RUN_DEVICE
        registry.on_success("gpu", "a", 1e-7)
        registry.on_failure("gpu", "a", 1e-7, error="DeviceError")
        assert registry.state_of("gpu", "a") == OPEN
        registry.on_fallback("gpu", "a", 2e-6)
        assert registry.decide("gpu", "a") == RUN_PROBE
        registry.on_probe("gpu", "a", True, 1e-7)
        counters = tracer.counters.snapshot()
        assert counters["health.success"] == 1
        assert counters["health.failure[gpu]"] == 1
        assert counters["health.fallback[gpu]"] == 1
        assert counters["health.probe.clean"] == 1
        assert counters["health.transition[open]"] == 1
        assert counters["health.transition[half_open]"] == 1
        gauges = tracer.metrics.snapshot()["gauges"]
        assert gauges["breaker.state[gpu:a]"]["value"] == 2  # HALF_OPEN
        assert len(tracer.find("breaker.transition")) == 2

    def test_report_validates_and_renders(self):
        registry = HealthRegistry(cooldown_s=1e-6)
        registry.on_failure("gpu", "a", 0.0, covered_task_ids=["t:f0"])
        report = registry.to_report(
            app="x", entry="X.main", scheduler="sequential"
        )
        assert schema.problems(report, HEALTH_SPEC) == []
        assert report["schema"] == "repro.health/1"
        assert report["totals"]["open"] == 1
        text = render_health_report(report)
        assert "gpu:a" in text and "OPEN" in text
        # Round-trips through JSON untouched.
        roundtrip = json.loads(json.dumps(report))
        assert schema.problems(roundtrip, HEALTH_SPEC) == []

    def test_validation_catches_broken_reports(self):
        assert schema.problems([], HEALTH_SPEC) != []
        assert schema.problems({"schema": "nope"}, HEALTH_SPEC) != []
        registry = HealthRegistry(cooldown_s=1e-6)
        registry.on_failure("gpu", "a", 0.0)
        report = registry.to_report()
        bad = json.loads(json.dumps(report))
        bad["breakers"][0]["state"] = "exploded"
        assert any(
            "unknown state" in p for p in schema.problems(bad, HEALTH_SPEC)
        )
        bad = json.loads(json.dumps(report))
        bad["totals"]["breakers"] = 99
        assert any("totals" in p for p in schema.problems(bad, HEALTH_SPEC))
        bad = json.loads(json.dumps(report))
        bad["breakers"][0]["transitions"].append(
            dict(bad["breakers"][0]["transitions"][0], at_s=-1.0)
        )
        assert any(
            "backwards" in p for p in schema.problems(bad, HEALTH_SPEC)
        )


    def test_parent_era_row_with_a_window_restores(self):
        """A checkpoint frame journaled while breakers still kept a
        sliding outcome window carries a ``window`` key per row; it
        restores to the same breaker state, and nothing reads it."""
        registry = HealthRegistry(cooldown_s=1e-6)
        registry.on_success("gpu", "a", 1e-7)
        registry.on_failure("gpu", "a", 1e-7, error="DeviceError",
                            covered_task_ids=["t:f0"])
        registry.on_fallback("gpu", "a", 2e-6)
        registry.decide("gpu", "a")
        registry.on_probe("gpu", "a", True, 1e-7)
        registry.on_success("fpga", "b", 3e-7)
        rows = registry.export_state()
        assert all("window" not in row for row in rows)
        old_rows = json.loads(json.dumps(rows))
        old_rows[0]["window"] = []
        old_rows[1]["window"] = [[1e-7, True], [2e-7, False]]
        resumed = HealthRegistry(cooldown_s=1e-6)
        resumed.restore_state(old_rows)
        assert resumed.export_state() == rows
        assert resumed.state_of("gpu", "a") == HALF_OPEN
        assert resumed.breaker("gpu", "a").clean_probes == 1


# ----------------------------------------------------------------------
# Burst windows and corrupt faults
# ----------------------------------------------------------------------


class TestBurstAndCorruptFaults:
    def test_window_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(from_call=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(until_call=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(from_call=5, until_call=2)

    def test_burst_window_fires_inclusively(self):
        plan = FaultPlan(
            [FaultSpec(site="device", from_call=2, until_call=3)], seed=1
        )
        injector = FaultInjector(plan)
        outcomes = []
        for _ in range(5):
            try:
                injector.check("device", ["x"], device="gpu", task_id="x")
                outcomes.append("ok")
            except DeviceError:
                outcomes.append("fault")
        assert outcomes == ["ok", "fault", "fault", "ok", "ok"]

    def test_window_round_trips_through_plan_dict(self):
        plan = FaultPlan(
            [FaultSpec(site="device", from_call=2, until_call=3)], seed=9
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.specs[0].from_call == 2
        assert clone.specs[0].until_call == 3

    def test_corrupt_perturbs_outputs_without_raising(self):
        plan = FaultPlan(
            [FaultSpec(site="device", error="corrupt", on_calls=(2,))],
            seed=1,
        )
        injector = FaultInjector(plan)
        # check() never fires corrupt specs.
        injector.check("device", ["x"], device="gpu", task_id="x")
        first = injector.transform_outputs("device", ["x"], [10, 20])
        second = injector.transform_outputs("device", ["x"], [10, 20])
        assert first == [10, 20]
        assert second != [10, 20]
        assert injector.fired() == 1


# ----------------------------------------------------------------------
# Retry satellites: the CLOSED branch of the mediated offload
# ----------------------------------------------------------------------


class TestSupervisorSatellites:
    def test_retry_recovered_signal(self):
        tracer = Tracer()
        runtime = stub_runtime(3, tracer)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise DeviceError("transient")
            return "ok", 0.0

        assert mediate(runtime, flaky) == ("ok", 0.0)
        counters = tracer.counters.snapshot()
        assert counters["retry.recovered"] == 1
        assert counters["retry.recovered[gpu]"] == 1
        (span,) = tracer.find("retry.recovered")
        assert span.attributes["task_id"] == "t"
        assert span.attributes["attempts"] == 3
        assert span.attributes["backoff_s"] > 0.0
        assert span.attributes["backoff_s"] == sum(
            attempt.attributes["backoff_s"]
            for attempt in tracer.find("retry.attempt")
        )

    def test_first_try_success_is_not_recovered(self):
        tracer = Tracer()
        mediate(stub_runtime(3, tracer), lambda: ("ok", 0.0))
        assert tracer.counters.get("retry.recovered") == 0

    def test_demotion_record_carries_backoff(self):
        """The breaker failure that records a demotion is charged the
        call's backoff on the span's clock."""
        tracer = Tracer()
        runtime = stub_runtime(3, tracer)
        mediate(runtime, failing(), lambda: ("cpu", 0.0))
        (breaker,) = runtime.health.breakers()
        backoff = sum(
            span.attributes["backoff_s"]
            for span in tracer.find("retry.attempt")
        )
        assert backoff > 0.0
        assert breaker.failures == 1
        assert breaker.now_s == backoff
        assert breaker.transitions[0].at_s == backoff

    def test_threaded_backoff_deterministic(self):
        """Concurrent tasks must not perturb the backoff sequence: each
        task's draws are identical across runs regardless of thread
        interleaving (per-task jitter streams drawn under one lock)."""

        def run_once():
            tracer = Tracer()
            runtime = stub_runtime(4, tracer)
            barrier = threading.Barrier(4)

            def worker(task_id):
                barrier.wait()
                mediate(
                    runtime, failing(), lambda: (None, 0.0),
                    task_id=task_id,
                )

            threads = [
                threading.Thread(target=worker, args=(f"t:{i}",))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            return tuple(sorted(
                (span.attributes["task_id"], span.attributes["attempt"],
                 span.attributes["backoff_s"])
                for span in tracer.find("retry.attempt")
            ))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the draws finely
        try:
            runs = {run_once() for _ in range(5)}
        finally:
            sys.setswitchinterval(interval)
        assert len(runs) == 1
        assert len(runs.pop()) == 4 * 3

    def test_per_task_streams_differ(self):
        streams = RetryStreams()
        a = streams.backoff("t:a", 1)
        b = streams.backoff("t:b", 1)
        assert a != b
        # A runtime's streams are its own: the service shares one
        # health registry across jobs, never the jitter.
        assert stub_runtime(2).retry_streams.backoff("t:a", 1) == a


# ----------------------------------------------------------------------
# RetryExhaustedError end-to-end (no fallback) through both schedulers
# ----------------------------------------------------------------------


class _StubEngine:
    config = None

    def __init__(self):
        self.ledger = TimingLedger()

    def metered_call(self, method, args):
        return args[0], 10


def _exhausting_pipeline(tracer):
    """source -> DeviceTask (no bytecode fallback) -> sink."""
    runtime = stub_runtime(2, tracer)

    def executor(items):
        return mediate(
            runtime, failing(), task_id="gpu:dead", kind="filter-batch"
        )

    source = SourceTask(ValueArray(KIND_INT, [1, 2, 3]), 1, "t:src")
    device = DeviceTask(
        artifact_id="gpu:dead",
        device="gpu",
        covered_task_ids=["t:f0"],
        executor=executor,
        batch_size=2,
    )
    sink = SinkTask(MutableArray(KIND_INT, []), "t:sink")
    return Pipeline([source, device, sink])


class TestRetryExhaustedEndToEnd:
    @pytest.mark.parametrize(
        "scheduler",
        [SequentialScheduler(), ThreadedScheduler()],
        ids=["sequential", "threaded"],
    )
    def test_exhaustion_surfaces_cleanly(self, scheduler):
        tracer = Tracer()
        engine = _StubEngine()
        ctx = ExecutionContext(engine, engine.ledger.new_graph_run("g"))
        pipeline = _exhausting_pipeline(tracer)
        with pytest.raises(RetryExhaustedError) as err:
            scheduler.run_to_completion(pipeline, ctx)
        assert err.value.task_id == "gpu:dead"
        assert err.value.device == "gpu"
        assert err.value.attempts == 2
        assert isinstance(err.value.__cause__, DeviceError)
        # The pipeline recorded the failure: join() re-raises the same
        # error instead of hanging or claiming a never-started graph.
        assert pipeline.failed
        with pytest.raises(RetryExhaustedError):
            scheduler.join(pipeline)


# ----------------------------------------------------------------------
# End-to-end: demote -> probe -> re-promote within one run
# ----------------------------------------------------------------------


TRANSIENT_PLAN = FaultPlan(
    [FaultSpec(site="device", error="device", target="*", until_call=1)],
    seed=7,
)


def _recovery_run(scheduler, plan=TRANSIENT_PLAN, cooldown_s=1e-6):
    spec = SUITE["gray_pipeline"]
    entry, values = spec.default_args()
    tracer = Tracer()
    compiled = compile_program(
        spec.source,
        filename="<gray_pipeline.lime>",
        options=CompileOptions(tracer=tracer),
    )
    config = RuntimeConfig(
        scheduler=scheduler,
        tracer=tracer,
        fault_plan=plan,
        max_attempts=1,
        cooldown_s=cooldown_s,
        batch_size=16,
    )
    runtime = Runtime(compiled, config)
    outcome = runtime.run(entry, list(values))
    reference = Runtime(
        compiled,
        RuntimeConfig(
            policy=SubstitutionPolicy(use_accelerators=False),
            scheduler=scheduler,
        ),
    ).run(entry, list(values))
    return runtime, outcome, reference, tracer


def _transition_sequence(runtime):
    return [
        (t.key, t.from_state, t.to_state, t.at_s, t.reason)
        for breaker in runtime.health.breakers()
        for t in breaker.transitions
    ]


class TestRecoveryEndToEnd:
    @pytest.mark.parametrize(
        "scheduler", ["sequential", "threaded"]
    )
    def test_demote_probe_repromote_within_one_run(self, scheduler):
        runtime, outcome, reference, tracer = _recovery_run(scheduler)
        assert outcome.output == reference.output
        assert outcome.value == reference.value
        (breaker,) = runtime.health.breakers()
        states = [
            (t.from_state, t.to_state) for t in breaker.transitions
        ]
        assert states == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]
        assert breaker.state == CLOSED
        assert breaker.repromotions == 1
        assert breaker.probes == 2
        assert breaker.successes > 0  # device traffic after re-promotion
        counters = tracer.counters.snapshot()
        assert counters["health.repromotion[gpu]"] == 1
        assert counters["health.failure[gpu]"] == 1
        # The breaker alone held the demotion: no directive was written.
        assert runtime.policy.directives == {}

    def test_transitions_deterministic_across_runs_and_schedulers(self):
        first = _transition_sequence(_recovery_run("sequential")[0])
        second = _transition_sequence(_recovery_run("sequential")[0])
        threaded = _transition_sequence(_recovery_run("threaded")[0])
        assert first == second
        assert first == threaded
        assert len(first) == 3

    def test_breaker_spans_reach_chrome_trace(self, tmp_path):
        from repro.obs.export import TRACE_SPEC, write_chrome_trace

        runtime, _, _, tracer = _recovery_run("sequential")
        assert len(tracer.find("breaker.transition")) == 3
        assert len(tracer.find("probe.shadow")) == 2
        probe = tracer.find("probe.shadow")[0]
        assert probe.attributes["ok"] is True
        assert probe.attributes["device_s"] > 0.0
        payload = write_chrome_trace(
            tracer, str(tmp_path / "health.json"), process_name="t"
        )
        assert schema.problems(payload, TRACE_SPEC) == []
        names = {e.get("name") for e in payload["traceEvents"]}
        assert "breaker.transition" in names
        assert "probe.shadow" in names
        # Stage spans carry the breaker verdict for the span.
        stage_states = [
            span.attributes.get("breaker_state")
            for span in tracer.find("run.graph.stage")
            if span.attributes.get("task_id", "").startswith("gpu:")
        ]
        assert stage_states == [CLOSED]

    def test_wrong_answer_device_fails_probe(self):
        """A corrupt (silently wrong) device is caught by the shadow
        probe's element-wise comparison and re-quarantined; bytecode
        stays authoritative so output is still bit-identical."""
        plan = FaultPlan(
            [
                FaultSpec(
                    site="device", error="device", target="*", until_call=1
                ),
                # First *completed* device execution is the first probe:
                # it returns wrong answers instead of crashing.
                FaultSpec(
                    site="device", error="corrupt", target="*",
                    on_calls=(1,),
                ),
            ],
            seed=7,
        )
        runtime, outcome, reference, _ = _recovery_run(
            "sequential", plan=plan
        )
        assert outcome.output == reference.output
        assert outcome.value == reference.value
        (breaker,) = runtime.health.breakers()
        assert breaker.probe_failures == 1
        assert breaker.trips >= 2
        reopen = [
            t
            for t in breaker.transitions
            if t.from_state == HALF_OPEN and t.to_state == OPEN
        ]
        assert reopen and reopen[0].reason == "mismatch"

    def test_default_policy_keeps_demotion_permanent(self):
        runtime, outcome, reference, _ = _recovery_run(
            "sequential", cooldown_s=None
        )
        assert outcome.output == reference.output
        (breaker,) = runtime.health.breakers()
        assert breaker.state == OPEN
        assert breaker.probes == 0
        assert breaker.repromotions == 0

    def test_health_report_from_live_run(self):
        runtime, _, _, _ = _recovery_run("sequential")
        report = runtime.health.to_report(
            app="gray_pipeline", entry="GrayCoder.pipeline",
            scheduler="sequential",
        )
        assert schema.problems(report, HEALTH_SPEC) == []
        assert report["totals"]["repromotions"] == 1
        assert report["totals"]["trips"] == 1


def _repeated_runs(scheduler, cooldown_s, runs=4):
    """``runs`` runs of gray_pipeline on one runtime under the
    transient plan, with one batch per run, so run 1 ends with its
    span's breaker OPEN. Returns the runtime and ``faults.fired()``
    after each run; every run's answer is checked against cpu-only."""
    spec = SUITE["gray_pipeline"]
    entry, values = spec.default_args()
    compiled = compile_program(
        spec.source, filename="<gray_pipeline.lime>"
    )
    runtime = Runtime(
        compiled,
        RuntimeConfig(
            scheduler=scheduler,
            fault_plan=TRANSIENT_PLAN,
            max_attempts=1,
            cooldown_s=cooldown_s,
            batch_size=len(values[0]),
        ),
    )
    reference = Runtime(
        compiled,
        RuntimeConfig(
            policy=SubstitutionPolicy(use_accelerators=False),
            scheduler=scheduler,
        ),
    ).run(entry, list(values))
    fired = []
    for _ in range(runs):
        outcome = runtime.run(entry, list(values))
        assert outcome.output == reference.output
        assert outcome.value == reference.value
        fired.append(runtime.faults.fired())
    return runtime, fired


@pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
class TestBreakerAcrossRuns:
    """A span whose breaker ends a run OPEN is still substituted in
    the runtime's later runs, so the breaker keeps seeing batches."""

    def test_open_span_cools_down_probes_and_repromotes(self, scheduler):
        runtime, _ = _repeated_runs(scheduler, 1e-6)
        (breaker,) = runtime.health.breakers()
        assert breaker.state == CLOSED
        assert breaker.repromotions == 1
        assert breaker.probes == 2

    def test_permanent_demotion_serves_later_runs_from_bytecode(
        self, scheduler
    ):
        runtime, fired = _repeated_runs(scheduler, None)
        (breaker,) = runtime.health.breakers()
        assert breaker.state == OPEN
        assert len(runtime.substitution_log) == 4
        for _, decisions in runtime.substitution_log:
            assert [d.device for d in decisions] == ["gpu"]
        # OPEN serves from bytecode without consulting the device.
        assert fired == [1, 1, 1, 1]


class TestOperatorChargedItsOwnOffload:
    """A map's breaker clock and its shadow probe's ``device_s`` are
    the seconds its own device call returned, however many records
    other stages append to the shared ledger meanwhile."""

    def test_foreign_offload_records_are_not_charged(self):
        spec = SUITE["saxpy"]
        tracer = Tracer()
        runtime = Runtime(
            compile_app("saxpy"),
            RuntimeConfig(
                scheduler="sequential", tracer=tracer, cooldown_s=1e-6
            ),
        )
        own = []
        offload = runtime._offload

        def offload_then_intrude(*args, **kwargs):
            outputs, seconds = offload(*args, **kwargs)
            own.append(seconds)
            # Another stage's batch lands while this call returns.
            runtime.ledger.add_offload(OffloadRecord(
                kind="filter-batch", target="other", device="fpga",
                items=1, kernel_s=1.0, in_graph=True,
            ))
            return outputs, seconds

        runtime._offload = offload_then_intrude
        entry, args = spec.default_args(128)
        runtime.run(entry, args)
        (breaker,) = runtime.health.breakers()
        assert len(own) == 1 and own[0] > 0.0
        assert breaker.successes == 1
        assert breaker.now_s == own[0]

        # Trip it, let the quarantine pass, and shadow-probe the next call.
        health = runtime.health
        health.on_failure(breaker.device, breaker.key, 0.0)
        health.on_fallback(breaker.device, breaker.key, 1e-5)
        before_s = breaker.now_s
        entry, args = spec.default_args(128)
        runtime.run(entry, args)
        (probe,) = tracer.find("probe.shadow")
        assert probe.attributes["ok"] is True
        assert len(own) == 2
        assert probe.attributes["device_s"] == own[1]
        assert breaker.now_s == pytest.approx(
            before_s + probe.attributes["bytecode_s"] + own[1], rel=1e-12
        )


NAN_MAP = """
class NanMap {
    local static float undefined(float x) { return (x - x) / (x - x); }
    static float[[]] run(float[[]] xs) { return NanMap @ undefined(xs); }
}
"""


@pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
def test_a_nan_producing_map_span_repromotes_after_clean_probes(scheduler):
    """A device that returns NaN where bytecode returns NaN answers
    right: its shadow probes are clean, and the span re-promotes."""
    runtime = Runtime(
        compile_program(NAN_MAP),
        RuntimeConfig(
            scheduler=scheduler,
            fault_plan=TRANSIENT_PLAN,
            max_attempts=1,
            cooldown_s=1e-6,
        ),
    )
    xs = ValueArray(KIND_FLOAT, [float(i) for i in range(64)])
    # Two runs served from bytecode cool the breaker; two clean probes
    # close it.
    for _ in range(5):
        value = runtime.run("NanMap.run", [xs]).value
        assert len(value) == 64 and all(v != v for v in value)
    (breaker,) = runtime.health.breakers()
    assert breaker.probes == PROBE_BATCHES
    assert breaker.probe_failures == 0
    assert breaker.repromotions == 1
    assert breaker.state == CLOSED
