"""Unit tests for the retry schedule, the retry loop of the mediated
offload (``Runtime._mediated``), and the stage watchdog."""

import time
from types import SimpleNamespace

import pytest

from repro.apps import compile_app
from repro.errors import (
    ConfigurationError,
    DeviceError,
    DeviceTimeoutError,
    MarshalingError,
    RetryExhaustedError,
    RuntimeGraphError,
)
from repro.obs import Tracer
from repro.runtime.graph import Pipeline
from repro.runtime.health import (
    BACKOFF_MULTIPLIER,
    BASE_BACKOFF_S,
    JITTER_RATIO,
    MAX_BACKOFF_S,
    OPEN,
    RETRY_SEED,
    backoff_s,
    is_retryable,
)
from repro.runtime.scheduler import SequentialScheduler, ThreadedScheduler
from repro.runtime.engine import Runtime, RuntimeConfig
from repro.runtime.tasks import (
    ExecutionContext,
    SinkTask,
    SourceTask,
    Task,
)
from repro.runtime.timing import TimingLedger
from repro.values import KIND_INT, MutableArray, ValueArray


class _StubEngine:
    """Just enough engine for ExecutionContext in scheduler tests."""

    config = None

    def __init__(self):
        self.ledger = TimingLedger()

    def metered_call(self, method, args):
        return args[0], 10


def make_ctx():
    engine = _StubEngine()
    return ExecutionContext(engine, engine.ledger.new_graph_run("g"))


def stub_runtime(max_attempts, tracer=None, **config):
    """A runtime whose mediated offload the tests drive with stub
    thunks (the compiled program is never run)."""
    if tracer is None:
        tracer = Tracer()
    return Runtime(
        compile_app("saxpy"),
        RuntimeConfig(max_attempts=max_attempts, tracer=tracer, **config),
    )


def mediate(runtime, device_fn, bytecode_fn=None, *, task_id="t",
            device="gpu", covered=("t:f0",), kind="map"):
    """One call of ``device_fn`` through ``Runtime._mediated``: a
    blocking operator by default, a task-graph batch (whose task id is
    its artifact id) with ``kind="filter-batch"``. Each thunk returns
    ``(outputs, seconds)``."""
    artifact = SimpleNamespace(
        artifact_id=(
            task_id if kind == "filter-batch" else f"{device}:{task_id}"
        ),
        device=device,
        manifest=SimpleNamespace(task_ids=list(covered)),
    )
    return runtime._mediated(
        kind, artifact, task_id, 1, device_fn, bytecode_fn
    )


def failing(error=DeviceError, calls=None):
    """A device thunk that raises ``error`` every time."""

    def device_fn():
        if calls is not None:
            calls.append(1)
        raise error("dead")

    return device_fn


class TestRetrySchedule:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RuntimeConfig(max_attempts=0)

    def test_schedule_constants(self):
        # The schedule the modeled goldens record backoff under.
        assert (BASE_BACKOFF_S, BACKOFF_MULTIPLIER, MAX_BACKOFF_S) == (
            100e-6, 2.0, 0.1
        )
        assert (JITTER_RATIO, RETRY_SEED) == (0.1, 0x5EED)
        assert RuntimeConfig().max_attempts == 3

    def test_backoff_exponential_and_capped(self):
        assert backoff_s(1, 0.5) == pytest.approx(100e-6)
        assert backoff_s(2, 0.5) == pytest.approx(200e-6)
        assert backoff_s(10, 0.5) == pytest.approx(100e-6 * 2 ** 9)
        assert backoff_s(11, 0.5) == pytest.approx(0.1)  # capped
        assert backoff_s(12, 0.5) == pytest.approx(0.1)

    def test_jitter_bounds(self):
        low = backoff_s(1, 0.0)
        high = backoff_s(1, 1.0)
        assert low == pytest.approx(0.9 * 100e-6)
        assert high == pytest.approx(1.1 * 100e-6)

    def test_retryability_per_error_class(self):
        assert is_retryable(DeviceError("x"))
        assert is_retryable(MarshalingError("x"))
        assert not is_retryable(DeviceTimeoutError("x"))
        assert not is_retryable(ValueError("x"))


class TestSupervisor:
    """The CLOSED branch of the mediated offload: retries, then the
    bytecode replay, with the breaker as the record of a demotion."""

    def test_success_needs_no_retry(self):
        tracer = Tracer()
        runtime = stub_runtime(3, tracer)
        assert mediate(runtime, lambda: (42, 1e-6)) == (42, 1e-6)
        assert tracer.counters.get("retry.attempt") == 0
        (breaker,) = runtime.health.breakers()
        assert breaker.successes == 1 and breaker.now_s == 1e-6

    def test_transient_failure_retried_to_success(self):
        tracer = Tracer()
        runtime = stub_runtime(3, tracer)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise DeviceError("transient")
            return "ok", 0.0

        assert mediate(runtime, flaky) == ("ok", 0.0)
        assert len(calls) == 3
        assert tracer.counters.get("retry.attempt") == 2
        assert len(tracer.find("retry.attempt")) == 2
        assert runtime.health.breakers()[0].failures == 0

    def test_exhaustion_without_fallback_raises(self):
        runtime = stub_runtime(2, job_id="job-0007", tenant="acme")
        with pytest.raises(RetryExhaustedError) as err:
            mediate(runtime, failing(), task_id="t:x", device="fpga")
        assert err.value.task_id == "t:x"
        assert err.value.device == "fpga"
        assert err.value.attempts == 2
        assert (err.value.job_id, err.value.tenant) == ("job-0007", "acme")
        assert isinstance(err.value.__cause__, DeviceError)
        assert err.value.cause is err.value.__cause__
        # Nothing was served, so nothing was demoted.
        assert runtime.health.breakers()[0].failures == 0

    def test_exhaustion_with_fallback_demotes(self):
        tracer = Tracer()
        runtime = stub_runtime(2, tracer)
        result = mediate(
            runtime, failing(), lambda: ("bytecode-result", 0.0),
            task_id="t:x", covered=("t:a", "t:b"),
        )
        assert result == ("bytecode-result", 0.0)
        (breaker,) = runtime.health.breakers()
        assert breaker.state == OPEN
        assert breaker.failures == 1
        assert breaker.covered_task_ids == ["t:a", "t:b"]
        (opened,) = breaker.transitions
        assert opened.reason == "failures >= 1 (DeviceError)"
        assert tracer.counters.get("retry.attempt") == 1
        assert tracer.counters.get("health.failure[gpu]") == 1
        assert len(tracer.find("breaker.transition")) == 1

    def test_timeout_demotes_without_retry(self):
        tracer = Tracer()
        runtime = stub_runtime(5, tracer)
        calls = []
        result = mediate(
            runtime, failing(DeviceTimeoutError, calls),
            lambda: ("cpu", 0.0),
        )
        assert result == ("cpu", 0.0)
        assert len(calls) == 1  # no retry for a hang
        assert tracer.counters.get("retry.attempt") == 0
        assert runtime.health.breakers()[0].failures == 1

    def test_non_lime_errors_propagate(self):
        runtime = stub_runtime(3)

        def bug():
            raise ZeroDivisionError("a real bug, not a device fault")

        with pytest.raises(ZeroDivisionError):
            mediate(runtime, bug, lambda: ("cpu", 0.0))

    def test_backoff_deterministic_under_seed(self):
        def backoffs(task_id):
            tracer = Tracer()
            runtime = stub_runtime(4, tracer)
            with pytest.raises(RetryExhaustedError):
                mediate(runtime, failing(), task_id=task_id)
            return [
                span.attributes["backoff_s"]
                for span in tracer.find("retry.attempt")
            ]

        assert len(backoffs("t")) == 3
        assert backoffs("t") == backoffs("t")
        # Each task id draws from its own stream off RETRY_SEED.
        assert backoffs("t") != backoffs("u")


class _StallingTask(Task):
    """A middle stage that hangs on the wall clock."""

    kind = "filter"
    device = "gpu"

    def __init__(self, stall_s):
        super().__init__("t:stall")
        self.stall_s = stall_s

    def run(self, ctx):
        from repro.runtime.queues import END_OF_STREAM

        time.sleep(self.stall_s)
        while True:
            item = self.input_conn.get()
            if item is END_OF_STREAM:
                break
            self.output_conn.put(item)
        self.output_conn.close()


class TestStageWatchdog:
    def _pipeline(self, stall_s):
        source = SourceTask(ValueArray(KIND_INT, [1, 2, 3]), 1, "t:src")
        stall = _StallingTask(stall_s)
        sink = SinkTask(MutableArray.allocate(KIND_INT, 3), "t:sink")
        return Pipeline([source, stall, sink])

    def test_stalled_stage_trips_watchdog(self):
        scheduler = ThreadedScheduler(stage_timeout_s=0.05)
        pipeline = self._pipeline(stall_s=30.0)
        scheduler.start(pipeline, make_ctx())
        with pytest.raises(DeviceTimeoutError) as err:
            scheduler.join(pipeline)
        assert err.value.task_id == "t:stall"
        assert err.value.device == "gpu"
        assert pipeline.failed

    def test_fast_stages_pass_watchdog(self):
        scheduler = ThreadedScheduler(stage_timeout_s=5.0)
        pipeline = self._pipeline(stall_s=0.0)
        scheduler.run_to_completion(pipeline, make_ctx())
        assert pipeline.started and not pipeline.failed

    def test_watchdog_disabled_by_default(self):
        scheduler = ThreadedScheduler()
        assert scheduler.stage_timeout_s is None

    def test_join_unstarted_names_graph(self):
        scheduler = ThreadedScheduler()
        pipeline = self._pipeline(stall_s=0.0)
        with pytest.raises(RuntimeGraphError) as err:
            scheduler.join(pipeline)
        assert "source(1)" in str(err.value)

    def test_sequential_join_unstarted_names_graph(self):
        scheduler = SequentialScheduler()
        pipeline = self._pipeline(stall_s=0.0)
        with pytest.raises(RuntimeGraphError) as err:
            scheduler.join(pipeline)
        assert "source(1)" in str(err.value)
