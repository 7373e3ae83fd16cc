"""Unit tests for the retry schedule, supervisor, and stage watchdog."""

import time

import pytest

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
from repro.runtime.scheduler import SequentialScheduler, ThreadedScheduler
from repro.runtime.engine import RuntimeConfig
from repro.runtime.supervisor import (
    BACKOFF_MULTIPLIER,
    BASE_BACKOFF_S,
    JITTER_RATIO,
    MAX_BACKOFF_S,
    RETRY_SEED,
    Supervisor,
    backoff_s,
    is_retryable,
)
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
    def test_success_needs_no_retry(self):
        supervisor = Supervisor(3)
        assert supervisor.run(
            lambda: 42, task_id="t", device="gpu"
        ) == 42
        assert supervisor.total_backoff_s == 0.0

    def test_transient_failure_retried_to_success(self):
        tracer = Tracer()
        supervisor = Supervisor(3, tracer=tracer)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise DeviceError("transient")
            return "ok"

        assert supervisor.run(flaky, task_id="t", device="gpu") == "ok"
        assert len(calls) == 3
        assert tracer.counters.get("retry.attempt") == 2
        assert len(tracer.find("retry.attempt")) == 2

    def test_exhaustion_without_fallback_raises(self):
        supervisor = Supervisor(2)

        def broken():
            raise DeviceError("permanent")

        with pytest.raises(RetryExhaustedError) as err:
            supervisor.run(broken, task_id="t:x", device="fpga")
        assert err.value.task_id == "t:x"
        assert err.value.device == "fpga"
        assert err.value.attempts == 2
        assert isinstance(err.value.__cause__, DeviceError)

    def test_exhaustion_with_fallback_demotes(self):
        tracer = Tracer()
        supervisor = Supervisor(2, tracer=tracer)
        demoted = []

        result = supervisor.run(
            lambda: (_ for _ in ()).throw(DeviceError("dead")),
            task_id="t:x",
            device="gpu",
            fallback=lambda: "bytecode-result",
            covered_task_ids=["t:a", "t:b"],
            on_demote=lambda record, error: demoted.append(record),
        )
        assert result == "bytecode-result"
        assert len(supervisor.demotions) == 1
        record = supervisor.demotions[0]
        assert record.covered_task_ids == ["t:a", "t:b"]
        assert record.attempts == 2
        assert demoted == [record]
        assert tracer.counters.get("demotion.taken") == 1
        assert tracer.counters.get("demotion.taken[gpu]") == 1
        assert len(tracer.find("demotion.taken")) == 1

    def test_timeout_demotes_without_retry(self):
        tracer = Tracer()
        supervisor = Supervisor(5, tracer=tracer)
        calls = []

        def stalled():
            calls.append(1)
            raise DeviceTimeoutError("hung", task_id="t", device="gpu")

        result = supervisor.run(
            stalled, task_id="t", device="gpu", fallback=lambda: "cpu"
        )
        assert result == "cpu"
        assert len(calls) == 1  # no retry for a hang
        assert tracer.counters.get("retry.attempt") == 0

    def test_non_lime_errors_propagate(self):
        supervisor = Supervisor(3)

        def bug():
            raise ZeroDivisionError("a real bug, not a device fault")

        with pytest.raises(ZeroDivisionError):
            supervisor.run(bug, task_id="t", device="gpu")

    def test_backoff_deterministic_under_seed(self):
        def total(task_id):
            supervisor = Supervisor(4)
            with pytest.raises(RetryExhaustedError):
                supervisor.run(
                    lambda: (_ for _ in ()).throw(DeviceError("x")),
                    task_id=task_id,
                    device="gpu",
                )
            return supervisor.total_backoff_s

        assert total("t") == total("t")
        # Each task id draws from its own stream off RETRY_SEED.
        assert total("t") != total("u")


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
