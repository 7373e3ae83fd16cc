"""One body per task: what a task computes must not depend on which
scheduler drives it (DESIGN.md §3c).

Two halves.

*Success path* — a characterisation golden
(``tests/golden/task_bodies.json``), recorded while every task class
still carried two hand-written bodies (``run`` for the threaded
scheduler, a whole-stream twin for the sequential one) and unchanged
since the sequential scheduler drives ``run`` too: for each task kind x both
schedulers the outputs, every ``StageTime``, the modeled total, the
batch chunking, the fault injector's call indices under a one-fault
plan, every counter and histogram, and the ordered attributes of every
``run.graph.stage`` span. Regenerate only for an intended behaviour
change::

    REPRO_REGEN_TASK_GOLDEN=1 PYTHONPATH=src:. \\
        python -m pytest tests/test_task_bodies.py

*Failure paths* — the cases the two bodies used to disagree on (arity
that does not divide the stream, sink overflow, an error in the middle
of a stream, cancellation mid-stream): both schedulers raise the same
exception with the same message, leave the same sink contents and
report ``stage.items`` = work done before the failure.
"""

import functools
import json
import os
import sys
import threading

import pytest

from repro.apps import SUITE, compile_app
from repro.backends.common import FPGA, GPU
from repro.compiler import compile_program
from repro.errors import DeviceError, JobCancelledError, RuntimeGraphError
from repro.obs import Tracer
from repro.runtime import (
    FaultPlan,
    FaultSpec,
    Pipeline,
    Runtime,
    RuntimeConfig,
    SequentialScheduler,
    SubstitutionPolicy,
    ThreadedScheduler,
)
from repro.runtime.adaptive import AdaptiveTask
from repro.runtime.cancel import CancelToken
from repro.runtime.queues import END_OF_STREAM, Connection, InlineEdge
from repro.runtime.tasks import (
    DeviceTask,
    ExecutionContext,
    FilterTask,
    SinkTask,
    SourceTask,
)
from repro.runtime.timing import TimingLedger
from repro.values import KIND_BIT, KIND_INT, Bit, MutableArray, ValueArray

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "task_bodies.json")
REGEN = os.environ.get("REPRO_REGEN_TASK_GOLDEN") == "1"

SCHEDULERS = ("sequential", "threaded")

#: Threaded stage-span attributes measured on the host clock (FIFO
#: occupancy and blocking time): the golden pins that they are present,
#: and where, not what they read.
WALL_CLOCK_ATTRS = (
    "queue_depth", "queue_wait_in_us", "queue_wait_out_us", "queue_wait_us",
)

PROGRAMS = """
class Bodies {
    local static int dbl(int x) { return x * 2 + 1; }
    local static int add(int a, int b) { return a + b; }
    local static int ones(bit[[]] chunk) {
        int count = 0;
        for (int i = 0; i < chunk.length; i++) {
            if (chunk[i] == bit.one) { count += 1; }
        }
        return count;
    }
    local static int invert(int x) { return 100 / x; }
    static void rate1(int[[]] xs, int[] out) {
        var t = xs.source(1) => task dbl => out.<int>sink();
        t.finish();
    }
    static void rate4(bit[[]] stream, int[] out) {
        var t = stream.source(4) => ([ task ones ]) => out.<int>sink();
        t.finish();
    }
    static void arity2(int[[]] xs, int[] out) {
        var t = xs.source(1) => ([ task add ]) => out.<int>sink();
        t.finish();
    }
    static void inverted(int[[]] xs, int[] out) {
        var t = xs.source(1) => task invert => out.<int>sink();
        t.finish();
    }
}
"""


def _ints(n):
    return ValueArray(KIND_INT, [(i * 37 + 11) % 1000 for i in range(n)])


def _bits(n):
    return ValueArray(KIND_BIT, [Bit((i * 5 + i // 3) % 2) for i in range(n)])


_ONE_FAULT = FaultPlan(
    [FaultSpec(site="device", error="device", target="*", on_calls=(2,))],
    seed=7,
)

_CPU = SubstitutionPolicy(use_accelerators=False)


def _cases():
    """label -> (compiled, entry, argument builder, config overrides).
    Arguments are built per run: the sink arrays are mutable."""
    bodies = compile_program(PROGRAMS)

    def app(name, n):
        return (compile_app(name), *SUITE[name].default_args(n))

    def with_out(entry, xs, out_len):
        return (
            bodies, entry,
            lambda: [xs, MutableArray.allocate(KIND_INT, out_len)],
        )

    def fixed(compiled, entry, args):
        return compiled, entry, lambda: args

    cases = {
        "source-rate1/filter-arity1": (
            *with_out("Bodies.rate1", _ints(40), 40), {"policy": _CPU}),
        "source-rate4": (
            *with_out("Bodies.rate4", _bits(48), 12), {"policy": _CPU}),
        "filter-arity2": (
            *with_out("Bodies.arity2", _ints(40), 20), {"policy": _CPU}),
        "filter-stateful": (
            *fixed(*app("running_sum", 48)), {"policy": _CPU}),
        "empty-stream": (
            *with_out("Bodies.rate1", _ints(0), 0), {}),
    }
    for order_name, order in (("gpu-first", (GPU, FPGA)),
                              ("fpga-first", (FPGA, GPU))):
        policy = SubstitutionPolicy(device_order=order)
        for batch in (1, 7, 64):
            cases[f"device/{order_name}/batch{batch}"] = (
                *fixed(*app("gray_pipeline", 80)),
                {"policy": policy, "batch_size": batch},
            )
        cases[f"device/{order_name}/batch7/one-fault"] = (
            *fixed(*app("gray_pipeline", 80)),
            {"policy": policy, "batch_size": 7, "fault_plan": _ONE_FAULT},
        )
    # 300 items at probe size 32: bytecode probe (32), device probes
    # (32, 128), the decision, then steady state (64, 44).
    adaptive = SubstitutionPolicy(adaptive=True)
    cases["adaptive"] = (
        *fixed(*app("gray_pipeline", 300)),
        {"policy": adaptive, "batch_size": 64},
    )
    cases["adaptive/one-fault"] = (
        *fixed(*app("gray_pipeline", 300)),
        {"policy": adaptive, "batch_size": 64, "fault_plan": _ONE_FAULT},
    )
    return cases


def _plain(value):
    if isinstance(value, (ValueArray, MutableArray, list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def _record(compiled, entry, make_args, overrides, scheduler):
    tracer = Tracer()
    runtime = Runtime(
        compiled,
        RuntimeConfig(scheduler=scheduler, tracer=tracer, **overrides),
    )
    args = make_args()
    outcome = runtime.run(entry, args)
    ledger = outcome.ledger
    sinks = [a for a in args if isinstance(a, MutableArray)]
    chunks: dict = {}
    for record in ledger.offloads:
        chunks.setdefault(f"{record.device}:{record.target}", []).append(
            record.items
        )
    metrics = tracer.metrics.snapshot()
    # The sequential scheduler reports an explicit queue_wait_us=0.0.
    host_clock = WALL_CLOCK_ATTRS if scheduler == "threaded" else ()
    return {
        "value": _plain(outcome.value),
        "sinks": _plain(sinks),
        "stdout": outcome.output,
        "total_s": repr(ledger.total_s),
        # Threaded stages register in thread start order; sort.
        "stages": sorted(
            [stage.task_id, stage.device, stage.items, repr(stage.busy_s)]
            for run in ledger.graph_runs
            for stage in run.stages.values()
        ),
        "offload_items": chunks,
        "faults": runtime.faults.export_state(),
        "adaptations": [
            _plain([r.artifact_id, r.device, r.chosen, r.probe_items,
                    r.cpu_s_per_item, r.device_fixed_s,
                    r.device_marginal_s_per_item, r.device_s_per_item])
            for r in runtime.adaptation_log
        ],
        "stage_spans": sorted(
            (
                [
                    [key, "<host clock>" if key in host_clock
                     else _plain(value)]
                    for key, value in span.attributes.items()
                ]
                for span in tracer.find("run.graph.stage")
            ),
            key=lambda attrs: dict(attrs)["task_id"],
        ),
        # The bounded FIFOs time their waits on the host clock.
        "counters": {
            name: value
            for name, value in metrics["counters"].items()
            if not name.startswith("queue.")
        },
        "histograms": {
            name: [row["count"]]
            + ([] if name.startswith("queue.") else [repr(row["sum"])])
            for name, row in metrics["histograms"].items()
        },
    }


def _current():
    recorded = {
        f"{label}/{scheduler}": _record(*case, scheduler)
        for label, case in _cases().items()
        for scheduler in SCHEDULERS
    }
    return json.dumps(recorded, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def recorded():
    text = _current()
    if REGEN:
        with open(GOLDEN, "w") as fh:
            fh.write(text)
        pytest.skip(f"regenerated {GOLDEN}")
    return text


def test_task_bodies_locked(recorded):
    with open(GOLDEN) as fh:
        golden = fh.read()
    if recorded != golden:
        now, then = json.loads(recorded), json.loads(golden)
        drifted = sorted(
            key for key in set(now) | set(then)
            if now.get(key) != then.get(key)
        )
        pytest.fail(
            f"task bodies drifted from {GOLDEN} in {drifted}; "
            "regenerate with REPRO_REGEN_TASK_GOLDEN=1 only if the "
            "behaviour change is intentional"
        )


class TestGoldenContent:
    """Anchors inside the golden, so a regenerated file cannot encode a
    run that never reached the body it is named for."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN) as fh:
            return json.load(fh)

    def test_schedulers_agree_on_everything_modeled(self, golden):
        for label in {key.rsplit("/", 1)[0] for key in golden}:
            sequential = golden[f"{label}/sequential"]
            threaded = golden[f"{label}/threaded"]
            for field in ("value", "sinks", "stdout", "total_s", "stages",
                          "offload_items", "faults", "adaptations"):
                assert sequential[field] == threaded[field], (label, field)

    def test_every_kind_ran(self, golden):
        kinds = {
            dict(attrs)["task_kind"]
            for row in golden.values()
            for attrs in row["stage_spans"]
        }
        assert kinds == {"source", "filter", "device", "adaptive", "sink"}
        devices = {
            key.split(":")[0]
            for row in golden.values()
            for key in row["offload_items"]
        }
        assert devices == {GPU, FPGA}

    def test_batches_chunk_the_stream(self, golden):
        for order in ("gpu-first", "fpga-first"):
            for batch, chunks in ((1, [1] * 80), (7, [7] * 11 + [3]),
                                  (64, [64, 16])):
                row = golden[f"device/{order}/batch{batch}/threaded"]
                assert list(row["offload_items"].values()) == [chunks]

    def test_adaptive_walks_probe_decide_steady(self, golden):
        row = golden["adaptive/sequential"]
        (adaptation,) = row["adaptations"]
        assert adaptation[3] == 32 + 128
        (device_chunks,) = row["offload_items"].values()
        assert device_chunks[:2] == [32, 128]

    def test_one_fault_fired_on_the_second_call(self, golden):
        for key, row in golden.items():
            if "one-fault" in key:
                assert [f["call_index"] for f in row["faults"]["log"]] == [2]
                assert row["faults"]["calls"]["0"] > 2

    def test_span_shapes_per_scheduler(self, golden):
        sequential = golden["device/gpu-first/batch7/sequential"]
        threaded = golden["device/gpu-first/batch7/threaded"]
        for attrs in sequential["stage_spans"]:
            keys = [key for key, _ in attrs]
            assert {"in_items", "out_items", "queue_wait_us"} <= set(keys)
            assert dict(attrs)["queue_wait_us"] == "0.0"
        for attrs in threaded["stage_spans"]:
            assert {"items", "busy_s", *WALL_CLOCK_ATTRS[1:]} <= {
                key for key, _ in attrs
            }
        # The bounded FIFOs are instrumented, the in-process edge is not.
        assert any(n.startswith("queue.") for n in threaded["histograms"])
        assert not any(
            n.startswith("queue.") for n in sequential["histograms"]
        )


# ----------------------------------------------------------------------
# The edge contract task bodies are written against
# ----------------------------------------------------------------------


@pytest.mark.parametrize("edge_type", [Connection, InlineEdge])
class TestEdgeContract:
    """A body cannot tell which edge type it was wired with."""

    @staticmethod
    def _closed(edge_type, n):
        edge = edge_type()
        for i in range(n):
            edge.put(i)
        edge.close()
        return edge

    def test_get_then_end_of_stream(self, edge_type):
        edge = self._closed(edge_type, 3)
        assert [edge.get() for _ in range(4)] == [0, 1, 2, END_OF_STREAM]
        assert edge.items_transferred == 3

    def test_get_batch_fires_whole_groups(self, edge_type):
        edge = self._closed(edge_type, 4)
        assert edge.get_batch(2) == [0, 1]
        assert edge.get_batch(2) == [2, 3]
        assert edge.get_batch(2) == [END_OF_STREAM]

    def test_stream_ending_mid_firing(self, edge_type):
        edge = self._closed(edge_type, 5)
        assert edge.get_batch(3) == [0, 1, 2]
        with pytest.raises(RuntimeGraphError) as err:
            edge.get_batch(3)
        assert str(err.value) == (
            "stream ended mid-firing: upstream produced 2 of 3 "
            "required items"
        )

    def test_get_up_to_returns_the_tail_short(self, edge_type):
        edge = self._closed(edge_type, 5)
        assert edge.get_up_to(2) == ([0, 1], False)
        assert edge.get_up_to(2) == ([2, 3], False)
        assert edge.get_up_to(2) == ([4], True)

    def test_get_up_to_on_an_exact_multiple(self, edge_type):
        edge = self._closed(edge_type, 4)
        assert edge.get_up_to(4) == ([0, 1, 2, 3], False)
        assert edge.get_up_to(4) == ([], True)
        with pytest.raises(RuntimeGraphError):
            edge.get_up_to(0)


def test_inline_edge_never_blocks():
    """Where a FIFO would wait forever for a producer that is not
    coming, the in-process edge raises."""
    edge = InlineEdge()
    edge.put(1)
    assert edge.get() == 1
    for read in (edge.get, lambda: edge.get_batch(2),
                 lambda: edge.get_up_to(2)):
        with pytest.raises(RuntimeGraphError, match="without closing"):
            read()
    edge.close()
    assert edge.get() is END_OF_STREAM


# ----------------------------------------------------------------------
# Failure paths
# ----------------------------------------------------------------------


def _stage_items(runtime):
    return {
        stage.task_id.split(":")[-1]: stage.items
        for stage in runtime.ledger.graph_runs[-1].stages.values()
    }


@functools.lru_cache(maxsize=None)
def _programs():
    return compile_program(PROGRAMS)


def _fail(entry, xs, out_len, scheduler, error):
    runtime = Runtime(
        _programs(),
        RuntimeConfig(scheduler=scheduler, policy=_CPU),
    )
    out = MutableArray.allocate(KIND_INT, out_len)
    with pytest.raises(error) as err:
        runtime.run(entry, [xs, out])
    notes = "".join(getattr(err.value, "__notes__", []))
    assert f"({scheduler} scheduler)" in notes
    return str(err.value), list(out), runtime


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestFailurePaths:
    def test_arity_that_does_not_divide_the_stream(self, scheduler):
        """The paper's firing rule: a filter fires while its port holds
        enough items; the leftover is an error at end of stream."""
        message, out, runtime = _fail(
            "Bodies.arity2", ValueArray(KIND_INT, [1, 2, 3, 4, 5]), 3,
            scheduler, RuntimeGraphError,
        )
        assert message == (
            "stream ended mid-firing: upstream produced 1 of 2 "
            "required items"
        )
        assert out == [3, 7, 0]
        items = _stage_items(runtime)
        assert items.pop("sink") == 2
        assert sorted(items.values()) == [2, 5]  # filter, source

    def test_sink_overflow(self, scheduler):
        message, out, runtime = _fail(
            "Bodies.rate1", ValueArray(KIND_INT, [1, 2, 3, 4, 5]), 3,
            scheduler, RuntimeGraphError,
        )
        assert message == (
            "sink overflow: array of length 3 cannot take item #4"
        )
        assert out == [3, 5, 7]
        assert _stage_items(runtime)["sink"] == 3

    def test_error_in_the_middle_of_a_stream(self, scheduler):
        message, out, runtime = _fail(
            "Bodies.inverted", ValueArray(KIND_INT, [4, 5, 0, 10]), 4,
            scheduler, DeviceError,
        )
        assert "zero" in message
        # What fired before the failure reached the sink.
        assert out == [25, 20, 0, 0]
        items = _stage_items(runtime)
        assert items.pop("sink") == 2
        assert sorted(items.values()) == [2, 4]  # filter, source


class _StubEngine:
    """The least an :class:`ExecutionContext` needs."""

    config = None

    def __init__(self, token=None, on_call=None):
        self.ledger = TimingLedger()
        self.cancel_token = token
        self.adaptation_log = []
        self.on_call = on_call
        self.calls = 0

    def metered_call(self, method, args):
        self.calls += 1
        if self.on_call is not None:
            self.on_call(self.calls)
        return args[0] + 1, 10


def _drive(scheduler, tasks, engine):
    scheduler = {
        "sequential": SequentialScheduler, "threaded": ThreadedScheduler,
    }[scheduler]()
    run = engine.ledger.new_graph_run("g")
    pipeline = Pipeline(tasks)
    scheduler.run_to_completion(pipeline, ExecutionContext(engine, run))
    return run


def _source_and_sink(n):
    sink = SinkTask(MutableArray.allocate(KIND_INT, n), "t:sink")
    return SourceTask(_ints(n), 1, "t:src"), sink


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestFailurePathsOnBareTasks:
    def test_device_error_in_the_middle_of_a_stream(self, scheduler):
        batches = []

        def executor(items):
            if len(batches) == 2:
                raise DeviceError("device died on batch 3")
            batches.append(items)
            return [x + 1 for x in items], 1e-6

        source, sink = _source_and_sink(20)
        device = DeviceTask("gpu:span", GPU, ["t:f"], executor, batch_size=4)
        engine = _StubEngine()
        with pytest.raises(DeviceError, match="device died on batch 3"):
            _drive(scheduler, [source, device, sink], engine)
        stages = engine.ledger.graph_runs[-1].stages
        assert stages["gpu:span"].items == 8
        assert stages["gpu:span"].busy_s == 2e-6
        assert stages["t:sink"].items == 8
        assert list(sink.array)[:9] == [x + 1 for x in _ints(8)] + [0]

    def test_cancel_mid_stream(self, scheduler):
        token = CancelToken(job_id="job-7")
        source, sink = _source_and_sink(20)
        caught_up = threading.Event()

        def on_call(call):
            if call == 6:
                # Let a concurrent sink store what was already sent, so
                # its contents are the same on every run.
                caught_up.wait(timeout=5.0)
                token.cancel()

        class _Sink(SinkTask):
            def _store(self, item):
                super()._store(item)
                if self._index == 5:
                    caught_up.set()

        sink = _Sink(sink.array, "t:sink")
        if scheduler == "sequential":
            caught_up.set()  # stage by stage: the sink has not started
        engine = _StubEngine(token, on_call)
        with pytest.raises(JobCancelledError) as err:
            _drive(
                scheduler,
                [source, FilterTask("C.inc", 1, "t:f"), sink], engine,
            )
        assert str(err.value) == "job job-7 cancelled"
        stages = engine.ledger.graph_runs[-1].stages
        # The firing that was under way completes; the next is not begun.
        assert engine.calls == 6
        assert stages["t:f"].items == 6
        # How far the *other* stages got when the token tripped is the
        # schedule, not the body (DESIGN.md §3c): thread-per-task had
        # the sink keeping up, stage-by-stage had not started it.
        stored = {"sequential": 0, "threaded": 5}[scheduler]
        assert stages["t:sink"].items == stored
        assert list(sink.array)[: stored + 1] == (
            [x + 1 for x in _ints(stored)] + [0]
        )

    def test_adaptive_task_polls_cancellation_per_batch(self, scheduler):
        """A cancelled job under ``SubstitutionPolicy(adaptive=True)``
        used to keep probing until upstream closed."""
        token = CancelToken(job_id="job-9")
        device_batches = []

        def executor(items):
            device_batches.append(len(items))
            token.cancel()
            return [x + 1 for x in items], 1e-6

        source, sink = _source_and_sink(400)
        adaptive = AdaptiveTask(
            DeviceTask("gpu:span", GPU, ["t:f"], executor, batch_size=64),
            ["C.inc"],
        )
        engine = _StubEngine(token)
        with pytest.raises(JobCancelledError, match="job job-9 cancelled"):
            _drive(scheduler, [source, adaptive, sink], engine)
        # Bytecode probe, first device probe (which trips the token),
        # and nothing after it.
        assert engine.calls == 32
        assert device_batches == [32]
        stages = engine.ledger.graph_runs[-1].stages
        assert stages["adaptive:gpu:span"].items == 64
        assert engine.adaptation_log == []


def test_threaded_failure_paths_at_every_interleaving():
    """A thread switch offered at nearly every bytecode: a failed
    threaded run still leaves what a failed sequential run leaves
    (DESIGN.md §3c) — the stages downstream of the failure run to the
    end of their stream instead of being drained."""
    paths, bare = TestFailurePaths(), TestFailurePathsOnBareTasks()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            paths.test_arity_that_does_not_divide_the_stream("threaded")
            paths.test_sink_overflow("threaded")
            paths.test_error_in_the_middle_of_a_stream("threaded")
            bare.test_device_error_in_the_middle_of_a_stream("threaded")
    finally:
        sys.setswitchinterval(interval)
