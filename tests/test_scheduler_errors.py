"""Error propagation and robustness in the graph schedulers, plus a
Sobel reference check."""

import pytest

from repro.apps import SUITE, compile_app
from repro.compiler import compile_program
from repro.errors import DeviceError, LiquidMetalError
from repro.runtime import Runtime, RuntimeConfig
from repro.values import KIND_INT, ValueArray


class TestErrorPropagation:
    FAULTY = """
    class F {
        local static int invert(int x) { return 100 / x; }
        static int[[]] run(int[[]] xs) {
            int[] out = new int[xs.length];
            var t = xs.source(1) => task invert => out.<int>sink();
            t.finish();
            return new int[[]](out);
        }
    }
    """

    def test_filter_exception_surfaces_threaded(self):
        runtime = Runtime(
            compile_program(self.FAULTY), RuntimeConfig(scheduler="threaded")
        )
        xs = ValueArray(KIND_INT, [1, 0, 5])  # division by zero mid-stream
        with pytest.raises(LiquidMetalError):
            runtime.call("F.run", [xs])

    def test_filter_exception_surfaces_sequential(self):
        runtime = Runtime(
            compile_program(self.FAULTY),
            RuntimeConfig(scheduler="sequential"),
        )
        xs = ValueArray(KIND_INT, [1, 0, 5])
        with pytest.raises(DeviceError):
            runtime.call("F.run", [xs])

    def test_runtime_survives_after_error(self):
        runtime = Runtime(compile_program(self.FAULTY))
        bad = ValueArray(KIND_INT, [0])
        good = ValueArray(KIND_INT, [4, 5])
        with pytest.raises(LiquidMetalError):
            runtime.call("F.run", [bad])
        assert list(runtime.call("F.run", [good])) == [25, 20]

    def test_sink_too_small_detected(self):
        source = """
        class S {
            local static int idf(int x) { return x; }
            static void run(int[[]] xs, int[] out) {
                var t = xs.source(1) => task idf => out.<int>sink();
                t.finish();
            }
        }
        """
        from repro.values import MutableArray

        runtime = Runtime(compile_program(source))
        xs = ValueArray(KIND_INT, [1, 2, 3])
        out = MutableArray.allocate(KIND_INT, 2)  # too small
        with pytest.raises(LiquidMetalError):
            runtime.call("S.run", [xs, out])


class TestFailureContext:
    """Satellites: stage failures carry task/device context and a
    failed pipeline never masquerades as 'never started'."""

    FAULTY = TestErrorPropagation.FAULTY

    def test_threaded_error_names_failing_stage(self):
        runtime = Runtime(
            compile_program(self.FAULTY), RuntimeConfig(scheduler="threaded")
        )
        xs = ValueArray(KIND_INT, [1, 0, 5])
        with pytest.raises(LiquidMetalError) as err:
            runtime.call("F.run", [xs])
        notes = "".join(getattr(err.value, "__notes__", []))
        assert "in stage" in notes
        assert "threaded scheduler" in notes

    def test_sequential_error_names_failing_stage(self):
        runtime = Runtime(
            compile_program(self.FAULTY),
            RuntimeConfig(scheduler="sequential"),
        )
        xs = ValueArray(KIND_INT, [1, 0, 5])
        with pytest.raises(DeviceError) as err:
            runtime.call("F.run", [xs])
        notes = "".join(getattr(err.value, "__notes__", []))
        assert "in stage" in notes
        assert "sequential scheduler" in notes

    def test_sequential_failed_pipeline_join_surfaces_original(self):
        """A mid-stage exception must not turn a later join() into a
        misleading 'graph was never started'."""
        from repro.runtime import Pipeline, SequentialScheduler
        from repro.runtime.tasks import ExecutionContext, SinkTask, SourceTask
        from repro.runtime.timing import TimingLedger
        from repro.values import MutableArray

        class _BrokenSink(SinkTask):
            def run(self, ctx):
                raise DeviceError("sink exploded")

        class _Engine:
            config = None

            def __init__(self):
                self.ledger = TimingLedger()

            def metered_call(self, method, args):
                return args[0], 1

        pipeline = Pipeline(
            [
                SourceTask(ValueArray(KIND_INT, [1]), 1, "t:src"),
                _BrokenSink(MutableArray.allocate(KIND_INT, 1), "t:sink"),
            ]
        )
        scheduler = SequentialScheduler()
        engine = _Engine()
        ctx = ExecutionContext(engine, engine.ledger.new_graph_run("g"))
        with pytest.raises(DeviceError):
            scheduler.run_to_completion(pipeline, ctx)
        assert pipeline.failed
        # join() now surfaces the original failure, not "never started".
        with pytest.raises(DeviceError, match="sink exploded"):
            scheduler.join(pipeline)

    def test_threaded_join_unstarted_names_graph(self):
        from repro.runtime import Pipeline, ThreadedScheduler
        from repro.runtime.tasks import SinkTask, SourceTask
        from repro.values import MutableArray

        pipeline = Pipeline(
            [
                SourceTask(ValueArray(KIND_INT, [1]), 1, "t:src"),
                SinkTask(MutableArray.allocate(KIND_INT, 1), "t:sink"),
            ]
        )
        with pytest.raises(LiquidMetalError) as err:
            ThreadedScheduler().join(pipeline)
        assert "never started" in str(err.value)
        assert "source(1) => sink" in str(err.value)


class TestSobel:
    def test_reference_implementation(self):
        from repro.apps.workloads import sobel_args

        entry, args = sobel_args(12, 8)
        compiled = compile_app("sobel")
        outcome = Runtime(compiled).run(entry, args)
        _, image, width, height = args

        def ref(idx):
            x, y = idx % width, idx // width
            if x in (0, width - 1) or y in (0, height - 1):
                return 0
            p = lambda dx, dy: image[(y + dy) * width + x + dx]  # noqa: E731
            gx = (p(1, -1) + 2 * p(1, 0) + p(1, 1)) - (
                p(-1, -1) + 2 * p(-1, 0) + p(-1, 1)
            )
            gy = (p(-1, 1) + 2 * p(0, 1) + p(1, 1)) - (
                p(-1, -1) + 2 * p(0, -1) + p(1, -1)
            )
            return min(abs(gx) + abs(gy), 255)

        for idx, got in enumerate(outcome.value):
            assert got == ref(idx), idx

    def test_borders_are_zero(self):
        from repro.apps.workloads import sobel_args

        entry, args = sobel_args(10, 6)
        outcome = Runtime(compile_app("sobel")).run(entry, args)
        width, height = 10, 6
        values = list(outcome.value)
        for x in range(width):
            assert values[x] == 0
            assert values[(height - 1) * width + x] == 0

    def test_offloads_to_gpu(self):
        from repro.apps.workloads import sobel_args

        entry, args = sobel_args(16, 8)
        outcome = Runtime(compile_app("sobel")).run(entry, args)
        assert any(o.device == "gpu" for o in outcome.ledger.offloads)
