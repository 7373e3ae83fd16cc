"""Tests for stateful tasks (Section 2.1: isolating constructors).

"Stateful instance methods are also candidates for co-execution if they
are local and the object instance is constructed using an isolating
constructor: a local constructor with value arguments. Unlike pure
methods which provide data-parallelism, stateful methods require the
exploitation of pipeline-parallelism."
"""

import itertools

import pytest

from repro.apps import SUITE, compile_app
from repro.compiler import compile_program
from repro.errors import IsolationError, LimeTypeError
from repro.lime.typecheck import analyze
from repro.runtime import Runtime, RuntimeConfig
from repro.values import KIND_INT, ValueArray


class TestChecking:
    def test_running_sum_checks(self):
        analyze(SUITE["running_sum"].source)

    def test_isolating_constructor_required(self):
        source = """
        public class Acc {
            int sum;
            Acc(int s) { this.sum = s; }   // NOT local: not isolating
            local int add(int x) { sum += x; return sum; }
        }
        class T {
            static void m(int[[]] xs, int[] out) {
                var a = new Acc(0);
                var t = xs.source(1) => task a.add => out.sink();
                t.finish();
            }
        }
        """
        with pytest.raises(IsolationError):
            analyze(source)

    def test_constructor_with_mutable_arg_not_isolating(self):
        source = """
        public class Acc {
            int sum;
            local Acc(int[] seed) { this.sum = seed[0]; }
            local int add(int x) { sum += x; return sum; }
        }
        class T {
            static void m(int[[]] xs, int[] out, int[] seed) {
                var a = new Acc(seed);
                var t = xs.source(1) => task a.add => out.sink();
                t.finish();
            }
        }
        """
        with pytest.raises(IsolationError):
            analyze(source)

    def test_instance_method_must_be_local(self):
        source = """
        public class Acc {
            int sum;
            local Acc(int s) { this.sum = s; }
            int add(int x) { sum += x; return sum; }   // global
        }
        class T {
            static void m(int[[]] xs, int[] out) {
                var a = new Acc(0);
                var t = xs.source(1) => task a.add => out.sink();
                t.finish();
            }
        }
        """
        with pytest.raises(IsolationError):
            analyze(source)

    def test_static_task_on_instance_method_hint(self):
        source = """
        public class Acc {
            int sum;
            local Acc(int s) { this.sum = s; }
            local int add(int x) { sum += x; return sum; }
        }
        class T {
            static void m(int[[]] xs, int[] out) {
                var t = xs.source(1) => task Acc.add => out.sink();
                t.finish();
            }
        }
        """
        with pytest.raises(LimeTypeError):
            analyze(source)


class TestExecution:
    def run_sums(self, xs, scheduler="threaded"):
        compiled = compile_app("running_sum")
        runtime = Runtime(compiled, RuntimeConfig(scheduler=scheduler))
        arr = ValueArray(KIND_INT, xs)
        return list(runtime.call("RunningSum.compute", [arr]))

    def test_prefix_sums(self):
        xs = [3, -1, 4, 1, 5]
        assert self.run_sums(xs) == list(itertools.accumulate(xs))

    def test_order_preserved_under_threading(self):
        xs = list(range(100))
        assert self.run_sums(xs, "threaded") == list(
            itertools.accumulate(xs)
        )

    def test_sequential_scheduler_agrees(self):
        xs = [7, 7, 7, 7]
        assert self.run_sums(xs, "sequential") == [7, 14, 21, 28]

    def test_state_fresh_per_graph_execution(self):
        # Each call to compute() constructs a new Accumulator, so the
        # running sum restarts.
        assert self.run_sums([5]) == [5]
        assert self.run_sums([5]) == [5]


class TestBackendExclusion:
    def test_stateful_stage_excluded_everywhere(self):
        compiled = compile_app("running_sum")
        # No GPU or FPGA artifact may exist for the stateful stage.
        graph = compiled.task_graphs[0]
        add_stage = graph.stages[1]
        assert add_stage.stateful
        assert compiled.store.for_task(add_stage.task_id) == [
            compiled.bytecode_artifact
        ]
        reasons = {
            e.device: e.reason
            for e in compiled.store.exclusions
            if e.task_id == add_stage.task_id
        }
        assert "stateful" in reasons["gpu"]
        assert "stateful" in reasons["fpga"]

    def test_no_substitution_happens(self):
        compiled = compile_app("running_sum")
        runtime = Runtime(compiled)
        arr = ValueArray(KIND_INT, [1, 2, 3])
        runtime.call("RunningSum.compute", [arr])
        _, decisions = runtime.substitution_log[0]
        assert decisions == []
