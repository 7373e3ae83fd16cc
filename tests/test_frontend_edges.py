"""Remaining frontend edge cases: grammar corners, shape-analysis
aliasing, numeric promotion details."""

import pytest

from repro.backends.bytecode.compiler import compile_module
from repro.backends.bytecode.interpreter import Interpreter
from repro.errors import LimeTypeError, TaskGraphError
from repro.ir.builder import build_ir
from repro.lime.parser import parse
from repro.lime.typecheck import analyze
from repro.lime import ast_nodes as ast


def run(source, method, args):
    module = build_ir(analyze(source))
    return Interpreter(compile_module(module)).call(method, args)


class TestGrammarCorners:
    def test_else_if_chain(self):
        source = """
        class T {
            static int grade(int score) {
                if (score >= 90) { return 4; }
                else if (score >= 80) { return 3; }
                else if (score >= 70) { return 2; }
                else { return 0; }
            }
        }
        """
        assert run(source, "T.grade", [95]) == 4
        assert run(source, "T.grade", [85]) == 3
        assert run(source, "T.grade", [75]) == 2
        assert run(source, "T.grade", [10]) == 0

    def test_statement_without_braces(self):
        source = (
            "class T { static int m(int x) "
            "{ if (x > 0) return 1; else return -1; } }"
        )
        assert run(source, "T.m", [5]) == 1
        assert run(source, "T.m", [-5]) == -1

    def test_empty_statement(self):
        source = "class T { static int m() { ;; return 1; } }"
        assert run(source, "T.m", []) == 1

    def test_nested_ternaries(self):
        source = (
            "class T { static int sign(int x) "
            "{ return x > 0 ? 1 : x < 0 ? -1 : 0; } }"
        )
        assert run(source, "T.sign", [7]) == 1
        assert run(source, "T.sign", [-7]) == -1
        assert run(source, "T.sign", [0]) == 0

    def test_comment_between_tokens(self):
        source = (
            "class T { static int m() { return /* answer */ 42; } }"
        )
        assert run(source, "T.m", []) == 42

    def test_for_with_empty_slots(self):
        source = """
        class T {
            static int m() {
                int i = 0;
                for (;;) {
                    i += 1;
                    if (i == 5) { break; }
                }
                return i;
            }
        }
        """
        assert run(source, "T.m", []) == 5

    def test_deeply_parenthesized(self):
        source = "class T { static int m() { return ((((1)))) + (((2))); } }"
        assert run(source, "T.m", []) == 3


class TestPromotionDetails:
    def test_compound_assign_narrows_back(self):
        # x += 2.5 on an int x truncates back to int (Java semantics).
        source = "class T { static int m(int x) { x += 2.5; return x; } }"
        assert run(source, "T.m", [1]) == 3

    def test_int_float_comparison(self):
        source = (
            "class T { static boolean m(int a, float b) "
            "{ return a < b; } }"
        )
        assert run(source, "T.m", [1, 1.5]) is True

    def test_long_int_mix(self):
        source = (
            "class T { static long m(long a, int b) { return a + b; } }"
        )
        assert run(source, "T.m", [2**40, 7]) == 2**40 + 7

    def test_float_double_mix_is_double(self):
        source = (
            "class T { static double m(float a) { return a + 0.5; } }"
        )
        assert run(source, "T.m", [0.25]) == 0.75


class TestShapeAliasing:
    def test_graph_alias_used_twice(self):
        # The same partial graph local connected into two pipelines:
        # stages keep one identity per syntactic node.
        source = """
        class T {
            local static int f(int x) { return x + 1; }
            static void m(int[[]] xs, int[] a) {
                var head = xs.source(1) => ([ task f ]);
                var g = head => a.<int>sink();
                g.finish();
            }
        }
        """
        module = build_ir(analyze(source))
        assert len(module.task_graphs) == 1
        assert module.task_graphs[0].describe() == (
            "source(1) => [f] => sink"
        )

    def test_graph_reassignment(self):
        source = """
        class T {
            local static int f(int x) { return x + 1; }
            local static int g(int x) { return x * 2; }
            static void m(int[[]] xs, int[] out) {
                var t = xs.source(1) => ([ task f ]);
                t = t => ([ task g ]);
                var done = t => out.<int>sink();
                done.finish();
            }
        }
        """
        module = build_ir(analyze(source))
        (graph,) = module.task_graphs
        assert graph.describe() == "source(1) => [f] => [g] => sink"

    def test_unstarted_graph_produces_no_static_graph(self):
        source = """
        class T {
            local static int f(int x) { return x + 1; }
            static void m(int[[]] xs) {
                var t = xs.source(1) => task f;
            }
        }
        """
        module = build_ir(analyze(source))
        assert module.task_graphs == []


class TestMoreRejections:
    def test_value_class_cannot_have_task_method(self):
        source = """
        value class V {
            int x;
            V(int x0) { this.x = x0; }
            void build(int[[]] xs) {
                var t = xs.source(1);
            }
        }
        """
        from repro.errors import IsolationError

        with pytest.raises(IsolationError):
            analyze(source)

    def test_finish_twice_is_harmless(self):
        # finish(); finish(); — the second join is a no-op.
        source = """
        class T {
            local static int f(int x) { return x; }
            static void m(int[[]] xs, int[] out) {
                var t = xs.source(1) => task f => out.<int>sink();
                t.finish();
                t.finish();
            }
        }
        """
        from repro.apps import compile_app  # noqa: F401  (env warmup)
        from repro.compiler import compile_program
        from repro.runtime import Runtime
        from repro.values import KIND_INT, MutableArray, ValueArray

        runtime = Runtime(compile_program(source))
        xs = ValueArray(KIND_INT, [1, 2])
        out = MutableArray.allocate(KIND_INT, 2)
        runtime.call("T.m", [xs, out])
        assert list(out) == [1, 2]
