"""Semantic analysis tests: typing, strong isolation, purity, task graphs."""

import pytest

from tests.lime_sources import FIGURE1, SAXPY, USER_ENUM
from repro.errors import IsolationError, LimeTypeError, TaskGraphError
from repro.lime.typecheck import analyze
from repro.lime import types as ty


def wrap(body, params="", modifiers="static", extra=""):
    return (
        f"class T {{ {extra} {modifiers} void m({params}) {{ {body} }} }}"
    )


class TestFigure1:
    def test_checks_clean(self):
        checked = analyze(FIGURE1)
        assert "Bitflip" in checked.classes

    def test_flip_is_pure(self):
        checked = analyze(FIGURE1)
        flip = checked.method("Bitflip.flip")
        assert flip.is_local
        assert flip.is_pure

    def test_taskflip_is_global_and_not_pure(self):
        checked = analyze(FIGURE1)
        task_flip = checked.method("Bitflip.taskFlip")
        assert not task_flip.is_local
        assert not task_flip.is_pure

    def test_taskflip_builds_tasks(self):
        checked = analyze(FIGURE1)
        facts = checked.facts("Bitflip.taskFlip")
        assert facts.builds_tasks

    def test_mapflip_types(self):
        checked = analyze(FIGURE1)
        map_flip = checked.method("Bitflip.mapFlip")
        assert map_flip.return_type == ty.ArrayType(ty.BIT, is_value=True)


class TestValueEnum:
    def test_user_enum_checks(self):
        checked = analyze(USER_ENUM)
        info = checked.classes["color"]
        assert info.is_enum and info.is_value
        assert info.enum_descriptor.constants == ["red", "green", "blue"]

    def test_enum_methods_implicitly_local(self):
        checked = analyze(USER_ENUM)
        op = checked.classes["color"].find_method("~")
        assert op.is_local

    def test_non_value_enum_rejected(self):
        with pytest.raises(LimeTypeError):
            analyze("public enum e { a, b; }")

    def test_enum_fields_rejected(self):
        with pytest.raises(LimeTypeError):
            analyze("public value enum e { a, b; int f; }")


class TestIsolation:
    def test_local_cannot_call_global(self):
        source = """
        class T {
            static int g(int x) { return x; }
            local static int f(int x) { return g(x); }
        }
        """
        with pytest.raises(IsolationError):
            analyze(source)

    def test_global_can_call_local(self):
        source = """
        class T {
            local static int f(int x) { return x; }
            static int g(int x) { return f(x); }
        }
        """
        analyze(source)

    def test_local_cannot_do_io(self):
        with pytest.raises(IsolationError):
            analyze(wrap("println(1);", modifiers="local static"))

    def test_global_io_allowed(self):
        analyze(wrap('println("hello");'))

    def test_local_cannot_read_static_mutable(self):
        source = """
        class T {
            static int counter;
            local static int f() { return counter; }
        }
        """
        with pytest.raises(IsolationError):
            analyze(source)

    def test_local_can_read_static_final(self):
        source = """
        class T {
            static final int limit = 10;
            local static int f() { return limit; }
        }
        """
        analyze(source)

    def test_local_cannot_build_tasks(self):
        source = """
        class T {
            local static bit f(bit b) { return b; }
            local static void g(bit[[]] xs) {
                var t = xs.source(1);
            }
        }
        """
        with pytest.raises(IsolationError):
            analyze(source)

    def test_local_cannot_use_strings(self):
        with pytest.raises(IsolationError):
            analyze(
                "class T { local static void m() { String s = \"x\"; } }"
            )

    def test_value_class_fields_must_be_values(self):
        source = "value class V { int[] data; }"
        with pytest.raises(IsolationError):
            analyze(source)

    def test_value_class_fields_are_final(self):
        source = """
        value class V {
            int x;
            V(int x0) { this.x = x0; }
        }
        class T {
            static void m(V v) { v.x = 3; }
        }
        """
        with pytest.raises(IsolationError):
            analyze(source)

    def test_value_class_constructor_may_assign_fields(self):
        source = """
        value class V {
            int x;
            V(int x0) { this.x = x0; }
        }
        """
        analyze(source)

    def test_value_array_elements_read_only(self):
        with pytest.raises(IsolationError):
            analyze(wrap("xs[0] = 1;", params="int[[]] xs"))

    def test_mutable_array_elements_writable(self):
        analyze(wrap("xs[0] = 1;", params="int[] xs"))

    def test_value_array_of_mutable_rejected(self):
        # int[[]][] is a value array whose elements are mutable arrays
        # (suffixes read outermost first, as in Java).
        with pytest.raises(IsolationError):
            analyze("class T { static void m(int[[]][] xs) { } }")


class TestPurity:
    def test_pure_transitively(self):
        source = """
        class T {
            local static int a(int x) { return x + 1; }
            local static int b(int x) { return a(x) * 2; }
        }
        """
        checked = analyze(source)
        assert checked.method("T.a").is_pure
        assert checked.method("T.b").is_pure

    def test_math_intrinsics_preserve_purity(self):
        source = (
            "class T { local static double f(double x) "
            "{ return Math.sqrt(x) + Math.exp(x); } }"
        )
        checked = analyze(source)
        assert checked.method("T.f").is_pure

    def test_enum_operator_is_pure(self):
        checked = analyze(USER_ENUM)
        assert checked.classes["color"].find_method("~").is_pure

    def test_mutable_array_param_breaks_purity(self):
        source = "class T { local static int f(int[] xs) { return xs[0]; } }"
        checked = analyze(source)
        assert not checked.method("T.f").is_pure

    def test_global_methods_never_pure(self):
        source = "class T { static int f(int x) { return x; } }"
        checked = analyze(source)
        assert not checked.method("T.f").is_pure


class TestTaskGraphTyping:
    def test_connect_type_mismatch(self):
        source = """
        class T {
            local static bit f(bit b) { return b; }
            local static int g(int x) { return x; }
            static void m(bit[[]] xs, int[] out) {
                var t = xs.source(1) => ([ task f ]) => ([ task g ]) => out.sink();
            }
        }
        """
        with pytest.raises(TaskGraphError):
            analyze(source)

    def test_valid_pipeline(self):
        source = """
        class T {
            local static bit f(bit b) { return b; }
            static void m(bit[[]] xs, bit[] out) {
                var t = xs.source(1) => ([ task f ]) => out.sink();
                t.finish();
            }
        }
        """
        analyze(source)

    def test_task_over_global_method_rejected(self):
        source = """
        class T {
            static bit f(bit b) { return b; }
            static void m(bit[[]] xs, bit[] out) {
                var t = xs.source(1) => ([ task f ]) => out.sink();
            }
        }
        """
        with pytest.raises(IsolationError):
            analyze(source)

    def test_source_requires_value_array(self):
        source = """
        class T {
            static void m(bit[] xs) { var t = xs.source(1); }
        }
        """
        with pytest.raises(IsolationError):
            analyze(source)

    def test_sink_requires_mutable_array(self):
        source = """
        class T {
            static void m(bit[[]] xs) { var t = xs.sink(); }
        }
        """
        with pytest.raises(LimeTypeError):
            analyze(source)

    def test_cannot_finish_open_graph(self):
        source = """
        class T {
            local static bit f(bit b) { return b; }
            static void m(bit[[]] xs) {
                var t = xs.source(1) => ([ task f ]);
                t.finish();
            }
        }
        """
        with pytest.raises(TaskGraphError):
            analyze(source)

    def test_reloc_requires_task_expression(self):
        with pytest.raises(TaskGraphError):
            analyze(wrap("var x = ([ 1 + 2 ]);"))

    def test_sink_generic_argument_must_match(self):
        source = """
        class T {
            local static bit f(bit b) { return b; }
            static void m(bit[[]] xs, int[] out) {
                var t = xs.source(1) => ([ task f ]) => out.<bit>sink();
            }
        }
        """
        with pytest.raises(LimeTypeError):
            analyze(source)

    def test_task_method_void_rejected(self):
        source = """
        class T {
            local static void f(bit b) { }
            static void m(bit[[]] xs) {
                var t = xs.source(1) => ([ task f ]);
            }
        }
        """
        with pytest.raises(TaskGraphError):
            analyze(source)


class TestMapReduce:
    def test_saxpy_checks(self):
        checked = analyze(SAXPY)
        assert checked.method("Saxpy.axpy").is_pure

    def test_map_requires_local_static(self):
        source = """
        class T {
            static int f(int x) { return x; }
            static void m(int[[]] xs) { var r = T @ f(xs); }
        }
        """
        with pytest.raises(IsolationError):
            analyze(source)

    def test_map_over_two_arrays(self):
        source = """
        class T {
            local static int add(int a, int b) { return a + b; }
            static int[[]] m(int[[]] xs, int[[]] ys) { return T @ add(xs, ys); }
        }
        """
        analyze(source)

    def test_reduce_requires_binary_method(self):
        source = """
        class T {
            local static int f(int x) { return x; }
            static void m(int[[]] xs) { var r = T ! f(xs); }
        }
        """
        with pytest.raises(LimeTypeError):
            analyze(source)

    def test_map_arg_must_be_value_array(self):
        source = """
        class T {
            local static int f(int x) { return x; }
            static void m(int[] xs) { var r = T @ f(xs); }
        }
        """
        with pytest.raises(LimeTypeError):
            analyze(source)


class TestGeneralTyping:
    def test_numeric_promotion(self):
        checked = analyze(wrap("var x = 1 + 2.5;"))
        assert checked is not None

    def test_bad_arithmetic(self):
        with pytest.raises(LimeTypeError):
            analyze(wrap("var x = true + 1;"))

    def test_condition_must_be_boolean(self):
        with pytest.raises(LimeTypeError):
            analyze(wrap("if (1) { }"))

    def test_missing_return_detected(self):
        with pytest.raises(LimeTypeError):
            analyze("class T { static int f(boolean b) { if (b) return 1; } }")

    def test_both_branches_return_ok(self):
        analyze(
            "class T { static int f(boolean b) "
            "{ if (b) return 1; else return 2; } }"
        )

    def test_unreachable_statement(self):
        with pytest.raises(LimeTypeError):
            analyze("class T { static int f() { return 1; return 2; } }")

    def test_no_shadowing(self):
        with pytest.raises(LimeTypeError):
            analyze(wrap("int x = 1; { int x = 2; }"))

    def test_unknown_variable(self):
        with pytest.raises(LimeTypeError):
            analyze(wrap("var x = nope;"))

    def test_var_requires_initializer(self):
        with pytest.raises(LimeTypeError):
            analyze(wrap("var x;"))

    def test_bit_constant_access(self):
        analyze(wrap("bit b = bit.zero; b = ~b;"))

    def test_bit_invert_type(self):
        analyze(wrap("bit b = ~bit.one;"))

    def test_narrowing_requires_cast(self):
        with pytest.raises(LimeTypeError):
            analyze(wrap("int x = 2.5;"))
        analyze(wrap("int x = (int) 2.5;"))

    def test_widening_implicit(self):
        analyze(wrap("double d = 1;"))

    def test_array_length(self):
        analyze(wrap("int n = xs.length;", params="int[[]] xs"))

    def test_break_outside_loop(self):
        with pytest.raises(LimeTypeError):
            analyze(wrap("break;"))

    def test_value_class_requires_ctor_when_fields(self):
        source = """
        value class V { int x; }
        class T { static void m() { var v = new V(); } }
        """
        with pytest.raises(LimeTypeError):
            analyze(source)

    def test_string_concat_in_global(self):
        analyze(wrap('String s = "n=" + 3; println(s);'))

    def test_duplicate_class_rejected(self):
        with pytest.raises(LimeTypeError):
            analyze("class A { } class A { }")

    def test_duplicate_method_rejected(self):
        with pytest.raises(LimeTypeError):
            analyze("class A { static void m() { } static void m() { } }")
