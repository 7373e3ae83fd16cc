"""Tests for the bytecode compiler and interpreter (the CPU artifact)."""

import pytest

from tests.lime_sources import FIGURE1, SAXPY
from repro.backends.bytecode.compiler import compile_module
from repro.backends.bytecode.interpreter import Interpreter
from repro.errors import DeviceError
from repro.ir.builder import build_ir
from repro.lime.typecheck import analyze
from repro.values import KIND_BIT, KIND_FLOAT, KIND_INT, Bit, ValueArray
from repro.values import parse_bit_literal


def interp_for(source):
    module = build_ir(analyze(source))
    return Interpreter(compile_module(module))


def run(source, method, args):
    return interp_for(source).call(method, args)


class TestArithmetic:
    def test_basic_math(self):
        source = "class T { static int m(int a, int b) { return a * b + 1; } }"
        assert run(source, "T.m", [6, 7]) == 43

    def test_int_division_truncates_toward_zero(self):
        source = "class T { static int m(int a, int b) { return a / b; } }"
        assert run(source, "T.m", [-7, 2]) == -3
        assert run(source, "T.m", [7, -2]) == -3

    def test_int_overflow_wraps(self):
        source = "class T { static int m(int a) { return a + 1; } }"
        assert run(source, "T.m", [2**31 - 1]) == -(2**31)

    def test_division_by_zero_raises(self):
        source = "class T { static int m(int a) { return a / 0; } }"
        # Constant folding refuses to fold 1/0; execution raises.
        with pytest.raises(DeviceError):
            run(source, "T.m", [1])

    def test_float_truncation_on_cast(self):
        source = "class T { static int m(double d) { return (int) d; } }"
        assert run(source, "T.m", [2.9]) == 2
        assert run(source, "T.m", [-2.9]) == -2

    def test_float32_rounding(self):
        source = "class T { static float m(float a, float b) { return a + b; } }"
        result = run(source, "T.m", [0.1, 0.2])
        import struct

        expected = struct.unpack("<f", struct.pack("<f", 0.1 + 0.2))[0]
        assert result == pytest.approx(expected, abs=1e-9)

    def test_math_intrinsics(self):
        source = "class T { static double m(double x) { return Math.sqrt(x); } }"
        assert run(source, "T.m", [16.0]) == 4.0

    def test_shift_ops(self):
        source = "class T { static int m(int x) { return (x << 3) >> 1; } }"
        assert run(source, "T.m", [5]) == 20


class TestControlFlow:
    def test_loop_sum(self):
        source = (
            "class T { static int m(int n) { int s = 0; "
            "for (int i = 0; i < n; i++) { s += i; } return s; } }"
        )
        assert run(source, "T.m", [10]) == 45

    def test_while_loop(self):
        source = (
            "class T { static int m(int n) { int s = 0; int i = 0; "
            "while (i < n) { s += 2; i++; } return s; } }"
        )
        assert run(source, "T.m", [5]) == 10

    def test_break(self):
        source = (
            "class T { static int m() { int s = 0; "
            "for (int i = 0; i < 100; i++) { if (i == 5) { break; } s += 1; } "
            "return s; } }"
        )
        assert run(source, "T.m", []) == 5

    def test_continue_in_canonical_for(self):
        source = (
            "class T { static int m() { int s = 0; "
            "for (int i = 0; i < 10; i++) { if (i % 2 == 0) { continue; } s += i; } "
            "return s; } }"
        )
        assert run(source, "T.m", []) == 25  # 1+3+5+7+9

    def test_short_circuit_and(self):
        source = """
        class T {
            static int calls;
            static boolean bump() { calls += 1; return true; }
            static int m(boolean gate) {
                if (gate && bump()) { }
                return calls;
            }
        }
        """
        assert run(source, "T.m", [False]) == 0
        assert run(source, "T.m", [True]) == 1

    def test_short_circuit_or(self):
        source = """
        class T {
            static int calls;
            static boolean bump() { calls += 1; return false; }
            static int m(boolean gate) {
                if (gate || bump()) { }
                return calls;
            }
        }
        """
        assert run(source, "T.m", [True]) == 0
        assert run(source, "T.m", [False]) == 1

    def test_recursion(self):
        source = (
            "class T { static int fib(int n) "
            "{ return n < 2 ? n : fib(n-1) + fib(n-2); } }"
        )
        assert run(source, "T.fib", [12]) == 144

    def test_stack_overflow_detected(self):
        source = "class T { static int f(int n) { return f(n + 1); } }"
        with pytest.raises(DeviceError):
            run(source, "T.f", [0])


class TestArraysAndBits:
    def test_array_roundtrip(self):
        source = (
            "class T { static int m(int n) { int[] a = new int[n]; "
            "for (int i = 0; i < n; i++) { a[i] = i * i; } "
            "int s = 0; for (int i = 0; i < n; i++) { s += a[i]; } return s; } }"
        )
        assert run(source, "T.m", [5]) == 30

    def test_bounds_check(self):
        source = "class T { static int m(int[] a, int i) { return a[i]; } }"
        from repro.values import MutableArray

        interp = interp_for(source)
        arr = MutableArray(KIND_INT, [1, 2, 3])
        with pytest.raises(DeviceError):
            interp.call("T.m", [arr, 3])
        with pytest.raises(DeviceError):
            interp.call("T.m", [arr, -1])

    def test_bit_flip(self):
        assert run(FIGURE1, "Bitflip.flip", [Bit.ZERO]) is Bit.ONE
        assert run(FIGURE1, "Bitflip.flip", [Bit.ONE]) is Bit.ZERO

    def test_mapflip_paper_example(self):
        # mapFlip(100b) == 011b elementwise flip (Section 2.2 flips every
        # bit of 100b).
        arr = ValueArray(KIND_BIT, parse_bit_literal("100"))
        result = run(FIGURE1, "Bitflip.mapFlip", [arr])
        assert result == ValueArray(KIND_BIT, parse_bit_literal("011"))

    def test_bit_literal_in_code(self):
        source = "class T { static bit[[]] m() { return 100b; } }"
        result = run(source, "T.m", [])
        assert repr(result) == "100b"

    def test_freeze_conversion(self):
        source = (
            "class T { static bit[[]] m() { bit[] a = new bit[2]; "
            "a[1] = bit.one; return new bit[[]](a); } }"
        )
        result = run(source, "T.m", [])
        assert repr(result) == "10b"


class TestMapReduce:
    def test_saxpy_map(self):
        xs = ValueArray(KIND_FLOAT, [1.0, 2.0, 3.0])
        ys = ValueArray(KIND_FLOAT, [10.0, 20.0, 30.0])
        result = run(SAXPY, "Saxpy.run", [xs, ys])
        assert list(result) == pytest.approx([12.5, 25.0, 37.5])

    def test_reduce_total(self):
        xs = ValueArray(KIND_FLOAT, [1.0, 2.0, 3.0, 4.0])
        assert run(SAXPY, "Saxpy.total", [xs]) == pytest.approx(10.0)

    def test_map_length_mismatch(self):
        xs = ValueArray(KIND_FLOAT, [1.0])
        ys = ValueArray(KIND_FLOAT, [1.0, 2.0])
        with pytest.raises(DeviceError):
            run(SAXPY, "Saxpy.run", [xs, ys])


class TestObjects:
    SOURCE = """
    value class Vec {
        float x; float y;
        Vec(float x0, float y0) { this.x = x0; this.y = y0; }
        float dot(Vec other) { return x * other.x + y * other.y; }
    }
    class T {
        static float m(float a, float b) {
            Vec v = new Vec(a, b);
            Vec w = new Vec(b, a);
            return v.dot(w);
        }
    }
    """

    def test_value_class_roundtrip(self):
        assert run(self.SOURCE, "T.m", [2.0, 3.0]) == pytest.approx(12.0)

    def test_value_instances_frozen(self):
        source = self.SOURCE
        interp = interp_for(source)
        # Build a Vec directly through the constructor path.
        result = interp.call("T.m", [1.0, 1.0])
        assert result == pytest.approx(2.0)


class TestStaticsAndIO:
    def test_static_initializer_runs(self):
        source = """
        class T {
            static int base = 40;
            static int m() { return base + 2; }
        }
        """
        assert run(source, "T.m", []) == 42

    def test_static_default_zero(self):
        source = "class T { static int counter; static int m() { return counter; } }"
        assert run(source, "T.m", []) == 0

    def test_println_capture(self):
        source = 'class T { static void m() { println("hi " + 3); } }'
        interp = interp_for(source)
        interp.call("T.m", [])
        assert interp.output == "hi 3\n"

    def test_boolean_prints_java_style(self):
        source = "class T { static void m() { println(true); } }"
        interp = interp_for(source)
        interp.call("T.m", [])
        assert interp.output == "true\n"


class TestCycleAccounting:
    def test_cycles_accumulate(self):
        source = (
            "class T { static int m(int n) { int s = 0; "
            "for (int i = 0; i < n; i++) { s += i; } return s; } }"
        )
        interp = interp_for(source)
        interp.call("T.m", [10])
        small = interp.cycles
        interp2 = interp_for(source)
        interp2.call("T.m", [1000])
        assert interp2.cycles > small * 20

    def test_cycles_scale_linearly(self):
        source = (
            "class T { static int m(int n) { int s = 0; "
            "for (int i = 0; i < n; i++) { s += i; } return s; } }"
        )
        a = interp_for(source)
        a.call("T.m", [1000])
        b = interp_for(source)
        b.call("T.m", [2000])
        ratio = b.cycles / a.cycles
        assert 1.8 < ratio < 2.2
