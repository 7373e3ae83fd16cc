"""Tests for the generated self-checking Verilog testbench."""

import pytest

from repro.apps import compile_app
from repro.backends.verilog import compile_fpga, generate_testbench
from repro.ir.builder import build_ir
from repro.lime.typecheck import analyze


def bundle_for(app):
    compiled = compile_app(app)
    return compiled.store.for_device("fpga")[0].payload


class TestTestbench:
    def test_structure(self):
        bundle = bundle_for("bitflip")
        tb = generate_testbench(bundle, [1, 0, 1])
        assert "`timescale 1ns/1ps" in tb
        assert f"module tb_{bundle.name};" in tb
        assert f"{bundle.name} dut (" in tb
        assert "$dumpfile" in tb
        assert "$finish" in tb

    def test_stimulus_and_expected_arrays(self):
        bundle = bundle_for("bitflip")
        tb = generate_testbench(bundle, [1, 0])
        assert "stimulus[0] = 1'd1;" in tb
        assert "stimulus[1] = 1'd0;" in tb
        # Expected values are the flipped bits.
        assert "expected[0] = 1'd0;" in tb
        assert "expected[1] = 1'd1;" in tb

    def test_self_check_logic(self):
        tb = generate_testbench(bundle_for("bitflip"), [1])
        assert "if (outData !== expected[received])" in tb
        assert 'display("PASS' in tb.replace("$", "")

    def test_int_module_expected_values(self):
        bundle = bundle_for("crc8")
        inputs = [0x55, 0xAA]

        def crc8_ref(b):
            crc = b & 255
            for _ in range(8):
                fb = crc & 1
                crc >>= 1
                if fb:
                    crc ^= 0x8C
            return crc

        tb = generate_testbench(bundle, inputs)
        for i, x in enumerate(inputs):
            assert f"expected[{i}] = 32'd{crc8_ref(x)};" in tb

    def test_shift_by_the_input_expects_the_java_result(self):
        source = """
        class T {
            local static int pow2(int x) { return 1 << x; }
            static void m(int[[]] xs, int[] out) {
                var t = xs.source(1) => ([ task pow2 ]) => out.sink();
                t.finish();
            }
        }
        """
        (artifact,) = compile_fpga(build_ir(analyze(source))).artifacts
        assert "(32'sd1 << (read_data & 31))" in artifact.text
        tb = generate_testbench(artifact.payload, [33, 64])
        assert "expected[0] = 32'd2;" in tb
        assert "expected[1] = 32'd1;" in tb

    def test_negative_input_masked(self):
        bundle = bundle_for("gray_pipeline")
        tb = generate_testbench(bundle, [-1 & 0xFFFFFFFF])
        assert "'d4294967295;" in tb
        assert "'d-" not in tb  # no illegal negative literals

    def test_timeout_guard_present(self):
        tb = generate_testbench(bundle_for("bitflip"), [1, 1, 1])
        assert "timeout" in tb
