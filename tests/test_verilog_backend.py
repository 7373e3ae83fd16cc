"""Tests for the FPGA backend: datapath synthesis, Verilog text, RTL
simulation, and the Figure 4 waveform behaviour."""

import pickle

import pytest

from tests.lime_sources import FIGURE1
from repro.backends.verilog import DatapathBuilder, codegen, compile_fpga
from repro.backends.verilog.codegen import compile_datapath, verilog_expr
from repro.devices.fpga import FPGASimulator
from repro.errors import ExclusionNotice, SimulationError
from repro.ir import build_ir
from repro.ir import nodes as ir
from repro.lime import analyze


def module_for(source):
    return build_ir(analyze(source))


def datapath_for(source, method):
    module = module_for(source)
    return DatapathBuilder(module).build(method), module


class TestDatapathBuilder:
    def test_bitflip_datapath(self):
        datapath, _ = datapath_for(FIGURE1, "Bitflip.flip")
        assert isinstance(datapath, ir.EIntrinsic)
        assert datapath.name == "bit.~"
        assert compile_datapath(datapath, ["b"])(0) == 1
        assert compile_datapath(datapath, ["b"])(1) == 0

    def test_if_conversion(self):
        source = """
        class T {
            local static int clamp(int x) {
                if (x > 100) { return 100; }
                return x;
            }
        }
        """
        datapath, _ = datapath_for(source, "T.clamp")
        assert isinstance(datapath, ir.ETernary)
        assert compile_datapath(datapath, ["x"])(250) == 100
        assert compile_datapath(datapath, ["x"])(42) == 42

    def test_loop_unrolling(self):
        source = """
        class T {
            local static int sum3(int x) {
                int s = 0;
                for (int i = 0; i < 3; i++) { s += x; }
                return s;
            }
        }
        """
        datapath, _ = datapath_for(source, "T.sum3")
        assert compile_datapath(datapath, ["x"])(7) == 21

    def test_call_inlining(self):
        source = """
        class T {
            local static int dbl(int x) { return x * 2; }
            local static int quad(int x) { return dbl(dbl(x)); }
        }
        """
        datapath, _ = datapath_for(source, "T.quad")
        assert compile_datapath(datapath, ["x"])(5) == 20

    def test_while_excluded(self):
        source = (
            "class T { local static int f(int x) "
            "{ while (x > 0) { x -= 1; } return x; } }"
        )
        module = module_for(source)
        with pytest.raises(ExclusionNotice):
            DatapathBuilder(module).build("T.f")

    def test_float_excluded(self):
        source = (
            "class T { local static float f(float x) { return x * 2.0f; } }"
        )
        module = module_for(source)
        with pytest.raises(ExclusionNotice):
            DatapathBuilder(module).build("T.f")

    def test_unroll_budget(self):
        source = (
            "class T { local static int f(int x) { int s = 0; "
            "for (int i = 0; i < 100000; i++) { s += x; } return s; } }"
        )
        module = module_for(source)
        with pytest.raises(ExclusionNotice):
            DatapathBuilder(module).build("T.f")

    def test_dynamic_bounds_excluded(self):
        source = (
            "class T { local static int f(int x) { int s = 0; "
            "for (int i = 0; i < x; i++) { s += 1; } return s; } }"
        )
        module = module_for(source)
        with pytest.raises(ExclusionNotice):
            DatapathBuilder(module).build("T.f")

    def test_branch_merge_without_return(self):
        source = """
        class T {
            local static int f(int x) {
                int y = 0;
                if (x > 0) { y = x; } else { y = -x; }
                return y + 1;
            }
        }
        """
        datapath, _ = datapath_for(source, "T.f")
        assert compile_datapath(datapath, ["x"])(5) == 6
        assert compile_datapath(datapath, ["x"])(-5) == 6

    def test_math_min_becomes_mux(self):
        source = (
            "class T { local static int f(int a, int b) "
            "{ return Math.min(a, b); } }"
        )
        datapath, _ = datapath_for(source, "T.f")
        assert compile_datapath(datapath, ["a", "b"])(3, 9) == 3
        assert compile_datapath(datapath, ["a", "b"])(9, 3) == 3


class TestVerilogText:
    def test_figure1_module(self):
        backend = compile_fpga(module_for(FIGURE1))
        assert len(backend.artifacts) == 1
        text = backend.artifacts[0].text
        assert "module mod_Bitflip_flip" in text
        assert "input  wire inReady" in text
        assert "output wire outReady" in text
        assert "inData" in text  # FIFO output, as in the waveform
        assert "initiation interval: 3" in text

    def test_pipelined_variant(self):
        backend = compile_fpga(module_for(FIGURE1), pipelined=True)
        text = backend.artifacts[0].text
        assert "initiation interval: 1" in text

    def test_synthesis_properties_in_manifest(self):
        backend = compile_fpga(module_for(FIGURE1))
        props = backend.artifacts[0].manifest.properties
        assert props["luts"] >= 1
        assert props["fmax_hz"] > 50e6
        assert props["brams"] == 1

    def test_shift_amount_is_masked_like_java(self):
        # A Verilog shift by the width or more is 0; Java (and the
        # simulator) take the amount modulo the width. The text must
        # say what the simulator computes.
        source = """
        class T {
            local static int pow2(int x) { return (1 << x) + (x >> 35); }
            local static long wide(int x) { return (1L << x) << 64; }
        }
        """
        module = module_for(source)
        for method, text, at33 in (
            ("T.pow2", "((32'sd1 << (x & 31)) + (x >> 32'sd3))", 2 + 4),
            ("T.wide", "((64'sd1 << (x & 63)) << 32'sd0)", 1 << 33),
        ):
            datapath = DatapathBuilder(module).build(method)
            assert verilog_expr(datapath, {"x": "x"}) == text
            assert compile_datapath(datapath, ["x"])(33) == at33

    def test_exclusion_recorded(self):
        source = """
        class T {
            local static float f(float x) { return x + 1.0f; }
            static void m(float[[]] xs, float[] out) {
                var t = xs.source(1) => ([ task f ]) => out.sink();
                t.finish();
            }
        }
        """
        backend = compile_fpga(module_for(source))
        assert backend.artifacts == []
        assert len(backend.exclusions) == 1
        assert "synthesizable" in backend.exclusions[0].reason


class TestRTLSimulation:
    def bitflip_bundle(self, pipelined=False):
        backend = compile_fpga(module_for(FIGURE1), pipelined=pipelined)
        return backend.artifacts[0].payload

    def test_flip_stream_correct(self):
        bundle = self.bitflip_bundle()
        netlist = bundle.elaborate()
        sim = FPGASimulator()
        items = [1, 1, 0, 0, 1, 0, 1, 1, 1]  # 110010111b, 9 bits
        result = sim.run_stream(netlist, items)
        assert result.outputs == [1 - b for b in items]

    def test_figure4_nine_inready_pulses(self):
        # The example is driven with 9 input bits, represented by 9
        # transitions on the inReady signal (Section 5).
        bundle = self.bitflip_bundle()
        sim = FPGASimulator()
        result = sim.run_stream(
            bundle.elaborate(),
            [1, 1, 0, 0, 1, 0, 1, 1, 1],
            return_to_zero=True,
        )
        assert len(result.details["enqueue_times"]) == 9
        assert len(result.vcd.rising_edges("inReady")) == 9

    def test_figure4_fifo_one_cycle_latency(self):
        # "inReady is asserted and inData[0] is high one cycle later."
        bundle = self.bitflip_bundle()
        sim = FPGASimulator(period_ns=4)
        result = sim.run_stream(
            bundle.elaborate(), [1], return_to_zero=True
        )
        in_ready_t = result.vcd.rising_edges("inReady")[0]
        in_data_t = result.vcd.rising_edges("inData")[0]
        assert in_data_t - in_ready_t == 4  # one 4ns cycle later

    def test_figure4_three_cycle_latency_after_fifo(self):
        # "one cycle to read, one cycle to compute, and one cycle to
        # publish the result": outReady three cycles after the FIFO
        # presents the value. Input 0 so outData goes high (flip).
        bundle = self.bitflip_bundle()
        sim = FPGASimulator(period_ns=4)
        result = sim.run_stream(
            bundle.elaborate(), [0], return_to_zero=True
        )
        in_data_seen = result.vcd.rising_edges("fifo_valid")[0]
        out_ready_t = result.vcd.rising_edges("outReady")[0]
        assert out_ready_t - in_data_seen == 3 * 4

    def test_vcd_renders(self):
        bundle = self.bitflip_bundle()
        sim = FPGASimulator()
        result = sim.run_stream(bundle.elaborate(), [1, 0])
        text = result.vcd.render()
        assert "$timescale 1ns $end" in text
        assert "$var wire 1" in text
        assert "$enddefinitions $end" in text
        assert "#0" in text

    def test_pipelined_higher_throughput(self):
        items = [i % 2 for i in range(32)]
        plain = FPGASimulator().run_stream(
            self.bitflip_bundle(False).elaborate(), list(items)
        )
        piped = FPGASimulator().run_stream(
            self.bitflip_bundle(True).elaborate(), list(items)
        )
        assert piped.outputs == plain.outputs
        assert piped.cycles < plain.cycles
        assert piped.throughput_items_per_cycle > 0.8

    def test_int_module(self):
        source = """
        class T {
            local static int scale(int x) { return x * 3 - 1; }
            static void m(int[[]] xs, int[] out) {
                var t = xs.source(1) => ([ task scale ]) => out.sink();
                t.finish();
            }
        }
        """
        backend = compile_fpga(module_for(source))
        bundle = backend.artifacts[0].payload
        netlist = bundle.elaborate()
        result = FPGASimulator().run_stream(
            netlist, [bundle.encode(v) for v in [0, 5, -4]]
        )
        decoded = [bundle.decode(raw) for raw in result.outputs]
        assert decoded == [-1, 14, -13]

    def test_simulation_timeout(self):
        bundle = self.bitflip_bundle()
        with pytest.raises(SimulationError):
            FPGASimulator().run_stream(
                bundle.elaborate(), [1], expected_outputs=5, max_cycles=50
            )


class TestFusedModules:
    SOURCE = """
    class P {
        local static int inc(int x) { return x + 1; }
        local static int dbl(int x) { return x * 2; }
        static void m(int[[]] xs, int[] out) {
            var t = xs.source(1) => ([ task inc => task dbl ]) => out.sink();
            t.finish();
        }
    }
    """

    def test_fused_module_produced(self):
        backend = compile_fpga(module_for(self.SOURCE))
        fused = [
            a for a in backend.artifacts if len(a.manifest.task_ids) == 2
        ]
        assert len(fused) == 1

    def test_fused_module_computes_composition(self):
        backend = compile_fpga(module_for(self.SOURCE))
        fused = [
            a for a in backend.artifacts if len(a.manifest.task_ids) == 2
        ][0]
        bundle = fused.payload
        result = FPGASimulator().run_stream(
            bundle.elaborate(), [bundle.encode(3)]
        )
        assert bundle.decode(result.outputs[0]) == 8  # (3+1)*2


class TestOneDescription:
    """The Verilog text, the netlist and the testbench derive from
    ``FPGAModuleBundle.rtl()``; compiling never touches the simulator
    side."""

    def bundle(self):
        return compile_fpga(module_for(FIGURE1)).artifacts[0].payload

    def test_compile_compiles_no_python(self):
        bundle = self.bundle()
        assert id(bundle) not in codegen._COMPILED
        assert id(bundle) not in codegen._NETLISTS

    def test_netlist_is_compiled_once_per_bundle(self):
        bundle = self.bundle()
        netlist = bundle.elaborate()
        assert bundle.elaborate() is netlist
        assert codegen._NETLISTS[id(bundle)] is netlist
        assert pickle.loads(pickle.dumps(bundle)).elaborate() is not netlist

    def test_text_and_netlist_declare_the_same_signals(self):
        bundle = self.bundle()
        module = bundle.rtl()
        text = bundle.verilog()
        assert list(bundle.elaborate().signals) == [
            s.name for s in module.signals
        ]
        for signal in module.signals:
            assert f" {signal.name}" in text
        assert [s.name for s in module.ports] == [
            "inReady", "inWord", "inAccept", "outReady", "outData"
        ]
