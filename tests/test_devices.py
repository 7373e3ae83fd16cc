"""Unit tests for the device models: CPU, GPU timing, RTL, VCD,
synthesis."""

import pytest

from repro.devices.cpu import CPUDevice, CPUSpec
from repro.devices.fpga.rtl import Assign, Module, Netlist, Signal, Update
from repro.devices.fpga.vcd import VCDWriter, _short_id
from repro.devices.gpu.timing import (
    GTX580,
    GPUSpec,
    data_parallel_time,
    reduction_time,
    warp_divergence_cycles,
)
from repro.errors import SimulationError


class TestCPUDevice:
    def test_time_conversion(self):
        device = CPUDevice(CPUSpec(clock_hz=1e9, ipc=1.0))
        timing = device.time_for_cycles(5_000_000)
        assert timing.seconds == pytest.approx(5e-3)
        assert timing.cycles == 5_000_000

    def test_default_spec(self):
        assert CPUDevice().spec.clock_hz == 3.0e9


class TestGPUTiming:
    def test_warp_divergence_uniform(self):
        cycles = [100] * 64
        assert warp_divergence_cycles(cycles, 32) == 6400

    def test_warp_divergence_penalizes_slow_lane(self):
        cycles = [1] * 31 + [1000]  # one slow lane in the warp
        assert warp_divergence_cycles(cycles, 32) == 32_000

    def test_partial_warp(self):
        assert warp_divergence_cycles([10] * 5, 32) == 50

    def test_compute_bound_kernel(self):
        timing = data_parallel_time(
            GTX580, [10_000] * 1024, bytes_in=4096, bytes_out=4096
        )
        assert timing.compute_s > timing.memory_s
        assert timing.kernel_s == pytest.approx(
            timing.launch_s + timing.compute_s
        )

    def test_memory_bound_kernel(self):
        timing = data_parallel_time(
            GTX580, [1] * 1024, bytes_in=100_000_000, bytes_out=0
        )
        assert timing.memory_s > timing.compute_s

    def test_uncoalesced_penalty(self):
        fast = data_parallel_time(
            GTX580, [1] * 256, 1_000_000, 0, coalesced=True
        )
        slow = data_parallel_time(
            GTX580, [1] * 256, 1_000_000, 0, coalesced=False
        )
        assert slow.memory_s == pytest.approx(
            fast.memory_s * GTX580.uncoalesced_penalty
        )

    def test_reduction_log_depth(self):
        small = reduction_time(GTX580, 16, 10.0, 64)
        large = reduction_time(GTX580, 1 << 20, 10.0, 1 << 22)
        assert small.details["tree_depth"] == 4
        assert large.details["tree_depth"] == 20

    def test_reduction_empty_rejected(self):
        with pytest.raises(ValueError):
            reduction_time(GTX580, 0, 1.0, 0)

    def test_custom_spec(self):
        tiny = GPUSpec(name="tiny", cuda_cores=8, clock_hz=1e8)
        big_t = data_parallel_time(tiny, [1000] * 512, 0, 0)
        fast_t = data_parallel_time(GTX580, [1000] * 512, 0, 0)
        assert big_t.compute_s > fast_t.compute_s * 100


def netlist(signals, assigns=(), updates=(), datapath=None):
    return Netlist(
        Module("m", tuple(signals), tuple(assigns), (tuple(updates),)),
        datapath,
    )


class TestNetlist:
    def test_combinational_loop_detected(self):
        with pytest.raises(SimulationError, match="a -> b -> a|b -> a -> b"):
            netlist(
                [Signal("a", 1), Signal("b", 1)],
                [Assign("a", "b"), Assign("b", "a")],
            )

    def test_multiple_drivers_detected(self):
        with pytest.raises(SimulationError, match="multiple drivers"):
            netlist(
                [Signal("a", 1), Signal("r", 1, "reg")],
                [Assign("a", "r")],
                [Update("r", "a"), Update("r", ("~", "a"))],
            )

    def test_undeclared_target_rejected(self):
        with pytest.raises(SimulationError, match="undeclared signal 'w'"):
            netlist([Signal("a", 1)], [Assign("w", "a")])

    def test_topological_settle(self):
        # Declare z first but make it depend on y: order must fix it.
        net = netlist(
            [Signal("x", 8, "input"), Signal("y", 8), Signal("z", 8)],
            [Assign("z", "y"), Assign("y", ("datapath", "x"))],
            datapath=lambda x: x * 2,
        )
        env = net.initial_state()
        env["x"] = 3
        settled = net.settle(env)
        assert settled["y"] == 6
        assert settled["z"] == 6

    def test_width_masking(self):
        net = netlist(
            [Signal("x", 8, "input"), Signal("y", 4)], [Assign("y", "x")]
        )
        env = net.initial_state()
        env["x"] = 0xFF
        assert net.settle(env)["y"] == 0xF

    def test_register_semantics_two_phase(self):
        # A register chain shifts one position per clock.
        net = netlist(
            [Signal("d", 1, "input")]
            + [Signal(q, 1, "reg") for q in ("q1", "q2")],
            updates=[Update("q1", "d"), Update("q2", "q1")],
        )
        env = net.initial_state()
        env["d"] = 1
        env = net.clock_edge(net.settle(env))
        assert env["q1"] == 1 and env["q2"] == 0  # no shoot-through
        env["d"] = 0
        env = net.clock_edge(net.settle(env))
        assert env["q1"] == 0 and env["q2"] == 1

    def test_enable_holds_and_reset_is_the_initial_value(self):
        net = netlist(
            [Signal("en", 1, "input"), Signal("d", 4, "input"),
             Signal("r", 4, "reg")],
            updates=[Update("r", "d", enable="en", reset=5)],
        )
        env = net.initial_state()
        assert env["r"] == 5
        env["d"] = 9
        env = net.clock_edge(net.settle(env))
        assert env["r"] == 5  # enable low: held
        env["en"] = 1
        assert net.clock_edge(net.settle(env))["r"] == 9

    def test_comb_assign_to_register_rejected(self):
        with pytest.raises(SimulationError, match="assign to register"):
            netlist([Signal("r", 1, "reg")], [Assign("r", "r")])

    def test_clock_update_of_wire_rejected(self):
        with pytest.raises(SimulationError, match="non-register"):
            netlist([Signal("w", 1)], updates=[Update("w", "w")])


class TestVCD:
    def test_short_ids_unique(self):
        ids = {_short_id(i) for i in range(500)}
        assert len(ids) == 500

    def test_change_deduplication(self):
        vcd = VCDWriter("m")
        vcd.declare("sig", 1)
        vcd.record(0, "sig", 0)
        vcd.record(4, "sig", 0)  # duplicate: dropped
        vcd.record(8, "sig", 1)
        assert vcd.transitions("sig") == [(0, 0), (8, 1)]

    def test_rising_edges(self):
        vcd = VCDWriter("m")
        vcd.declare("sig", 1)
        for t, v in [(0, 0), (4, 1), (8, 0), (12, 1)]:
            vcd.record(t, "sig", v)
        assert vcd.rising_edges("sig") == [4, 12]

    def test_render_format(self):
        vcd = VCDWriter("top", timescale="1ns")
        vcd.declare("clk", 1)
        vcd.declare("bus", 8)
        vcd.record(0, "clk", 1)
        vcd.record(0, "bus", 0xA5)
        text = vcd.render()
        assert "$timescale 1ns $end" in text
        assert "$scope module top $end" in text
        assert "$var wire 1" in text
        assert "$var wire 8" in text
        assert "b10100101 " in text  # multi-bit binary format

    def test_undeclared_signal_rejected(self):
        vcd = VCDWriter("m")
        with pytest.raises(KeyError):
            vcd.record(0, "ghost", 1)


class TestSynthesisEstimates:
    def test_wider_datapath_costs_more(self):
        from repro.devices.fpga.synthesis import estimate
        from repro.ir import nodes as ir
        from repro.lime import types as ty

        narrow = ir.EBinary(
            ty.BIT,
            "^",
            ir.ELocal(ty.BIT, "a"),
            ir.EConst(ty.BIT, __import__("repro.values", fromlist=["Bit"]).Bit(1)),
        )
        wide = ir.EBinary(
            ty.INT, "+", ir.ELocal(ty.INT, "a"), ir.EConst(ty.INT, 1)
        )
        r_narrow = estimate("narrow", narrow, 1, 1)
        r_wide = estimate("wide", wide, 32, 32)
        assert r_wide.luts > r_narrow.luts

    def test_retiming_raises_fmax(self):
        from repro.devices.fpga.synthesis import estimate
        from repro.ir import nodes as ir
        from repro.lime import types as ty

        deep = ir.ELocal(ty.INT, "x")
        for _ in range(10):
            deep = ir.EBinary(ty.INT, "+", deep, ir.EConst(ty.INT, 1))
        plain = estimate("m", deep, 32, 32)
        retimed = estimate("m", deep, 32, 32, compute_stages=4)
        assert retimed.fmax_hz > plain.fmax_hz * 2
        assert retimed.flipflops > plain.flipflops  # extra stage regs

    def test_ii_pipelining_adds_skid_register_only(self):
        from repro.devices.fpga.synthesis import estimate
        from repro.ir import nodes as ir
        from repro.lime import types as ty

        expr = ir.EBinary(
            ty.INT, "+", ir.ELocal(ty.INT, "x"), ir.EConst(ty.INT, 1)
        )
        plain = estimate("m", expr, 32, 32, pipelined=False)
        piped = estimate("m", expr, 32, 32, pipelined=True)
        assert piped.fmax_hz == plain.fmax_hz  # II does not cut logic
        assert piped.flipflops > plain.flipflops
