"""Tests for automatic datapath retiming (multi-stage compute).

The default module matches Figure 4 exactly (one compute cycle); with
``fpga_max_stage_depth`` the backend cuts deep datapaths (CRC, parity)
into register-separated stages, trading latency for clock frequency —
what a behavioral synthesis flow does when it retimes.
"""

import pytest

from repro.apps import SUITE
from repro.compiler import CompileOptions, compile_program
from repro.devices.fpga import FPGASimulator
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy
from repro.values import KIND_INT, ValueArray

CRC_SOURCE = SUITE["crc8"].source


def crc_bundle(**options):
    compiled = compile_program(
        CRC_SOURCE, options=CompileOptions(**options)
    )
    (artifact,) = compiled.store.for_device("fpga")
    return artifact.payload


def crc8_ref(b):
    crc = b & 255
    for _ in range(8):
        fb = crc & 1
        crc >>= 1
        if fb:
            crc ^= 0x8C
    return crc


class TestRetiming:
    def test_default_single_stage(self):
        bundle = crc_bundle()
        assert bundle.compute_stages == 1

    def test_deep_datapath_gets_stages(self):
        bundle = crc_bundle(fpga_max_stage_depth=6)
        assert bundle.compute_stages > 1
        assert bundle.synthesis.fmax_hz > crc_bundle().synthesis.fmax_hz

    def test_retimed_module_still_correct(self):
        bundle = crc_bundle(fpga_max_stage_depth=6)
        items = [0, 1, 0x55, 0xAA, 0xFF, 42, 200]
        encode, decode = bundle.converters()
        result = FPGASimulator().run_stream(
            bundle.elaborate(), [encode(x) for x in items]
        )
        assert [decode(r) for r in result.outputs] == [
            crc8_ref(x) for x in items
        ]

    def test_retimed_latency_grows(self):
        plain = crc_bundle()
        retimed = crc_bundle(fpga_max_stage_depth=6)
        sim = FPGASimulator()
        plain_run = sim.run_stream(
            plain.elaborate(), [1], return_to_zero=True
        )
        retimed_run = FPGASimulator().run_stream(
            retimed.elaborate(), [1], return_to_zero=True
        )
        extra = retimed.compute_stages - 1
        assert retimed_run.cycles == plain_run.cycles + extra

    def test_verilog_text_shows_stages(self):
        bundle = crc_bundle(fpga_max_stage_depth=6)
        text = bundle.verilog()
        assert f"compute stages (retiming): {bundle.compute_stages}" in text
        assert "comp2_valid" in text
        assert f"initiation interval: {2 + bundle.compute_stages}" in text

    def test_default_verilog_unchanged(self):
        text = crc_bundle().verilog()
        assert "comp2_valid" not in text
        assert "initiation interval: 3" in text

    def test_pipelined_retimed_throughput(self):
        """II=1 + retiming: deep logic at ~1 item/cycle with a higher
        modeled clock."""
        compiled = compile_program(
            CRC_SOURCE,
            options=CompileOptions(
                fpga_pipelined=True, fpga_max_stage_depth=6
            ),
        )
        (artifact,) = compiled.store.for_device("fpga")
        bundle = artifact.payload
        items = [i % 256 for i in range(64)]
        encode, decode = bundle.converters()
        result = FPGASimulator().run_stream(
            bundle.elaborate(), [encode(x) for x in items]
        )
        assert [decode(r) for r in result.outputs] == [
            crc8_ref(x) for x in items
        ]
        assert result.throughput_items_per_cycle > 0.8

    def test_end_to_end_through_runtime(self):
        compiled = compile_program(
            CRC_SOURCE, options=CompileOptions(fpga_max_stage_depth=6)
        )
        crc_id = compiled.task_graphs[0].stages[1].task_id
        runtime = Runtime(
            compiled,
            RuntimeConfig(
                policy=SubstitutionPolicy(directives={crc_id: "fpga"})
            ),
        )
        xs = ValueArray(KIND_INT, [3, 77, 250])
        assert list(runtime.call("Crc8.checksums", [xs])) == [
            crc8_ref(x) for x in [3, 77, 250]
        ]

    def test_retimed_runtime_faster_for_long_streams(self):
        """Higher Fmax wins once the stream amortizes the latency."""

        def simulated_time(**options):
            compiled = compile_program(
                CRC_SOURCE, options=CompileOptions(**options)
            )
            crc_id = compiled.task_graphs[0].stages[1].task_id
            runtime = Runtime(
                compiled,
                RuntimeConfig(
                    policy=SubstitutionPolicy(directives={crc_id: "fpga"})
                ),
            )
            xs = ValueArray(KIND_INT, [i % 256 for i in range(512)])
            outcome = runtime.run("Crc8.checksums", [xs])
            return outcome.ledger.offloads[0].kernel_s

        plain = simulated_time(fpga_pipelined=True)
        retimed = simulated_time(
            fpga_pipelined=True, fpga_max_stage_depth=6
        )
        assert retimed < plain
