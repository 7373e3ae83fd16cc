"""Golden-file regression tests for the generated OpenCL C and Verilog.

These freeze the exact artifact text the backends emit for a set of
representative programs. A diff here means codegen changed — if the
change is intentional, regenerate the golden files (see the module
docstring of tests/golden/README)."""

import functools
import hashlib
import json
import os

import pytest

from repro.apps import SUITE, compile_app
from repro.backends.verilog import generate_testbench
from repro.compiler import CompileOptions, compile_program
from repro.devices.fpga import FPGASimulator

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def golden(name):
    with open(os.path.join(GOLDEN_DIR, name)) as f:
        return f.read()


class TestGoldenOpenCL:
    def test_bitflip_map_kernel(self):
        texts = compile_app("bitflip").artifact_texts("gpu")
        assert texts["gpu:map:Bitflip.flip"] == golden(
            "bitflip_map_flip.cl"
        )

    def test_bitflip_filter_kernel(self):
        compiled = compile_app("bitflip")
        texts = compiled.artifact_texts("gpu")
        (filter_id,) = [
            k for k in texts if k.startswith("gpu:Bitflip.taskFlip")
        ]
        assert texts[filter_id] == golden("bitflip_filter.cl")

    def test_saxpy_map_kernel(self):
        texts = compile_app("saxpy").artifact_texts("gpu")
        assert texts["gpu:map:Saxpy.axpy"] == golden("saxpy_map.cl")

    def test_vector_sum_reduce_kernel(self):
        texts = compile_app("vector_sum").artifact_texts("gpu")
        assert texts["gpu:reduce:VectorOps.add"] == golden(
            "vector_sum_reduce.cl"
        )


class TestGoldenVerilog:
    def test_bitflip_module(self):
        (artifact,) = compile_app("bitflip").store.for_device("fpga")
        assert artifact.text == golden("bitflip_module.v")

    def test_crc8_module(self):
        (artifact,) = compile_app("crc8").store.for_device("fpga")
        assert artifact.text == golden("crc8_module.v")


class TestGoldenContent:
    """Sanity anchors inside the golden text itself (so a regenerated
    golden file cannot silently encode a broken kernel)."""

    def test_map_kernel_shape(self):
        text = golden("bitflip_map_flip.cl")
        assert "__kernel void map_Bitflip_flip" in text
        assert "get_global_id(0)" in text
        assert "(uchar)(1u ^" in text  # bit flip lowered to xor

    def test_verilog_handshake_ports(self):
        text = golden("bitflip_module.v")
        for port in ("inReady", "inWord", "inAccept", "outReady", "outData"):
            assert port in text


# ---------------------------------------------------------------------------
# FPGA variants: the template branches the default suite does not reach
# ---------------------------------------------------------------------------

#: name -> (app, CompileOptions fields, raw input words). Each pins the
#: module text and the waveform of one run_stream over the inputs;
#: crc8_retimed also pins the testbench generated for those inputs.
FPGA_VARIANTS = {
    "bitflip_pipelined": (
        "bitflip", {"fpga_pipelined": True}, [1, 1, 0, 0, 1, 0, 1, 1, 1],
    ),
    "crc8_retimed": (
        "crc8", {"fpga_max_stage_depth": 6}, [0, 1, 0x55, 0xAA, 0xFF, 42],
    ),
    "crc8_pipelined_retimed": (
        "crc8",
        {"fpga_pipelined": True, "fpga_max_stage_depth": 6},
        [0, 1, 0x55, 0xAA, 0xFF, 42],
    ),
}
FPGA_GOLDENS = sorted(
    [f"{name}_module.v" for name in FPGA_VARIANTS]
    + [f"{name}.vcd" for name in FPGA_VARIANTS]
    + ["crc8_retimed_testbench.v"]
)


@functools.lru_cache(maxsize=None)
def fpga_variant_goldens() -> dict:
    """File name -> text for every FPGA variant golden (the
    tests/golden/README recipe writes these)."""
    texts = {}
    for name, (app, options, words) in FPGA_VARIANTS.items():
        compiled = compile_program(
            SUITE[app].source, options=CompileOptions(**options)
        )
        (artifact,) = compiled.store.for_device("fpga")
        bundle = artifact.payload
        texts[f"{name}_module.v"] = artifact.text
        result = FPGASimulator().run_stream(bundle.elaborate(), list(words))
        texts[f"{name}.vcd"] = result.vcd.render()
        if name == "crc8_retimed":
            texts[f"{name}_testbench.v"] = generate_testbench(bundle, words)
    return texts


@pytest.mark.parametrize("filename", FPGA_GOLDENS)
def test_fpga_variant_golden(filename):
    with open(os.path.join(GOLDEN_DIR, filename), "rb") as f:
        assert fpga_variant_goldens()[filename].encode() == f.read()


# ---------------------------------------------------------------------------
# Waveforms: every FPGA artifact of the suite, both input drivers
# ---------------------------------------------------------------------------

#: Raw input words per module input width: the Figure 4 stimulus for
#: one-bit modules; zero, one, negative (unmasked on ``inWord``, masked
#: into ``inData``), alternating-bit and extreme words for 32-bit ones.
WAVEFORM_WORDS = {
    1: [1, 1, 0, 0, 1, 0, 1, 1, 1],
    32: [0, 1, -1, 0x55, 0xAA, 0x7FFFFFFF, -42, 123456789],
}


@functools.lru_cache(maxsize=None)
def fpga_waveform_goldens() -> dict:
    """``"<app> <artifact id> return_to_zero=<bool>"`` -> the sha256 of
    the rendered VCD, ``cycles`` and ``enqueue_times`` of one
    run_stream over :data:`WAVEFORM_WORDS` (the tests/golden/README
    recipe writes these as fpga_waveforms.json)."""
    runs = {}
    for app in sorted(SUITE):
        for artifact in compile_app(app).store.for_device("fpga"):
            bundle = artifact.payload
            words = WAVEFORM_WORDS[bundle.in_width]
            for return_to_zero in (False, True):
                result = FPGASimulator().run_stream(
                    bundle.elaborate(), list(words),
                    return_to_zero=return_to_zero,
                )
                vcd = result.vcd.render().encode()
                runs[
                    f"{app} {artifact.artifact_id} "
                    f"return_to_zero={return_to_zero}"
                ] = {
                    "vcd_sha256": hashlib.sha256(vcd).hexdigest(),
                    "cycles": result.cycles,
                    "enqueue_times": result.details["enqueue_times"],
                }
    return runs


def test_fpga_waveform_golden():
    with open(os.path.join(GOLDEN_DIR, "fpga_waveforms.json")) as f:
        assert fpga_waveform_goldens() == json.load(f)
