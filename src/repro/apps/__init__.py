"""Application suite: Lime benchmark programs plus workload builders.

``SUITE`` maps benchmark names to :class:`AppSpec`; ``compile_app``
caches compilation so tests and benches share toolchain output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.apps import programs, workloads
from repro.compiler import CompileOptions, CompileResult, compile_program


@dataclass(frozen=True)
class AppSpec:
    """One benchmark: its Lime source and default workload."""

    name: str
    source: str
    default_args: Callable        # () -> (entry_point, args)
    flavor: str                   # 'map' | 'reduce' | 'stream' | 'hybrid'
    description: str = ""


SUITE = {
    "bitflip": AppSpec(
        "bitflip",
        programs.FIGURE1_BITFLIP,
        workloads.bitflip_args,
        "stream",
        "Figure 1: the paper's running example",
    ),
    "saxpy": AppSpec(
        "saxpy",
        programs.SAXPY,
        workloads.saxpy_args,
        "map",
        "memory-bound a*x+y (transfer-dominated on GPU)",
    ),
    "vector_sum": AppSpec(
        "vector_sum",
        programs.VECTOR_SUM,
        workloads.vector_sum_args,
        "reduce",
        "tree reduction",
    ),
    "black_scholes": AppSpec(
        "black_scholes",
        programs.BLACK_SCHOLES,
        workloads.black_scholes_args,
        "map",
        "option pricing: exp/log/sqrt per element",
    ),
    "mandelbrot": AppSpec(
        "mandelbrot",
        programs.MANDELBROT,
        workloads.mandelbrot_args,
        "map",
        "escape-time iteration, highly compute-bound",
    ),
    "nbody": AppSpec(
        "nbody",
        programs.NBODY,
        workloads.nbody_args,
        "map",
        "O(n) interactions per body (broadcast position arrays)",
    ),
    "matmul": AppSpec(
        "matmul",
        programs.MATMUL,
        workloads.matmul_args,
        "map",
        "dense matrix multiply, one output cell per work item",
    ),
    "convolution": AppSpec(
        "convolution",
        programs.CONVOLUTION,
        workloads.convolution_args,
        "map",
        "1-D FIR filter",
    ),
    "dct8x8": AppSpec(
        "dct8x8",
        programs.DCT8X8,
        workloads.dct_args,
        "map",
        "8x8 block DCT",
    ),
    "kmeans": AppSpec(
        "kmeans",
        programs.KMEANS,
        workloads.kmeans_args,
        "map",
        "nearest-centroid assignment",
    ),
    "gray_pipeline": AppSpec(
        "gray_pipeline",
        programs.GRAY_PIPELINE,
        workloads.gray_pipeline_args,
        "stream",
        "two-stage integer pipeline (fusable)",
    ),
    "crc8": AppSpec(
        "crc8",
        programs.CRC8,
        workloads.crc8_args,
        "stream",
        "CRC-8 with a constant-bound bit loop (FPGA unrolls)",
    ),
    "parity": AppSpec(
        "parity",
        programs.PARITY,
        workloads.parity_args,
        "stream",
        "32-bit parity to a single bit",
    ),
    "hybrid": AppSpec(
        "hybrid",
        programs.HYBRID,
        workloads.hybrid_args,
        "hybrid",
        "GPU map + FPGA stream + CPU host in one program",
    ),
    "running_sum": AppSpec(
        "running_sum",
        programs.RUNNING_SUM,
        workloads.running_sum_args,
        "stream",
        "stateful task via an isolating constructor (Section 2.1)",
    ),
    "sobel": AppSpec(
        "sobel",
        programs.SOBEL,
        workloads.sobel_args,
        "map",
        "3x3 Sobel edge detection over a broadcast image",
    ),
    "photo_pipeline": AppSpec(
        "photo_pipeline",
        programs.PHOTO_PIPELINE,
        workloads.photo_pipeline_args,
        "map",
        "chained brighten+clamp map pair (map-fusable)",
    ),
}

_COMPILE_CACHE: dict = {}


def compile_app(
    name: str, options: "CompileOptions | None" = None
) -> CompileResult:
    """Compile one suite application (cached per options object)."""
    options = options or CompileOptions()
    key = (name, options)
    if key not in _COMPILE_CACHE:
        _COMPILE_CACHE[key] = compile_program(
            SUITE[name].source, filename=f"<{name}.lime>", options=options
        )
    return _COMPILE_CACHE[key]


__all__ = ["AppSpec", "SUITE", "compile_app", "programs", "workloads"]
