"""Ablations over the design choices DESIGN.md calls out.

These benches vary one model parameter at a time and check the
direction and rough magnitude of the effect:

* memory coalescing on the GPU (the SIMT memory model);
* GPU core count scaling (compute-bound kernels scale ~linearly);
* FPGA clock frequency from synthesis vs a fixed conservative clock;
* marshaling per-byte costs (the knob that decides the saxpy
  crossover);
* FIFO queue capacity in the threaded scheduler (functional only).
"""

import pytest

from repro.apps import SUITE, compile_app
from repro.devices.gpu.timing import GTX580, GPUSpec, data_parallel_time
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy
from repro.runtime.engine import GPU_LINK
from repro.runtime.marshaling import BoundaryCosts, MarshalingBoundary
from repro.values import KIND_INT, ValueArray

from harness import bench_metric, format_table, write_bench_report


def test_bench_coalescing_ablation(benchmark, capsys):
    """Strided access pays the uncoalesced bandwidth penalty on a
    memory-bound kernel but is irrelevant on a compute-bound one."""

    def run():
        n = 1_000_000  # large enough to amortize the launch overhead
        memory_bound = {
            coalesced: data_parallel_time(
                GTX580,
                [20] * n,
                bytes_in=n * 16,
                bytes_out=n * 4,
                coalesced=coalesced,
            )
            for coalesced in (True, False)
        }
        compute_bound = {
            coalesced: data_parallel_time(
                GTX580,
                [20000] * n,
                bytes_in=n * 16,
                bytes_out=n * 4,
                coalesced=coalesced,
            )
            for coalesced in (True, False)
        }
        return memory_bound, compute_bound

    memory_bound, compute_bound = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    mem_ratio = (
        memory_bound[False].kernel_s / memory_bound[True].kernel_s
    )
    comp_ratio = (
        compute_bound[False].kernel_s / compute_bound[True].kernel_s
    )
    print(
        f"\n[ablation] uncoalesced slowdown: memory-bound "
        f"{mem_ratio:.1f}x, compute-bound {comp_ratio:.2f}x"
    )
    assert mem_ratio > 3  # bandwidth penalty bites
    assert comp_ratio < 1.2  # hidden under compute
    write_bench_report(
        "ablation_coalescing",
        {
            "uncoalesced_slowdown.memory_bound": bench_metric(
                mem_ratio, unit="x", direction="higher"
            ),
            "uncoalesced_slowdown.compute_bound": bench_metric(
                comp_ratio, unit="x", direction="lower"
            ),
        },
    )


def test_bench_gpu_core_scaling(benchmark, capsys):
    """A compute-bound kernel's time scales ~1/cores."""

    def run():
        out = {}
        for cores in (64, 128, 256, 512):
            spec = GPUSpec(name=f"{cores}c", cuda_cores=cores)
            timing = data_parallel_time(
                spec, [5000] * 8192, bytes_in=0, bytes_out=0
            )
            out[cores] = timing.kernel_s
        return out

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[c, f"{t * 1e6:.1f}us"] for c, t in times.items()]
    print(
        "\n[ablation] GPU core scaling (compute-bound):\n"
        + format_table(["cores", "kernel time"], rows)
    )
    # Doubling cores ~halves time (modulo the fixed launch overhead).
    assert times[64] / times[512] > 5
    write_bench_report(
        "ablation_core_scaling",
        {
            "scaling_64_to_512": bench_metric(
                times[64] / times[512], unit="x", direction="higher"
            ),
        },
    )


def test_bench_fpga_clock_from_synthesis(benchmark, capsys):
    """The runtime clocks each module at its synthesized Fmax (capped);
    a deep datapath (CRC) therefore streams slower than a trivial one
    (bitflip) even at the same cycle count per item."""

    def run():
        out = {}
        for app in ("bitflip", "crc8"):
            compiled = compile_app(app)
            (artifact,) = compiled.store.for_device("fpga")
            out[app] = artifact.payload.synthesis.fmax_hz
        return out

    fmax = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\n[ablation] synthesized Fmax: bitflip "
        f"{fmax['bitflip'] / 1e6:.0f}MHz vs crc8 "
        f"{fmax['crc8'] / 1e6:.0f}MHz"
    )
    assert fmax["bitflip"] > fmax["crc8"] * 4


def test_bench_marshal_cost_sweep(benchmark, capsys):
    """The per-byte serialization cost decides where the saxpy-style
    crossover falls: with slow (1 GB/s) marshaling the GPU loses; with
    fast (8 GB/s) marshaling it at least breaks even at scale."""
    compiled = compile_app("saxpy")
    entry, args = SUITE["saxpy"].default_args()

    def run():
        out = {}
        for label, per_byte in (("slow 1GB/s", 1e-9), ("fast 8GB/s", 0.125e-9)):
            runtime = Runtime(compiled, RuntimeConfig())
            costs = BoundaryCosts(
                serialize_per_byte_s=per_byte,
                crossing_per_byte_s=per_byte / 2,
                convert_per_byte_s=per_byte / 2,
            )
            runtime.gpu_boundary = MarshalingBoundary(GPU_LINK, costs)
            gpu = runtime.run(entry, args)
            cpu = Runtime(
                compiled,
                RuntimeConfig(
                    policy=SubstitutionPolicy(use_accelerators=False)
                ),
            ).run(entry, args)
            out[label] = cpu.seconds / gpu.seconds
        return out

    speedups = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\n[ablation] saxpy speedup vs marshal throughput: "
        f"{speedups}"
    )
    assert speedups["fast 8GB/s"] > speedups["slow 1GB/s"]


def test_bench_queue_capacity_functional(benchmark):
    """Queue capacity changes scheduling interleavings but never
    results (bounded FIFOs only add backpressure)."""
    from repro.runtime.scheduler import ThreadedScheduler

    compiled = compile_app("crc8")
    xs = ValueArray(KIND_INT, [i % 256 for i in range(200)])

    def run():
        results = []
        for capacity in (1, 2, 64, 1024):
            runtime = Runtime(compiled, RuntimeConfig())
            runtime.scheduler = ThreadedScheduler(queue_capacity=capacity)
            results.append(runtime.call("Crc8.checksums", [xs]))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r == results[0] for r in results)


def test_bench_retiming_ablation(benchmark, capsys):
    """Behavioral-synthesis retiming: cutting the CRC datapath into
    register stages raises Fmax and, for long pipelined streams, cuts
    kernel time — at the cost of latency and flip-flops."""
    from repro.compiler import CompileOptions, compile_program

    source = SUITE["crc8"].source

    def run():
        rows = []
        for label, opts in (
            ("II=3, 1 stage (Figure 4)", CompileOptions()),
            ("II=1, 1 stage", CompileOptions(fpga_pipelined=True)),
            (
                "II=1, retimed (depth<=6)",
                CompileOptions(fpga_pipelined=True, fpga_max_stage_depth=6),
            ),
        ):
            compiled = compile_program(source, options=opts)
            (artifact,) = compiled.store.for_device("fpga")
            bundle = artifact.payload
            report = bundle.synthesis
            rows.append(
                (
                    label,
                    bundle.compute_stages,
                    report.fmax_hz,
                    report.flipflops,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["configuration", "stages", "Fmax", "FFs"],
        [
            [label, stages, f"{fmax / 1e6:.0f}MHz", ffs]
            for label, stages, fmax, ffs in rows
        ],
    )
    print("\n[ablation] CRC-8 module retiming:\n" + table)
    base_fmax = rows[0][2]
    retimed_fmax = rows[2][2]
    assert retimed_fmax > base_fmax * 2
    assert rows[2][1] > 1
    assert rows[2][3] > rows[0][3]  # flip-flop cost
    write_bench_report(
        "ablation_retiming",
        {
            "crc8.retimed_fmax_ratio": bench_metric(
                retimed_fmax / base_fmax, unit="x", direction="higher"
            ),
            "crc8.retimed_fmax_hz": bench_metric(
                retimed_fmax, unit="Hz", direction="higher"
            ),
        },
    )
