"""Shared measurement and scaling utilities for the benchmark suite.

Every benchmark executes *functionally real* workloads at laptop scale
and reads simulated times from the runtime's ledger. For the headline
speedup table (Experiment E5) the harness additionally extrapolates the
ledger's fixed/variable cost components to the paper-era problem sizes
("paper scale"): per-item compute scales with items x inner work,
memory and transfer volumes scale with items, launch/latency overheads
stay fixed. The decomposition uses the same cost constants the models
were built from, so the extrapolation is exact with respect to the
simulator (not a curve fit).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from repro.apps import SUITE, compile_app
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy
from repro.runtime.marshaling import MarshalingBoundary

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


GOLDEN_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "tests", "golden"
)
#: The 59 modeled numbers every emitter reports plus the two profile
#: passes of tests/test_modeled_golden.py: ``{section: {name: value}}``.
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "modeled_values.json")
REGEN = os.environ.get("REPRO_REGEN_MODELED_GOLDEN") == "1"


def check_modeled_golden(section: str, got: dict) -> None:
    """Assert ``got`` (``{name: value}``) equals ``section`` of the
    modeled golden: ``==`` on the JSON-round-tripped values, no
    tolerance, and a name on one side only fails too. The modeled clock
    is deterministic, so any difference is a behaviour change; a PR's
    diff of the golden file is what moved. Under
    ``REPRO_REGEN_MODELED_GOLDEN=1`` the section is rewritten instead
    (tests/golden/README)."""
    got = json.loads(json.dumps(got))
    golden = {}
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
    if REGEN:
        golden[section] = got
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return
    want = golden.get(section)
    if want is None:
        raise AssertionError(
            f"{section}: no such section in {GOLDEN_PATH}; record it "
            "with REPRO_REGEN_MODELED_GOLDEN=1"
        )
    problems = [
        f"{section}: {name}: golden {want.get(name, 'absent')!r}, "
        f"got {got.get(name, 'absent')!r}"
        for name in sorted(set(want) | set(got))
        if name not in want or name not in got or want[name] != got[name]
    ]
    if problems:
        raise AssertionError(
            f"modeled values drifted from {GOLDEN_PATH}:\n  "
            + "\n  ".join(problems)
            + "\nregenerate with REPRO_REGEN_MODELED_GOLDEN=1 only if "
            "the modeled clock was meant to move"
        )


def bench_metric(
    value: float,
    unit: str = "ratio",
    direction: str = "higher",
    kind: str = "modeled",
) -> dict:
    """One report metric: the value plus how to read its movement.
    ``direction`` is ``higher`` (throughput/speedup: bigger is better)
    or ``lower`` (seconds/crossings); ``kind`` is ``modeled``
    (deterministic: pinned by the golden) or ``wall`` (host clock:
    reported, never compared)."""
    if direction not in ("higher", "lower"):
        raise ValueError(f"direction must be higher|lower, got {direction!r}")
    if kind not in ("modeled", "wall"):
        raise ValueError(f"kind must be modeled|wall, got {kind!r}")
    if not math.isfinite(value):
        # json.dump would write the bare token NaN/Infinity (not JSON),
        # and a NaN golden could never compare equal.
        raise ValueError(f"metric value must be finite, got {value!r}")
    return {
        "value": float(value),
        "unit": unit,
        "direction": direction,
        "kind": kind,
    }


def write_bench_report(bench: str, metrics: dict) -> str:
    """Check the ``kind: "modeled"`` metrics against the golden, then
    write ``benchmarks/out/BENCH_<bench>.json`` (``repro.bench/1``:
    schema, bench, metrics) and return its path. ``metrics`` maps
    metric name -> :func:`bench_metric`; ``wall`` metrics are written
    and never compared."""
    check_modeled_golden(
        bench,
        {
            name: metric["value"]
            for name, metric in metrics.items()
            if metric["kind"] == "modeled"
        },
    )
    payload = {"schema": "repro.bench/1", "bench": bench, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"BENCH_{bench}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cpu_runtime(compiled, **config_kwargs) -> Runtime:
    config = RuntimeConfig(
        policy=SubstitutionPolicy(use_accelerators=False), **config_kwargs
    )
    return Runtime(compiled, config)


def accel_runtime(compiled, **config_kwargs) -> Runtime:
    return Runtime(compiled, RuntimeConfig(**config_kwargs))


@dataclass
class MeasuredPair:
    """One benchmark measured on CPU-only and on CPU+accelerator."""

    name: str
    cpu_outcome: object
    gpu_outcome: object
    gpu_runtime: Runtime

    @property
    def cpu_s(self) -> float:
        return self.cpu_outcome.seconds

    @property
    def gpu_s(self) -> float:
        return self.gpu_outcome.seconds

    @property
    def speedup(self) -> float:
        return self.cpu_s / self.gpu_s


def measure_pair(name: str, entry_args=None) -> MeasuredPair:
    compiled = compile_app(name)
    entry, args = entry_args or SUITE[name].default_args()
    cpu_outcome = cpu_runtime(compiled).run(entry, args)
    runtime = accel_runtime(compiled)
    gpu_outcome = runtime.run(entry, args)
    _assert_equal(cpu_outcome.value, gpu_outcome.value, name)
    return MeasuredPair(name, cpu_outcome, gpu_outcome, runtime)


def _assert_equal(a, b, name):
    if a != b:
        raise AssertionError(
            f"{name}: accelerated result differs from bytecode result"
        )


# ---------------------------------------------------------------------------
# Marshaling throughput (batched fast path vs per-element crossings)
# ---------------------------------------------------------------------------


def marshal_stream_seconds(n_items: int, batch_size: int) -> float:
    """Modeled time to stream ``n_items`` int values across a boundary
    and back, crossing in ``batch_size`` chunks.

    ``batch_size=1`` is the per-element slow path (one tagged scalar
    frame and one full fixed crossing cost per value, each way);
    larger sizes use the 0x09 batch frame, so N values share one
    header and one set of fixed serialize/JNI/convert costs. This is
    the microbenchmark behind BENCH_marshal.json
    (docs/PERFORMANCE.md)."""
    boundary = MarshalingBoundary()
    values = list(range(n_items))
    if batch_size <= 1:
        crossings = [boundary.round_trip(value) for value in values]
    else:
        crossings = [
            boundary.transfer_batch(values[start : start + batch_size])
            for start in range(0, n_items, batch_size)
        ]
    return sum(r.total_s for _, records in crossings for r in records)


def marshal_throughput(n_items: int, batch_size: int) -> float:
    """Values per modeled second for the stream above."""
    return n_items / marshal_stream_seconds(n_items, batch_size)


# ---------------------------------------------------------------------------
# Paper-scale extrapolation
# ---------------------------------------------------------------------------


def _transfer_variable_s(record, boundary) -> float:
    c = boundary.costs
    per_byte = (
        c.serialize_per_byte_s + c.crossing_per_byte_s + c.convert_per_byte_s
    )
    return record.num_bytes * (
        per_byte + 1.0 / boundary.link.bandwidth_bytes_per_s
    )


def scaled_cpu_s(pair: MeasuredPair, item_scale: float, work_scale: float) -> float:
    """CPU time is per-item work throughout; scale multiplicatively."""
    return pair.cpu_outcome.ledger.host_s * item_scale * work_scale


def scaled_gpu_s(pair: MeasuredPair, item_scale: float, work_scale: float) -> float:
    ledger = pair.gpu_outcome.ledger
    total = ledger.host_s  # host-side setup: treated as fixed
    for offload in ledger.offloads:
        compute = offload.compute_s * item_scale * work_scale
        memory = offload.memory_s * item_scale
        total += offload.launch_s + max(compute, memory)
        boundary = (
            pair.gpu_runtime.gpu_boundary
            if offload.device == "gpu"
            else pair.gpu_runtime.fpga_boundary
        )
        for record in offload.transfers:
            variable = _transfer_variable_s(record, boundary)
            fixed = max(record.total_s - variable, 0.0)
            total += fixed + variable * item_scale
    for run in ledger.graph_runs:
        total += run.wall_s * item_scale * work_scale
    return total


@dataclass
class ScaledResult:
    name: str
    measured_cpu_s: float
    measured_gpu_s: float
    measured_speedup: float
    paper_cpu_s: float
    paper_gpu_s: float
    paper_speedup: float
    paper_label: str


# Paper-scale definitions: (item_scale, work_scale, human label).
# item_scale multiplies the number of parallel work items; work_scale
# multiplies per-item inner work (bodies for n-body, matrix dimension
# for matmul, iterations for mandelbrot, taps for convolution, ...).
PAPER_SCALES = {
    "saxpy": (1024.0, 1.0, "4M elements"),
    "vector_sum": (1024.0, 1.0, "4M elements"),
    "black_scholes": (2048.0, 1.0, "4M options"),
    "mandelbrot": (682.7, 256 / 48, "1024x1024, 256 iters"),
    "nbody": (16.0, 16.0, "3072 bodies"),
    "matmul": (455.1, 512 / 24, "512x512 matrices"),
    "convolution": (512.0, 63 / 17, "1M samples, 63 taps"),
    "dct8x8": (2048.0, 1.0, "1024x1024 image"),
    "kmeans": (1024.0, 32 / 12, "1M points, 32 clusters"),
}


def paper_scale(pair: MeasuredPair) -> ScaledResult:
    item_scale, work_scale, label = PAPER_SCALES[pair.name]
    cpu_s = scaled_cpu_s(pair, item_scale, work_scale)
    gpu_s = scaled_gpu_s(pair, item_scale, work_scale)
    return ScaledResult(
        name=pair.name,
        measured_cpu_s=pair.cpu_s,
        measured_gpu_s=pair.gpu_s,
        measured_speedup=pair.speedup,
        paper_cpu_s=cpu_s,
        paper_gpu_s=gpu_s,
        paper_speedup=cpu_s / gpu_s,
        paper_label=label,
    )


def format_table(headers: list, rows: list) -> str:
    """Simple fixed-width table renderer for bench reports."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    def fmt(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rows]
    return "\n".join(lines)
