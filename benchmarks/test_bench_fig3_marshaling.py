"""E3 — Figure 3: data transfer between the JVM and a native device.

Reproduces the figure's scenario — a float array as input and an int
array as output — across sizes, reporting the modeled cost of each of
the three steps (serialize to byte array, cross the JNI boundary,
convert to a packed C value) plus the physical link, in both
directions. The shape to reproduce: fixed overheads dominate small
transfers; per-byte serialization dominates large ones; the payload is
densely packed (bit arrays 8x smaller than byte-per-bit).
"""

import pytest

from repro.devices.interconnect import PCIE_GEN2_X16
from repro.runtime.marshaling import MarshalingBoundary
from repro.values import (
    KIND_BIT,
    KIND_FLOAT,
    KIND_INT,
    Bit,
    ValueArray,
)

from harness import bench_metric, format_table, write_bench_report

SIZES = [1_000, 10_000, 100_000, 1_000_000]


def _roundtrip(boundary, n):
    floats_in = ValueArray(KIND_FLOAT, [float(i) * 0.5 for i in range(n)])
    ints_out = ValueArray(KIND_INT, list(range(n)))
    _, out_rec = boundary.to_device(floats_in)
    _, back_rec = boundary.from_device(ints_out)
    return out_rec, back_rec


def test_bench_fig3_step_table(benchmark, capsys):
    boundary = MarshalingBoundary(PCIE_GEN2_X16)

    def run():
        return [(n,) + _roundtrip(boundary, n) for n in SIZES]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for n, out_rec, back_rec in results:
        rows.append(
            [
                n,
                f"{out_rec.num_bytes}",
                f"{out_rec.serialize_s * 1e6:.2f}us",
                f"{out_rec.crossing_s * 1e6:.2f}us",
                f"{out_rec.convert_s * 1e6:.2f}us",
                f"{out_rec.link_s * 1e6:.2f}us",
                f"{(out_rec.total_s + back_rec.total_s) * 1e6:.2f}us",
            ]
        )
    table = format_table(
        [
            "elements",
            "bytes",
            "serialize",
            "jni-cross",
            "native-conv",
            "pcie",
            "round-trip",
        ],
        rows,
    )
    print("\n[E3] Figure 3 float-in / int-out transfer:\n" + table)

    metrics = {}
    for n, out_rec, back_rec in results:
        metrics[f"roundtrip.{n}.total_s"] = bench_metric(
            out_rec.total_s + back_rec.total_s, unit="s", direction="lower"
        )
        metrics[f"roundtrip.{n}.bytes"] = bench_metric(
            out_rec.num_bytes, unit="bytes", direction="lower"
        )
    write_bench_report("fig3_marshaling", metrics)

    small = results[0]
    large = results[-1]
    # Fixed overheads dominate the small transfer...
    assert small[1].crossing_s > small[1].serialize_s * 0.5
    # ... while per-byte costs dominate the large one, scaling ~linearly.
    ratio = large[1].total_s / small[1].total_s
    assert 100 < ratio < 2000


def test_bench_fig3_total_scales_linearly(benchmark):
    boundary = MarshalingBoundary(PCIE_GEN2_X16)

    def run(n):
        arr = ValueArray(KIND_FLOAT, [0.0] * n)
        _, rec = boundary.to_device(arr)
        return rec

    rec_a = run(100_000)
    rec_b = benchmark.pedantic(
        lambda: run(200_000), rounds=1, iterations=1
    )
    # Twice the elements: per-byte parts double, fixed parts do not.
    assert rec_b.total_s < 2 * rec_a.total_s
    assert rec_b.total_s > 1.5 * rec_a.total_s


def test_bench_fig3_dense_bit_packing(benchmark):
    """Bit arrays cross the wire densely packed (Section 4.3: the
    native side data is 'generally densely packed')."""
    boundary = MarshalingBoundary(PCIE_GEN2_X16)
    n = 80_000
    bits = ValueArray(KIND_BIT, [Bit(i & 1) for i in range(n)])
    ints = ValueArray(KIND_INT, [i & 1 for i in range(n)])

    def run():
        _, bit_rec = boundary.to_device(bits)
        _, int_rec = boundary.to_device(ints)
        return bit_rec, int_rec

    bit_rec, int_rec = benchmark.pedantic(run, rounds=1, iterations=1)
    # 1 bit vs 32 bits per element: ~32x fewer bytes, modulo headers.
    assert int_rec.num_bytes / bit_rec.num_bytes > 30
    assert bit_rec.total_s < int_rec.total_s
