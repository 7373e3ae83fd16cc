"""Whole-suite accelerated-vs-bytecode equivalence at reduced sizes.

The deepest end-to-end invariant of the reproduction: for every
application, the co-executing configuration produces exactly the value
the pure-bytecode configuration produces (bit-identical — float math
round-trips through binary32 on both paths).

The metrics-registry sweep rides along: the ``marshal.crossings``
counter must be identical between the two scheduler variants (the
schedulers reorder work, never the boundary traffic), and fusion must
strictly reduce it on the fusable apps while leaving every other app's
count untouched (docs/FUSION.md). The unfused baseline is the
substitution policy's ``prefer_larger=False`` (ablation E6): every
decision it takes covers exactly one task."""

import pytest

from repro.apps import SUITE, compile_app, workloads
from repro.compiler import CompileOptions
from repro.ir.fusion import FusionOptions
from repro.obs import Tracer
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy

# Reduced workloads so the whole sweep stays fast.
SMALL_ARGS = {
    "bitflip": lambda: workloads.bitflip_args(64),
    "saxpy": lambda: workloads.saxpy_args(128),
    "vector_sum": lambda: workloads.vector_sum_args(128),
    "black_scholes": lambda: workloads.black_scholes_args(96),
    "mandelbrot": lambda: workloads.mandelbrot_args(16, 8, 16),
    "nbody": lambda: workloads.nbody_args(32),
    "matmul": lambda: workloads.matmul_args(8),
    "convolution": lambda: workloads.convolution_args(128, 5),
    "dct8x8": lambda: workloads.dct_args(8, 8),
    "kmeans": lambda: workloads.kmeans_args(96, 4),
    "gray_pipeline": lambda: workloads.gray_pipeline_args(96),
    "crc8": lambda: workloads.crc8_args(96),
    "parity": lambda: workloads.parity_args(96),
    "hybrid": lambda: workloads.hybrid_args(96, 48),
    "running_sum": lambda: workloads.running_sum_args(48),
    "sobel": lambda: workloads.sobel_args(12, 8),
    "photo_pipeline": lambda: workloads.photo_pipeline_args(128),
}

# Apps with a multi-stage group at these workload sizes
# (docs/FUSION.md): the stream pipeline's span is substituted whole
# under prefer-larger, the chained map pair fuses at the IR level.
FUSABLE = {"gray_pipeline", "photo_pipeline"}

#: The unfused baseline: substitution prefers the smallest spans.
UNFUSED = SubstitutionPolicy(prefer_larger=False)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_accelerated_equals_bytecode(name):
    assert name in SMALL_ARGS, f"add a small workload for {name}"
    entry, args = SMALL_ARGS[name]()
    compiled = compile_app(name)
    accelerated = Runtime(compiled).run(entry, args)
    plain = Runtime(
        compiled,
        RuntimeConfig(policy=SubstitutionPolicy(use_accelerators=False)),
    ).run(entry, args)
    assert accelerated.value == plain.value, name


@pytest.mark.parametrize("name", sorted(SUITE))
def test_adaptive_policy_equals_bytecode(name):
    entry, args = SMALL_ARGS[name]()
    compiled = compile_app(name)
    adaptive = Runtime(
        compiled, RuntimeConfig(policy=SubstitutionPolicy(adaptive=True))
    ).run(entry, args)
    plain = Runtime(
        compiled,
        RuntimeConfig(policy=SubstitutionPolicy(use_accelerators=False)),
    ).run(entry, args)
    assert adaptive.value == plain.value, name


def _crossings(compiled, entry, args, scheduler, policy=None):
    """Run once under a fresh tracer; return the uniform boundary
    crossing count (every marshaling path funnels through it) and the
    runtime's substitution log."""
    tracer = Tracer()
    runtime = Runtime(
        compiled,
        RuntimeConfig(
            scheduler=scheduler,
            tracer=tracer,
            policy=policy or SubstitutionPolicy(),
        ),
    )
    runtime.run(entry, args)
    crossings = tracer.counters.snapshot().get("marshal.crossings", 0)
    return crossings, runtime.substitution_log


@pytest.mark.parametrize("name", sorted(SUITE))
def test_crossing_count_scheduler_invariant(name):
    """The schedulers reorder work, never the boundary traffic: both
    must cross the marshaling boundary exactly as often."""
    entry, args = SMALL_ARGS[name]()
    compiled = compile_app(name)
    sequential, _ = _crossings(compiled, entry, args, "sequential")
    threaded, _ = _crossings(compiled, entry, args, "threaded")
    assert sequential == threaded, name


@pytest.mark.parametrize("name", sorted(SUITE))
def test_fusion_strictly_reduces_crossings(name):
    """Fused runs cross the boundary strictly less often on the
    fusable apps; everywhere else fusion must not change traffic. The
    unfused run substitutes no multi-stage span at all."""
    entry, args = SMALL_ARGS[name]()
    unfused, log = _crossings(
        compile_app(name), entry, args, "sequential", policy=UNFUSED
    )
    assert all(
        len(decision.covered_task_ids) == 1
        for _, decisions in log
        for decision in decisions
    ), name
    fused, _ = _crossings(
        compile_app(
            name, CompileOptions(fusion=FusionOptions(mode="auto"))
        ),
        entry,
        args,
        "sequential",
    )
    if name in FUSABLE:
        assert fused < unfused, name
    else:
        assert fused == unfused, name
