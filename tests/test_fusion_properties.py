"""Property battery for the fusion pass (docs/FUSION.md).

Seeded random task chains — map compositions of random unary integer
kernels, reduce combinations, and stream pipelines with stateful
stages mixed in — checked for the two invariants that make fusion
safe to ship:

* **Equivalence**: the fused program computes bit-identically what the
  unfused program computes, at every chain length (0 through 9).
* **Legality**: the planner never fuses across a reduce barrier, no
  multi-stage device artifact absorbs a stateful task, and the runtime
  never substitutes a fused span that covers a task directed to
  bytecode.

Plus plan-artifact hygiene: serialization round-trips, and malformed
plans are rejected with named problems.
"""

import random

import pytest

from repro import schema
from repro.apps import compile_app
from repro.compiler import CompileOptions, CompilerSession
from repro.errors import ConfigurationError
from repro.ir.fusion import (
    FUSION_PLAN_SPEC,
    FusionOptions,
    FusionPlan,
)
from repro.obs import Tracer
from repro.runtime import (
    Runtime,
    RuntimeConfig,
    SubstitutionPolicy,
)
from repro.values import KIND_INT, ValueArray

AUTO = CompileOptions(fusion=FusionOptions(mode="auto"))

# Unary integer kernel bodies the generator draws from. All total and
# overflow-free in the simulated integer semantics.
_BODIES = [
    "return x * {a} + {b};",
    "return x ^ (x >> {s});",
    "return (x + {a}) & 1023;",
    "return x * {a} - (x >> {s});",
    "return (x << 1) ^ {b};",
]


def _kernels(rng, count, prefix="f"):
    lines = []
    for i in range(count):
        body = rng.choice(_BODIES).format(
            a=rng.randint(2, 9), b=rng.randint(1, 99), s=rng.randint(1, 5)
        )
        lines.append(
            f"    local static int {prefix}{i}(int x) {{ {body} }}"
        )
    return "\n".join(lines)


def _nested_maps(count, expr, prefix="f"):
    for i in range(count):
        expr = f"Chain @ {prefix}{i}({expr})"
    return expr


def _input(rng, n=128):
    return ValueArray(
        KIND_INT, [rng.randint(0, 1000) for _ in range(n)]
    )


def _compile(source, fused):
    options = AUTO if fused else CompileOptions()
    return CompilerSession(options).compile(source, filename="<chain.lime>")


def _value(compiled, entry, args):
    return repr(
        Runtime(compiled, RuntimeConfig(scheduler="sequential"))
        .run(entry, args)
        .value
    )


@pytest.mark.parametrize("seed", range(10))
def test_random_map_chain_fuses_equal(seed):
    """A chain of `seed` random maps (lengths 0-9): fused and unfused
    agree bit-for-bit, and the planner collapsed the whole chain."""
    length = seed  # one chain length per seed, 0 through 9
    rng = random.Random(0xF00D + seed)
    source = (
        "public class Chain {\n"
        + _kernels(rng, length)
        + "\n    static int[[]] run(int[[]] xs) {\n"
        + f"        return {_nested_maps(length, 'xs')};\n"
        + "    }\n}\n"
    )
    args = [_input(rng)]
    unfused = _compile(source, fused=False)
    fused = _compile(source, fused=True)
    assert _value(unfused, "Chain.run", args) == _value(
        fused, "Chain.run", args
    )
    # Pairwise fixpoint fusion merges an n-chain with n-1 plan groups.
    assert len(fused.fusion_plan.groups) == max(length - 1, 0)


@pytest.mark.parametrize("seed", range(6))
def test_reduce_barrier_never_fused_across(seed):
    """Two map chains separated by reduce barriers: values agree, and
    no fusion group ever contains the reduce combiner."""
    rng = random.Random(0xBEEF + seed)
    left, right = rng.randint(0, 4), rng.randint(0, 4)
    source = (
        "public class Chain {\n"
        + _kernels(rng, left, prefix="f")
        + "\n"
        + _kernels(rng, right, prefix="g")
        + "\n    local static int add(int x, int y) { return x + y; }\n"
        + "    static int run(int[[]] xs) {\n"
        + f"        int lhs = Chain ! add({_nested_maps(left, 'xs')});\n"
        + f"        int rhs = Chain ! add({_nested_maps(right, 'xs', 'g')});\n"
        + "        return lhs * 3 + rhs;\n"
        + "    }\n}\n"
    )
    args = [_input(rng)]
    unfused = _compile(source, fused=False)
    fused = _compile(source, fused=True)
    assert _value(unfused, "Chain.run", args) == _value(
        fused, "Chain.run", args
    )
    plan = fused.fusion_plan
    assert len(plan.groups) == max(left - 1, 0) + max(right - 1, 0)
    import re

    for group in plan.groups:
        assert not any("add" in task for task in group.task_ids), group
        # Groups never straddle the reduce: one side's kernels only
        # (kernel references look like f3/g1, also inside fused names).
        joined = " ".join(list(group.task_ids) + [group.fused])
        sides = {
            kernel[0] for kernel in re.findall(r"[fg]\d", joined)
        }
        assert len(sides) == 1, group


@pytest.mark.parametrize("seed", range(6))
def test_stateful_stage_splits_graph_groups(seed):
    """A stream pipeline with a stateful stage at a random position:
    values agree, and no multi-stage device artifact covers the
    stateful task (the runtime can only substitute what the backends
    built)."""
    rng = random.Random(0xCAFE + seed)
    stages = rng.randint(3, 6)
    stateful_at = rng.randint(0, stages)  # == stages -> fully pure
    kernels = _kernels(rng, stages)
    tasks = [f"task f{i}" for i in range(stages)]
    if stateful_at < stages:
        tasks.insert(stateful_at, "task acc.add")
    source = (
        "public class Accumulator {\n"
        "    int sum;\n"
        "    local Accumulator(int start) { this.sum = start; }\n"
        "    local int add(int x) { sum += x; return sum; }\n"
        "}\n"
        "public class Chain {\n"
        + kernels
        + "\n    static int[[]] run(int[[]] xs) {\n"
        "        int[] out = new int[xs.length];\n"
        "        var acc = new Accumulator(0);\n"
        "        var t = xs.source(1)\n"
        f"            => ([ {' => '.join(tasks)} ])\n"
        "            => out.<int>sink();\n"
        "        t.finish();\n"
        "        return new int[[]](out);\n"
        "    }\n}\n"
    )
    args = [_input(rng, n=96)]
    unfused = _compile(source, fused=False)
    fused = _compile(source, fused=True)
    assert _value(unfused, "Chain.run", args) == _value(
        fused, "Chain.run", args
    )
    spans = [
        a.manifest.task_ids
        for a in fused.store.all()
        if a.device != "bytecode" and len(a.manifest.task_ids) > 1
    ]
    for covered in spans:
        assert not any("add" in task for task in covered), covered
    if stateful_at == stages:  # fully pure: the whole chain is one span
        assert spans


def test_health_demoted_span_not_substituted_fused():
    """A bytecode directive on one pipeline stage must keep the fused
    whole-span artifact off the device: the demoted task rides in
    every covering span, so the span is rejected and the run still
    computes the cpu answer."""
    from repro.backends.common import BYTECODE
    from tests.test_suite_equivalence import SMALL_ARGS

    entry, args = SMALL_ARGS["gray_pipeline"]()
    compiled = compile_app("gray_pipeline", AUTO)
    # Pin the first kernel stage of the fused span (not the source).
    span = next(
        a.manifest.task_ids
        for a in compiled.store.all()
        if len(a.manifest.task_ids) == 2
    )
    demoted_task = span[0]
    policy = SubstitutionPolicy(directives={demoted_task: BYTECODE})
    tracer = Tracer()
    outcome = Runtime(
        compiled,
        RuntimeConfig(
            scheduler="sequential", tracer=tracer, policy=policy
        ),
    ).run(entry, args)
    counters = tracer.counters.snapshot()
    assert counters.get("fusion.graph.substituted", 0) == 0
    assert counters.get("substitution.rejected[directive]", 0) >= 1
    reference = Runtime(
        compiled,
        RuntimeConfig(policy=SubstitutionPolicy(use_accelerators=False)),
    ).run(entry, args)
    assert repr(outcome.value) == repr(reference.value)


# ----------------------------------------------------------------------
# Plan-artifact hygiene
# ----------------------------------------------------------------------


def test_plan_round_trip():
    plan = compile_app("photo_pipeline", AUTO).fusion_plan
    assert plan.groups
    clone = FusionPlan.loads(plan.dumps())
    assert clone.to_dict() == plan.to_dict()


def test_malformed_plans_rejected():
    assert schema.problems({"schema": "bogus/9"}, FUSION_PLAN_SPEC)
    assert schema.problems(
        {"schema": "repro.fusion/1", "groups": 3}, FUSION_PLAN_SPEC
    )
    with pytest.raises(ConfigurationError):
        FusionPlan.loads('{"schema": "bogus/9"}')
    with pytest.raises(ConfigurationError):
        FusionOptions(mode="sideways")
    with pytest.raises(ConfigurationError):
        FusionOptions(mode="plan")  # plan mode requires a path


def test_replaying_plan_against_wrong_program_fails():
    """A plan is pinned to its pre-fusion IR fingerprint: replaying it
    against a different program is a configuration error, not a silent
    misapply."""
    plan = compile_app("gray_pipeline", AUTO).fusion_plan
    with pytest.raises(ConfigurationError):
        from repro.apps import SUITE
        from repro.ir.fusion import apply_fusion

        other = CompilerSession().compile(
            SUITE["photo_pipeline"].source, filename="<photo.lime>"
        )
        apply_fusion(other.module, plan)
