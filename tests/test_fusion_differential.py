"""Differential conformance: fusion must be invisible except in time.

Fusion only changes *how many times the boundary is crossed* — never
what any app computes. For every app in the suite, on both schedulers,
three runs must produce bit-identical printed output and return
values: the unfused baseline (no compile-time fusion, and the
substitution policy's ``prefer_larger=False``, so every stage
substitutes on its own), ``auto`` map fusion under the default
prefer-larger policy, and a replayed ``plan``. The replayed plan must
additionally reproduce the ``auto`` run exactly — same simulated
seconds, same counters — because a saved ``repro.fusion/1`` plan is a
deterministic record of what ``auto`` decided (mirrors
``test_cache_differential.py``).

The fault half proves resilience is equally mode-blind: under a
kill-every-device plan, ``auto`` and the replayed plan demote the same
spans in the same order and still compute the cpu-only answer.
"""

import pytest

from repro.apps import SUITE, compile_app
from repro.compiler import CompileOptions
from repro.ir.fusion import FusionOptions, FusionPlan
from repro.obs import Tracer
from repro.runtime import (
    Runtime,
    RuntimeConfig,
    SubstitutionPolicy,
    kill_all_devices_plan,
)
from repro.runtime.health import OPEN
from tests.test_suite_equivalence import SMALL_ARGS, UNFUSED

AUTO = CompileOptions(fusion=FusionOptions(mode="auto"))


@pytest.fixture(scope="module")
def plan_paths(tmp_path_factory):
    """One ``auto`` compile per app, its plan saved to disk — every
    replay test reloads from these files, round-tripping the JSON."""
    root = tmp_path_factory.mktemp("plans")
    paths = {}
    for name in sorted(SUITE):
        compiled = compile_app(name, AUTO)
        path = str(root / f"{name}.plan.json")
        compiled.fusion_plan.save(path)
        paths[name] = path
    return paths


def _run(compiled, name, scheduler, policy=None, fault_plan=None):
    entry, args = SMALL_ARGS[name]()
    tracer = Tracer()
    config = RuntimeConfig(
        scheduler=scheduler,
        tracer=tracer,
        policy=policy or SubstitutionPolicy(),
        fault_plan=fault_plan,
        max_attempts=2,
    )
    runtime = Runtime(compiled, config)
    outcome = runtime.run(entry, args)
    return outcome, tracer, runtime


@pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
@pytest.mark.parametrize("name", sorted(SUITE))
def test_fusion_modes_bit_identical(name, scheduler, plan_paths):
    generic = compile_app(name)
    fused = compile_app(name, AUTO)
    replayed = compile_app(
        name,
        CompileOptions(
            fusion=FusionOptions(mode="plan", plan_path=plan_paths[name])
        ),
    )
    # The replayed compile applied exactly the groups auto planned.
    assert [g.key() for g in replayed.fusion_plan.groups] == [
        g.key() for g in fused.fusion_plan.groups
    ], name

    off, _, _ = _run(generic, name, scheduler, policy=UNFUSED)
    auto, auto_tracer, _ = _run(fused, name, scheduler)
    plan, plan_tracer, _ = _run(replayed, name, scheduler)

    # Values and output are mode-invariant, bit for bit.
    assert off.output == auto.output == plan.output, name
    assert repr(off.value) == repr(auto.value) == repr(plan.value), name

    # The replay reproduces auto exactly: simulated seconds and the
    # deterministic counter registry (fusion changes time vs off by
    # design). FIFO wait counters are wall-clock thread waits, the one
    # nondeterministic family, so they are excluded.
    assert auto.seconds == plan.seconds, name

    def deterministic(tracer):
        return {
            key: value
            for key, value in tracer.counters.snapshot().items()
            if "wait" not in key
        }

    assert deterministic(auto_tracer) == deterministic(plan_tracer), name


@pytest.mark.parametrize("name", sorted(SUITE))
def test_fault_logs_mode_invariant(name, plan_paths):
    """Under a kill-every-device plan the fused and replayed runs
    demote the same spans in the same order, and both still compute
    the cpu-only answer (graceful degradation is mode-blind)."""
    fused = compile_app(name, AUTO)
    replayed = compile_app(
        name,
        CompileOptions(
            fusion=FusionOptions(mode="plan", plan_path=plan_paths[name])
        ),
    )
    entry, args = SMALL_ARGS[name]()
    reference = Runtime(
        fused,
        RuntimeConfig(policy=SubstitutionPolicy(use_accelerators=False)),
    ).run(entry, args)

    auto, _, auto_rt = _run(
        fused, name, "sequential", fault_plan=kill_all_devices_plan()
    )
    plan, _, plan_rt = _run(
        replayed,
        name,
        "sequential",
        fault_plan=kill_all_devices_plan(),
    )

    def log(runtime):
        return [
            (t.key, t.device, t.reason)
            for t in runtime.health.transitions
            if t.to_state == OPEN
        ]

    assert log(auto_rt) == log(plan_rt), name
    assert auto.output == plan.output == reference.output, name
    assert repr(auto.value) == repr(plan.value) == repr(reference.value), name


def test_plan_file_round_trips(plan_paths):
    """The saved plan reloads to an equal plan object (schema check
    included) for every app — the replay fixture is honest JSON."""
    for name, path in plan_paths.items():
        plan = FusionPlan.load(path)
        original = compile_app(name, AUTO).fusion_plan
        assert plan.to_dict() == original.to_dict(), name
