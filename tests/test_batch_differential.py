"""Differential conformance: batching must be invisible.

``RuntimeConfig.batch_size`` only changes *how many values share one
wire buffer and one modeled boundary crossing* — never what any app
computes. The differential suite pins that down three ways:

* every app in the suite produces bit-identical results under
  ``batch_size=1`` (the true per-element path) and ``batch_size=64``
  (the amortized fast path), on both schedulers;
* under the ``flaky_gpu`` fault plan the batched runs still degrade to
  exactly the cpu-only result — a fault that fires mid-batch demotes
  and replays correctly;
* the fault log itself (which spec fired, at which logical call index)
  is identical across batch sizes, because call indices count logical
  per-element transfers, not physical crossings.
"""

import os

import pytest

from repro.apps import SUITE, compile_app, workloads
from repro.obs import Tracer
from repro.runtime import (
    FaultPlan,
    FaultSpec,
    Runtime,
    RuntimeConfig,
    SubstitutionPolicy,
    load_fault_plan,
)
from tests.test_suite_equivalence import SMALL_ARGS

FLAKY_GPU = os.path.join(
    os.path.dirname(__file__), "..", "examples", "fault_plans",
    "flaky_gpu.json",
)

#: Apps whose reduced workloads exercise at least one device boundary —
#: the interesting population for a marshaling differential.
ACCELERATED = [
    "bitflip",
    "saxpy",
    "vector_sum",
    "mandelbrot",
    "gray_pipeline",
    "hybrid",
]


def _run(name, batch_size, scheduler, **overrides):
    entry, args = SMALL_ARGS[name]()
    compiled = compile_app(name)
    runtime = Runtime(
        compiled,
        RuntimeConfig(
            batch_size=batch_size, scheduler=scheduler, **overrides
        ),
    )
    result = runtime.run(entry, args)
    return runtime, result


@pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
@pytest.mark.parametrize("name", sorted(SUITE))
def test_batch_size_is_invisible(name, scheduler):
    _, per_element = _run(name, 1, scheduler)
    _, batched = _run(name, 64, scheduler)
    assert repr(per_element.value) == repr(batched.value), name
    assert per_element.output == batched.output, name


@pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
@pytest.mark.parametrize("batch_size", [1, 64])
@pytest.mark.parametrize("name", ACCELERATED)
def test_flaky_gpu_differential(name, batch_size, scheduler):
    # Reference: accelerators off, no faults.
    entry, args = SMALL_ARGS[name]()
    compiled = compile_app(name)
    reference = Runtime(
        compiled,
        RuntimeConfig(policy=SubstitutionPolicy(use_accelerators=False)),
    ).run(entry, args)
    runtime, faulty = _run(
        name,
        batch_size,
        scheduler,
        fault_plan=load_fault_plan(FLAKY_GPU),
        max_attempts=2,
        tracer=Tracer(),
    )
    # A fault that fires mid-batch must demote and replay the whole
    # span; the degraded result is still exactly the cpu-only one.
    assert repr(faulty.value) == repr(reference.value), name
    assert faulty.output == reference.output, name


def _marshal_plan():
    # Marshal-site faults only, at fixed logical call indices. The
    # ``device`` site deliberately counts physical kernel launches (a
    # retry replays the whole batch), so only the marshal sites promise
    # batch-size-invariant call indexing — that promise is what a plan
    # written against the per-element path depends on.
    return FaultPlan(
        [
            FaultSpec(
                site="marshal.from_device",
                error="marshaling",
                target="gpu",
                on_calls=(2,),
            ),
            FaultSpec(
                site="marshal.to_device",
                error="marshaling",
                target="*",
                on_calls=(3,),
                times=1,
            ),
        ],
        seed=7,
    )


#: Apps substituted as filter pipelines — the path that drains the
#: FIFO in RuntimeConfig.batch_size chunks. (saxpy/vector_sum/
#: mandelbrot offload whole arrays through the map/reduce path, whose
#: single-array crossings are batch-size-independent by construction.)
FILTER_ACCELERATED = ["bitflip", "gray_pipeline", "hybrid"]


@pytest.mark.parametrize("name", FILTER_ACCELERATED)
def test_marshal_fault_log_identical_across_batch_sizes(name):
    # Each spec's fault history — concrete target plus 1-based
    # *logical* call index, in firing order — must be identical whether
    # values cross one at a time or 64 at a time. (Only the inter-site
    # interleaving may differ: a batched crossing completes all of its
    # to-device logical calls before the first from-device one, where
    # the per-element path alternates.) This is the regression fence
    # for examples/fault_plans/: marshal faults keep firing at the same
    # logical points under batching.
    logs = {}
    for batch_size in (1, 64):
        runtime, _ = _run(
            name,
            batch_size,
            "sequential",
            fault_plan=_marshal_plan(),
            max_attempts=2,
        )
        per_spec = {}
        for f in runtime.faults.log:
            per_spec.setdefault(f.spec_index, []).append(
                (f.site, f.target, f.call_index)
            )
        logs[batch_size] = per_spec
    assert logs[1] == logs[64], name
    assert logs[1], f"plan never fired for {name}; test is vacuous"
