"""End-to-end resilience: every accelerated run degrades gracefully.

The acceptance property of the fault-injection PR: with a plan that
kills every GPU/FPGA call, every app still completes with output
identical to a cpu-only run, the trace records the injected faults,
retries, and bytecode demotions, and the whole fault sequence is
deterministic under a fixed seed.
"""

import pytest

from repro.apps import SUITE, compile_app
from repro.errors import RetryExhaustedError
from repro.obs import Tracer
from repro.runtime import (
    FaultPlan,
    FaultSpec,
    Runtime,
    RuntimeConfig,
    SubstitutionPolicy,
    kill_all_devices_plan,
)
from repro.runtime.health import OPEN

#: Apps whose default workload actually exercises an accelerator.
ACCELERATED = [
    "saxpy",
    "vector_sum",
    "mandelbrot",
    "bitflip",
    "gray_pipeline",
    "hybrid",
]


def run_app(name, **config_overrides):
    compiled = compile_app(name)
    entry, values = SUITE[name].default_args()
    runtime = Runtime(compiled, RuntimeConfig(**config_overrides))
    return runtime, runtime.run(entry, values)


@pytest.mark.parametrize("name", ACCELERATED)
@pytest.mark.parametrize("scheduler", ["threaded", "sequential"])
def test_kill_all_devices_matches_cpu_only(name, scheduler):
    _, reference = run_app(
        name,
        policy=SubstitutionPolicy(use_accelerators=False),
        scheduler=scheduler,
    )
    tracer = Tracer()
    runtime, degraded = run_app(
        name,
        scheduler=scheduler,
        tracer=tracer,
        fault_plan=kill_all_devices_plan(),
        max_attempts=2,
    )
    assert degraded.output == reference.output
    assert repr(degraded.value) == repr(reference.value)
    if runtime.faults.fired():
        counters = tracer.counters
        assert counters.get("fault.injected[device]") >= 1
        assert counters.get("demotion.taken") >= 1
        assert len(runtime.demotion_log) >= 1
        assert tracer.find("demotion.taken")


def test_accelerated_apps_actually_get_faults():
    # Guard for the list above: each app must hit at least one device
    # call, otherwise the degradation test is vacuous.
    for name in ACCELERATED:
        runtime, _ = run_app(
            name,
            fault_plan=kill_all_devices_plan(),
            max_attempts=1,
        )
        assert runtime.faults.fired() >= 1, name


def test_fault_sequence_deterministic_under_seed():
    def one_run():
        tracer = Tracer()
        runtime, outcome = run_app(
            "hybrid",
            tracer=tracer,
            fault_plan=FaultPlan(
                [FaultSpec(probability=0.6), FaultSpec(
                    site="marshal.to_device", error="marshaling",
                    target="gpu", probability=0.3,
                )],
                seed=1234,
            ),
            max_attempts=3,
        )
        sequence = [
            (f.spec_index, f.site, f.error, f.target, f.call_index)
            for f in runtime.faults.log
        ]
        resilience_counters = {
            k: v
            for k, v in tracer.counters.snapshot().items()
            if k.startswith(("fault.", "retry.", "demotion."))
        }
        return sequence, resilience_counters, repr(outcome.value)

    first = one_run()
    second = one_run()
    assert first == second
    assert first[0], "expected at least one injected fault"


def test_transient_fault_recovers_without_demotion():
    # A single injected failure with retries available: the device
    # should succeed on attempt 2, no demotion.
    tracer = Tracer()
    runtime, degraded = run_app(
        "mandelbrot",
        tracer=tracer,
        fault_plan=FaultPlan([FaultSpec(on_calls=(1,))]),
        max_attempts=3,
    )
    _, reference = run_app(
        "mandelbrot", policy=SubstitutionPolicy(use_accelerators=False)
    )
    assert repr(degraded.value) == repr(reference.value)
    assert runtime.faults.fired() == 1
    assert tracer.counters.get("retry.attempt") == 1
    assert tracer.counters.get("demotion.taken") == 0
    assert runtime.demotion_log == []
    # The offload was ultimately taken on the device.
    assert tracer.counters.get("offload.map.taken") == 1


def test_marshaling_fault_demotes_and_output_survives():
    tracer = Tracer()
    runtime, degraded = run_app(
        "saxpy",
        tracer=tracer,
        fault_plan=FaultPlan(
            [FaultSpec(site="marshal.from_device", error="marshaling",
                       target="gpu")]
        ),
        max_attempts=2,
    )
    _, reference = run_app(
        "saxpy", policy=SubstitutionPolicy(use_accelerators=False)
    )
    assert repr(degraded.value) == repr(reference.value)
    assert tracer.counters.get("fault.injected[marshaling]") >= 1
    assert len(runtime.demotion_log) == 1


def test_timeout_fault_demotes_immediately():
    tracer = Tracer()
    runtime, _ = run_app(
        "mandelbrot",
        tracer=tracer,
        fault_plan=FaultPlan([FaultSpec(error="timeout")]),
        max_attempts=5,
    )
    # One injection, no retries (hangs are not retried), one demotion.
    assert runtime.faults.fired() == 1
    assert tracer.counters.get("retry.attempt") == 0
    assert len(runtime.demotion_log) == 1


def test_demotion_pins_later_runs_to_bytecode():
    compiled = compile_app("mandelbrot")
    entry, values = SUITE["mandelbrot"].default_args()
    tracer = Tracer()
    runtime = Runtime(
        compiled,
        RuntimeConfig(
            tracer=tracer,
            fault_plan=FaultPlan([FaultSpec(times=2)]),
            max_attempts=2,
        ),
    )
    runtime.run(entry, values)
    assert len(runtime.demotion_log) == 1
    (breaker,) = runtime.health.breakers()
    assert breaker.state == OPEN
    # Second run: the OPEN breaker keeps the span off the device — no
    # new faults are even consulted at the device site.
    before = runtime.faults.fired()
    runtime.run(entry, values)
    assert runtime.faults.fired() == before
    assert len(runtime.demotion_log) == 1


def test_exhaustion_without_fallback_surfaces_context():
    # Stream span demoted via directive pinning is always possible
    # (bytecode filters exist), so exercise the no-fallback path
    # directly through the supervisor against a device artifact with
    # no known span filters.
    from repro.runtime.supervisor import Supervisor
    from repro.errors import DeviceError

    supervisor = Supervisor(2)
    with pytest.raises(RetryExhaustedError) as err:
        supervisor.run(
            lambda: (_ for _ in ()).throw(DeviceError("boom")),
            task_id="gpu:artifact",
            device="gpu",
        )
    assert "gpu:artifact" in str(err.value)
    assert err.value.attempts == 2
