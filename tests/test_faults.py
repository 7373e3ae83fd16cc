"""Unit tests for the deterministic fault-injection harness."""

import json

import pytest

from repro.errors import (
    ConfigurationError,
    DeviceError,
    DeviceTimeoutError,
    MarshalingError,
)
from repro.obs import Tracer
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    NULL_INJECTOR,
    kill_all_devices_plan,
    load_fault_plan,
)


class TestFaultSpec:
    def test_defaults_valid(self):
        spec = FaultSpec()
        assert spec.site == "device"
        assert spec.error == "device"
        assert spec.target == "*"

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(site="kernel")

    def test_unknown_error_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(error="explosion")

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(probability=-0.1)

    def test_times_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(times=0)

    def test_on_calls_one_based(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(on_calls=(0,))

    def test_matching_is_fnmatch_over_any_target(self):
        spec = FaultSpec(target="gpu:*")
        assert spec.matches("device", ["gpu:Saxpy.axpy", "t:f0"])
        assert not spec.matches("device", ["fpga:Bitflip.flip"])
        assert not spec.matches("marshal.to_device", ["gpu:Saxpy.axpy"])


class TestFaultPlan:
    def test_round_trip_through_dict(self):
        plan = FaultPlan(
            [
                FaultSpec(site="device", error="timeout", target="t:*",
                          on_calls=(1, 3), times=2),
                FaultSpec(site="marshal.to_device", error="marshaling",
                          target="gpu", probability=0.25),
            ],
            seed=99,
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.seed == 99
        assert clone.specs == plan.specs

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 3,
            "faults": [
                {"site": "device", "error": "device", "target": "*",
                 "comment": "comments are ignored"},
            ],
        }))
        plan = load_fault_plan(str(path))
        assert plan.seed == 3
        assert len(plan) == 1

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError):
            load_fault_plan(str(path))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict(
                {"faults": [{"site": "device", "sit": "device"}]}
            )

    def test_kill_all_plan(self):
        plan = kill_all_devices_plan(seed=5)
        assert plan.seed == 5
        injector = FaultInjector(plan)
        with pytest.raises(DeviceError):
            injector.check("device", ["anything"])


class TestFaultInjector:
    def test_fires_mapped_error_classes(self):
        for error, exc_type in [
            ("device", DeviceError),
            ("marshaling", MarshalingError),
            ("timeout", DeviceTimeoutError),
        ]:
            injector = FaultInjector(
                FaultPlan([FaultSpec(error=error)])
            )
            with pytest.raises(exc_type):
                injector.check("device", ["t:x"])

    def test_timeout_carries_context(self):
        injector = FaultInjector(
            FaultPlan([FaultSpec(error="timeout")])
        )
        with pytest.raises(DeviceTimeoutError) as err:
            injector.check("device", ["t:x"], device="gpu", task_id="t:x")
        assert err.value.task_id == "t:x"
        assert err.value.device == "gpu"

    def test_on_calls_selects_call_indices(self):
        injector = FaultInjector(
            FaultPlan([FaultSpec(on_calls=(2,))])
        )
        injector.check("device", ["t:x"])  # call 1: no fire
        with pytest.raises(DeviceError):
            injector.check("device", ["t:x"])  # call 2: fires
        injector.check("device", ["t:x"])  # call 3: no fire
        assert [f.call_index for f in injector.log] == [2]

    def test_times_caps_fires(self):
        injector = FaultInjector(FaultPlan([FaultSpec(times=2)]))
        for _ in range(2):
            with pytest.raises(DeviceError):
                injector.check("device", ["t:x"])
        injector.check("device", ["t:x"])  # cap reached: passes through
        assert injector.fired() == 2

    def test_unmatched_target_never_counts(self):
        injector = FaultInjector(
            FaultPlan([FaultSpec(target="t:other", on_calls=(1,))])
        )
        injector.check("device", ["t:x"])
        with pytest.raises(DeviceError):
            injector.check("device", ["t:other"])  # its own call #1

    def test_probability_deterministic_under_seed(self):
        def fire_pattern(seed):
            injector = FaultInjector(
                FaultPlan([FaultSpec(probability=0.5)], seed=seed)
            )
            pattern = []
            for _ in range(64):
                try:
                    injector.check("device", ["t:x"])
                    pattern.append(0)
                except DeviceError:
                    pattern.append(1)
            return pattern

        first = fire_pattern(seed=10)
        assert first == fire_pattern(seed=10)
        assert 0 < sum(first) < 64  # actually probabilistic
        assert first != fire_pattern(seed=11)

    def test_specs_have_independent_rngs(self):
        # Interleaving calls to a second spec must not perturb the
        # first spec's fire pattern.
        spec = FaultSpec(probability=0.5, target="t:a")
        other = FaultSpec(probability=0.5, target="t:b")

        def pattern(plan, targets):
            injector = FaultInjector(plan)
            out = []
            for target in targets:
                try:
                    injector.check("device", [target])
                    out.append((target, 0))
                except DeviceError:
                    out.append((target, 1))
            return [v for t, v in out if t == "t:a"]

        alone = pattern(FaultPlan([spec], seed=4), ["t:a"] * 16)
        interleaved = pattern(
            FaultPlan([spec, other], seed=4), ["t:a", "t:b"] * 16
        )
        assert alone == interleaved

    def test_counters_and_log_record_injections(self):
        tracer = Tracer()
        injector = FaultInjector(
            FaultPlan([FaultSpec(times=3)]), tracer=tracer
        )
        for _ in range(3):
            with pytest.raises(DeviceError):
                injector.check("device", ["t:x"])
        assert tracer.counters.get("fault.injected[device]") == 3
        assert len(tracer.find("fault.injected")) == 3
        assert [f.target for f in injector.log] == ["t:x"] * 3

    def test_null_injector_is_inert(self):
        NULL_INJECTOR.check("device", ["t:x"])
        assert NULL_INJECTOR.fired() == 0


class TestBatchedCallIndices:
    """``check(count=N)`` keeps call indices element-accurate.

    A batched boundary crossing of N values is ONE physical call but N
    *logical* transfers; the injector must count it as N so fault plans
    written against the per-element path fire at the same logical
    points under any batch size (the differential suite's contract)."""

    def test_count_n_equals_n_scalar_checks(self):
        plan = lambda: FaultPlan([FaultSpec(on_calls=(4,), times=1)])
        batched = FaultInjector(plan())
        with pytest.raises(DeviceError):
            batched.check("device", ["t:x"], count=10)
        scalar = FaultInjector(plan())
        for _ in range(3):
            scalar.check("device", ["t:x"])
        with pytest.raises(DeviceError):
            scalar.check("device", ["t:x"])
        assert [f.call_index for f in batched.log] == [4]
        assert [(f.spec_index, f.site, f.target, f.call_index)
                for f in batched.log] == [
            (f.spec_index, f.site, f.target, f.call_index)
            for f in scalar.log
        ]

    def test_fire_leaves_counter_at_firing_index(self):
        # on_calls (2, 5): the first batch of 3 fires at logical call
        # 2 and leaves calls 3.. unconsumed; the next batch resumes at
        # 3 and fires at 5 — exactly the scalar path's bookkeeping.
        injector = FaultInjector(FaultPlan([FaultSpec(on_calls=(2, 5))]))
        with pytest.raises(DeviceError):
            injector.check("device", ["t:x"], count=3)
        with pytest.raises(DeviceError):
            injector.check("device", ["t:x"], count=3)
        injector.check("device", ["t:x"], count=3)  # calls 6-8
        assert [f.call_index for f in injector.log] == [2, 5]

    @pytest.mark.parametrize("chunk", [1, 7, 8, 64])
    def test_probabilistic_fire_points_invariant_under_chunking(self, chunk):
        # Drive 64 logical calls through the injector in ``chunk``-size
        # batches, resuming after each fire (as the runtime's retry
        # does); the logical indices that fire must match the scalar
        # path's exactly — the RNG draw sequence is per logical call,
        # not per physical crossing.
        def fire_points(step):
            injector = FaultInjector(
                FaultPlan([FaultSpec(probability=0.5)], seed=12)
            )
            fired, consumed = [], 0
            while consumed < 64:
                take = min(step, 64 - consumed)
                try:
                    injector.check("device", ["t:x"], count=take)
                    consumed += take
                except DeviceError:
                    consumed = injector.log[-1].call_index
                    fired.append(consumed)
            return fired

        scalar = fire_points(1)
        assert 0 < len(scalar) < 64  # actually probabilistic
        assert fire_points(chunk) == scalar

    def test_count_zero_is_a_no_op(self):
        injector = FaultInjector(FaultPlan([FaultSpec(on_calls=(1,))]))
        injector.check("device", ["t:x"], count=0)
        assert injector.fired() == 0
        with pytest.raises(DeviceError):
            injector.check("device", ["t:x"])

    def test_null_injector_accepts_count(self):
        NULL_INJECTOR.check("device", ["t:x"], count=128)
        assert NULL_INJECTOR.fired() == 0
