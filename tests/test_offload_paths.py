"""Characterisation golden for the runtime's offload path.

Pins everything observable about one offload — map, reduce, GPU
filter-batch, FPGA filter-batch — under every mediation outcome the
engine has (clean, retry-recovered, retries exhausted -> demotion,
breaker OPEN -> bytecode, HALF_OPEN probe clean, HALF_OPEN probe
raising, HALF_OPEN probe mismatch) on the sequential scheduler: outcome value/stdout, modeled
seconds, every ``OffloadRecord``, per-stage busy time, the
``repro.health/1`` report, the fault log, the retry backoff, the
ordered runtime spans with their parent and attributes, and every
counter.

The file was recorded before the engine's six hand-written offload
bodies were collapsed into ``_offload`` + ``_mediated``; a diff here
means the unified path changed behaviour (a float summation order, a
span attribute, an RNG stream key). Regenerate only for an intentional
behaviour change::

    REPRO_REGEN_OFFLOAD_GOLDEN=1 PYTHONPATH=src:. \\
        python -m pytest tests/test_offload_paths.py

(same convention as ``tests/golden/fusion/`` and
``tests/golden/modeled_values.json``).
"""

import hashlib
import json
import os

import pytest

from repro.apps import SUITE, compile_app
from repro.backends.common import FPGA, GPU
from repro.obs import Tracer
from repro.runtime import (
    FaultPlan,
    FaultSpec,
    Runtime,
    RuntimeConfig,
    SubstitutionPolicy,
)
from repro.runtime.faults import fault_log_payload
from repro.values import ValueArray

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "offload_paths.json"
)
REGEN = os.environ.get("REPRO_REGEN_OFFLOAD_GOLDEN") == "1"

#: Span names whose order and attributes the golden pins.
PINNED_SPANS = ("run.substitution", "run.offload", "probe.shadow",
                "breaker.transition")
PINNED_SPAN_PREFIXES = ("retry.",)

#: (label, app, workload size, device order) — one per offload kind x
#: device, the stream apps under both device orders.
WORKLOADS = [
    ("map", "saxpy", 128, (GPU, FPGA)),
    ("reduce", "vector_sum", 128, (GPU, FPGA)),
    ("gray-gpu-first", "gray_pipeline", 96, (GPU, FPGA)),
    ("gray-fpga-first", "gray_pipeline", 96, (FPGA, GPU)),
    ("bitflip-gpu-first", "bitflip", 96, (GPU, FPGA)),
    ("bitflip-fpga-first", "bitflip", 96, (FPGA, GPU)),
]


def _device_fault(**window):
    return FaultSpec(site="device", error="device", target="*", **window)


_QUARANTINE = 2e-7

#: label -> (fault specs, retry attempts, breaker cool-down, entry calls).
#: A stream app reaches every breaker state inside one graph (one
#: decision per batch); a map/reduce makes one decision per entry call,
#: so the same runtime is driven ``calls`` times.
SCENARIOS = {
    "clean": ([], 3, None, 1),
    "retry-recovered": ([_device_fault(on_calls=(1,))], 3, None, 1),
    "exhausted": ([_device_fault(until_call=2)], 2, None, 1),
    "open": ([_device_fault(until_call=2)], 2, None, 2),
    "probe-clean": ([_device_fault(until_call=1)], 1, _QUARANTINE, 6),
    "probe-error": ([_device_fault(until_call=2)], 1, _QUARANTINE, 6),
    "probe-mismatch": (
        [
            _device_fault(until_call=1),
            FaultSpec(site="device", error="corrupt", target="*",
                      on_calls=(1,)),
        ],
        1, _QUARANTINE, 6,
    ),
}


def _plain(value):
    """A JSON form that keeps every bit: floats round-trip through
    repr, anything that is not a JSON scalar goes through repr too."""
    if isinstance(value, (ValueArray, list, tuple)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _pinned_value(value):
    """Scalars literally; arrays as a digest of their plain form (six
    entry calls of a 128-element map would otherwise be most of the
    file)."""
    plain = _plain(value)
    if not isinstance(plain, list):
        return plain
    text = json.dumps(plain, separators=(",", ":"))
    return f"sha256:{hashlib.sha256(text.encode()).hexdigest()} n={len(plain)}"


def _spans(tracer):
    pinned = [
        span for span in tracer.spans
        if span.name in PINNED_SPANS
        or span.name.startswith(PINNED_SPAN_PREFIXES)
    ]
    pinned.sort(key=lambda span: span.span_id)
    names = {span.span_id: span.name for span in tracer.spans}
    return [
        [
            span.name,
            names.get(span.parent_id),
            {k: _plain(v) for k, v in sorted(span.attributes.items())},
        ]
        for span in pinned
    ]


def _drive(app, size, config, calls):
    spec = SUITE[app]
    compiled = compile_app(app)
    tracer = Tracer()
    runtime = Runtime(compiled, config.with_overrides(tracer=tracer))
    runs = []
    for _ in range(calls):
        entry, args = spec.default_args(size)
        outcome = runtime.run(entry, args)
        ledger = outcome.ledger
        runs.append({
            "value": _pinned_value(outcome.value),
            "stdout": outcome.output,
            "total_s": ledger.total_s,
            "offloads": [record.to_dict() for record in ledger.offloads],
            "stages": [
                [stage.task_id, stage.device, stage.items, stage.busy_s]
                for run in ledger.graph_runs
                for stage in run.stages.values()
            ],
        })
    metrics = tracer.metrics.snapshot()
    health = runtime.health.to_report(
        app=app, entry=entry, scheduler="sequential"
    )
    spans = _spans(tracer)
    return {
        "runs": runs,
        "health": health,
        "faults": fault_log_payload(runtime.faults.log),
        # Summed in span order from the pinned `retry.attempt` spans.
        "backoff_s": sum(
            attrs["backoff_s"] for name, _parent, attrs in spans
            if name == "retry.attempt"
        ),
        # A demotion is the breaker failure that opened its span.
        "demotions": sum(row["failures"] for row in health["breakers"]),
        "adaptations": [
            [record.artifact_id, record.chosen, record.probe_items]
            for record in runtime.adaptation_log
        ],
        "spans": spans,
        "counters": metrics["counters"],
        "histograms": {
            name: [row["count"], row["sum"]]
            for name, row in metrics["histograms"].items()
            if name.startswith("offload.")
        },
    }


def _scenario(workload, scenario):
    _, app, size, order = next(w for w in WORKLOADS if w[0] == workload)
    specs, attempts, cooldown_s, calls = SCENARIOS[scenario]
    stream = SUITE[app].flavor == "stream"
    config = RuntimeConfig(
        scheduler="sequential",
        policy=SubstitutionPolicy(device_order=order),
        fault_plan=FaultPlan(specs, seed=7) if specs else None,
        max_attempts=attempts,
        cooldown_s=cooldown_s,
        batch_size=16,
    )
    return _drive(app, size, config, 1 if stream else calls)


def _extras():
    """Paths the kind x device x outcome grid does not reach: resident
    operands under kernel specialization (the `specialized` attribute
    and the skipped transfers) and the adaptive substitution."""
    sequential = RuntimeConfig(scheduler="sequential")
    return {
        "map/specialized": _drive(
            "nbody", 64,
            sequential.with_overrides(
                specialize_after=2,
            ),
            3,
        ),
        "gray/adaptive": _drive(
            "gray_pipeline", 256,
            sequential.with_overrides(
                policy=SubstitutionPolicy(adaptive=True),
            ),
            1,
        ),
    }


def _current():
    recorded = {
        f"{workload[0]}/{scenario}": _scenario(workload[0], scenario)
        for workload in WORKLOADS
        for scenario in SCENARIOS
    }
    recorded.update(_extras())
    return json.dumps(recorded, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def recorded():
    text = _current()
    if REGEN:
        with open(GOLDEN, "w") as fh:
            fh.write(text)
        pytest.skip(f"regenerated {GOLDEN}")
    return text


def test_offload_paths_locked(recorded):
    with open(GOLDEN) as fh:
        golden = fh.read()
    if recorded != golden:
        now, then = json.loads(recorded), json.loads(golden)
        drifted = sorted(
            key for key in set(now) | set(then)
            if now.get(key) != then.get(key)
        )
        pytest.fail(
            f"offload path drifted from {GOLDEN} in {drifted}; "
            "regenerate with REPRO_REGEN_OFFLOAD_GOLDEN=1 only if the "
            "behaviour change is intentional"
        )


class TestGoldenContent:
    """Sanity anchors inside the golden itself, so a regenerated file
    cannot silently encode a run that never reached the path it is
    named for."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN) as fh:
            return json.load(fh)

    @staticmethod
    def _names(row, name):
        return [attrs for n, _parent, attrs in row["spans"] if n == name]

    def test_every_kind_and_device_offloads(self, golden):
        seen = {
            (record["kind"], record["device"])
            for row in golden.values()
            for run in row["runs"]
            for record in run["offloads"]
        }
        assert seen == {
            ("map", GPU), ("reduce", GPU),
            ("filter-batch", GPU), ("filter-batch", FPGA),
        }

    @pytest.mark.parametrize("workload", [w[0] for w in WORKLOADS])
    def test_every_outcome_reached(self, golden, workload):
        clean = golden[f"{workload}/clean"]
        assert clean["faults"] == [] and clean["demotions"] == 0
        recovered = golden[f"{workload}/retry-recovered"]
        assert recovered["counters"]["retry.recovered"] == 1
        assert recovered["backoff_s"] > 0.0
        assert recovered["demotions"] == 0
        exhausted = golden[f"{workload}/exhausted"]
        assert exhausted["demotions"] == 1
        assert exhausted["health"]["totals"]["open"] == 1
        opened = golden[f"{workload}/open"]
        assert opened["counters"]["health.fallback"] >= 1
        clean_probe = golden[f"{workload}/probe-clean"]
        probes = self._names(clean_probe, "probe.shadow")
        assert [p["ok"] for p in probes] == [True, True]
        assert clean_probe["health"]["totals"]["repromotions"] == 1
        errored = self._names(
            golden[f"{workload}/probe-error"], "probe.shadow"
        )
        assert errored[0]["ok"] is False
        assert errored[0]["reason"] == "DeviceError"
        mismatch = golden[f"{workload}/probe-mismatch"]
        probes = self._names(mismatch, "probe.shadow")
        if workload == "reduce":
            # `corrupt` perturbs list outputs only; a reduce returns a
            # scalar, so its probes stay clean (a preserved asymmetry).
            assert [p["ok"] for p in probes] == [True, True]
            return
        assert probes[0]["ok"] is False
        assert probes[0]["reason"] == "mismatch"
        assert mismatch["health"]["totals"]["trips"] >= 2

    def test_outputs_never_depend_on_the_outcome(self, golden):
        for workload in (w[0] for w in WORKLOADS):
            reference = golden[f"{workload}/clean"]["runs"][0]
            for scenario in SCENARIOS:
                for run in golden[f"{workload}/{scenario}"]["runs"]:
                    assert run["value"] == reference["value"]
                    assert run["stdout"] == reference["stdout"]

    def test_extras_reach_their_paths(self, golden):
        specialized = golden["map/specialized"]
        assert specialized["counters"]["specialize.resident_skip"] >= 1
        flags = [
            attrs["specialized"]
            for attrs in self._names(specialized, "run.offload")
        ]
        assert flags[0] is False and flags[-1] is True
        assert golden["gray/adaptive"]["adaptations"]
