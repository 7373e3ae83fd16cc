"""Unit tests for the substitution planner and the pipeline graph."""

import pytest

from repro.backends.common import (
    Artifact,
    ArtifactStore,
    BYTECODE,
    FPGA,
    GPU,
    Manifest,
)
from repro.errors import RuntimeGraphError
from repro.runtime.graph import Pipeline
from repro.runtime.substitution import (
    SubstitutionPolicy,
    apply_substitutions,
    plan_substitutions,
)
from repro.runtime.tasks import DeviceTask, FilterTask, SinkTask, SourceTask
from repro.values import KIND_INT, MutableArray, ValueArray


def make_pipeline(n_filters=3):
    source = SourceTask(ValueArray(KIND_INT, [1, 2, 3]), 1, "t:src")
    filters = [
        FilterTask(f"C.f{i}", 1, f"t:f{i}") for i in range(n_filters)
    ]
    sink = SinkTask(MutableArray.allocate(KIND_INT, 3), "t:sink")
    return Pipeline([source] + filters + [sink])


def artifact(device, task_ids, artifact_id=None):
    return Artifact(
        manifest=Manifest(
            artifact_id=artifact_id or f"{device}:{'+'.join(task_ids)}",
            device=device,
            task_ids=list(task_ids),
        ),
        payload=None,
    )


class TestArtifactStore:
    def test_spans_finds_contiguous(self):
        store = ArtifactStore()
        store.add(artifact(GPU, ["t:f0", "t:f1"]))
        spans = store.spans(
            ["t:src", "t:f0", "t:f1", "t:f2", "t:sink"], GPU
        )
        assert spans == [(1, store.all()[0])]

    def test_spans_rejects_noncontiguous(self):
        store = ArtifactStore()
        store.add(artifact(GPU, ["t:f0", "t:f2"]))  # not adjacent
        spans = store.spans(
            ["t:src", "t:f0", "t:f1", "t:f2", "t:sink"], GPU
        )
        assert spans == []

    def test_lookup(self):
        store = ArtifactStore()
        a = artifact(GPU, ["t:f0"])
        store.add(a)
        assert store.lookup(a.artifact_id) is a
        assert store.lookup("nope") is None

    def test_for_task(self):
        store = ArtifactStore()
        a = artifact(GPU, ["t:f0"])
        b = artifact(FPGA, ["t:f0"])
        store.add(a)
        store.add(b)
        assert set(
            x.device for x in store.for_task("t:f0")
        ) == {GPU, FPGA}


class TestPlanner:
    def test_prefers_larger(self):
        store = ArtifactStore()
        store.add(artifact(GPU, ["t:f0"]))
        store.add(artifact(GPU, ["t:f1"]))
        store.add(artifact(GPU, ["t:f0", "t:f1"]))
        decisions = plan_substitutions(
            make_pipeline(2), store, SubstitutionPolicy()
        )
        assert len(decisions) == 1
        assert decisions[0].covered_task_ids == ["t:f0", "t:f1"]

    def test_prefer_smaller_ablation(self):
        store = ArtifactStore()
        store.add(artifact(GPU, ["t:f0"]))
        store.add(artifact(GPU, ["t:f1"]))
        store.add(artifact(GPU, ["t:f0", "t:f1"]))
        decisions = plan_substitutions(
            make_pipeline(2), store, SubstitutionPolicy(prefer_larger=False)
        )
        assert [d.covered_task_ids for d in decisions] == [
            ["t:f0"],
            ["t:f1"],
        ]

    def test_device_order_breaks_ties(self):
        store = ArtifactStore()
        store.add(artifact(GPU, ["t:f0"]))
        store.add(artifact(FPGA, ["t:f0"]))
        gpu_first = plan_substitutions(
            make_pipeline(1), store, SubstitutionPolicy(device_order=(GPU, FPGA))
        )
        fpga_first = plan_substitutions(
            make_pipeline(1), store, SubstitutionPolicy(device_order=(FPGA, GPU))
        )
        assert gpu_first[0].device == GPU
        assert fpga_first[0].device == FPGA

    def test_non_overlapping_greedy(self):
        store = ArtifactStore()
        store.add(artifact(GPU, ["t:f0", "t:f1"]))
        store.add(artifact(GPU, ["t:f1", "t:f2"]))
        decisions = plan_substitutions(
            make_pipeline(3), store, SubstitutionPolicy()
        )
        # One span wins; the overlapping one is dropped; f2 (or f0)
        # stays on bytecode unless a 1-wide artifact exists.
        assert len(decisions) == 1

    def test_directive_pins_to_bytecode(self):
        store = ArtifactStore()
        store.add(artifact(GPU, ["t:f0"]))
        policy = SubstitutionPolicy(directives={"t:f0": BYTECODE})
        assert plan_substitutions(make_pipeline(1), store, policy) == []

    def test_directive_restricts_device(self):
        store = ArtifactStore()
        store.add(artifact(GPU, ["t:f0"]))
        store.add(artifact(FPGA, ["t:f0"]))
        policy = SubstitutionPolicy(directives={"t:f0": FPGA})
        decisions = plan_substitutions(make_pipeline(1), store, policy)
        assert decisions[0].device == FPGA

    def test_directive_blocks_covering_span(self):
        store = ArtifactStore()
        store.add(artifact(GPU, ["t:f0", "t:f1"]))
        policy = SubstitutionPolicy(directives={"t:f1": BYTECODE})
        assert plan_substitutions(make_pipeline(2), store, policy) == []

    def test_accelerators_disabled(self):
        store = ArtifactStore()
        store.add(artifact(GPU, ["t:f0"]))
        policy = SubstitutionPolicy(use_accelerators=False)
        assert plan_substitutions(make_pipeline(1), store, policy) == []

    def test_communication_aware_estimator(self):
        store = ArtifactStore()
        store.add(artifact(GPU, ["t:f0"]))
        policy = SubstitutionPolicy(communication_aware=True)
        reject = plan_substitutions(
            make_pipeline(1),
            store,
            policy,
            cost_estimator=lambda a, ids: (1.0, 0.001),  # transfer >> cpu
        )
        accept = plan_substitutions(
            make_pipeline(1),
            store,
            policy,
            cost_estimator=lambda a, ids: (0.001, 1.0),
        )
        assert reject == []
        assert len(accept) == 1


class TestPolicyValidation:
    def test_unknown_directive_device_rejected_eagerly(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError) as err:
            SubstitutionPolicy(directives={"t:f0": "gup"})
        assert "gup" in str(err.value)
        assert "t:f0" in str(err.value)

    def test_known_directive_devices_accepted(self):
        policy = SubstitutionPolicy(
            directives={"t:f0": BYTECODE, "t:f1": GPU, "t:f2": FPGA}
        )
        assert policy.directives["t:f1"] == GPU


class TestApplySubstitutions:
    def test_rebuilds_pipeline(self):
        store = ArtifactStore()
        fused = artifact(GPU, ["t:f0", "t:f1"])
        store.add(fused)
        pipeline = make_pipeline(2)
        decisions = plan_substitutions(pipeline, store, SubstitutionPolicy())
        spans = []

        def task_for(decision, artifact, span_tasks):
            spans.append((artifact, [t.task_id for t in span_tasks]))
            return DeviceTask(
                decision.artifact_id, decision.device,
                decision.covered_task_ids, lambda items: (items, 0.0),
            )

        new = apply_substitutions(pipeline, decisions, store, task_for)
        assert spans == [(fused, ["t:f0", "t:f1"])]
        kinds = [t.kind for t in new.tasks]
        assert kinds == ["source", "device", "sink"]
        assert new.tasks[1].covered_task_ids == ["t:f0", "t:f1"]

    def test_no_decisions_keeps_pipeline(self):
        pipeline = make_pipeline(1)
        assert (
            apply_substitutions(pipeline, [], ArtifactStore(), None)
            is pipeline
        )


class TestPipeline:
    def test_connect_rejects_after_sink(self):
        sink = SinkTask(MutableArray.allocate(KIND_INT, 1))
        other = FilterTask("C.f", 1)
        with pytest.raises(RuntimeGraphError):
            Pipeline.connect(sink, other)

    def test_connect_rejects_into_source(self):
        source = SourceTask(ValueArray(KIND_INT, [1]), 1)
        other = FilterTask("C.f", 1)
        with pytest.raises(RuntimeGraphError):
            Pipeline.connect(other, source)

    def test_validate_requires_closed(self):
        pipeline = Pipeline([FilterTask("C.f", 1)])
        with pytest.raises(RuntimeGraphError):
            pipeline.validate()

    def test_wire_creates_connections(self):
        pipeline = make_pipeline(2)
        pipeline.wire(capacity=8)
        assert pipeline.tasks[0].output_conn is pipeline.tasks[1].input_conn
        assert pipeline.tasks[0].output_conn.capacity == 8

    def test_describe(self):
        pipeline = make_pipeline(1)
        assert pipeline.describe() == "source(1) => f0 => sink"
