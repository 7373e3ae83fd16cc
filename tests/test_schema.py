"""repro.schema: one walker for every document the program writes or
reads. No value makes it raise, and every node of a valid document
that the spec types is checked: giving it a value of another type
makes the document invalid."""

import glob
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import schema
from repro.apps import SUITE, compile_app
from repro.compiler import CompileOptions, compile_program
from repro.ir.fusion import FUSION_PLAN_SPEC, FusionOptions
from repro.obs import Tracer
from repro.obs.export import TRACE_SPEC, to_chrome_trace
from repro.obs.profile import PROFILE_SPEC, build_profile
from repro.runtime import (
    FAULT_PLAN_SPEC,
    HEALTH_SPEC,
    HealthRegistry,
    Runtime,
    RuntimeConfig,
)
from repro.service import (
    RECOVER_SPEC,
    SERVICE_SPEC,
    run_recovery_driver,
    run_service_driver,
)

SPECS = {
    "trace": TRACE_SPEC,
    "profile": PROFILE_SPEC,
    "health": HEALTH_SPEC,
    "service": SERVICE_SPEC,
    "recover": RECOVER_SPEC,
    "fusion": FUSION_PLAN_SPEC,
    "fault plan": FAULT_PLAN_SPEC,
}

PLANS = os.path.join(
    os.path.dirname(__file__), "..", "examples", "fault_plans", "*.json"
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=20,
)


def _documents(tmp_path):
    """Valid documents of every kind, as the program writes them."""
    docs = []
    tracer = Tracer()
    compiled = compile_program(
        SUITE["bitflip"].source, options=CompileOptions(tracer=tracer)
    )
    entry, args = SUITE["bitflip"].default_args()
    outcome = Runtime(
        compiled, RuntimeConfig(scheduler="threaded", tracer=tracer)
    ).run(entry, args)
    docs.append(("trace", to_chrome_trace(tracer)))
    docs.append(("profile", build_profile(
        tracer, ledger=outcome.ledger, app="bitflip", entry=entry,
        scheduler="threaded",
    ).to_json()))
    registry = HealthRegistry(cooldown_s=1e-6)
    registry.on_failure("gpu", "a", 0.0, covered_task_ids=["t:f0"])
    registry.on_failure("gpu", "a", 1.0, covered_task_ids=["t:f0"])
    docs.append(("health", registry.to_report(app="x", entry="X.main")))
    docs.append(("service", run_service_driver(
        tenants=2, jobs_per_tenant=1, scheduler="sequential"
    )))
    docs.append(("recover", run_recovery_driver(
        str(tmp_path / "journal"), jobs=2, crash_call=2,
    )))
    plan = compile_app(
        "photo_pipeline", CompileOptions(fusion=FusionOptions(mode="auto"))
    ).fusion_plan
    docs.append(("fusion", plan.to_dict()))
    for path in sorted(glob.glob(PLANS)):
        with open(path) as handle:
            docs.append(("fault plan", json.load(handle)))
    # JSON text is what a reader gets: tuples become lists.
    return [(kind, json.loads(json.dumps(doc))) for kind, doc in docs]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """``{kind: [(document, its typed nodes), ...]}``, every document
    valid."""
    docs: dict = {}
    for kind, doc in _documents(tmp_path_factory.mktemp("schema")):
        assert schema.problems(doc, SPECS[kind]) == [], kind
        nodes = list(_typed_nodes(doc, SPECS[kind]))
        docs.setdefault(kind, []).append((doc, nodes))
    return docs


def _typed_nodes(value, spec, path=()):
    """Every (path, spec) under ``value`` whose spec names a type."""
    if "type" in spec:
        yield path, spec
    if spec.get("type") == "object" and isinstance(value, dict):
        fields = {**spec.get("required", {}), **spec.get("optional", {})}
        for key, sub in fields.items():
            if key in value:
                yield from _typed_nodes(value[key], sub, path + (key,))
    elif spec.get("type") == "list" and isinstance(value, list):
        for index, item in enumerate(value):
            yield from _typed_nodes(
                item, spec.get("items", schema.ANY), path + (index,)
            )


def _is(value, kind) -> bool:
    if kind == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, {
        "object": dict, "list": list, "string": str, "bool": bool,
    }[kind])


def _replaced(doc, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    node = copy
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return copy


@pytest.mark.parametrize("kind", sorted(SPECS))
@settings(max_examples=80, deadline=None)
@given(value=json_values)
def test_no_json_value_makes_a_checker_raise(kind, value):
    assert isinstance(schema.problems(value, SPECS[kind]), list)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_typed_node_of_the_wrong_type_is_a_problem(documents, data):
    kind = data.draw(st.sampled_from(sorted(SPECS)))
    doc, nodes = data.draw(st.sampled_from(documents[kind]))
    path, node = data.draw(st.sampled_from(nodes))
    wrong = data.draw(json_values.filter(
        lambda v: not _is(v, node["type"])
        and not (v is None and node.get("nullable"))
    ))
    found = schema.problems(_replaced(doc, path, wrong), SPECS[kind])
    assert isinstance(found, list)
    assert found, (kind, path, wrong)


def test_every_spec_types_its_documents_nested_rows(documents):
    """The mutation test above reaches below the top level of every
    kind of document."""
    for kind, docs in documents.items():
        for _, nodes in docs:
            assert max(len(path) for path, _ in nodes) >= 2, kind


@pytest.mark.parametrize("kind, path, value, problem", [
    ("profile", ("stages", 0), 3, "stages[0]: expected object, got number"),
    ("profile", ("critical_path", "segments", 0), 3,
     "critical_path.segments[0]: expected object, got number"),
    ("health", ("breakers", 0, "transitions"), 3,
     "breakers[0].transitions: expected list, got number"),
    ("service", ("tenants",), 3, "tenants: expected list, got number"),
    ("fusion", ("rejected",), 3, "rejected: expected list, got number"),
    ("fault plan", ("faults", 0), "x", "faults[0]: expected object, got string"),
    ("fault plan", ("faults", 0, "probability"), "x",
     "faults[0].probability: expected number, got string"),
])
def test_problems_are_located_by_json_path(
    documents, kind, path, value, problem
):
    doc = _replaced(documents[kind][0][0], path, value)
    assert problem in schema.problems(doc, SPECS[kind])
