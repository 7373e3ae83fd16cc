"""Kernel specialization through a persistent artifact cache.

Two runtimes over one compiled program whose options name a readwrite
cache directory. The first sees the same broadcast operands for
``observe_batches`` calls, specializes the map kernel and stores the
variant under backend id ``specialize``; the second observes the same
operands and warm-loads that variant instead. The figures below pin
the path end to end: a diff here means specialization changed what it
keys, stores, charges to the simulated clock or traces.
"""

import hashlib
import json

import pytest

from repro.apps import SUITE
from repro.backends.artifacts import ArtifactCache, CacheOptions
from repro.compiler import CompileOptions, CompilerSession
from repro.obs.tracer import Tracer
from repro.runtime import Runtime, RuntimeConfig

APP = "nbody"
SIZE = 64
CALLS = 3
GENERIC = "gpu:map:NBody.potential"
GUARD12 = "c58b219bd99a"
SPEC_KEY = "bd5cce993c8048e07903056ef26e92187410c423eab7f95474496ff2f58e7e52"

#: Per-call ledger seconds: observe, observe + specialize, hit. Only
#: the middle call differs between the runtimes — it is charged the
#: modeled compile of the variant on a miss and its load on a hit.
COLD_TOTALS = [8.540344948186531e-05, 0.012355948449481865,
               3.394844948186529e-05]
WARM_TOTALS = [8.540344948186531e-05, 0.00043986411614853197,
               3.394844948186529e-05]
COLD_HOST_CYCLES = [27, 36966027, 27]
WARM_HOST_CYCLES = [27, 1217774, 27]


def _drive(compiled):
    tracer = Tracer()
    config = RuntimeConfig(
        scheduler="sequential",
        tracer=tracer,
        specialize_after=2,
    )
    runtime = Runtime(compiled, config)
    outcomes = []
    for _ in range(CALLS):
        entry, args = SUITE[APP].default_args(SIZE)
        outcomes.append(runtime.run(entry, args))
    return runtime, tracer, outcomes


def _entries(cache):
    """backend id -> keys, over every manifest in the cache."""
    found: dict = {}
    for entry in cache.stats()["entries"]:
        found.setdefault(entry["backend"], []).append(entry["key"])
    return found


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("spec_cache"))
    compile_tracer = Tracer()
    options = CompileOptions(
        tracer=compile_tracer,
        cache=CacheOptions(cache_dir=cache_dir, mode="readwrite"),
    )
    compiled = CompilerSession(options).compile(SUITE[APP].source)
    cache = ArtifactCache(options.cache)
    cold = _drive(compiled)
    after_cold = _entries(cache)
    warm = _drive(compiled)
    after_warm = _entries(cache)
    return {
        "cache": cache,
        "compile_tracer": compile_tracer,
        "cold": cold,
        "warm": warm,
        "after_cold": after_cold,
        "after_warm": after_warm,
    }


def test_first_runtime_compiles_second_warm_loads(runs):
    (cold_rt, cold_tracer, _), (warm_rt, warm_tracer, _) = (
        runs["cold"], runs["warm"]
    )
    assert cold_rt.specializer.log == [
        (GENERIC, event, GUARD12)
        for event in ("observe", "observe", "compile", "hit")
    ]
    assert warm_rt.specializer.log == [
        (GENERIC, event, GUARD12)
        for event in ("observe", "observe", "warm", "hit")
    ]
    assert cold_tracer.counters.get("specialize.compile") == 1
    assert cold_tracer.counters.get("specialize.warm") == 0
    assert warm_tracer.counters.get("specialize.warm") == 1
    assert warm_tracer.counters.get("specialize.compile") == 0
    for tracer in (cold_tracer, warm_tracer):
        assert tracer.counters.get("specialize.resident_skip") == 8


def test_outputs_match_and_ledgers_differ_only_by_the_charge(runs):
    cold = runs["cold"][2]
    warm = runs["warm"][2]
    assert [o.value for o in cold] == [o.value for o in warm]
    assert [o.output for o in cold] == [o.output for o in warm]
    assert [o.ledger.total_s for o in cold] == COLD_TOTALS
    assert [o.ledger.total_s for o in warm] == WARM_TOTALS
    assert [o.ledger.host_cycles for o in cold] == COLD_HOST_CYCLES
    assert [o.ledger.host_cycles for o in warm] == WARM_HOST_CYCLES


def test_cache_holds_one_specialize_entry_under_its_key(runs):
    cache = runs["cache"]
    assert runs["after_cold"]["specialize"] == [SPEC_KEY]
    # The warm runtime only read: the cache holds the same entries.
    assert runs["after_warm"] == runs["after_cold"]
    entry = cache.load("specialize", SPEC_KEY)
    (variant,) = entry.artifacts
    guard = variant.manifest.properties["guard"]
    material = json.dumps(
        {
            "schema": "repro.specialize/1",
            "artifact": GENERIC,
            "guard": guard,
            "device_family": cache.options.device_family,
        },
        sort_keys=True,
    )
    assert hashlib.sha256(material.encode("utf-8")).hexdigest() == SPEC_KEY
    assert guard[:12] == GUARD12
    assert variant.artifact_id == f"{GENERIC}@spec:{GUARD12}"
    assert variant.manifest.properties["specialized"] is True
    assert variant.manifest.properties["generic"] == GENERIC
    assert entry.modeled_compile_s == 0.012322
    generic = cache.load("opencl", runs["after_cold"]["opencl"][0])
    (kernel,) = generic.artifacts
    assert variant.text == kernel.text
    assert variant.manifest.device == kernel.manifest.device
    assert variant.manifest.task_ids == kernel.manifest.task_ids


def test_compile_span_lands_on_the_compile_tracer_once(runs):
    spans = [
        span for span in runs["compile_tracer"].spans
        if span.name == "compile.specialize"
    ]
    assert len(spans) == 1
    assert spans[0].attributes == {
        "artifact": GENERIC,
        "guard": GUARD12,
        "artifact_id": f"{GENERIC}@spec:{GUARD12}",
    }
    for _, tracer, _ in (runs["cold"], runs["warm"]):
        assert not [
            span for span in tracer.spans
            if span.name == "compile.specialize"
        ]
