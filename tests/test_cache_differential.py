"""Differential conformance: warm starts must be invisible.

The artifact cache only changes *where backend artifacts come from*
(disk instead of codegen) — never what any app computes or how long
the modeled execution takes. For every app in the suite, on both
schedulers, a warm-started compile must produce bit-identical results
to the cold compile it was harvested from: same printed output, same
return value, same simulated seconds.

The same sweep runs again with the frontend made to raise, which
proves the program index answered the warm compiles; an indexed
result's lazily built module canonicalizes like the cold one.

The corruption half proves the failure path is equally invisible: a
truncated payload or a flipped manifest hash downgrades to an honest
miss (counted as ``cache.corrupt``), recompiles, repopulates the
entry, and still produces the cold result.
"""

import json
import os

import pytest

import repro.compiler
from repro.apps import SUITE
from repro.backends.artifacts import ArtifactCache, CacheOptions, cache_key
from repro.compiler import CompileOptions, CompilerSession
from repro.ir.fingerprint import ir_fingerprint
from repro.obs import Tracer
from repro.runtime import Runtime, RuntimeConfig
from tests.test_suite_equivalence import SMALL_ARGS


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One harvested cache shared by the whole differential sweep —
    populated cold, then every warm test reads from it."""
    root = str(tmp_path_factory.mktemp("diff-cache"))
    options = CompileOptions(
        cache=CacheOptions(cache_dir=root, mode="readwrite")
    )
    session = CompilerSession(options)
    for name in sorted(SUITE):
        session.compile(SUITE[name].source, filename=f"<{name}.lime>")
    return root


def _options(cache_dir, mode="readwrite"):
    return CompileOptions(
        cache=CacheOptions(cache_dir=cache_dir, mode=mode)
    )


def _execute(compiled, name, scheduler):
    entry, args = SMALL_ARGS[name]()
    runtime = Runtime(compiled, RuntimeConfig(scheduler=scheduler))
    outcome = runtime.run(entry, args)
    return (
        outcome.output,
        repr(outcome.value),
        outcome.ledger.summary()["total_s"],
    )


@pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
@pytest.mark.parametrize("name", sorted(SUITE))
def test_warm_start_is_invisible(name, scheduler, cache_dir):
    source = SUITE[name].source
    cold = CompilerSession().compile(source, filename=f"<{name}.lime>")
    warm = CompilerSession(_options(cache_dir, mode="read")).compile(
        source, filename=f"<{name}.lime>"
    )
    _assert_invisible(name, scheduler, cold, warm)


@pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
@pytest.mark.parametrize("name", sorted(SUITE))
def test_warm_start_is_served_by_the_index(name, scheduler, cache_dir,
                                            monkeypatch):
    """The same differential with the frontend made to raise: the warm
    compile, and the runs of its result, never reach it."""
    source = SUITE[name].source
    cold = CompilerSession().compile(source, filename=f"<{name}.lime>")

    def analyze(*args, **kwargs):
        raise AssertionError("the program index should have served this")

    monkeypatch.setattr(repro.compiler, "analyze", analyze)
    warm = CompilerSession(_options(cache_dir, mode="read")).compile(
        source, filename=f"<{name}.lime>"
    )
    _assert_invisible(name, scheduler, cold, warm)


def test_lazy_module_matches_the_cold_module(cache_dir):
    for name in sorted(SUITE):
        source = SUITE[name].source
        cold = CompilerSession().compile(source, filename=f"<{name}.lime>")
        warm = CompilerSession(_options(cache_dir, mode="read")).compile(
            source, filename=f"<{name}.lime>"
        )
        assert warm._module is None, f"{name} was not served by the index"
        assert ir_fingerprint(warm.module) == ir_fingerprint(cold.module)
        assert [g.graph_id for g in warm.task_graphs] == [
            g.graph_id for g in cold.task_graphs
        ], name


def _assert_invisible(name, scheduler, cold, warm):
    assert warm.warm, f"{name} did not warm-start from the harvest"
    assert warm.store.provenance == "warm"
    # Same artifacts, bit for bit (ids, devices, generated source).
    assert [
        (a.artifact_id, a.manifest.device, a.text)
        for a in warm.store.all()
    ] == [
        (a.artifact_id, a.manifest.device, a.text)
        for a in cold.store.all()
    ], name
    # Same exclusions (the warm store must reconstruct them too).
    assert [
        (e.device, e.task_id, e.reason) for e in warm.store.exclusions
    ] == [
        (e.device, e.task_id, e.reason) for e in cold.store.exclusions
    ], name
    # Same execution: output, value, and simulated seconds.
    assert _execute(warm, name, scheduler) == _execute(
        cold, name, scheduler
    ), name


CORRUPTIBLE = ["bitflip", "gray_pipeline"]


def _harvested(tmp_path, name):
    options = _options(str(tmp_path / "cache"))
    CompilerSession(options).compile(SUITE[name].source)
    cache = ArtifactCache(options.cache)
    result = CompilerSession().compile(SUITE[name].source)
    key = cache_key(result.module, "opencl", options)
    return options, cache, key


@pytest.mark.parametrize("name", CORRUPTIBLE)
def test_truncated_payload_recompiles(tmp_path, name):
    options, cache, key = _harvested(tmp_path, name)
    payload = os.path.join(cache.root, "objects", key, "payload.0.pkl")
    with open(payload, "r+b") as f:
        f.truncate(max(os.path.getsize(payload) // 2, 1))

    tracer = Tracer()
    recovered = CompilerSession(options.replace(tracer=tracer)).compile(
        SUITE[name].source
    )
    assert recovered.cache_info["opencl"]["state"] == "miss"
    assert tracer.counters.get("cache.corrupt") == 1
    assert recovered.store.provenance == "mixed"
    # The recompile repopulated the entry; the next compile is warm.
    rewarmed = CompilerSession(options).compile(SUITE[name].source)
    assert rewarmed.warm
    # And the degraded run still computes the cold result.
    cold = CompilerSession().compile(SUITE[name].source)
    assert _execute(recovered, name, "sequential") == _execute(
        cold, name, "sequential"
    )


@pytest.mark.parametrize("name", CORRUPTIBLE)
def test_flipped_manifest_hash_recompiles(tmp_path, name):
    options, cache, key = _harvested(tmp_path, name)
    manifest_path = os.path.join(
        cache.root, "objects", key, "manifest.json"
    )
    with open(manifest_path) as f:
        manifest = json.load(f)
    digest = manifest["artifacts"][0]["payload_sha256"]
    manifest["artifacts"][0]["payload_sha256"] = (
        ("0" if digest[0] != "0" else "1") + digest[1:]
    )
    with open(manifest_path, "w") as f:
        json.dump(manifest, f)

    tracer = Tracer()
    recovered = CompilerSession(options.replace(tracer=tracer)).compile(
        SUITE[name].source
    )
    assert recovered.cache_info["opencl"]["state"] == "miss"
    assert tracer.counters.get("cache.corrupt") == 1
    cold = CompilerSession().compile(SUITE[name].source)
    assert _execute(recovered, name, "sequential") == _execute(
        cold, name, "sequential"
    )
