"""CompilerSession: the cache-aware toolchain entry point.

Pins the api_redesign contract: sessions compile identically to the
legacy ``compile_program`` shim, warm starts skip backend codegen
entirely (no ``compile.backend.*`` spans), ``read`` mode consumes a
harvested cache without writing back, provenance is stamped on the
store and surfaced by both schedulers' stage spans, and ``harvest``
produces a verified ``repro.harvest/1`` report.
"""

import warnings

import pytest

from repro.apps import SUITE
from repro.backends.artifacts import ArtifactCache, CacheOptions
from repro.compiler import (
    CompileOptions,
    CompilerSession,
    compile_program,
    compile_report,
)
from repro.errors import ConfigurationError
from repro.obs import Tracer

BITFLIP = SUITE["bitflip"].source


def _rw_options(tmp_path, **cache_overrides):
    cache_overrides.setdefault("mode", "readwrite")
    return CompileOptions(
        cache=CacheOptions(
            cache_dir=str(tmp_path / "cache"), **cache_overrides
        )
    )


class TestSessionBasics:
    def test_uncached_session_matches_compile_program(self):
        via_session = CompilerSession().compile(BITFLIP)
        via_shim = compile_program(BITFLIP)
        assert via_session.store.provenance == "cold"
        assert len(via_session.store) == len(via_shim.store)
        assert [a.artifact_id for a in via_session.store.all()] == [
            a.artifact_id for a in via_shim.store.all()
        ]
        assert (
            via_session.bytecode_program.disassemble()
            == via_shim.bytecode_program.disassemble()
        )

    def test_default_session_has_no_cache(self):
        session = CompilerSession()
        assert session.cache is None
        result = session.compile(BITFLIP)
        assert all(
            info["state"] == "off" for info in result.cache_info.values()
        )
        assert not result.warm

    def test_cache_operations_require_a_cache(self):
        session = CompilerSession()
        with pytest.raises(ConfigurationError, match="no artifact cache"):
            session.cache_stats()
        with pytest.raises(ConfigurationError, match="no artifact cache"):
            session.harvest()

    def test_shim_options_path_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            compile_program(BITFLIP, options=CompileOptions())


class TestWarmStart:
    def test_cold_then_warm(self, tmp_path):
        options = _rw_options(tmp_path)
        cold = CompilerSession(options).compile(BITFLIP)
        assert cold.store.provenance == "cold"
        assert not cold.warm
        assert {i["state"] for i in cold.cache_info.values()} == {"miss"}

        # A *fresh* session against the same directory warm-starts.
        warm = CompilerSession(options).compile(BITFLIP)
        assert warm.store.provenance == "warm"
        assert warm.warm
        assert {i["state"] for i in warm.cache_info.values()} == {"hit"}
        assert [a.artifact_id for a in warm.store.all()] == [
            a.artifact_id for a in cold.store.all()
        ]
        # Warm loads are modeled as dramatically cheaper than codegen.
        assert warm.modeled_compile_s < cold.modeled_compile_s

    def test_warm_start_skips_backend_codegen(self, tmp_path):
        options = _rw_options(tmp_path)
        CompilerSession(options).compile(BITFLIP)
        tracer = Tracer()
        session = CompilerSession(options.replace(tracer=tracer))
        result = session.compile(BITFLIP)
        assert result.warm
        assert tracer.find_prefix("compile.backend") == [], (
            "a warm start must not invoke backend codegen at all"
        )
        assert len(tracer.find("cache.load")) == 3
        assert tracer.counters.get("cache.hit") == 3
        assert tracer.counters.get("cache.miss") == 0
        compile_span = tracer.find("compile")[0]
        assert compile_span.attributes["artifact_source"] == "warm"

    def test_warm_backends_are_stubs(self, tmp_path):
        options = _rw_options(tmp_path)
        CompilerSession(options).compile(BITFLIP)
        warm = CompilerSession(options).compile(BITFLIP)
        assert warm.gpu_backend.cached
        assert warm.fpga_backend.cached
        assert warm.gpu_backend.artifacts

    def test_mixed_provenance(self, tmp_path):
        options = _rw_options(tmp_path)
        CompilerSession(options.replace(enable_fpga=False)).compile(BITFLIP)
        mixed = CompilerSession(options).compile(BITFLIP)
        # bytecode+opencl hit, verilog misses: provenance is "mixed".
        assert mixed.store.provenance == "mixed"
        assert mixed.cache_info["bytecode"]["state"] == "hit"
        assert mixed.cache_info["verilog"]["state"] == "miss"
        assert not mixed.warm

    def test_option_change_is_a_miss(self, tmp_path):
        options = _rw_options(tmp_path)
        CompilerSession(options).compile(BITFLIP)
        repipelined = CompilerSession(
            options.replace(fpga_pipelined=True)
        ).compile(BITFLIP)
        assert repipelined.cache_info["verilog"]["state"] == "miss"
        assert repipelined.cache_info["bytecode"]["state"] == "hit"
        assert repipelined.cache_info["opencl"]["state"] == "hit"

    def test_read_mode_consumes_without_writing(self, tmp_path):
        rw = _rw_options(tmp_path)
        CompilerSession(rw).compile(BITFLIP)
        stored = set(ArtifactCache(rw.cache).keys())

        ro = rw.replace(cache=rw.cache.replace(mode="read"))
        saxpy = SUITE["saxpy"].source
        miss = CompilerSession(ro).compile(saxpy)
        assert {i["state"] for i in miss.cache_info.values()} == {"miss"}
        # The misses were NOT written back.
        assert set(ArtifactCache(rw.cache).keys()) == stored
        # But existing entries still serve hits.
        hit = CompilerSession(ro).compile(BITFLIP)
        assert hit.warm

    def test_report_shows_artifact_source(self, tmp_path):
        options = _rw_options(tmp_path)
        CompilerSession(options).compile(BITFLIP)
        warm = CompilerSession(options).compile(BITFLIP)
        report = compile_report(warm)
        assert "artifact source: warm" in report
        cold_report = compile_report(CompilerSession().compile(BITFLIP))
        assert "artifact source" not in cold_report


class TestProvenanceAtRuntime:
    @pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
    def test_stage_spans_carry_artifact_source(self, tmp_path, scheduler):
        from repro.runtime import Runtime, RuntimeConfig

        options = _rw_options(tmp_path)
        CompilerSession(options).compile(BITFLIP)
        warm = CompilerSession(options).compile(BITFLIP)
        tracer = Tracer()
        runtime = Runtime(
            warm, RuntimeConfig(scheduler=scheduler, tracer=tracer)
        )
        entry, args = SUITE["bitflip"].default_args()
        runtime.run(entry, args)
        stages = tracer.find("run.graph.stage")
        assert stages, "expected stage spans from the traced run"
        assert all(
            s.attributes.get("artifact_source") == "warm" for s in stages
        )


class TestHarvest:
    def test_harvest_two_apps(self, tmp_path):
        options = _rw_options(tmp_path)
        session = CompilerSession(options)
        report = session.harvest(apps=["bitflip", "saxpy"])
        assert report["schema"] == "repro.harvest/1"
        assert sorted(report["apps"]) == ["bitflip", "saxpy"]
        totals = report["totals"]
        assert totals["all_warm"], "every backend must warm-start"
        assert totals["modeled_cold_s"] > totals["modeled_warm_s"] > 0
        assert totals["modeled_speedup"] >= 5.0
        for record in report["apps"].values():
            assert record["warm"]
            assert record["payload_bytes"] > 0
            assert set(record["backends"]) == {
                "bytecode", "opencl", "verilog",
            }

    def test_harvest_rejects_unknown_apps(self, tmp_path):
        session = CompilerSession(_rw_options(tmp_path))
        with pytest.raises(ConfigurationError, match="unknown suite apps"):
            session.harvest(apps=["not_an_app"])

    def test_harvest_pin(self, tmp_path):
        options = _rw_options(tmp_path)
        session = CompilerSession(options)
        session.harvest(apps=["bitflip"], verify=False, pin=True)
        assert len(session.cache.pinned()) == 3
        stats = session.cache_stats()
        assert stats["entry_count"] == 3
