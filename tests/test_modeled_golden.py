"""The modeled golden (tests/golden/modeled_values.json, DESIGN.md §3d).

The modeled clock is deterministic, so its values are constants: every
benchmark emitter's ``kind: "modeled"`` metrics are compared, exactly,
with their section of the golden inside ``write_bench_report``
(benchmarks/harness.py), and the ``"profiles"`` section pins two
sequential profile passes below. Regenerate only when the modeled
clock was meant to move::

    REPRO_REGEN_MODELED_GOLDEN=1 PYTHONPATH=src:. \\
        python -m pytest benchmarks tests/test_modeled_golden.py
"""

import dataclasses
import json
import math
import os
import re
import time

import pytest

import harness
import test_bench_fig3_marshaling as fig3
from harness import bench_metric, write_bench_report
from repro.apps import SUITE, compile_app
from repro.devices.interconnect import PCIE_GEN2_X16
from repro.obs import Tracer
from repro.obs.profile import build_profile
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.marshaling import MarshalingBoundary

#: Counter families that attribute a modeled delta to a subsystem.
COUNTER_PREFIXES = (
    "marshal.",
    "cache.",
    "fusion.",
    "specialize.",
    "health.",
    "substitution.",
    "offload.",
    "retry.",
    "breaker.",
)


def _profile_app(app: str) -> dict:
    """One profiled run of a suite app on the sequential scheduler:
    simulated times, the decision counters and the critical-path shape
    (names only: segment durations are host-clock readings, and so is
    which segment is the bottleneck)."""
    tracer = Tracer()
    entry, values = SUITE[app].default_args()
    config = RuntimeConfig(scheduler="sequential", tracer=tracer)
    outcome = Runtime(compile_app(app), config).run(entry, values)
    report = build_profile(
        tracer,
        ledger=outcome.ledger,
        app=app,
        entry=entry,
        scheduler="sequential",
    ).to_json()
    critical = report["critical_path"]
    segment_names = sorted({seg["name"] for seg in critical["segments"]})
    assert critical["bottleneck"]["name"] in segment_names
    flat = {f"{app}.critical_path.segment_names": segment_names}
    for key, value in report["simulated"].items():
        if isinstance(value, (int, float)):
            flat[f"{app}.simulated.{key}"] = value
    for name, value in report["counters"].items():
        if name.startswith(COUNTER_PREFIXES):
            flat[f"{app}.counters.{name}"] = value
    return flat


def test_profile_passes_match_the_golden():
    harness.check_modeled_golden(
        "profiles", {**_profile_app("mandelbrot"), **_profile_app("bitflip")}
    )


# ----------------------------------------------------------------------
# The comparison itself gates
# ----------------------------------------------------------------------


@pytest.fixture
def demo_golden(tmp_path, monkeypatch):
    """A scratch golden with one section, and reports written beside
    it, so the table below never touches the real files."""
    path = tmp_path / "modeled_values.json"
    path.write_text(json.dumps({"demo": {"a.s": 0.1, "b.count": 2.0}}))
    monkeypatch.setattr(harness, "GOLDEN_PATH", str(path))
    monkeypatch.setattr(harness, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(harness, "REGEN", False)
    return path


def _demo_metrics(**overrides):
    values = {"a.s": 0.1, "b.count": 2.0, **overrides}
    metrics = {
        name: bench_metric(value)
        for name, value in values.items()
        if value is not None
    }
    metrics["host.wall_s"] = bench_metric(time.perf_counter(), kind="wall")
    return metrics


def test_equal_modeled_values_pass_and_wall_is_never_compared(demo_golden):
    # host.wall_s is absent from the golden and differs on every call.
    for _ in range(2):
        path = write_bench_report("demo", _demo_metrics())
    with open(path) as fh:
        report = json.load(fh)
    assert sorted(report) == ["bench", "metrics", "schema"]
    assert report["schema"] == "repro.bench/1"
    assert report["metrics"]["host.wall_s"]["kind"] == "wall"


@pytest.mark.parametrize(
    "bench, overrides, named",
    [
        # one ulp is a difference: no tolerance
        ("demo", {"a.s": math.nextafter(0.1, 1.0)},
         ["demo", "a.s", "golden 0.1", "got 0.10000000000000002"]),
        # the emitter reports a metric the golden does not hold
        ("demo", {"c.new": 1.0},
         ["demo", "c.new", "golden 'absent'", "got 1.0"]),
        # the golden holds a metric the emitter no longer reports
        ("demo", {"b.count": None},
         ["demo", "b.count", "golden 2.0", "got 'absent'"]),
        # a bench the golden has no section for
        ("unrecorded", {}, ["unrecorded", "no such section"]),
    ],
)
def test_any_modeled_difference_fails(demo_golden, bench, overrides, named):
    with pytest.raises(AssertionError) as failure:
        write_bench_report(bench, _demo_metrics(**overrides))
    for text in named:
        assert text in str(failure.value)
    assert not os.path.exists(
        os.path.join(harness.OUT_DIR, f"BENCH_{bench}.json")
    )


def test_regen_rewrites_only_its_section(demo_golden, monkeypatch):
    monkeypatch.setattr(harness, "REGEN", True)
    write_bench_report("other", {"x": bench_metric(3.0)})
    assert json.loads(demo_golden.read_text()) == {
        "demo": {"a.s": 0.1, "b.count": 2.0},
        "other": {"x": 3.0},
    }


def _fig3_metrics(boundary):
    """The metrics test_bench_fig3_step_table reports, built with the
    emitter's own round trip."""
    metrics = {}
    for n in fig3.SIZES:
        out_rec, back_rec = fig3._roundtrip(boundary, n)
        metrics[f"roundtrip.{n}.total_s"] = bench_metric(
            out_rec.total_s + back_rec.total_s, unit="s", direction="lower"
        )
        metrics[f"roundtrip.{n}.bytes"] = bench_metric(
            out_rec.num_bytes, unit="bytes", direction="lower"
        )
    return metrics


def test_a_perturbed_cost_constant_fails_the_fig3_emitter(monkeypatch):
    # This test gates; it must never record, even in a regen run.
    monkeypatch.setattr(harness, "REGEN", False)
    write_bench_report(
        "fig3_marshaling", _fig3_metrics(MarshalingBoundary(PCIE_GEN2_X16))
    )
    slower_link = dataclasses.replace(
        PCIE_GEN2_X16, latency_s=PCIE_GEN2_X16.latency_s * 1.01
    )
    with pytest.raises(AssertionError) as failure:
        write_bench_report(
            "fig3_marshaling", _fig3_metrics(MarshalingBoundary(slower_link))
        )
    message = str(failure.value)
    with open(harness.GOLDEN_PATH) as fh:
        golden = json.load(fh)["fig3_marshaling"]
    for n in fig3.SIZES:
        name = f"roundtrip.{n}.total_s"
        assert f"fig3_marshaling: {name}: golden {golden[name]!r}, got " in message
        # the byte counts did not move and are not reported as drift
        assert f"roundtrip.{n}.bytes" not in message


def test_every_emitter_has_a_section_and_every_section_an_emitter():
    bench_dir = os.path.dirname(harness.__file__)
    emitted = set()
    for filename in os.listdir(bench_dir):
        if filename.startswith("test_") and filename.endswith(".py"):
            with open(os.path.join(bench_dir, filename)) as fh:
                emitted.update(
                    re.findall(r'write_bench_report\(\s*"([^"]+)"', fh.read())
                )
    with open(harness.GOLDEN_PATH) as fh:
        sections = set(json.load(fh)) - {"profiles"}
    assert emitted == sections


# ----------------------------------------------------------------------
# bench_metric
# ----------------------------------------------------------------------


def test_metric_validates_direction_and_kind():
    assert bench_metric(2.0)["direction"] == "higher"
    assert bench_metric(1.0, kind="wall")["kind"] == "wall"
    with pytest.raises(ValueError):
        bench_metric(1.0, direction="sideways")
    with pytest.raises(ValueError):
        bench_metric(1.0, kind="guessed")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_metric_rejects_non_finite_values(value):
    # json.dump would write the bare token NaN (not JSON), and a NaN
    # golden could never compare equal to itself.
    with pytest.raises(ValueError, match="finite"):
        bench_metric(value)
