"""``tools/perf_pairs.py``: the paired-run summary, on canned result
files (no benchmark run is spawned)."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", os.path.join(ROOT, "tools", "perf_pairs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(workload, seed, p50, rss, modeled=0.5, trace=0):
    """One run as ``perf/run.py --out`` writes it."""
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": True, "attempted": 100, "failed": 0,
        "metrics": {
            "setup_s": {"value": 0.3, "unit": "s"},
            "op_ticks_p50": {"value": p50, "unit": "ticks"},
            "op_ticks_mean": {"value": p50 * 1.1, "unit": "ticks"},
            "op_ticks_p90": {"value": p50 * 2, "unit": "ticks"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        },
        "info": {"modeled_s": modeled, "fail_ratio": 0.0},
        "problems": [],
    }


def _write(out, side, runs):
    for run in runs:
        path = os.path.join(
            out, f"{side}-{run['workload']}-{run['seed']}.json"
        )
        with open(path, "w") as handle:
            json.dump({"schema": "x", "runs": [run], "info": {}}, handle)


BASE_P50 = [2.0, 2.1, 2.2, 1.9, 2.05, 2.15, 1.95, 2.0, 2.1, 2.2]
NEW_P50 = [1.4, 1.35, 1.5, 1.3, 1.45, 1.38, 1.42, 1.37, 2.5, 1.4]


@pytest.fixture
def canned(tmp_path, pairs):
    seeds = range(2801, 2811)
    _write(tmp_path, "base", [
        _result("service_jobs", s, p, 32.0)
        for s, p in zip(seeds, BASE_P50)
    ] + [_result("service_jobs", 9999, 1.0, 32.0, trace=1)])
    _write(tmp_path, "new", [
        _result("service_jobs", s, p, 32.3)
        for s, p in zip(seeds, NEW_P50)
    ])
    rows = pairs.summarize(
        pairs.load_runs(pairs.side_files(str(tmp_path), "base")),
        pairs.load_runs(pairs.side_files(str(tmp_path), "new")),
        pairs.bounds_from_benchmark(ROOT),
    )
    return {row["metric"]: row for row in rows}


def test_quartiles_ratio_and_pairs_won(canned, pairs):
    row = canned["op_ticks_p50"]
    assert row["workload"] == "service_jobs"
    assert row["base"] == pairs.compare.quartiles(BASE_P50)
    assert row["new"] == pairs.compare.quartiles(NEW_P50)
    assert row["ratio"] == pytest.approx(
        pairs.compare.quartiles(NEW_P50)[1]
        / pairs.compare.quartiles(BASE_P50)[1]
    )
    assert row["lower"] == 9          # the ninth pair was lost
    assert row["pairs"] == 10
    assert row["seeds"] == (2801, 2810)
    assert row["verdict"] == "improved"


def test_verdicts_come_from_compare(canned):
    assert canned["peak_rss_mb"]["verdict"] == "same"
    assert canned["peak_rss_mb"]["lower"] == 0
    assert canned["modeled_s"]["verdict"] == "same"
    assert canned["fail_ratio"]["verdict"] == "same"


def test_traced_runs_are_left_out(canned):
    assert canned["op_ticks_p50"]["pairs"] == 10


def test_a_moved_modeled_value_reads_worse(tmp_path, pairs):
    _write(tmp_path, "base", [_result("cpu_map", 5, 1.2, 28.0)])
    _write(tmp_path, "new", [_result("cpu_map", 5, 1.2, 28.0, modeled=0.6)])
    rows = pairs.summarize(
        pairs.load_runs(pairs.side_files(str(tmp_path), "base")),
        pairs.load_runs(pairs.side_files(str(tmp_path), "new")),
        pairs.bounds_from_benchmark(ROOT),
    )
    (modeled,) = [r for r in rows if r["metric"] == "modeled_s"]
    assert modeled["verdict"] == "worse"


def test_render_prints_one_line_per_row(canned, pairs):
    text = pairs.render(list(canned.values()))
    lines = text.splitlines()
    assert lines[0].startswith("| workload | metric | parent | this PR")
    assert len(lines) == 2 + len(canned)
    assert "9/10" in text


def test_seed_ranges(pairs):
    assert pairs.parse_seeds("2801-2803") == [2801, 2802, 2803]
    assert pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        pairs.parse_seeds("9-3")


def test_pairs_alternate_which_tree_runs_first(pairs, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(
        pairs.subprocess, "run",
        lambda argv, cwd, **kw: calls.append((cwd, argv[argv.index("--seed") + 1])),
    )
    pairs.run_pairs({"base": "B", "new": "N"}, "cpu_map", [1, 2, 3], 1.0,
                    str(tmp_path))
    assert calls == [("B", "1"), ("N", "1"), ("N", "2"), ("B", "2"),
                     ("B", "3"), ("N", "3")]
