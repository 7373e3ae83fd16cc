"""tools/work_counts.py: the calls an op makes repeat exactly, so they
can tell more work from a noisy machine where paired timings cannot."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _work_counts():
    spec = importlib.util.spec_from_file_location(
        "work_counts", os.path.join(ROOT, "tools", "work_counts.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_cpu_map_kind_makes_the_same_calls_every_time():
    work_counts = _work_counts()
    workload = work_counts.build("cpu_map")
    try:
        first = work_counts.count_events(workload, ["saxpy"], 2)
        second = work_counts.count_events(workload, ["saxpy"], 2)
    finally:
        workload.close()
    assert first == second
    assert first["saxpy"]["call"] > 0 and first["saxpy"]["c_call"] > 0


def test_the_report_says_whether_two_processes_agree():
    work_counts = _work_counts()
    counts = {"cpu_map": {"saxpy": {"call": 8, "c_call": 12}}}
    other = {"cpu_map": {"saxpy": {"call": 9, "c_call": 12}}}
    same = work_counts.report(counts, counts, 2)
    assert same[1].split() == ["cpu_map", "saxpy", "4.0", "6.0", "yes"]
    assert same[2].split() == ["cpu_map", "(round)", "4.0", "6.0", "yes"]
    differ = work_counts.report(counts, other, 2)
    assert differ[1].endswith("NO") and differ[2].endswith("NO")


def test_a_cold_compile_makes_the_same_calls_every_time():
    # A fresh CompilerSession per op: nothing the first op cached may
    # change what a later one does.
    work_counts = _work_counts()
    workload = work_counts.build("compile_cold")
    try:
        first = work_counts.count_events(workload, ["crc8"], 1)
        second = work_counts.count_events(workload, ["crc8"], 2)
    finally:
        workload.close()
    assert {e: 2 * n for e, n in first["crc8"].items()} == second["crc8"]
