"""tools/work_counts.py: the calls an op makes repeat exactly, so they
can tell more work from a noisy machine where paired timings cannot."""

import functools
import importlib.util
import os

import pytest

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
    names = {"call": {"f": 6, "g": 2}, "c_call": {"len": 12}}
    counts = {"cpu_map": {"saxpy": {"call": 8, "c_call": 12, "names": names}}}
    other = {"cpu_map": {"saxpy": {"call": 9, "c_call": 12, "names": names}}}
    same = work_counts.report(counts, counts, 2)
    assert same[1].split() == ["cpu_map", "saxpy", "4.0", "6.0", "yes"]
    assert same[2].split() == ["cpu_map", "(round)", "4.0", "6.0", "yes"]
    assert same[3].split() == ["cpu_map", "top", "call", "f", "3.0,", "g",
                               "1.0", "yes"]
    assert same[4].split() == ["cpu_map", "top", "c_call", "len", "6.0",
                               "yes"]
    differ = work_counts.report(counts, other, 2)
    assert differ[1].endswith("NO") and differ[2].endswith("NO")
    assert differ[3].endswith("yes")
    # The same totals made by other callees: the tally rows disagree.
    moved = {"call": {"f": 7, "g": 1}, "c_call": {"len": 12}}
    other = {"cpu_map": {"saxpy": {"call": 8, "c_call": 12, "names": moved}}}
    differ = work_counts.report(counts, other, 2)
    assert differ[2].endswith("yes") and differ[3].endswith("NO")
    assert differ[4].endswith("yes")


def test_the_callee_tally_repeats_and_sums_to_the_counts():
    work_counts = _work_counts()
    workload = work_counts.build("cpu_map")
    try:
        first = work_counts.count_events(workload, ["black_scholes"], 1)
        second = work_counts.count_events(workload, ["black_scholes"], 1)
    finally:
        workload.close()
    assert first == second
    tally = first["black_scholes"]
    for event in work_counts.EVENTS:
        assert sum(tally["names"][event].values()) == tally[event]
    # The launch inlines BlackScholes.cnd: the entry, work-item 0 and
    # its two cnd calls are the only interpreter calls.
    assert tally["names"]["call"]["Interpreter.call"] == 4


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
    for event in work_counts.EVENTS:
        assert 2 * first["crc8"][event] == second["crc8"][event]
        assert {
            callee: 2 * n for callee, n in first["crc8"]["names"][event].items()
        } == second["crc8"]["names"][event]


@functools.lru_cache(maxsize=None)
def _round_callees(name):
    """{kind: the Python functions one round of ``name``'s kind enters}."""
    work_counts = _work_counts()
    workload = work_counts.build(name)
    try:
        counts = work_counts.count_events(workload, workload.kinds, 1)
    finally:
        workload.close()
    return {
        kind: frozenset(tally["names"]["call"])
        for kind, tally in counts.items()
    }


def test_no_round_calls_an_operator_helper():
    # Staged code calls java_fdiv, java_idiv, java_irem and the total
    # Math.* helpers only on their edge arms, which no benchmark input
    # reaches.
    helpers = {"java_fdiv", "java_idiv", "java_irem", "_total.<locals>.call"}
    for name in ("cpu_map", "gpu_map"):
        for kind, callees in _round_callees(name).items():
            assert not helpers & callees, (name, kind)


@pytest.mark.parametrize("name", ["cpu_map", "gpu_map"])
def test_no_round_builds_or_decodes_a_wire_frame(name):
    # A device crossing counts its frame (frame_size, batch_frame_size):
    # the codec runs only where bytes are read (journal, checkpoints).
    codec = {"serialize", "deserialize", "serialize_batch",
             "deserialize_batch", "_encode_dense", "_decode_dense"}
    rounds = _round_callees(name)
    for kind, callees in rounds.items():
        assert not codec & callees, (name, kind, codec & callees)
    if name == "gpu_map":
        assert any("frame_size" in callees for callees in rounds.values())
