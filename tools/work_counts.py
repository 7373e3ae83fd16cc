"""Deterministic work counts: the Python calls one op of a perf workload makes.

    python3 tools/work_counts.py

Paired wall-clock runs cannot tell a drift of a few percent from the
noise of the machine; the number of calls an op makes can, because it
repeats exactly. For each workload this builds it as ``perf/worker.py``
does at seed 1 (``setup()``, then one untimed round, so compiles,
staging and first-use caches are done), then counts the
``sys.setprofile`` events of ``execute(kind)`` over three rounds, per
op kind of ``compile_cold``, ``compile_warm``, ``cpu_map`` and
``gpu_map``:

* ``call``: a Python function entered (generated code included);
* ``c_call``: a builtin or C method called from Python.

Each event is also tallied by the callee's name (``co_qualname`` of a
Python function, ``__qualname__`` of a builtin), and under each
workload's ``(round)`` row the report lists the most frequent callees
of a round for both events, e.g. ``len`` or ``java_idiv``.

Only the calling thread is counted, so ``fpga_stream`` and
``service_jobs`` stay out: their ops run on pooled worker threads
(``repro.runtime.workers``), started before the count and never seen
by ``sys.setprofile``. Installing the hook with ``threading.setprofile``
before ``setup()`` would reach those threads, but their counts still do
not repeat: in two processes (seed 1, 3 rounds) ``fpga_stream``'s
gray_pipeline read 111 291 and 111 323 calls (44 612 and 44 655 C
calls), parity and crc8 differed by 8 and 4, and every ``service_jobs``
kind by up to 16 calls of ~5 000 and 28 C calls of ~3 000 (0.3-1%).
All of the difference is in joins and condition waits
(``TaskHandle.join``, ``Condition.wait``, ``lock.acquire``), whose
number follows the threads' timing, not the work; a count that leaves
those out is needed before the two workloads can be reported. The
cyclic garbage collector is paused while counting so that no
collection's callbacks count. Every count is made
twice, each time in a fresh process; the report gives the counts per
op, the ``(round)`` row per round (the sum of a workload's kinds), and
whether the two processes agree (exit status 1 if they do not).
``perf/`` is imported, never written.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EVENTS = ("call", "c_call")
WORKLOADS = ("compile_cold", "compile_warm", "cpu_map", "gpu_map")
SEED = 1
ROUNDS = 3
TOP = 6


def load_workloads():
    """``perf/workloads.py``, imported the way ``perf/worker.py`` does
    (``perf/`` leaves ``sys.path`` again once it and ``refs`` are in)."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    sys.path.insert(0, os.path.join(ROOT, "perf"))
    try:
        import workloads
    finally:
        del sys.path[0]
    return workloads


def build(name: str):
    """A workload set up and warmed by one untimed round."""
    workload = load_workloads().WORKLOADS[name](SEED)
    workload.setup()
    for kind in workload.kinds:
        _, error = workload.check(kind, workload.execute(kind))
        if error:
            raise RuntimeError(f"warm-up: {error}")
    return workload


def _callee(frame, event, arg) -> str:
    if event == "call":
        return frame.f_code.co_qualname
    return getattr(arg, "__qualname__", None) or repr(arg)


def count_events(workload, kinds, rounds: int) -> dict:
    """{kind: {event: count, "names": {event: {callee: count}}}} over
    ``rounds`` runs of each kind."""
    counts = {}
    for kind in kinds:
        tally = dict.fromkeys(EVENTS, 0)
        names = {event: {} for event in EVENTS}

        def profile(frame, event, arg):
            if event in tally:
                tally[event] += 1
                by_name = names[event]
                name = _callee(frame, event, arg)
                by_name[name] = by_name.get(name, 0) + 1

        gc.collect()
        gc.disable()
        try:
            for _ in range(rounds):
                sys.setprofile(profile)
                try:
                    workload.execute(kind)
                finally:
                    sys.setprofile(None)
        finally:
            gc.enable()
        counts[kind] = {**tally, "names": names}
    return counts


def measure() -> dict:
    """{workload: {kind: {event: count}}} in this process."""
    result = {}
    for name in WORKLOADS:
        workload = build(name)
        try:
            result[name] = count_events(workload, workload.kinds, ROUNDS)
        finally:
            workload.close()
    return result


def _child() -> dict:
    output = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(output)


def _with_round(kinds: dict) -> dict:
    """``kinds`` and their sum, as the kind ``(round)``: one of each."""
    total = {e: sum(tally[e] for tally in kinds.values()) for e in EVENTS}
    names = {}
    for event in EVENTS:
        summed = names[event] = {}
        for tally in kinds.values():
            for callee, n in tally.get("names", {}).get(event, {}).items():
                summed[callee] = summed.get(callee, 0) + n
    return {**kinds, "(round)": {**total, "names": names}}


def _top(names: dict, rounds: int) -> str:
    ranked = sorted(names.items(), key=lambda item: (-item[1], item[0]))
    return ", ".join(f"{callee} {n / rounds:.1f}" for callee, n in ranked[:TOP])


def report(first: dict, second: dict, rounds: int) -> list:
    lines = [f"{'workload':<12} {'kind':<14} {'calls/op':>12} "
             f"{'c_calls/op':>12}  repeats"]
    for name, kinds in first.items():
        other = _with_round(second.get(name, {}))
        for kind, tally in _with_round(kinds).items():
            counts = {e: tally[e] for e in EVENTS}
            same = {e: other.get(kind, {}).get(e) for e in EVENTS} == counts
            lines.append(
                f"{name:<12} {kind:<14} {tally['call'] / rounds:>12.1f} "
                f"{tally['c_call'] / rounds:>12.1f}  "
                f"{'yes' if same else 'NO'}"
            )
        # The callees of a round, by name, most frequent first.
        mine = _with_round(kinds)["(round)"]["names"]
        theirs = other.get("(round)", {}).get("names", {})
        for event in EVENTS:
            same = mine[event] == theirs.get(event)
            lines.append(
                f"{name:<12} {'top ' + event:<14} {_top(mine[event], rounds)}"
                f"  {'yes' if same else 'NO'}"
            )
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--child"]:
        print(json.dumps(measure()))
        return 0
    if argv:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    first, second = _child(), _child()
    print("\n".join(report(first, second, ROUNDS)))
    return 0 if first == second else 1


if __name__ == "__main__":
    sys.exit(main())
