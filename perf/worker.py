"""One workload in one process: set-up, the timed loop, the checks.

Started by ``run.py`` (never by hand); prints one JSON object as the
last line of its standard output. See ``perf/README.md`` for the noise
model implemented by ``run_blocks`` and ``in_ticks``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()   # before the program is imported

import argparse
import itertools
import json
import os
import random
import resource
import statistics
import sys
import threading
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calibrate

#: Ticks timed while the process sets up: set-up is measured against
#: them, like every other timing. The first two run here, before the
#: program is imported.
_SETUP_TICKS = [calibrate.timed_tick(), calibrate.timed_tick()]

import metrics
import tracing
import workloads

#: Share guards of the traced pass: (workload, what, low, high) -- the
#: named layers' busy seconds over the op's seconds must lie in
#: [low, high], so a workload cannot quietly stop exercising its layer.
_BACKENDS = ("bytecode.compile.busy_s", "opencl.compile.busy_s",
             "verilog.compile.busy_s")
_ARTIFACTS = ("artifacts.key.busy_s", "artifacts.load.busy_s",
              "artifacts.store.busy_s")
SHARE_GUARDS = [
    ("compile_cold", _BACKENDS, 0.45, 1.0),
    ("compile_cold", _ARTIFACTS, 0.0, 0.0),
    ("compile_warm", _BACKENDS, 0.0, 0.05),
    ("compile_warm", _ARTIFACTS, 0.50, 1.0),
    ("cpu_map", ("interp.busy_s",), 0.90, 1.0),
    ("cpu_map", ("fpga.run.busy_s", "fpga.elaborate.busy_s",
                 "gpu.run.busy_s"), 0.0, 0.0),
    ("gpu_map", ("gpu.run.busy_s",), 0.60, 1.0),
    ("fpga_stream", ("fpga.run.busy_s", "fpga.elaborate.busy_s"), 0.70, 1.0),
    ("service_jobs", ("service.overhead_s",), 0.50, 1.0),
]
MAX_TRACE_OVERHEAD = 1.15
#: peak_rss_mb is read when every client has done this many rounds --
#: about a third of a 10 s run today -- or at the end of a run too short
#: to get there.
RSS_AFTER_ROUNDS = 30


class Sample(NamedTuple):
    """One timed op."""

    op: int
    kind: str
    block: int          # index of the tick that preceded it
    start: float
    seconds: float
    modeled: "float | None"
    error: "str | None"
    traced: bool


def run_op(workload, kind, block, traced, recorder, op_ids, samples):
    """Time one op and check it (the check is not timed)."""
    clock = time.perf_counter
    op = next(op_ids)
    if recorder is not None:
        recorder.set_thread_op(op)
        if workload.clients == 1:
            recorder.current_op = op
    modeled = None
    start = clock()
    try:
        raw = workload.execute(kind)
        seconds = clock() - start
    except Exception as exc:
        seconds = clock() - start
        error = f"{kind}: raised {exc!r}"
    else:
        modeled, error = workload.check(kind, raw)
    samples.append(Sample(op, kind, block, start, seconds, modeled, error,
                          traced))


def kind_stream(workload, rng):
    """A client's endless sequence of op kinds: round after round, each
    round every kind once in a freshly shuffled order."""
    while True:
        order = list(workload.kinds)
        rng.shuffle(order)
        yield from order


def run_block(workload, stream, count, *op_args) -> None:
    """One client's share of a block: the next ``count`` ops."""
    for _ in range(count):
        run_op(workload, next(stream), *op_args)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_blocks(workload, seed, seconds, max_rounds, recorder):
    """The timed loop: tick, block, tick, block, ... until ``seconds``
    have passed. A block is ``workload.ops_per_tick`` ops (shared
    between the client threads, where there are any); the tick runs on
    the main thread with nothing in flight. ``Sample.block`` indexes the
    tick that preceded the op. The loop only stops at the end of a
    round, so every kind has run equally often.

    In a traced run every other round (every other block, where a block
    is longer than a round) runs with the wrappers installed, so one
    run yields both the layer times and what tracing cost. Returns the
    samples, the ticks, and (peak RSS, ops done) when round
    RSS_AFTER_ROUNDS ended: at an op count, so memory is compared at
    equal work however many ops the seconds allow."""
    clock = time.perf_counter
    streams = [
        kind_stream(workload, random.Random((seed << 8) + client))
        for client in range(workload.clients)
    ]
    per_client = max(workload.ops_per_tick // workload.clients, 1)
    round_ops = len(workload.kinds)
    unit = max(round_ops, per_client)     # ops per traced/untraced turn
    samples: list = []
    ticks: list = []
    op_ids = itertools.count()
    rss = None
    done = 0                              # ops done by each client
    deadline = clock() + seconds
    while True:
        traced = recorder is not None and (done // unit) % 2 == 1
        if traced:
            recorder.install()
        try:
            ticks.append(calibrate.timed_tick())
            op_args = (per_client, len(ticks) - 1, traced, recorder, op_ids,
                       samples)
            if workload.clients == 1:
                run_block(workload, streams[0], *op_args)
            else:
                threads = [
                    threading.Thread(
                        target=run_block, name=f"perf-client-{i}",
                        args=(workload, stream) + op_args,
                    )
                    for i, stream in enumerate(streams)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            if traced:
                recorder.uninstall()
        done += per_client
        if done == RSS_AFTER_ROUNDS * round_ops:
            rss = (peak_rss_mb(), len(samples))
        if done % unit:
            continue
        if max_rounds is not None:
            if done >= max_rounds * unit:
                break
        elif clock() >= deadline and (recorder is None or done >= 2 * unit):
            break
    ticks.append(calibrate.timed_tick())
    return samples, ticks, rss or (peak_rss_mb(), len(samples))


def in_ticks(samples, ticks) -> list:
    """Each op's cost in ticks: its seconds over the seconds of the
    ticks timed around it."""
    yardstick = [
        calibrate.tick_seconds(ticks, block)
        for block in range(len(ticks) - 1)
    ]
    return [s.seconds / yardstick[s.block] for s in samples]


def modeled_pass(samples, kinds):
    """(modeled seconds of one pass over the op kinds, whether every op
    of a kind reported exactly the same modeled seconds)."""
    per_kind: dict = {}
    repeats = True
    for s in samples:
        if s.modeled is None:
            continue
        if per_kind.setdefault(s.kind, s.modeled) != s.modeled:
            repeats = False
    return sum(per_kind.get(kind, 0.0) for kind in kinds), repeats


def end_to_end(samples, ticks_s, kinds, setup_s, rss, elapsed) -> tuple:
    """(metrics, info) of an untraced run."""
    ticks = sorted(in_ticks(samples, ticks_s))
    seconds = sorted(s.seconds for s in samples)
    best = {}
    for s in samples:
        if s.seconds < best.get(s.kind, float("inf")):
            best[s.kind] = s.seconds
    values = {
        "setup_s": setup_s,
        "op_ticks_p50": metrics.percentile(ticks, 0.50),
        "op_ticks_mean": statistics.fmean(ticks),
        "op_ticks_p90": metrics.percentile(ticks, 0.90),
        "peak_rss_mb": rss[0],
    }
    n = len(samples)
    modeled, repeats = modeled_pass(samples, kinds)
    per_kind = {}
    for kind in kinds:
        mine = sorted(s.seconds for s in samples if s.kind == kind)
        per_kind[kind] = {
            "ops": len(mine),
            "best_s": mine[0],
            "p50_s": metrics.percentile(mine, 0.5),
        }
    info = {
        "samples": n,
        "samples_beyond_p90": n - int(n * 0.9),
        "pass_best_s": sum(best[kind] for kind in kinds),
        "peak_rss_at_ops": rss[1],
        "op_s_p50": metrics.percentile(seconds, 0.50),
        "op_s_p90": metrics.percentile(seconds, 0.90),
        "op_ticks_p95": metrics.percentile(ticks, 0.95),
        "op_ticks_p99": metrics.percentile(ticks, 0.99),
        "ops_per_s": n / elapsed,
        "tick_s": statistics.fmean(ticks_s),
        "tick_s_best": min(ticks_s),
        "tick_inflation": statistics.fmean(ticks_s) / min(ticks_s),
        "ticks": len(ticks_s),
        "modeled_s": modeled,
        "modeled_repeats": repeats,
        "fail_ratio": sum(1 for s in samples if s.error) / n,
        "loadavg": list(os.getloadavg()),
        "per_kind": per_kind,
    }
    return values, info


def per_layer(workload, recorder, samples, ticks_s, facts) -> tuple:
    """(metrics, problems, warnings) of a traced run."""
    ticks = in_ticks(samples, ticks_s)
    traced = [s for s in samples if s.traced]
    traced_ticks = [t for s, t in zip(samples, ticks) if s.traced]
    plain_ticks = [t for s, t in zip(samples, ticks) if not s.traced]
    modeled, _ = modeled_pass(samples, workload.kinds)
    facts = dict(facts)
    facts.update(
        op_s=statistics.fmean(s.seconds for s in traced),
        trace_overhead_ratio=(
            statistics.fmean(traced_ticks) / statistics.fmean(plain_ticks)
        ),
        tick_inflation=statistics.fmean(ticks_s) / min(ticks_s),
        modeled_s=modeled,
        fail_ratio=sum(1 for s in samples if s.error) / len(samples),
    )
    missing = {tracing.span_name(row) for row in recorder.missing}
    layers = metrics.Layers(
        recorder.layers(), missing, recorder.count_errors, len(traced), facts,
    )
    values = metrics.evaluate(layers)
    problems = []
    for name, parts, low, high in SHARE_GUARDS:
        if name != workload.name:
            continue
        numbers = [values[p]["value"] for p in parts]
        if None in numbers:
            continue   # the layer cannot be traced: warned, not judged
        share = sum(numbers) / facts["op_s"]
        if not low <= share <= high:
            problems.append(
                f"share guard: {' + '.join(parts)} is {share:.1%} of op "
                f"time, want {low:.0%}..{high:.0%}"
            )
    # A warning, not a failure: the ratio compares alternating rounds of
    # one short run, so on a noisy box it wanders by a few percent.
    warnings = []
    if facts["trace_overhead_ratio"] > MAX_TRACE_OVERHEAD:
        warnings.append(
            f"tracing cost {facts['trace_overhead_ratio']:.3f}x "
            f"(> {MAX_TRACE_OVERHEAD}x): if it repeats, wrap coarser"
        )
    return values, problems, warnings


def write_trace(workload, seed, recorder, samples, ticks_s) -> str:
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    path = os.path.join(workloads.OUT_DIR, f"trace_{workload.name}.json")
    recorder.write(path, {
        "workload": workload.name,
        "seed": seed,
        "clock": "time.perf_counter seconds",
        "tick_s": ticks_s,
        "op_keys": ("op", "kind", "block", "start", "end", "traced"),
        "ops": [
            (s.op, s.kind, s.block, s.start, s.start + s.seconds, s.traced)
            for s in samples
        ],
    })
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("measure", "setup", "regen"),
                        default="measure")
    parser.add_argument("--smoke", action="store_true",
                        help="two rounds (four when traced), not --seconds")
    parser.add_argument("--spawned-at", type=float, default=_PROCESS_START,
                        help="the parent's perf_counter at spawn")
    args = parser.parse_args(argv)

    if args.mode == "regen":
        for path in workloads.regenerate_expected():
            print(f"wrote {path}")
        return 0
    setup_ticks = _SETUP_TICKS + [calibrate.timed_tick()]   # imports done
    workload = workloads.WORKLOADS[args.workload](args.seed)
    problems: list = []
    try:
        workload.setup()
        # One untimed round: lazy initialisation, memoised compiles and
        # first-use caches fill here, inside set-up, not in the samples.
        for kind in workload.kinds:
            setup_ticks.append(calibrate.timed_tick())
            _, error = workload.check(kind, workload.execute(kind))
            if error:
                problems.append(f"warm-up: {error}")
        setup_ticks.append(calibrate.timed_tick())
        setup_wall_s = (
            time.perf_counter() - args.spawned_at - sum(setup_ticks)
        )
        setup_s = calibrate.nominal_seconds(setup_wall_s, setup_ticks)
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s,
                              "setup_wall_s": setup_wall_s}))
            return 0

        recorder = tracing.Recorder() if args.trace else None
        max_rounds = (4 if args.trace else 2) if args.smoke else None
        facts = workload.before_loop()
        loop_start = time.perf_counter()
        samples, ticks_s, rss = run_blocks(
            workload, args.seed, args.seconds, max_rounds, recorder,
        )
        elapsed = time.perf_counter() - loop_start
        facts = workload.after_loop(facts, len(samples))

        errors = [s.error for s in samples if s.error]
        problems.extend(sorted(set(errors))[:10])
        problems.extend(workload.verify())
        if args.trace:
            payload, guard_problems, warnings = per_layer(
                workload, recorder, samples, ticks_s, facts,
            )
            problems.extend(guard_problems)
            info = {
                "trace_file": os.path.relpath(
                    write_trace(workload, args.seed, recorder, samples,
                                ticks_s),
                    os.path.dirname(HERE),
                ),
                "spans": len(recorder.spans),
                "traced_ops": sum(1 for s in samples if s.traced),
                "untraced_ops": sum(1 for s in samples if not s.traced),
                "untraceable": sorted(recorder.missing),
                "warnings": warnings,
            }
        else:
            numbers, info = end_to_end(
                samples, ticks_s, workload.kinds, setup_s, rss, elapsed,
            )
            payload = {
                name: {"value": numbers[name], "unit": unit}
                for name, unit in metrics.END_TO_END
            }
        info["reference"] = workload.reference
        info["setup_wall_s"] = setup_wall_s
        result = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "correct": not problems,
            "attempted": len(samples),
            "failed": len(errors),
            "metrics": payload,
            "info": info,
            "problems": problems,
        }
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
