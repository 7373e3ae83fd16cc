"""The repo's wall-clock benchmark. One command:

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perf/run.py [--workload all] [--trace both] [--out FILE]
    python3 perf/run.py --smoke
    python3 perf/run.py --regen-expected

Every workload runs in a process of its own (``perf/worker.py``); this
file only spawns them, prints every metric by name with its unit, and
prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``perf/README.md`` explains the workloads, the noise model and the
trace files.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
#: Set-up is measured in this many extra processes that set up and
#: exit; ``setup_s`` is the median over them and the measuring process.
SETUP_ONLY_RUNS = 4
WORKER_TIMEOUT_S = 170


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


def spawn(arguments: list) -> dict:
    """Run one worker to completion; its last stdout line is JSON.
    A worker that fails ends the whole run: no result is printed.

    The file system is synced first. Two workloads write thousands of
    small files (artifact-cache LRU rewrites, journal and checkpoint
    files) and delete them at exit; left to the 5 s journal timer, that
    backlog committed in the middle of the *next* run and held
    ``compile_warm`` 20-30% slow for the following minute."""
    os.sync()
    command = [sys.executable, WORKER] + arguments + [
        "--spawned-at", repr(time.perf_counter()),
    ]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"perf: worker failed ({done.returncode}): "
            f"{' '.join(arguments)}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool) -> dict:
    """One (workload, pass): the worker's result, with ``setup_s``
    replaced by the median over several set-ups."""
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    if not trace and not smoke:
        setups = [
            spawn(base + ["--mode", "setup"]) for _ in range(SETUP_ONLY_RUNS)
        ]
    result = spawn(base + (["--smoke"] if smoke else []))
    if not trace:
        info = result["info"]
        normal = [s["setup_s"] for s in setups]
        normal.append(result["metrics"]["setup_s"]["value"])
        walls = [s["setup_wall_s"] for s in setups] + [info["setup_wall_s"]]
        result["metrics"]["setup_s"]["value"] = statistics.median(normal)
        info["setup_s_runs"] = normal
        info["setup_wall_s"] = statistics.median(walls)
    return result


def show(result: dict) -> None:
    """Every metric by name with its unit, then the raw-seconds info."""
    head = (f"== {result['workload']}  seed {result['seed']}  "
            f"{'traced' if result['trace'] else 'end to end'}  "
            f"ops {result['attempted']}  failed {result['failed']}  "
            f"correct {result['correct']}")
    print(head)
    for name, metric in result["metrics"].items():
        value = metric["value"]
        text = "null" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {text:>14s} {metric['unit']}")
    info = result["info"]
    if not result["trace"]:
        print(f"  samples {info['samples']} "
              f"({info['samples_beyond_p90']} beyond p90)   "
              f"modeled_s {info['modeled_s']!r} "
              f"(repeats: {info['modeled_repeats']})   "
              f"fail_ratio {info['fail_ratio']:g}")
        print(f"  info (raw, never compared): "
              f"setup_wall_s {info['setup_wall_s']:.6g}"
              f"  pass_best_s {info['pass_best_s']:.6g}"
              f"  op_s_p50 {info['op_s_p50']:.6g}"
              f"  op_s_p90 {info['op_s_p90']:.6g}"
              f"  ops_per_s {info['ops_per_s']:.5g}"
              f"  tick_s {info['tick_s']:.6g}"
              f"  op_ticks_p95 {info['op_ticks_p95']:.5g}"
              f"  op_ticks_p99 {info['op_ticks_p99']:.5g}"
              f"  loadavg {info['loadavg']}")
    else:
        print(f"  traced ops {info['traced_ops']}, untraced "
              f"{info['untraced_ops']}, spans {info['spans']} -> "
              f"{info['trace_file']}")
    print(f"  reference: {info['reference']}")
    for warning in info.get("warnings", []):
        print(f"  warning: {warning}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def environment() -> dict:
    """Who ran this, where and when: kept apart from the metrics so two
    payloads of the same code compare equal."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "hostname": platform.node(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def check_names(results: list, benchmark: dict) -> list:
    """--smoke: the printed names must equal BENCHMARK.json's exactly."""
    problems = []
    declared = {
        0: [m["name"] for m in benchmark["end_to_end"]],
        1: [m["name"] for m in benchmark["per_layer"]],
    }
    units = {
        m["name"]: m["unit"]
        for m in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    for result in results:
        printed = list(result["metrics"])
        if sorted(printed) != sorted(declared[result["trace"]]):
            odd = set(printed) ^ set(declared[result["trace"]])
            problems.append(
                f"{result['workload']} trace={result['trace']}: names "
                f"differ from BENCHMARK.json: {sorted(odd)}"
            )
        for name, metric in result["metrics"].items():
            if units.get(name, metric["unit"]) != metric["unit"]:
                problems.append(f"{name}: unit differs from BENCHMARK.json")
    ran = {result["workload"] for result in results}
    named = {w["name"] for w in benchmark["workloads"]}
    if ran != named:
        problems.append(f"workloads differ from BENCHMARK.json: {ran ^ named}")
    return problems


def main(argv=None) -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]),
                        help="how long each run measures")
    parser.add_argument("--trace", default="0", choices=("0", "1", "both"),
                        help="0: end-to-end metrics; 1: the traced pass "
                             "(per-layer metrics); both: one after the other")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, both passes, a few ops each; "
                             "checks names against BENCHMARK.json")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite perf/expected/ (refuses unless the "
                             "bytecode, GPU and FPGA paths agree)")
    args = parser.parse_args(argv)

    if args.regen_expected:
        done = subprocess.run(
            [sys.executable, WORKER, "--mode", "regen"], cwd=ROOT,
            timeout=WORKER_TIMEOUT_S,
        )
        return done.returncode

    everything = args.smoke or args.workload == "all"
    chosen = names if everything else [args.workload]
    both = args.smoke or args.trace == "both"
    passes = [0, 1] if both else [int(args.trace)]
    results = []
    for workload in chosen:
        for trace in passes:
            result = run_one(workload, args.seed, args.seconds, trace,
                             args.smoke)
            show(result)
            results.append(result)

    problems = check_names(results, benchmark) if args.smoke else []
    for problem in problems:
        print(f"PROBLEM: {problem}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"schema": "perf.result/1", "runs": results,
                 "info": environment()},
                handle, indent=1,
            )
            handle.write("\n")
    correct = not problems and all(r["correct"] for r in results)
    if len(results) == 1:
        merged = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in results[0]["metrics"].items()
        }
    else:
        merged = {
            f"{r['workload']}:{name}": {"value": m["value"], "unit": m["unit"]}
            for r in results if not r["trace"]
            for name, m in r["metrics"].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": merged,
    }))
    return 0 if correct or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
