"""Paired benchmark runs of two trees, and the table that judges them.

    python3 tools/perf_pairs.py --base TREE --new TREE \\
        --workload service_jobs --seeds 2801-2810 [--seconds 10]
    python3 tools/perf_pairs.py --summarize DIR    # the table again

docs/PERFORMANCE.md's paired protocol: for each seed, one
``perf/run.py`` run of each tree, in alternating order (pair *n* even:
the base tree first), every run in its own process with the tree as its
working directory. Results go to ``benchmarks/out/perf_pairs/<workload>/``
(ignored by git; ``--out`` moves it), one file per side and seed.

Then one row per end-to-end metric of ``BENCHMARK.json`` (and the
``modeled_s`` / ``fail_ratio`` facts): q1 / median / q3 of each side,
the ratio of the medians, in how many pairs the new tree read lower,
and ``perf/compare.py``'s verdict over the two sets.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_OUT = os.path.join(ROOT, "benchmarks", "out", "perf_pairs")
SIDES = ("base", "new")


def _load_compare():
    spec = importlib.util.spec_from_file_location(
        "perf_compare", os.path.join(ROOT, "perf", "compare.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = _load_compare()


def parse_seeds(text: str) -> list:
    """``"2801-2810"`` or ``"7"`` -> the seeds, in order."""
    first, _, last = text.partition("-")
    low, high = int(first), int(last or first)
    if high < low:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(low, high + 1))


def result_path(out: str, side: str, workload: str, seed: int) -> str:
    return os.path.join(out, f"{side}-{workload}-{seed}.json")


def run_pairs(trees: dict, workload: str, seeds: list, seconds: float,
              out: str, trace: int = 0) -> None:
    os.makedirs(out, exist_ok=True)
    for index, seed in enumerate(seeds):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for side in order:
            path = result_path(out, side, workload, seed)
            print(f"pair {index} seed {seed}: {side}", file=sys.stderr)
            subprocess.run(
                [sys.executable, "perf/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--out", path],
                cwd=trees[side], check=True, stdout=subprocess.DEVNULL,
            )


def load_runs(paths: list) -> dict:
    """{(workload, seed): {metric: value}} over the untraced runs."""
    runs: dict = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        for run in document["runs"]:
            if run["trace"]:
                continue
            numbers = {n: m["value"] for n, m in run["metrics"].items()}
            numbers.update({n: run["info"][n] for n in compare.EXACT})
            runs[run["workload"], run["seed"]] = numbers
    return runs


def summarize(base: dict, new: dict, bounds: dict) -> list:
    """One row per (workload, metric) that both sides measured: the
    quartiles of each side, the ratio of the medians, how many seeds
    both ran read lower on the new side, and compare.py's verdict."""
    rows = []
    workloads = sorted({w for w, _ in base} & {w for w, _ in new})
    for workload in workloads:
        seeds = sorted(
            s for w, s in base if w == workload and (w, s) in new
        )
        for name, bound in bounds.items():
            a = [base[workload, s][name] for s in seeds
                 if name in base[workload, s]]
            b = [new[workload, s][name] for s in seeds
                 if name in new[workload, s]]
            if not a or len(a) != len(b):
                continue
            if name in compare.EXACT:
                result = compare.exact_verdict(
                    set(zip(seeds, a)), set(zip(seeds, b))
                )
            else:
                result = compare.verdict(a, b, bound)
            aq, bq = compare.quartiles(a), compare.quartiles(b)
            rows.append({
                "workload": workload,
                "metric": name,
                "base": aq,
                "new": bq,
                "ratio": bq[1] / aq[1] if aq[1] else float("nan"),
                "lower": sum(y < x for x, y in zip(a, b)),
                "pairs": len(seeds),
                "seeds": (seeds[0], seeds[-1]),
                "verdict": result,
            })
    return rows


def render(rows: list) -> str:
    """The rows as docs/PERFORMANCE.md's markdown table."""
    lines = [
        "| workload | metric | parent | this PR | ratio | change lower "
        "| verdict | pairs (seeds) |",
        "|---|---|---|---|---|---|---|---|",
    ]
    shown = None
    for row in rows:
        first = row["workload"] != shown
        shown = row["workload"]
        cells = [
            f"`{row['workload']}`" if first else "",
            f"`{row['metric']}`",
            " / ".join(f"{v:.5g}" for v in row["base"]),
            " / ".join(f"{v:.5g}" for v in row["new"]),
            f"{row['ratio']:.3f}",
            f"{row['lower']}/{row['pairs']}",
            row["verdict"],
            (f"{row['pairs']} ({row['seeds'][0]}-{row['seeds'][1]})"
             if first else ""),
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def bounds_from_benchmark(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        benchmark = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    bounds.update({name: 0.0 for name in compare.EXACT})
    return bounds


def side_files(out: str, side: str) -> list:
    return sorted(
        os.path.join(out, name) for name in os.listdir(out)
        if name.startswith(f"{side}-") and name.endswith(".json")
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--base", help="tree of the parent commit")
    parser.add_argument("--new", help="tree of the change")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", help="a-b, inclusive")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", help="result directory "
                        "(default benchmarks/out/perf_pairs/<workload>)")
    parser.add_argument("--summarize", metavar="DIR",
                        help="only print the table of an earlier run")
    args = parser.parse_args(argv)
    if args.summarize:
        out = args.summarize
    else:
        if not (args.base and args.new and args.workload and args.seeds):
            parser.error("--base, --new, --workload and --seeds are "
                         "required (or --summarize DIR)")
        out = args.out or os.path.join(DEFAULT_OUT, args.workload)
        trees = {"base": os.path.abspath(args.base),
                 "new": os.path.abspath(args.new)}
        run_pairs(trees, args.workload, parse_seeds(args.seeds),
                  args.seconds, out)
    rows = summarize(
        load_runs(side_files(out, "base")),
        load_runs(side_files(out, "new")),
        bounds_from_benchmark(),
    )
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
