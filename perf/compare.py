"""Compare sets of benchmark results under the bounds in BENCHMARK.json.

    python3 perf/compare.py BASE NEW [NEW2 ...]

Each argument is one *set* of runs of one version of the code: a result
file written by ``run.py --out``, a directory of such files, or a
comma-separated list of files. Every later set is compared with the
first. One row per (workload, end-to-end metric): medians, quartiles
and a verdict -- never a combined score.

    worse       the new median is worse than the base median by more
                than the metric's bound (for modeled_s and fail_ratio,
                which must repeat exactly: any two runs of one seed
                differ at all)
    unresolved  not worse, but a set's own spread (quartile distance
                over median) is wider than the bound, so 'same' cannot
                be claimed -- unless every new run beats every base run
    improved    the medians differ by more than either set's spread
    same        otherwise

Exit status is 1 if any row is ``worse``, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Facts that must repeat exactly between two versions (bound 0). They
#: live in each run's info block: the BENCHMARK.json contract has no
#: place for an end-to-end metric that is constant or zero.
EXACT = ("modeled_s", "fail_ratio")


def result_files(spec: str) -> list:
    if os.path.isdir(spec):
        return sorted(
            os.path.join(spec, name) for name in os.listdir(spec)
            if name.endswith(".json") and not name.startswith("trace_")
        )
    return spec.split(",")


def load_set(spec: str) -> tuple:
    """((workload, metric) -> values, (workload, fact) -> {(seed, value)})
    over every untraced run in the set."""
    values: dict = {}
    exact: dict = {}
    for path in result_files(spec):
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        for run in document["runs"]:
            if run["trace"]:
                continue
            numbers = {n: m["value"] for n, m in run["metrics"].items()}
            numbers.update({name: run["info"][name] for name in EXACT})
            for name, number in numbers.items():
                values.setdefault((run["workload"], name), []).append(number)
                if name in EXACT:
                    exact.setdefault((run["workload"], name), set()).add(
                        (run["seed"], number)
                    )
    return values, exact


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def exact_verdict(base: set, new: set) -> str:
    """Facts that must repeat: one value per seed, the same in both
    sets for every seed both ran."""
    by_seed: dict = {}
    for seed, value in base | new:
        by_seed.setdefault(seed, set()).add(value)
    shared = {seed for seed, _ in base} & {seed for seed, _ in new}
    if not shared:
        return "unresolved"
    return "same" if all(len(by_seed[s]) == 1 for s in shared) else "worse"


def verdict(base: list, new: list, bound: float) -> str:
    b1, base_median, b3 = quartiles(base)
    n1, new_median, n3 = quartiles(new)
    spread = max(b3 - b1, n3 - n1)
    if new_median > base_median * (1 + bound):
        return "worse"
    if len(base) > 1 and len(new) > 1 and max(new) < min(base):
        return "improved"
    if spread > bound * base_median:
        return "unresolved"
    return "improved" if new_median < base_median - spread else "same"


def main(argv=None) -> int:
    specs = sys.argv[1:] if argv is None else argv
    if len(specs) < 2 or specs[0] in ("-h", "--help"):
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        benchmark = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    bounds.update({name: 0.0 for name in EXACT})
    workloads = [w["name"] for w in benchmark["workloads"]]
    base, base_exact = load_set(specs[0])
    worse = 0
    for spec in specs[1:]:
        new, new_exact = load_set(spec)
        print(f"base {specs[0]}  vs  new {spec}")
        print(f"{'workload':13s} {'metric':14s} {'bound':>6s} "
              f"{'base q1/median/q3 (n)':>36s} {'new q1/median/q3 (n)':>36s} "
              f"{'new/base':>8s}  verdict")
        for workload in workloads:
            for name, bound in bounds.items():
                a = base.get((workload, name))
                b = new.get((workload, name))
                if not a or not b:
                    continue
                if name in EXACT:
                    result = exact_verdict(base_exact[workload, name],
                                           new_exact[workload, name])
                else:
                    result = verdict(a, b, bound)
                worse += result == "worse"
                aq, bq = quartiles(a), quartiles(b)
                ratio = (bq[1] / aq[1]) if aq[1] else float("nan")
                print(
                    f"{workload:13s} {name:14s} {bound:6.0%} "
                    f"{aq[0]:11.5g}/{aq[1]:11.5g}/{aq[2]:11.5g} ({len(a)}) "
                    f"{bq[0]:11.5g}/{bq[1]:11.5g}/{bq[2]:11.5g} ({len(b)}) "
                    f"{ratio:8.4f}  {result}"
                )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
