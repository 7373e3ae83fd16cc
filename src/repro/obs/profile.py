"""The runtime profiler: spans + metrics -> a structured ProfileReport.

The tracer records *what happened*; this module answers *why the run
was slow*. :func:`build_profile` consumes a finished run's spans and
metrics registry and produces a :class:`ProfileReport` with:

* a per-task / per-device time breakdown (compute vs marshal vs
  queue-wait vs planning vs host),
* per-stage utilization (share of a stage's window spent working
  rather than blocked on its FIFOs) and queue-occupancy statistics
  sampled from ``Connection`` put/get instrumentation,
* latency histograms from the metrics registry (marshaling crossings,
  offload batches, per-item stage latency, retry backoff),
* a critical-path analysis over the span tree: the chain of segments
  that covers the run's wall clock exactly, so segment durations sum
  to the measured wall clock by construction and the dominant segment
  names the bottleneck.

Reports carry ``schema: repro.profile/1`` and are emitted by
``python -m repro profile <app>`` as text or ``--json``;
:func:`compare_profiles` implements the ``--baseline`` regression
check over the *simulated* (deterministic) times, so CI can gate on
it without wall-clock noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro import schema

#: Schema identifier stamped into every report (bump on breaking
#: changes to the JSON layout; validators match it exactly).
PROFILE_SCHEMA = "repro.profile/1"

#: Default regression threshold for baseline comparison: a simulated
#: time (or crossing count) more than this fraction above the baseline
#: is flagged.
DEFAULT_REGRESSION_THRESHOLD = 0.10


@dataclass
class PathSegment:
    """One stretch of the critical path: ``[start_us, start_us +
    duration_us)`` attributed to the innermost span active there."""

    name: str
    start_us: float
    duration_us: float
    task: "str | None" = None

    def to_json(self) -> dict:
        payload = {
            "name": self.name,
            "start_us": round(self.start_us, 3),
            "duration_us": round(self.duration_us, 3),
        }
        if self.task is not None:
            payload["task"] = self.task
        return payload


@dataclass
class ProfileReport:
    """A structured profile of one traced run. ``data`` is the
    schema-stamped JSON payload; the helpers render and serialize."""

    data: dict = field(default_factory=dict)

    @property
    def wall_us(self) -> float:
        return self.data.get("wall_us", 0.0)

    @property
    def stages(self) -> list:
        return self.data.get("stages", [])

    @property
    def critical_path(self) -> dict:
        return self.data.get("critical_path", {})

    def to_json(self) -> dict:
        return self.data

    def dumps(self, indent: int = 2) -> str:
        return json.dumps(self.data, indent=indent, sort_keys=False)

    def render(self) -> str:
        return render_profile(self.data)


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------


def _task_label(span) -> "str | None":
    attrs = span.attributes
    return attrs.get("task_id") or attrs.get("target") or attrs.get("task")


def find_run_root(tracer):
    """The root span covering runtime execution: the first finished
    ``run`` span, falling back to the longest finished root span."""
    finished = [s for s in list(tracer.spans) if s.finished]
    runs = [s for s in finished if s.name == "run"]
    if runs:
        return runs[0]
    roots = [s for s in finished if s.parent_id is None]
    if not roots:
        return None
    return max(roots, key=lambda s: s.duration_us)


def critical_path(tracer, root=None) -> "tuple[list, object]":
    """The segment chain covering ``root``'s interval exactly.

    Walks the span tree attributing every instant of the root's window
    to the innermost span active then. Overlapping children (threaded
    stage spans) are clipped against the running cursor, so a stage
    contributes only the stretch *after* the previous stage finished —
    exactly the pipeline-bottleneck attribution — and the segment
    durations sum to the root duration by construction.

    Returns ``(segments, root)``; ``([], None)`` without a usable root.
    """
    if root is None:
        root = find_run_root(tracer)
    if root is None:
        return [], None
    children: dict = {}
    for span in list(tracer.spans):
        if span.finished and span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    segments: list[PathSegment] = []

    def visit(span, lo: float, hi: float) -> None:
        kids = sorted(
            (
                k
                for k in children.get(span.span_id, [])
                if k.end_us > lo and k.start_us < hi
            ),
            key=lambda s: (s.start_us, s.end_us),
        )
        cursor = lo
        label = _task_label(span)
        for kid in kids:
            if kid.end_us <= cursor:
                continue
            start = max(kid.start_us, cursor)
            if start > cursor:
                segments.append(
                    PathSegment(span.name, cursor, start - cursor, label)
                )
                cursor = start
            end = min(kid.end_us, hi)
            if end > cursor:
                visit(kid, cursor, end)
                cursor = end
        if cursor < hi:
            segments.append(PathSegment(span.name, cursor, hi - cursor, label))

    visit(root, root.start_us, root.end_us)
    merged: list[PathSegment] = []
    for seg in segments:
        prev = merged[-1] if merged else None
        if (
            prev is not None
            and prev.name == seg.name
            and prev.task == seg.task
            and abs(prev.start_us + prev.duration_us - seg.start_us) < 1e-6
        ):
            prev.duration_us += seg.duration_us
        else:
            merged.append(seg)
    return merged, root


# ----------------------------------------------------------------------
# Report assembly
# ----------------------------------------------------------------------


def _segment_category(name: str) -> str:
    if name.startswith("run.marshal"):
        return "marshal"
    if name == "run.offload":
        return "compute"
    if name == "run.graph.stage":
        return "stage"
    if name == "run.substitution":
        return "planning"
    if name in (
        "retry.attempt",
        "retry.recovered",
        "demotion.taken",
        "breaker.transition",
        "probe.shadow",
    ):
        return "recovery"
    if name in ("run", "run.graph"):
        return "host"
    return "other"


def _stage_profiles(spans, ledger, wall_us: float) -> list:
    """Per-task rows: task-graph stages plus offload targets."""
    stages: dict = {}
    order: list = []

    def row(key, name, kind, device):
        if key not in stages:
            stages[key] = {
                "name": name,
                "kind": kind,
                "device": device,
                "span_us": 0.0,
                "items": 0,
                "calls": 0,
                "queue_wait_in_us": 0.0,
                "queue_wait_out_us": 0.0,
                "queue_wait_us": 0.0,
                "busy_sim_s": 0.0,
            }
            order.append(key)
        return stages[key]

    for span in spans:
        attrs = span.attributes
        if span.name == "run.graph.stage":
            task_id = attrs.get("task_id", "?")
            entry = row(
                ("stage", task_id), task_id, "stage",
                attrs.get("device", "?"),
            )
            entry["span_us"] += span.duration_us
            entry["calls"] += 1
            entry["items"] = max(
                entry["items"],
                int(attrs.get("items") or attrs.get("out_items") or 0),
            )
            entry["queue_wait_in_us"] += attrs.get("queue_wait_in_us", 0.0)
            entry["queue_wait_out_us"] += attrs.get("queue_wait_out_us", 0.0)
            entry["queue_wait_us"] += attrs.get("queue_wait_us", 0.0)
        elif span.name == "run.offload":
            target = attrs.get("target", "?")
            entry = row(
                ("offload", target), target, "offload",
                attrs.get("device", "?"),
            )
            entry["span_us"] += span.duration_us
            entry["calls"] += 1
            entry["items"] += int(attrs.get("items") or 0)

    if ledger is not None:
        for run in getattr(ledger, "graph_runs", []):
            for stage in run.stages.values():
                key = ("stage", stage.task_id)
                if key in stages:
                    stages[key]["busy_sim_s"] += stage.busy_s
                    stages[key]["items"] = max(
                        stages[key]["items"], stage.items
                    )
        for record in getattr(ledger, "offloads", []):
            key = ("offload", record.target)
            if key in stages:
                stages[key]["busy_sim_s"] += record.total_s

    rows = []
    for key in order:
        entry = stages[key]
        span_us = entry["span_us"]
        wait_us = min(entry["queue_wait_us"], span_us)
        entry["utilization"] = round(
            (span_us - wait_us) / span_us if span_us > 0 else 0.0, 4
        )
        entry["share_of_wall"] = round(
            min(span_us / wall_us, 1.0) if wall_us > 0 else 0.0, 4
        )
        for field_name in (
            "span_us", "queue_wait_in_us", "queue_wait_out_us",
            "queue_wait_us",
        ):
            entry[field_name] = round(entry[field_name], 3)
        entry["busy_sim_s"] = round(entry["busy_sim_s"], 12)
        rows.append(entry)
    rows.sort(key=lambda r: r["span_us"], reverse=True)
    return rows


def _queue_stats(metrics_snapshot: dict) -> list:
    """Queue-occupancy rows recovered from the per-edge ``queue.*``
    instruments recorded by :class:`repro.runtime.queues.Connection`."""
    histograms = metrics_snapshot.get("histograms", {})
    counters = metrics_snapshot.get("counters", {})
    rows = []
    prefix = "queue.depth["
    for name in sorted(histograms):
        if not (name.startswith(prefix) and name.endswith("]")):
            continue
        edge = name[len(prefix):-1]
        hist = histograms[name]
        rows.append(
            {
                "edge": edge,
                "samples": hist.get("count", 0),
                "mean_depth": round(hist.get("mean", 0.0), 3),
                "max_depth": hist.get("max", 0),
                "p50_depth": round(hist.get("p50", 0.0), 3),
                "p90_depth": round(hist.get("p90", 0.0), 3),
                "producer_wait_us": round(
                    counters.get(f"queue.producer_wait_us[{edge}]", 0.0), 3
                ),
                "consumer_wait_us": round(
                    counters.get(f"queue.consumer_wait_us[{edge}]", 0.0), 3
                ),
            }
        )
    return rows


def build_profile(
    tracer,
    ledger=None,
    app: str = "",
    entry: str = "",
    scheduler: str = "",
) -> ProfileReport:
    """Aggregate a finished traced run into a :class:`ProfileReport`."""
    spans = [s for s in list(tracer.spans) if s.finished]
    segments, root = critical_path(tracer)
    wall_us = root.duration_us if root is not None else 0.0

    breakdown = {
        "compute": 0.0,
        "stage": 0.0,
        "marshal": 0.0,
        "queue_wait": 0.0,
        "planning": 0.0,
        "recovery": 0.0,
        "host": 0.0,
        "other": 0.0,
    }
    stage_rows = _stage_profiles(spans, ledger, wall_us)
    wait_fraction = {
        row["name"]: (
            row["queue_wait_us"] / row["span_us"] if row["span_us"] else 0.0
        )
        for row in stage_rows
        if row["kind"] == "stage"
    }
    for seg in segments:
        category = _segment_category(seg.name)
        if category == "stage":
            # Split a stage segment into genuine work vs FIFO blocking
            # using the stage's measured wait fraction (satellite:
            # queue-wait is an explicit attribute, not folded into the
            # span duration).
            frac = wait_fraction.get(seg.task or "", 0.0)
            breakdown["queue_wait"] += seg.duration_us * frac
            breakdown["stage"] += seg.duration_us * (1.0 - frac)
        else:
            breakdown[category] += seg.duration_us
    breakdown = {k: round(v, 3) for k, v in breakdown.items()}

    metrics = getattr(tracer, "metrics", None)
    metrics_snapshot = (
        metrics.snapshot()
        if metrics is not None and getattr(metrics, "enabled", False)
        else {"counters": {}, "gauges": {}, "histograms": {}}
    )
    counters = metrics_snapshot["counters"] or tracer.counters.snapshot()

    path_total = sum(seg.duration_us for seg in segments)
    bottleneck = max(segments, key=lambda s: s.duration_us, default=None)
    critical = {
        "wall_us": round(wall_us, 3),
        "sum_us": round(path_total, 3),
        "coverage": round(path_total / wall_us, 4) if wall_us > 0 else 0.0,
        "segments": [
            dict(
                seg.to_json(),
                percent=round(
                    100.0 * seg.duration_us / wall_us if wall_us else 0.0, 2
                ),
            )
            for seg in segments
        ],
        "bottleneck": (
            dict(
                bottleneck.to_json(),
                percent=round(
                    100.0 * bottleneck.duration_us / wall_us
                    if wall_us
                    else 0.0,
                    2,
                ),
            )
            if bottleneck is not None
            else None
        ),
    }

    simulated = (
        {k: v for k, v in ledger.summary().items()}
        if ledger is not None
        else {}
    )

    data = {
        "schema": PROFILE_SCHEMA,
        "app": app,
        "entry": entry,
        "scheduler": scheduler,
        "wall_us": round(wall_us, 3),
        "simulated": simulated,
        "stages": stage_rows,
        "breakdown_us": breakdown,
        "queues": _queue_stats(metrics_snapshot),
        "critical_path": critical,
        "histograms": metrics_snapshot["histograms"],
        "gauges": metrics_snapshot["gauges"],
        "counters": counters,
    }
    return ProfileReport(data)


# ----------------------------------------------------------------------
# The document (the profile-smoke CI gate)
# ----------------------------------------------------------------------


def _critical_path_matches_wall(payload: dict) -> list:
    wall_us = payload["wall_us"]
    total = sum(
        seg["duration_us"] for seg in payload["critical_path"]["segments"]
    )
    if wall_us > 0 and abs(total - wall_us) > 0.05 * wall_us:
        return [
            f"critical path sums to {total:.1f}us but wall clock is "
            f"{wall_us:.1f}us (>5% apart)"
        ]
    return []


#: The ``repro.profile/1`` document (:mod:`repro.schema`).
PROFILE_SPEC = schema.obj(
    {
        "schema": schema.one_of(PROFILE_SCHEMA),
        "wall_us": schema.NON_NEGATIVE,
        "stages": schema.array(schema.obj(
            schema.keys("name", "device", "span_us", "utilization")
        )),
        "queues": schema.array(),
        **dict.fromkeys(
            ("breakdown_us", "histograms", "counters"), schema.OBJECT
        ),
        "critical_path": schema.obj({"segments": schema.array(schema.obj(
            {"duration_us": schema.NON_NEGATIVE}
        ))}),
    },
    checks=(_critical_path_matches_wall,),
)


# ----------------------------------------------------------------------
# Baseline comparison (the --baseline regression gate)
# ----------------------------------------------------------------------


def compare_profiles(
    current: dict,
    baseline: dict,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> list:
    """Regressions of ``current`` against ``baseline``.

    Compares only the *deterministic* quantities — simulated times and
    marshaling crossing counts — never the measured wall clock, so the
    gate is reproducible in CI. Returns human-readable regression
    messages (empty = no regression beyond ``threshold``).
    """
    regressions: list[str] = []

    def check(label, cur, base):
        if (
            isinstance(cur, (int, float))
            and isinstance(base, (int, float))
            and base > 0
            and cur > base * (1.0 + threshold)
        ):
            regressions.append(
                f"{label}: {base:.6g} -> {cur:.6g} "
                f"(+{100.0 * (cur - base) / base:.1f}%, "
                f"threshold {100.0 * threshold:.0f}%)"
            )

    cur_sim = current.get("simulated", {})
    base_sim = baseline.get("simulated", {})
    for key in ("total_s", "host_s", "offload_s", "graph_s"):
        check(f"simulated.{key}", cur_sim.get(key), base_sim.get(key))

    base_stages = {
        row.get("name"): row for row in baseline.get("stages", [])
    }
    for row in current.get("stages", []):
        base_row = base_stages.get(row.get("name"))
        if base_row is None:
            continue
        check(
            f"stage[{row['name']}].busy_sim_s",
            row.get("busy_sim_s"),
            base_row.get("busy_sim_s"),
        )

    check(
        "counters[marshal.batch.crossings]",
        current.get("counters", {}).get("marshal.batch.crossings"),
        baseline.get("counters", {}).get("marshal.batch.crossings"),
    )
    return regressions


# ----------------------------------------------------------------------
# Human-readable rendering
# ----------------------------------------------------------------------


def _fmt_us(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f}s"
    if value >= 1e3:
        return f"{value / 1e3:.1f}ms"
    return f"{value:.1f}us"


def render_profile(payload: dict) -> str:
    """The text form of a profile report (the CLI default output)."""
    lines: list[str] = []
    wall_us = payload.get("wall_us", 0.0)
    lines.append(
        f"profile: {payload.get('app') or '?'} "
        f"(entry {payload.get('entry') or '?'}"
        + (
            f", {payload['scheduler']} scheduler"
            if payload.get("scheduler")
            else ""
        )
        + ")"
    )
    simulated = payload.get("simulated", {})
    sim_text = (
        f"; simulated {simulated['total_s'] * 1e6:.2f} us"
        if "total_s" in simulated
        else ""
    )
    lines.append(f"wall clock (traced): {_fmt_us(wall_us)}{sim_text}")

    stages = payload.get("stages", [])
    if stages:
        lines.append("")
        lines.append("per-task breakdown (traced):")
        lines.append(
            f"  {'task':<34s} {'device':<9s} {'kind':<8s} "
            f"{'time':>10s} {'wall%':>6s} {'util%':>6s} "
            f"{'q-wait':>10s} {'items':>8s}"
        )
        for row in stages:
            lines.append(
                f"  {row['name']:<34s} {row['device']:<9s} "
                f"{row['kind']:<8s} {_fmt_us(row['span_us']):>10s} "
                f"{100 * row.get('share_of_wall', 0):>5.1f}% "
                f"{100 * row.get('utilization', 0):>5.1f}% "
                f"{_fmt_us(row.get('queue_wait_us', 0.0)):>10s} "
                f"{row.get('items', 0):>8d}"
            )

    breakdown = payload.get("breakdown_us", {})
    if breakdown and wall_us > 0:
        parts = [
            f"{name} {100.0 * value / wall_us:.1f}%"
            for name, value in sorted(
                breakdown.items(), key=lambda kv: kv[1], reverse=True
            )
            if value > 0
        ]
        lines.append("")
        lines.append("where the wall clock went: " + " | ".join(parts))

    critical = payload.get("critical_path", {})
    segments = critical.get("segments", [])
    if segments:
        lines.append("")
        lines.append(
            f"critical path ({critical.get('coverage', 0) * 100:.1f}% of "
            f"wall clock, {len(segments)} segments):"
        )
        top = sorted(
            segments, key=lambda s: s["duration_us"], reverse=True
        )[:10]
        for seg in top:
            task = f" [{seg['task']}]" if seg.get("task") else ""
            lines.append(
                f"  {seg.get('percent', 0):>5.1f}%  "
                f"{_fmt_us(seg['duration_us']):>10s}  "
                f"{seg['name']}{task}"
            )
        bottleneck = critical.get("bottleneck")
        if bottleneck:
            task = (
                f" [{bottleneck['task']}]" if bottleneck.get("task") else ""
            )
            lines.append(
                f"  bottleneck: {bottleneck['name']}{task} at "
                f"{bottleneck.get('percent', 0):.1f}% of wall clock"
            )

    queues = payload.get("queues", [])
    lines.append("")
    if queues:
        lines.append("queue occupancy:")
        for row in queues:
            lines.append(
                f"  {row['edge']:<44s} samples={row['samples']:<6d} "
                f"mean={row['mean_depth']:<7.2f} p90={row['p90_depth']:<7.2f} "
                f"max={row['max_depth']} "
                f"wait(prod/cons)={_fmt_us(row['producer_wait_us'])}"
                f"/{_fmt_us(row['consumer_wait_us'])}"
            )
    else:
        lines.append("queue occupancy: (no FIFO connections in this run)")

    histograms = payload.get("histograms", {})
    interesting = {
        name: hist
        for name, hist in histograms.items()
        if hist.get("count") and not name.startswith("queue.depth[")
    }
    if interesting:
        lines.append("")
        lines.append("latency / size histograms:")
        for name in sorted(interesting):
            hist = interesting[name]
            lines.append(
                f"  {name:<38s} n={hist['count']:<6d} "
                f"mean={hist['mean']:<12.3g} p50={hist['p50']:<12.3g} "
                f"p99={hist['p99']:<12.3g} max={hist['max']:<12.3g}"
            )

    counters = payload.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {value:>14g}  {name}")
    return "\n".join(lines)
