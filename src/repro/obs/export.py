"""Trace exporters: Chrome ``trace_event`` JSON and JSON-lines.

The Chrome format (one "X" complete event per span) loads directly in
``chrome://tracing`` and in Perfetto (https://ui.perfetto.dev), giving
a flame view of compile phases, substitution planning, offloads, and
marshaling crossings per thread. The JSON-lines format is the
machine-diffable equivalent: one object per span, then one per
counter.

``TRACE_SPEC`` declares the subset of the trace-event schema we emit;
:mod:`repro.schema` checks a payload against it, so CI can assert
exported traces stay loadable (the ``make trace-smoke`` target).
"""

from __future__ import annotations

import json

from repro import schema

#: Event phases we emit / accept: complete, metadata, counter,
#: begin/end (accepted for forward compatibility), instant.
_KNOWN_PHASES = ("X", "M", "C", "B", "E", "i")


def _jsonable(value):
    """Clamp attribute values to what JSON can carry."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def span_to_event(span) -> dict:
    """One finished span as a Chrome 'X' (complete) event. Attribute
    args are sorted by name so exported traces are byte-stable across
    runs (insertion order varies with scheduling)."""
    args = {k: _jsonable(v) for k, v in sorted(span.attributes.items())}
    args["span_id"] = span.span_id
    if span.parent_id is not None:
        args["parent_id"] = span.parent_id
    return {
        "name": span.name,
        "cat": span.name.split(".", 1)[0],
        "ph": "X",
        "ts": round(span.start_us, 3),
        "dur": round(span.duration_us, 3),
        "pid": 1,
        "tid": span.thread_id or 0,
        "args": args,
    }


def to_chrome_trace(tracer, process_name: str = "repro") -> dict:
    """The full tracer state as a Chrome trace-event payload."""
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    thread_names: dict[int, str] = {}
    for span in list(tracer.spans):
        if not span.finished:
            continue
        events.append(span_to_event(span))
        tid = span.thread_id or 0
        thread_names.setdefault(tid, getattr(span, "thread_name", "") or "")
    for tid, name in sorted(thread_names.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": 1,
                "tid": tid,
                "args": {"name": name or f"thread-{tid}"},
            }
        )
    counters = tracer.counters.snapshot()
    other: dict = {"counters": counters}
    metrics = getattr(tracer, "metrics", None)
    if metrics is not None and getattr(metrics, "enabled", False):
        snapshot = metrics.snapshot()
        other["gauges"] = snapshot["gauges"]
        other["histograms"] = snapshot["histograms"]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(tracer, path: str, process_name: str = "repro") -> dict:
    """Export to ``path``; returns the payload that was written."""
    payload = to_chrome_trace(tracer, process_name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    return payload


def to_json_lines(tracer) -> str:
    """One JSON object per line: spans in completion order, then
    counters. Grep/jq-friendly; every span carries its parent id so
    the tree is reconstructible."""
    lines = []
    for span in list(tracer.spans):
        if not span.finished:
            continue
        lines.append(
            json.dumps(
                {
                    "type": "span",
                    "name": span.name,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "start_us": round(span.start_us, 3),
                    "duration_us": round(span.duration_us, 3),
                    "thread": span.thread_id or 0,
                    "attributes": {
                        k: _jsonable(v)
                        for k, v in sorted(span.attributes.items())
                    },
                },
                sort_keys=True,
            )
        )
    for name, value in tracer.counters.snapshot().items():
        lines.append(
            json.dumps(
                {"type": "counter", "name": name, "value": value},
                sort_keys=True,
            )
        )
    metrics = getattr(tracer, "metrics", None)
    if metrics is not None and getattr(metrics, "enabled", False):
        snapshot = metrics.snapshot()
        for kind in ("gauge", "histogram"):
            for name, data in snapshot[f"{kind}s"].items():
                lines.append(
                    json.dumps(
                        {"type": kind, "name": name, "data": data},
                        sort_keys=True,
                    )
                )
    return "\n".join(lines) + ("\n" if lines else "")


def write_json_lines(tracer, path: str) -> str:
    text = to_json_lines(tracer)
    with open(path, "w") as f:
        f.write(text)
    return text


# ----------------------------------------------------------------------
# The document (the trace-smoke CI gate)
# ----------------------------------------------------------------------


def _complete_event_has_dur(event: dict) -> list:
    dur = event.get("dur")
    if event["ph"] == "X" and schema.problems(dur, schema.NON_NEGATIVE):
        return ["complete event needs non-negative dur"]
    return []


#: The subset of the trace-event format we emit (:mod:`repro.schema`).
TRACE_SPEC = schema.obj({
    "traceEvents": schema.array(schema.obj(
        {
            "name": schema.STRING,
            "ph": schema.one_of(*_KNOWN_PHASES, noun="phase"),
            **schema.keys("pid", "tid"),
        },
        {"ts": schema.NON_NEGATIVE, "args": schema.OBJECT},
        checks=(_complete_event_has_dur,),
    ), min=1),
})


# ----------------------------------------------------------------------
# Human-readable rendering (compile_report / CLI)
# ----------------------------------------------------------------------


def render_span_tree(tracer, indent: str = "  ") -> str:
    """Indented text tree of finished spans with durations and the
    most useful attributes — the ``compile_report(..., trace=...)``
    section and the CLI summary."""
    spans = [s for s in list(tracer.spans) if s.finished]
    if not spans:
        return "(no spans recorded)"
    children: dict = {}
    by_id = {s.span_id: s for s in spans}
    roots = []
    for span in spans:
        if span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    lines: list[str] = []

    def render(span, depth):
        attrs = ", ".join(
            f"{k}={v}"
            for k, v in span.attributes.items()
            if isinstance(v, (str, int, bool))
        )
        suffix = f"  [{attrs}]" if attrs else ""
        lines.append(
            f"{indent * depth}{span.name:<32s} "
            f"{span.duration_us:>10.1f} us{suffix}"
        )
        for child in sorted(
            children.get(span.span_id, []), key=lambda s: s.start_us
        ):
            render(child, depth + 1)

    for root in sorted(roots, key=lambda s: s.start_us):
        render(root, 0)
    return "\n".join(lines)
