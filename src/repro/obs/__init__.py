"""Observability: structured tracing, metrics, and trace exporters.

The subsystem every layer reports into: the compiler driver and the
three backends open ``compile.*`` spans, the runtime opens ``run.*``
spans (substitution planning, offloads, marshaling crossings, graph
stages), and counters accumulate decision statistics. Export the
result to Chrome ``trace_event`` JSON (``chrome://tracing`` /
Perfetto) or JSON-lines.

Tracing is off by default and costs nothing when off: pass a
:class:`Tracer` via ``CompileOptions(tracer=...)`` and
``RuntimeConfig(tracer=...)`` to turn it on; the default
:data:`NULL_TRACER` swallows every call without allocating.
"""

from repro.obs.export import (
    TRACE_SPEC,
    render_span_tree,
    to_chrome_trace,
    to_json_lines,
    write_chrome_trace,
    write_json_lines,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counters,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    as_metrics,
)
from repro.obs.profile import (
    PROFILE_SCHEMA,
    PROFILE_SPEC,
    ProfileReport,
    build_profile,
    compare_profiles,
    critical_path,
    render_profile,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    as_tracer,
)

__all__ = [
    "Counters",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullTracer",
    "PROFILE_SCHEMA",
    "PROFILE_SPEC",
    "ProfileReport",
    "Span",
    "TRACE_SPEC",
    "Tracer",
    "as_metrics",
    "as_tracer",
    "build_profile",
    "compare_profiles",
    "critical_path",
    "render_profile",
    "render_span_tree",
    "to_chrome_trace",
    "to_json_lines",
    "write_chrome_trace",
    "write_json_lines",
]
