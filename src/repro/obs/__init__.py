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

This package re-exports only what every layer reports into
(:mod:`.tracer`, :mod:`.metrics`). The exporters (:mod:`.export`) and
the profiler (:mod:`.profile`) sit above the runtime: import them from
their modules.
"""

from repro.obs.metrics import (
    NULL_METRICS,
    Counters,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    as_metrics,
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
    "Span",
    "Tracer",
    "as_metrics",
    "as_tracer",
]
