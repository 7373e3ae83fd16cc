"""Structured tracing: nested spans plus a counters registry.

The runtime makes opaque decisions — task substitution, device
selection, marshaling across the host/device boundary (Sections 3–4 of
the paper) — and every later performance PR needs to see where time
goes. A :class:`Tracer` records nested, attributed spans
(``compile.frontend``, ``run.offload``, ``run.marshal.to_device``, …)
and owns a :class:`Counters` registry (offloads attempted/taken,
exclusions by reason, bytes crossed per link, substitution decisions
by rule).

Disabled tracing is the default everywhere and must cost nothing: the
module-level :data:`NULL_TRACER` singleton returns one shared
:class:`_NullSpan` from every ``span()`` call and never allocates or
stores anything. Instrumented code therefore calls the tracer
unconditionally instead of branching on a flag.

Spans are thread-aware: each thread keeps its own open-span stack, so
the thread-per-task scheduler (Section 4.1) produces correctly nested
spans per worker thread; cross-thread nesting is expressed by passing
``parent=`` explicitly.
"""

from __future__ import annotations

import itertools
import threading
import time

from repro.obs.metrics import NULL_METRICS, MetricsRegistry


class Span:
    """One timed, attributed interval. Use as a context manager."""

    __slots__ = (
        "tracer",
        "span_id",
        "parent_id",
        "name",
        "start_us",
        "end_us",
        "attributes",
        "thread_id",
        "thread_name",
    )

    def __init__(self, tracer, span_id, parent_id, name, start_us, attributes):
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_us = start_us
        self.end_us = None
        self.attributes = attributes
        thread = threading.current_thread()
        self.thread_id = thread.ident
        self.thread_name = thread.name

    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes on the open span."""
        self.attributes.update(attributes)
        return self

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    @property
    def finished(self) -> bool:
        return self.end_us is not None

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self.tracer._finish(self)
        return False

    def __repr__(self) -> str:
        return (
            f"<Span {self.name} #{self.span_id} "
            f"parent={self.parent_id} {self.duration_us:.1f}us>"
        )


class _NullSpan:
    """The shared do-nothing span returned by the null tracer."""

    __slots__ = ()

    name = ""
    span_id = 0
    parent_id = None
    start_us = 0.0
    end_us = 0.0
    duration_us = 0.0
    attributes: dict = {}

    def set(self, **attributes) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __repr__(self) -> str:
        return "<NullSpan>"


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished :class:`Span` objects and owns the counters.

    ``clock`` is any zero-argument callable returning seconds (defaults
    to :func:`time.perf_counter`); timestamps are stored as
    microseconds since the tracer's creation, which is exactly the
    ``ts`` unit of the Chrome ``trace_event`` format.
    """

    enabled = True

    def __init__(self, clock=None):
        self._clock = clock or time.perf_counter
        self._epoch = self._clock()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[Span] = []
        self.metrics = MetricsRegistry()
        self.counters = self.metrics.counters

    # -- recording -------------------------------------------------------

    def _now_us(self) -> float:
        return (self._clock() - self._epoch) * 1e6

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, parent: "Span | None" = None, **attributes) -> Span:
        """Open a span; close it via the context-manager protocol.

        The parent defaults to the innermost open span *on the calling
        thread*; pass ``parent=`` to nest under a span opened on
        another thread (e.g. the graph span owning per-stage worker
        threads).
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(
            self,
            next(self._ids),
            parent.span_id if parent is not None else None,
            name,
            self._now_us(),
            attributes,
        )
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end_us = self._now_us()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # exited out of order; drop it from wherever it sits
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self.spans.append(span)

    def current(self) -> "Span | None":
        """The innermost open span on the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- inspection ------------------------------------------------------

    def find(self, name: str) -> list:
        """Finished spans with exactly this name."""
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def find_prefix(self, prefix: str) -> list:
        """Finished spans whose name starts with ``prefix``."""
        with self._lock:
            return [s for s in self.spans if s.name.startswith(prefix)]

    def children_of(self, span) -> list:
        with self._lock:
            return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> list:
        """Finished spans with no recorded parent."""
        with self._lock:
            return [s for s in self.spans if s.parent_id is None]

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"<Tracer {len(self.spans)} spans, {len(self.counters)} counters>"


class NullTracer:
    """Zero-overhead stand-in used whenever tracing is disabled.

    Never allocates spans: every ``span()`` call returns the one shared
    :class:`_NullSpan`, and the counters registry is a no-op. All
    instrumentation points accept this object so hot paths need no
    ``if tracing:`` branches.
    """

    enabled = False
    spans: tuple = ()
    metrics = NULL_METRICS
    counters = NULL_METRICS.counters

    def span(self, name: str, parent=None, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def find(self, name: str) -> list:
        return []

    def find_prefix(self, prefix: str) -> list:
        return []

    def children_of(self, span) -> list:
        return []

    def roots(self) -> list:
        return []

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "<NullTracer>"


NULL_TRACER = NullTracer()


def as_tracer(tracer) -> "Tracer | NullTracer":
    """Normalize ``None``/missing to the null tracer."""
    return NULL_TRACER if tracer is None else tracer
