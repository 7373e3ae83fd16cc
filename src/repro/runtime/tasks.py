"""Runtime task classes.

"The runtime contains a class for every distinct kind of task that can
arise in the Lime language (e.g., sources, sinks, filters)"
(Section 4.1). :class:`DeviceTask` is the product of task substitution:
a stage (or fused span of stages) executing on an accelerator behind
the marshaling boundary.

Each task has one body, ``run(ctx)``, written against
:class:`~repro.runtime.queues.Edge`. Which edge type it was wired with,
and whether it runs on its own thread or after its upstream finished,
is the scheduler's business (DESIGN.md §3c).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import RuntimeGraphError
from repro.runtime.queues import END_OF_STREAM, Edge
from repro.values import MutableArray, ValueArray


class ExecutionContext:
    """What tasks need while executing: the engine's interpreter (with
    cycle metering) and the current graph's timing record."""

    def __init__(self, engine, graph_run):
        self.engine = engine
        self.graph_run = graph_run

    def invoke(self, method: str, args: list):
        """Call a compiled method; returns (value, abstract cycles)."""
        return self.engine.metered_call(method, args)

    def seconds_for_cycles(self, cycles: int) -> float:
        return self.engine.ledger.cycles_to_seconds(cycles)

    @property
    def tracer(self):
        """The engine's tracer (null when tracing is disabled or when
        the engine is a bare test stub)."""
        from repro.obs.tracer import NULL_TRACER

        config = getattr(self.engine, "config", None)
        return getattr(config, "tracer", None) or NULL_TRACER

    @property
    def metrics(self):
        """The tracer's metrics registry (null when disabled)."""
        from repro.obs.metrics import NULL_METRICS

        return getattr(self.tracer, "metrics", NULL_METRICS)

    @property
    def artifact_source(self) -> "str | None":
        """The engine store's provenance (``cold``/``warm``/``mixed``),
        or None for bare test stubs — lets the schedulers stamp
        ``artifact_source`` on stage spans so a trace shows whether a
        run executed freshly compiled or cache-loaded artifacts."""
        store = getattr(self.engine, "store", None)
        return getattr(store, "provenance", None)

    def health_state(self, task) -> "str | None":
        """The circuit-breaker state for a device task's span, or None
        for plain bytecode tasks / engines without a health registry —
        lets the schedulers stamp ``breaker_state`` on stage spans."""
        key = getattr(task, "artifact_id", None)
        registry = getattr(self.engine, "health", None)
        if key is None or registry is None:
            return None
        return registry.state_of(task.device, key)

    @property
    def cancel_token(self):
        """The job's :class:`~repro.runtime.cancel.CancelToken`, or
        None for standalone runs and bare test stubs. Task loops cache
        this once and poll ``token.check()`` at firing/batch
        boundaries — cancellation is cooperative, never preemptive."""
        return getattr(self.engine, "cancel_token", None)


class Task:
    kind = "task"
    device = "bytecode"

    def __init__(self, task_id: Optional[str]):
        self.task_id = task_id or f"dynamic:{id(self)}"
        # Wired by the scheduler when execution starts.
        self.input_conn: Optional[Edge] = None
        self.output_conn: Optional[Edge] = None

    def run(self, ctx: ExecutionContext) -> None:
        """Consume the input edge to end of stream, produce on the
        output edge, close it."""
        raise NotImplementedError

    def _stage(self, ctx: ExecutionContext):
        return ctx.graph_run.stage(self.task_id, self.device)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.task_id}>"


# Per-item runtime overheads (abstract CPU cycles) for the host-side
# queue handling of each stage.
_QUEUE_CYCLES = 30


class SourceTask(Task):
    """Produces the elements of a value array, ``rate`` items per
    firing (Figure 1, line 17: ``input.source(1)``)."""

    kind = "source"

    def __init__(self, array: ValueArray, rate: int, task_id=None):
        super().__init__(task_id)
        if not isinstance(array, ValueArray):
            raise RuntimeGraphError(
                "source() requires a value array at run time"
            )
        self.array = array
        self.rate = max(rate, 1)

    def emit_items(self) -> list:
        if self.rate == 1:
            return list(self.array)
        return [
            self.array[i : i + self.rate]
            for i in range(0, len(self.array), self.rate)
        ]

    def run(self, ctx):
        stage = self._stage(ctx)
        token = ctx.cancel_token
        out = self.output_conn
        try:
            # Cancellation is polled before each item; the edge moves
            # them in runs, one lock per run.
            out.put_many(
                self.emit_items(), None if token is None else token.check
            )
        finally:
            stage.items += out.items_transferred
        stage.busy_s += ctx.seconds_for_cycles(_QUEUE_CYCLES * stage.items)
        out.close()


class SinkTask(Task):
    """Accumulates stream items into a mutable array (Figure 1,
    line 19: ``result.<bit>sink()``)."""

    kind = "sink"

    def __init__(self, array: MutableArray, task_id=None):
        super().__init__(task_id)
        if not isinstance(array, MutableArray):
            raise RuntimeGraphError(
                "sink() requires a mutable array at run time"
            )
        self.array = array
        self._index = 0

    def _store(self, item) -> None:
        if self._index >= len(self.array):
            raise RuntimeGraphError(
                f"sink overflow: array of length {len(self.array)} "
                f"cannot take item #{self._index + 1}"
            )
        self.array[self._index] = item
        self._index += 1

    def run(self, ctx):
        stage = self._stage(ctx)
        token = ctx.cancel_token
        eos = False
        while not eos:
            # Whatever is queued, in one take; stored one at a time.
            items, eos = self.input_conn.get_queued()
            for item in items:
                if token is not None:
                    token.check()
                self._store(item)
                stage.items += 1
        stage.busy_s += ctx.seconds_for_cycles(_QUEUE_CYCLES * stage.items)


class FilterTask(Task):
    """An inner task: repeatedly applies a local method, consuming
    ``arity`` items per firing (Section 2.2: the actor fires "when the
    port contains sufficient data to satisfy the argument requirements
    of the method")."""

    kind = "filter"

    def __init__(self, method: str, arity: int = 1, task_id=None,
                 relocatable: bool = False, instance=None):
        super().__init__(task_id)
        self.method = method
        self.arity = max(arity, 1)
        self.relocatable = relocatable
        # Stateful tasks (Section 2.1): the isolating-constructor-built
        # instance that carries the pipeline state across firings.
        self.instance = instance

    def _call_args(self, batch: list) -> list:
        if self.instance is not None:
            return [self.instance] + list(batch)
        return list(batch)

    def _latency_observer(self, ctx):
        """Per-firing simulated-latency histogram observer, or ``None``
        when metrics are disabled (so the hot loop pays one None check
        per firing, nothing more)."""
        hist = ctx.metrics.histogram(f"stage.item_latency_us[{self.task_id}]")
        return hist.observe if hist.enabled else None

    def run(self, ctx):
        stage = self._stage(ctx)
        observe = self._latency_observer(ctx)
        token = ctx.cancel_token
        cycles = 0
        while True:
            batch = self.input_conn.get_batch(self.arity)
            if batch and batch[0] is END_OF_STREAM:
                break
            if token is not None:
                token.check()
            value, used = ctx.invoke(self.method, self._call_args(batch))
            cycles += used + _QUEUE_CYCLES
            if observe is not None:
                observe(ctx.seconds_for_cycles(used + _QUEUE_CYCLES) * 1e6)
            self.output_conn.put(value)
            stage.items += 1
        stage.busy_s += ctx.seconds_for_cycles(cycles)
        self.output_conn.close()


def replay_filters(invoke, filters, items: list, overhead: int = 0):
    """Apply a span's :class:`FilterTask`s to a list of items, one whole
    stage after the other; ``invoke(method, args)`` returns ``(value,
    cycles)``. Returns ``(outputs, cycles)``. ``overhead`` is charged
    per firing: the queue handling a bytecode stage pays, and a breaker
    fallback or a cost probe of the same span does not."""
    cycles = 0
    for task in filters:
        fired = []
        for i in range(0, len(items), task.arity):
            value, used = invoke(
                task.method, task._call_args(items[i : i + task.arity])
            )
            cycles += used + overhead
            fired.append(value)
        items = fired
    return items, cycles


def run_batches(task: Task, ctx: ExecutionContext, limit, execute) -> None:
    """The body of a stage that crosses to a device in batches: drain
    up to ``limit()`` items, ``execute(batch) -> (outputs,
    busy_seconds)``, forward the outputs in one ``put_many``;
    cancellation is polled once per batch."""
    stage = task._stage(ctx)
    token = ctx.cancel_token
    done = False
    while not done:
        batch, done = task.input_conn.get_up_to(limit())
        if batch:
            if token is not None:
                token.check()
            outputs, seconds = execute(batch)
            stage.busy_s += seconds
            stage.items += len(outputs)
            task.output_conn.put_many(outputs)
    task.output_conn.close()


class DeviceTask(Task):
    """A substituted span of filters running on an accelerator.

    ``executor`` is provided by the engine when the substitution is
    performed; it takes a list of items and returns
    ``(outputs, busy_seconds)`` with marshaling and kernel/RTL time
    already recorded in the ledger.

    ``batch_size`` is the marshaling batch: how many FIFO elements are
    drained and dispatched across the host/device boundary per
    crossing (``RuntimeConfig.batch_size``).
    """

    kind = "device"

    def __init__(
        self,
        artifact_id: str,
        device: str,
        covered_task_ids: list,
        executor: Callable,
        batch_size: int = 4096,
    ):
        super().__init__(artifact_id)
        # Kept under its own name: it is the breaker key the health
        # registry files this span under (ExecutionContext.health_state).
        self.artifact_id = artifact_id
        self.device = device
        self.covered_task_ids = list(covered_task_ids)
        self.executor = executor
        self.batch_size = max(int(batch_size), 1)

    def run(self, ctx):
        run_batches(self, ctx, lambda: self.batch_size, self.executor)
