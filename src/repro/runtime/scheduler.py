"""Task-graph schedulers.

A task's computation is written once, as ``Task.run(ctx)`` against
:class:`~repro.runtime.queues.Edge`; a scheduler is an edge type plus a
driving order (DESIGN.md §3c). :class:`ThreadedScheduler` is the
paper's: it "creates a thread for each task. These threads will block
on the incoming connections until enough data is available" (Section
4.1); the threads are pooled, so a graph run starts one only when
none is idle.
:class:`SequentialScheduler` calls the same bodies one after the
other over in-process edges; it is reproducible to the cycle, which the
benchmark harness prefers, and quiescent between stages.

Both participate in the resilience story (``docs/RESILIENCE.md``): a
stage failure closes the stage's output, so downstream drains what was
produced, and is surfaced from ``join()`` with the failing task/device
attached; the threaded scheduler optionally runs a per-stage watchdog
that turns a stalled device stage into a
:class:`~repro.errors.DeviceTimeoutError` instead of a hang.
"""

from __future__ import annotations

import functools
import time

from repro.errors import (
    DeviceTimeoutError, JobCancelledError, RuntimeGraphError,
)
from repro.runtime.graph import Pipeline
from repro.runtime.queues import InlineEdge
from repro.runtime.tasks import ExecutionContext
from repro.runtime.workers import spawn


def _attach_stage_context(exc: BaseException, task, scheduler: str) -> None:
    """Annotate a stage failure with the task/device it came from,
    preserving the original exception type for callers that match on
    it. Idempotent across repeated ``join()`` calls."""
    note = (
        f"in stage {task.task_id!r} on device {task.device!r} "
        f"({scheduler} scheduler)"
    )
    notes = getattr(exc, "__notes__", [])
    if note not in notes:
        exc.add_note(note)


def _run_stage(scheduler, task, ctx: ExecutionContext, **opened) -> None:
    """Run one task body inside its ``run.graph.stage`` span. What is
    said about a stage is said here, for both schedulers; what a
    scheduler's edges measured comes from its ``edge_report``."""
    with ctx.tracer.span(
        "run.graph.stage",
        task_id=task.task_id,
        device=task.device,
        task_kind=task.kind,
        scheduler=scheduler.name,
        **opened,
    ) as span:
        batch_size = getattr(task, "batch_size", None)
        if batch_size is not None:
            # Device stages dispatch in marshaling batches
            # (RuntimeConfig.batch_size); surface the knob so a trace
            # explains the crossing count.
            span.set(batch_size=batch_size)
        covered = getattr(task, "covered_task_ids", None)
        if covered is not None:
            # A multi-stage device task is a fused span: one crossing
            # per batch for the whole run (docs/FUSION.md).
            span.set(fused=len(covered) > 1, fused_span=len(covered))
        task.run(ctx)
        span.set(**scheduler.edge_report(task, ctx))
        source = ctx.artifact_source
        if source is not None:
            # Warm runs execute cache-loaded artifacts; the stamp lets
            # a trace prove no codegen ran.
            span.set(artifact_source=source)
        breaker = ctx.health_state(task)
        if breaker is not None:
            # The breaker's state after the stage drained: traces show
            # whether a span finished demoted, on probation, or
            # re-promoted.
            span.set(breaker_state=breaker)


def _end_stream(task) -> None:
    """A failed stage ends its stream — after its error is recorded, so
    a downstream stage tripping over the short stream never reports
    first: downstream drains what was produced instead of waiting."""
    if task.output_conn is not None:
        task.output_conn.close()


def _fatal(errors) -> bool:
    """Whether a cancellation or a (simulated) process crash takes every
    stage down, so the run is drained (DESIGN.md §3c)."""
    return any(
        isinstance(exc, JobCancelledError) or not isinstance(exc, Exception)
        for _, exc in errors
    )


def _items_on(edge) -> int:
    return edge.items_transferred if edge is not None else 0


class SequentialScheduler:
    """Runs each stage to completion over the whole stream, on the
    calling thread, in pipeline order."""

    name = "sequential"

    @staticmethod
    def edge_report(task, ctx: ExecutionContext) -> dict:
        # Nothing waits on an in-process edge: the explicit zero keeps
        # profile reports uniform across schedulers.
        return {
            "out_items": _items_on(task.output_conn),
            "queue_wait_us": 0.0,
        }

    def run_to_completion(self, pipeline: Pipeline, ctx: ExecutionContext) -> None:
        pipeline.validate()
        pipeline.wire(edge=InlineEdge)
        for task in pipeline.tasks:
            try:
                _run_stage(
                    self, task, ctx, in_items=_items_on(task.input_conn)
                )
            except BaseException as exc:
                if not pipeline.failed:
                    # A mid-stage failure must not leave the pipeline
                    # looking "never started": record it so join()
                    # surfaces the original error, not a misleading one.
                    pipeline.failed = True
                    pipeline.failure = exc
                    pipeline.started = True
                    _attach_stage_context(exc, task, self.name)
                if not isinstance(exc, Exception):
                    raise  # a (simulated) process crash unwinds at once
                _end_stream(task)
            else:
                # Sequential execution is quiescent between stages —
                # the one scheduler that can persist crash-recovery
                # checkpoint frames mid-graph (docs/RECOVERY.md).
                quiesce = getattr(ctx.engine, "checkpoint_quiesce", None)
                if quiesce is not None and not pipeline.failed:
                    quiesce(inline=True)
        if pipeline.failed:
            raise pipeline.failure
        pipeline.started = True

    def join(self, pipeline: Pipeline) -> None:
        if pipeline.failed and pipeline.failure is not None:
            raise pipeline.failure
        if not pipeline.started:
            raise RuntimeGraphError(
                f"graph was never started: {pipeline.describe()}"
            )

    def shutdown(self, pipeline: Pipeline, timeout_s: float = 0.5) -> bool:
        """Sequential runs hold no FIFOs or threads; a cancelled run
        has already unwound by the time anyone can call this."""
        return True


class ThreadedScheduler:
    """One thread per task, blocking FIFO connections in between.

    The threads come from the process-wide pool
    (:mod:`repro.runtime.workers`): each stage holds one for its whole
    run, and ``pipeline.threads`` holds their joinable handles.
    ``stage_timeout_s`` arms a per-stage watchdog: ``join()`` waits at
    most that long for each stage thread (cumulatively from the point
    the previous stage finished) and raises
    :class:`~repro.errors.DeviceTimeoutError` naming the stalled stage.
    Worker threads are daemonic so a genuinely hung device simulator
    cannot wedge interpreter shutdown; its worker never returns to the
    pool.
    """

    name = "threaded"

    def __init__(self, queue_capacity: int = 64,
                 stage_timeout_s: "float | None" = None,
                 job_id: "str | None" = None,
                 tenant: "str | None" = None):
        self.queue_capacity = queue_capacity
        self.stage_timeout_s = stage_timeout_s
        # Service-job attribution: stamped onto watchdog timeouts so a
        # multi-tenant error report can name whose stage stalled.
        self.job_id = job_id
        self.tenant = tenant

    @staticmethod
    def edge_report(task, ctx: ExecutionContext) -> dict:
        report = {}
        stage = ctx.graph_run.stages.get(task.task_id)
        if stage is not None:
            report.update(items=stage.items, busy_s=stage.busy_s)
        if task.output_conn is not None:
            report.update(
                out_items=task.output_conn.items_transferred,
                queue_depth=task.output_conn.approximate_depth,
            )
        # Queue-wait is an explicit attribute (not folded into the span
        # duration) so profile reports can separate blocking on FIFOs
        # from actual work.
        # (A source has no input edge, a sink no output edge.)
        wait_in = getattr(task.input_conn, "consumer_wait_s", 0.0)
        wait_out = getattr(task.output_conn, "producer_wait_s", 0.0)
        report.update(
            queue_wait_in_us=wait_in * 1e6,
            queue_wait_out_us=wait_out * 1e6,
            queue_wait_us=(wait_in + wait_out) * 1e6,
        )
        return report

    def start(self, pipeline: Pipeline, ctx: ExecutionContext) -> None:
        pipeline.validate()
        pipeline.wire(
            self.queue_capacity, metrics=getattr(ctx.tracer, "metrics", None)
        )
        errors: list = []  # [(task, exception)]
        # Stage spans run on worker threads; capture the graph span on
        # the scheduling thread so they nest under it explicitly.
        parent = ctx.tracer.current()

        def runner(task):
            try:
                _run_stage(
                    self, task, ctx,
                    parent=parent, queue_capacity=self.queue_capacity,
                )
            except BaseException as exc:  # propagate to finish()
                errors.append((task, exc))
                _end_stream(task)
                if not _fatal([(task, exc)]) and task.input_conn is not None:
                    # As in a sequential run: upstream runs to its end
                    # (taken here, dropped), downstream to ours.
                    while not task.input_conn.get_queued()[1]:
                        pass

        pipeline._errors = errors
        pipeline.threads = [
            spawn(functools.partial(runner, task), f"lime-{task.task_id}")
            for task in pipeline.tasks
        ]
        pipeline.started = True

    def run_to_completion(self, pipeline: Pipeline, ctx: ExecutionContext) -> None:
        self.start(pipeline, ctx)
        self.join(pipeline)

    # How long each join slice blocks before re-checking for recorded
    # stage errors. Small enough that a failed stage is noticed (and
    # its wedged FIFOs drained) promptly; large enough not to spin.
    _JOIN_SLICE_S = 0.02

    def join(self, pipeline: Pipeline) -> None:
        if not pipeline.started:
            raise RuntimeGraphError(
                f"graph was never started: {pipeline.describe()}"
            )
        errors = pipeline._errors
        for thread, task in zip(pipeline.threads, pipeline.tasks):
            if _fatal(errors):
                # The job was cancelled or the process crashed: stop
                # waiting for orderly completion and drain below.
                break
            deadline = (
                time.perf_counter() + self.stage_timeout_s
                if self.stage_timeout_s is not None
                else None
            )
            while thread.is_alive() and not _fatal(errors):
                if deadline is not None and time.perf_counter() >= deadline:
                    # The stage watchdog fired: a stage is stalled
                    # (hung kernel, wedged queue). Threads are
                    # daemonic, so drain what we can and surface the
                    # stall.
                    pipeline.failed = True
                    error = DeviceTimeoutError(
                        f"stage {task.task_id!r} on device "
                        f"{task.device!r} exceeded the "
                        f"{self.stage_timeout_s}s watchdog timeout",
                        task_id=task.task_id,
                        device=task.device,
                        job_id=self.job_id,
                        tenant=self.tenant,
                    )
                    pipeline.failure = error
                    self.shutdown(pipeline)
                    raise error
                thread.join(self._JOIN_SLICE_S)
        if errors:
            if _fatal(errors):
                # Drain FIFOs and join the surviving workers before
                # surfacing the failure: a blocked producer must not
                # wedge this join forever.
                self.shutdown(pipeline)
            task, exc = errors[0]
            pipeline.failed = True
            pipeline.failure = exc
            _attach_stage_context(exc, task, self.name)
            raise exc

    def shutdown(self, pipeline: Pipeline, timeout_s: float = 0.5) -> bool:
        """Bounded-wait teardown of a failed or cancelled run.

        Repeatedly drains every FIFO (unblocking producers stuck in
        ``put``/``close`` on full queues and waking consumers stuck in
        ``get`` via the pushed-back end-of-stream) and joins worker
        threads in short slices, until all threads are dead or
        ``timeout_s`` expires. Returns True when every worker joined;
        False means a genuinely hung (daemonic) thread was abandoned.
        """
        deadline = time.perf_counter() + max(0.0, timeout_s)
        while True:
            alive = [t for t in pipeline.threads if t.is_alive()]
            if not alive:
                return True
            for conn in pipeline.connections():
                conn.drain_bounded(0.0)
            alive[0].join(self._JOIN_SLICE_S)
            if time.perf_counter() >= deadline:
                # One last sweep so nothing stays blocked on a FIFO
                # even if we are about to abandon it.
                for conn in pipeline.connections():
                    conn.drain_bounded(0.0)
                return not any(t.is_alive() for t in pipeline.threads)
