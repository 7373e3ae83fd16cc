"""Runtime task graphs (linear pipelines).

"When the program executes, the task creation and connection operators
are reflected in an actual graph of runtime objects" (Section 4.1). The
connect operator conceptually creates a FIFO between tasks; in this
implementation the pipeline is assembled first and the schedulers
create the edges when execution starts (after task substitution has
replaced spans of tasks with device tasks).
"""

from __future__ import annotations

from repro.errors import RuntimeGraphError
from repro.runtime.queues import Connection
from repro.runtime.tasks import FilterTask, SinkTask, SourceTask, Task


class Pipeline:
    """An ordered chain of runtime tasks."""

    def __init__(self, tasks: list):
        self.tasks: list[Task] = list(tasks)
        self.started = False
        self.failed = False
        self.failure: "BaseException | None" = None
        self.threads: list = []
        self.graph_run = None
        self._errors: list = []

    @staticmethod
    def of(task_or_pipeline) -> "Pipeline":
        if isinstance(task_or_pipeline, Pipeline):
            return task_or_pipeline
        if isinstance(task_or_pipeline, Task):
            return Pipeline([task_or_pipeline])
        raise RuntimeGraphError(
            f"'=>' operand is not a task: {task_or_pipeline!r}"
        )

    @staticmethod
    def connect(left, right) -> "Pipeline":
        lp = Pipeline.of(left)
        rp = Pipeline.of(right)
        if lp.tasks and isinstance(lp.tasks[-1], SinkTask):
            raise RuntimeGraphError("cannot connect after a sink")
        if rp.tasks and isinstance(rp.tasks[0], SourceTask):
            raise RuntimeGraphError("cannot connect into a source")
        return Pipeline(lp.tasks + rp.tasks)

    @property
    def is_closed(self) -> bool:
        return (
            len(self.tasks) >= 2
            and isinstance(self.tasks[0], SourceTask)
            and isinstance(self.tasks[-1], SinkTask)
        )

    def validate(self) -> None:
        if not self.is_closed:
            raise RuntimeGraphError(
                "task graph must start with a source and end with a sink"
            )
        for task in self.tasks[1:-1]:
            if isinstance(task, (SourceTask, SinkTask)):
                raise RuntimeGraphError(
                    "source/sink in the middle of a pipeline"
                )

    def wire(self, capacity: int = 64, metrics=None, edge=None) -> None:
        """Create the edges between consecutive tasks: bounded FIFO
        :class:`Connection`s unless the scheduler passes its own
        ``edge`` factory.

        ``metrics`` (a :class:`repro.obs.MetricsRegistry`) attaches
        per-edge depth/wait instrumentation to every connection; the
        default ``None`` keeps the hot path untouched."""
        for upstream, downstream in zip(self.tasks, self.tasks[1:]):
            if edge is not None:
                conn = edge()
            else:
                conn = Connection(
                    capacity,
                    metrics=metrics,
                    name=f"{upstream.task_id}->{downstream.task_id}",
                )
            upstream.output_conn = conn
            downstream.input_conn = conn

    def task_ids(self) -> list:
        return [t.task_id for t in self.tasks]

    def connections(self) -> list:
        """Every wired edge, in pipeline order (empty before
        :meth:`wire`). The threaded scheduler's shutdown path iterates
        these to drain a cancelled run."""
        return [
            t.output_conn
            for t in self.tasks
            if getattr(t, "output_conn", None) is not None
        ]

    def describe(self) -> str:
        parts = []
        for task in self.tasks:
            if isinstance(task, SourceTask):
                parts.append(f"source({task.rate})")
            elif isinstance(task, SinkTask):
                parts.append("sink")
            elif isinstance(task, FilterTask):
                parts.append(task.method.split(".")[-1])
            elif hasattr(task, "covered_task_ids"):
                parts.append(f"[{task.device}:{len(task.covered_task_ids)}]")
            else:
                parts.append(task.task_id)
        return " => ".join(parts)

    def __repr__(self) -> str:
        return f"Pipeline({self.describe()})"
