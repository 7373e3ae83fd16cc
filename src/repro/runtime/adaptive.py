"""Runtime adaptation (Section 4.2's future work, implemented).

"A more sophisticated algorithm that accounts for communication costs,
performs dynamic migration, or runtime adaptation is left to future
work." The communication-aware policy covers the first; this module
covers the rest: an :class:`AdaptiveTask` holds *both* implementations
of a substituted span — the bytecode filters and the device task —
probes each on an initial mini-batch, then migrates the remainder of
the stream to whichever ran faster per item. Because every artifact is
semantically equivalent (same task identifiers, Section 3), migration
is invisible to the rest of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.tasks import (
    _QUEUE_CYCLES,
    ExecutionContext,
    FilterTask,
    Task,
    replay_filters,
    run_batches,
)

#: Items in an adaptive span's first probe batches (``_batch_limit``).
PROBE_SIZE = 32


@dataclass
class AdaptationRecord:
    """What the adaptive task measured and decided.

    The device is probed twice (different batch sizes) so its fixed
    launch/transfer overhead can be separated from the marginal
    per-item cost; the decision compares the CPU's per-item cost with
    the device's *amortized* per-item cost at full batch size."""

    artifact_id: str
    device: str
    cpu_s_per_item: float
    device_fixed_s: float
    device_marginal_s_per_item: float
    device_s_per_item: float    # amortized at batch_size
    chosen: str                 # 'bytecode' or the device kind
    probe_items: int


class AdaptiveTask(Task):
    """A substituted span that decides its own placement online."""

    kind = "adaptive"
    device = "adaptive"

    def __init__(self, device_task, cpu_methods: list):
        super().__init__(f"adaptive:{device_task.artifact_id}")
        self.artifact_id = device_task.artifact_id
        self.device_kind = device_task.device
        self.covered_task_ids = device_task.covered_task_ids
        self.device_executor = device_task.executor
        self.batch_size = device_task.batch_size
        # Adaptable spans are single-input, stateless filters.
        self.cpu_filters = [FilterTask(method) for method in cpu_methods]
        self.chosen: str | None = None
        self._cpu_per_item: float | None = None
        self._device_probes: list = []  # [(items, seconds), ...]

    # -- execution paths ---------------------------------------------------

    def _run_cpu(self, items: list, ctx: ExecutionContext):
        outputs, cycles = replay_filters(
            ctx.invoke, self.cpu_filters, items, overhead=_QUEUE_CYCLES
        )
        return outputs, ctx.seconds_for_cycles(cycles)

    def _decide(self, ctx: ExecutionContext) -> None:
        assert self._cpu_per_item is not None
        (n1, s1), (n2, s2) = self._device_probes
        if n2 == n1:
            marginal = s2 / max(n2, 1)
            fixed = 0.0
        else:
            marginal = max((s2 - s1) / (n2 - n1), 0.0)
            fixed = max(s1 - marginal * n1, 0.0)
        amortized = marginal + fixed / self.batch_size
        self.chosen = (
            "bytecode"
            if self._cpu_per_item <= amortized
            else self.device_kind
        )
        ctx.engine.adaptation_log.append(
            AdaptationRecord(
                artifact_id=self.artifact_id,
                device=self.device_kind,
                cpu_s_per_item=self._cpu_per_item,
                device_fixed_s=fixed,
                device_marginal_s_per_item=marginal,
                device_s_per_item=amortized,
                chosen=self.chosen,
                probe_items=n1 + n2,
            )
        )

    def _process(self, items: list, ctx: ExecutionContext):
        """Route one batch according to the adaptation state machine:
        CPU probe -> small device probe -> larger device probe ->
        decide -> steady state."""
        if self.chosen is not None:
            if self.chosen == "bytecode":
                return self._run_cpu(items, ctx)
            return self.device_executor(items)
        if self._cpu_per_item is None:
            outputs, seconds = self._run_cpu(items, ctx)
            self._cpu_per_item = seconds / max(len(items), 1)
            return outputs, seconds
        outputs, seconds = self.device_executor(items)
        self._device_probes.append((len(items), seconds))
        if len(self._device_probes) == 2:
            self._decide(ctx)
        return outputs, seconds

    # -- task interface --------------------------------------------------

    def _batch_limit(self) -> int:
        if self.chosen is not None:
            return self.batch_size
        # CPU probe, then device probes at 1x and 4x the probe size:
        # two points separate fixed from marginal device cost.
        if self._cpu_per_item is None or not self._device_probes:
            return PROBE_SIZE
        return PROBE_SIZE * 4

    def run(self, ctx):
        run_batches(
            self, ctx, self._batch_limit,
            lambda batch: self._process(batch, ctx),
        )
