"""Task substitution (Section 4.2).

"For each task (sub)graph that has an alternative implementation, the
runtime is in a position to perform a substitution. At present, the
runtime algorithm for doing this substitution is primitive: it prefers
a larger substitution to a smaller one. It also favors GPU and FPGA
artifacts to bytecode although that choice can be manually directed."

:class:`SubstitutionPolicy` implements exactly that primitive
algorithm, plus the manual direction hook, plus (as an ablation, and as
the paper's future-work direction) an optional communication-aware mode
that rejects substitutions whose transfer cost would exceed the
estimated compute benefit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends.common import BYTECODE, FPGA, GPU, ArtifactStore
from repro.errors import ConfigurationError
from repro.obs.tracer import NULL_TRACER
from repro.runtime.graph import Pipeline

#: Device names a directive may name.
DIRECTIVE_DEVICES = (BYTECODE, GPU, FPGA)

#: Communication-aware mode skips a substitution whose modeled transfer
#: time exceeds this multiple of the covered span's estimated CPU time.
BENEFIT_RATIO = 1.0


@dataclass
class SubstitutionPolicy:
    """Controls which artifacts the runtime substitutes."""

    use_accelerators: bool = True
    # Preference order among accelerators when spans tie on size.
    device_order: tuple = (GPU, FPGA)
    # Manual direction: task_id -> device kind ('bytecode' pins a task
    # to the CPU; 'gpu'/'fpga' restricts it to that device).
    directives: dict = field(default_factory=dict)
    # Prefer larger substitutions (the paper's primitive algorithm).
    # Disabling this prefers the smallest candidates — ablation E6.
    prefer_larger: bool = True
    # Communication-aware mode (paper future work): skip a substitution
    # when the modeled transfer time exceeds BENEFIT_RATIO x the
    # estimated CPU compute time of the covered span.
    communication_aware: bool = False
    # Runtime adaptation (paper future work): substitute an adaptive
    # task that probes CPU vs device online and migrates to the winner.
    adaptive: bool = False

    def __post_init__(self):
        # Defensive copy: two Runtimes sharing one policy must not
        # observe each other's directive mutations.
        self.directives = dict(self.directives)
        # Eager validation: a typo'd device name must fail loudly at
        # construction, not be silently ignored during substitution.
        for task_id, device in self.directives.items():
            if device not in DIRECTIVE_DEVICES:
                raise ConfigurationError(
                    f"unknown device {device!r} in directive for task "
                    f"{task_id!r}; expected one of "
                    f"{', '.join(DIRECTIVE_DEVICES)}"
                )

    def allows(self, artifact, covered_ids: list) -> bool:
        for task_id in covered_ids:
            directive = self.directives.get(task_id)
            if directive is None:
                continue
            if directive == BYTECODE:
                return False
            if directive != artifact.device:
                return False
        return True


@dataclass
class SubstitutionDecision:
    artifact_id: str
    device: str
    start_index: int
    covered_task_ids: list
    reason: str = ""


def plan_substitutions(
    pipeline: Pipeline,
    store: ArtifactStore,
    policy: SubstitutionPolicy,
    cost_estimator=None,
    counters=None,
) -> list:
    """Choose non-overlapping artifact substitutions for a pipeline.

    Returns a list of :class:`SubstitutionDecision` ordered by start
    index. ``cost_estimator(artifact, covered_ids) -> (transfer_s,
    cpu_s)`` enables the communication-aware mode. ``counters`` (a
    :class:`repro.obs.Counters`) accumulates which policy rule decided
    each candidate's fate. Span size is ``policy.prefer_larger`` alone:
    a multi-stage (fused) artifact wins over its single-stage parts
    under the default, and ``prefer_larger=False`` is the unfused
    baseline in which each stage substitutes, and crosses the
    marshaling boundary, on its own (docs/FUSION.md).
    """
    counters = NULL_TRACER.counters if counters is None else counters
    if not policy.use_accelerators:
        counters.add("substitution.skipped[accelerators-disabled]")
        return []
    task_ids = pipeline.task_ids()
    candidates = []
    for rank, device in enumerate(policy.device_order):
        for start, artifact in store.spans(task_ids, device):
            covered = artifact.manifest.task_ids
            if not policy.allows(artifact, covered):
                counters.add("substitution.rejected[directive]")
                continue
            candidates.append((len(covered), -rank, start, artifact))
    counters.add("substitution.candidates", len(candidates))
    # Primitive algorithm: prefer larger; ties by device order, then
    # leftmost.
    candidates.sort(
        key=lambda c: (c[0] if policy.prefer_larger else -c[0], c[1], -c[2]),
        reverse=True,
    )
    taken: set = set()
    decisions: list[SubstitutionDecision] = []
    for size, _, start, artifact in candidates:
        span = set(range(start, start + size))
        if span & taken:
            counters.add("substitution.rejected[overlap]")
            continue
        covered = artifact.manifest.task_ids
        reason = (
            "prefer-larger" if policy.prefer_larger else "prefer-smaller"
        )
        if policy.communication_aware and cost_estimator is not None:
            transfer_s, cpu_s = cost_estimator(artifact, covered)
            if transfer_s > BENEFIT_RATIO * cpu_s:
                counters.add("substitution.rejected[communication]")
                continue
            reason = (
                f"communication-aware: transfer {transfer_s:.3g}s <= "
                f"{BENEFIT_RATIO}x cpu {cpu_s:.3g}s"
            )
        taken |= span
        counters.add(f"substitution.taken[{artifact.device}]")
        decisions.append(
            SubstitutionDecision(
                artifact_id=artifact.artifact_id,
                device=artifact.device,
                start_index=start,
                covered_task_ids=list(covered),
                reason=reason,
            )
        )
    decisions.sort(key=lambda d: d.start_index)
    return decisions


def apply_substitutions(
    pipeline: Pipeline,
    decisions: list,
    store: ArtifactStore,
    task_factory,
) -> Pipeline:
    """Rebuild the pipeline with one task in place of each covered
    span. ``task_factory(decision, artifact, span_tasks) -> Task``
    builds the replacement (the engine's device or adaptive task) from
    the decision, its artifact, and the tasks it covers."""
    if not decisions:
        return pipeline
    new_tasks = []
    index = 0
    by_start = {d.start_index: d for d in decisions}
    while index < len(pipeline.tasks):
        decision = by_start.get(index)
        if decision is None:
            new_tasks.append(pipeline.tasks[index])
            index += 1
            continue
        end = index + len(decision.covered_task_ids)
        new_tasks.append(
            task_factory(
                decision,
                store.lookup(decision.artifact_id),
                pipeline.tasks[index:end],
            )
        )
        index = end
    return Pipeline(new_tasks)
