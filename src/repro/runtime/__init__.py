"""The Liquid Metal runtime: task graphs, scheduling, substitution,
marshaling, fault injection, device health, and the co-execution engine."""

from repro.runtime.adaptive import AdaptationRecord, AdaptiveTask
from repro.runtime.cancel import CancelToken
from repro.runtime.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointRecorder,
)
from repro.runtime.engine import Runtime, RuntimeConfig, RunOutcome
from repro.runtime.faults import (
    FAULT_PLAN_SPEC,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    NULL_INJECTOR,
    fault_log_payload,
    kill_all_devices_plan,
    load_fault_plan,
)
from repro.runtime.graph import Pipeline
from repro.runtime.health import (
    HEALTH_SPEC,
    DeviceHealth,
    HealthRegistry,
    TransitionRecord,
    render_health_report,
)
from repro.runtime.marshaling import BoundaryCosts, MarshalingBoundary
from repro.runtime.queues import END_OF_STREAM, Connection, InlineEdge
from repro.runtime.scheduler import SequentialScheduler, ThreadedScheduler
from repro.runtime.specialize import KernelSpecializer
from repro.runtime.substitution import (
    SubstitutionPolicy,
    apply_substitutions,
    plan_substitutions,
)
from repro.runtime.tasks import (
    DeviceTask,
    FilterTask,
    SinkTask,
    SourceTask,
)
from repro.runtime.timing import TimingLedger

__all__ = [
    "AdaptationRecord",
    "AdaptiveTask",
    "BoundaryCosts",
    "CHECKPOINT_SCHEMA",
    "CancelToken",
    "CheckpointRecorder",
    "fault_log_payload",
    "Connection",
    "DeviceHealth",
    "DeviceTask",
    "END_OF_STREAM",
    "FAULT_PLAN_SPEC",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FilterTask",
    "HEALTH_SPEC",
    "HealthRegistry",
    "InjectedFault",
    "InlineEdge",
    "KernelSpecializer",
    "MarshalingBoundary",
    "NULL_INJECTOR",
    "Pipeline",
    "TransitionRecord",
    "RunOutcome",
    "Runtime",
    "RuntimeConfig",
    "SequentialScheduler",
    "SinkTask",
    "SourceTask",
    "SubstitutionPolicy",
    "ThreadedScheduler",
    "TimingLedger",
    "apply_substitutions",
    "kill_all_devices_plan",
    "load_fault_plan",
    "plan_substitutions",
    "render_health_report",
]
