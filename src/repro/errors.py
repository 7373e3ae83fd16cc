"""Exception hierarchy for the Liquid Metal reproduction.

Every error raised by the compiler, runtime, or device simulators derives
from :class:`LiquidMetalError` so that callers can catch the whole family
with one handler while tests can assert on precise subclasses.
"""

from __future__ import annotations


class LiquidMetalError(Exception):
    """Base class for all errors raised by this package."""


class SourcePosition:
    """A (line, column) position in a Lime source file.

    Both coordinates are 1-based, matching what editors display.
    """

    __slots__ = ("line", "column", "filename")

    def __init__(self, line: int, column: int, filename: str = "<lime>"):
        self.line = line
        self.column = column
        self.filename = filename

    def __repr__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourcePosition):
            return NotImplemented
        return (self.line, self.column, self.filename) == (
            other.line,
            other.column,
            other.filename,
        )

    def __hash__(self) -> int:
        return hash((self.line, self.column, self.filename))


class LimeSyntaxError(LiquidMetalError):
    """Lexical or syntactic error in Lime source code."""

    def __init__(self, message: str, position: SourcePosition | None = None):
        self.position = position
        if position is not None:
            message = f"{position}: {message}"
        super().__init__(message)


class LimeTypeError(LiquidMetalError):
    """Semantic error: type mismatch, isolation violation, etc."""

    def __init__(self, message: str, position: SourcePosition | None = None):
        self.position = position
        if position is not None:
            message = f"{position}: {message}"
        super().__init__(message)


class IsolationError(LimeTypeError):
    """Violation of the ``value``/``local`` strong-isolation rules."""


class TaskGraphError(LimeTypeError):
    """A task graph is malformed or its static shape cannot be determined.

    The paper (Section 3) requires that when relocation brackets are
    present but the compiler fails to determine the shape of the task
    graph, the programmer is informed at compile time.
    """


class LoweringError(LiquidMetalError):
    """Internal error while lowering the AST to IR."""


class BackendError(LiquidMetalError):
    """A backend device compiler failed on input it claimed to accept."""


class ExclusionNotice(LiquidMetalError):
    """Raised internally when a backend excludes a task from compilation.

    This is not a user-visible failure: per Section 3 of the paper, a
    task containing constructs unsuitable for a device is simply
    excluded from that backend. The notice carries the reason so the
    compile report can show *why* a device artifact is missing.
    """

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class ConfigurationError(LiquidMetalError):
    """Invalid compiler or runtime configuration (caught at
    construction time by ``RuntimeConfig.validate`` /
    ``CompileOptions`` rather than deep inside the engine)."""


class RuntimeGraphError(LiquidMetalError):
    """Error while constructing or executing a runtime task graph."""


class MarshalingError(LiquidMetalError):
    """Error serializing or deserializing a value across the boundary."""


class DeviceError(LiquidMetalError):
    """Error inside a device simulator (GPU, FPGA, interconnect)."""


class SimulationError(DeviceError):
    """The FPGA cycle simulator detected an inconsistency (e.g. a
    combinational loop or an X-valued control signal)."""


class DeviceTimeoutError(DeviceError):
    """A device task stalled past its watchdog deadline.

    Raised by the :class:`~repro.runtime.scheduler.ThreadedScheduler`
    stage watchdog and by injected stage-stall faults. Carries the
    stage/device so the supervisor can demote the right span, plus —
    when the run belongs to a service job — the ``job_id``/``tenant``
    so service-level error reports are attributable.
    """

    def __init__(self, message: str, task_id: str | None = None,
                 device: str | None = None, job_id: str | None = None,
                 tenant: str | None = None):
        self.task_id = task_id
        self.device = device
        self.job_id = job_id
        self.tenant = tenant
        super().__init__(message)


class RetryExhaustedError(LiquidMetalError):
    """The supervisor gave up retrying a device task and no bytecode
    fallback was available. Carries the failing task/device context,
    the last underlying error (also chained via ``__cause__``), and —
    for service jobs — the ``job_id``/``tenant`` the failure belongs
    to."""

    def __init__(self, message: str, task_id: str | None = None,
                 device: str | None = None, attempts: int = 0,
                 cause: "BaseException | None" = None,
                 job_id: str | None = None, tenant: str | None = None):
        self.task_id = task_id
        self.device = device
        self.attempts = attempts
        self.cause = cause
        self.job_id = job_id
        self.tenant = tenant
        super().__init__(message)


class JobCancelledError(LiquidMetalError):
    """A service job was cancelled (explicitly, or by its deadline)
    before it completed.

    Cooperative: the runtime raises it at the next stage/firing
    boundary after the job's :class:`~repro.runtime.cancel.CancelToken`
    trips. ``reason`` is ``"cancelled"`` for explicit cancellation and
    ``"deadline"`` for deadline expiry.
    """

    def __init__(self, message: str, job_id: str | None = None,
                 tenant: str | None = None, reason: str = "cancelled"):
        self.job_id = job_id
        self.tenant = tenant
        self.reason = reason
        super().__init__(message)


class AdmissionRejected(LiquidMetalError):
    """The co-execution service refused a job submission — the
    tenant's queue is at its depth bound (or the service is draining).

    An honest rejection: carries the tenant, the observed queue depth,
    and a ``retry_after_s`` hint estimating when capacity should free
    up, so a client can back off instead of hammering a saturated
    pool."""

    def __init__(self, message: str, tenant: str | None = None,
                 queue_depth: int = 0,
                 retry_after_s: float = 0.0, reason: str = "saturated"):
        self.tenant = tenant
        self.queue_depth = queue_depth
        self.retry_after_s = retry_after_s
        self.reason = reason
        super().__init__(message)


class ValueSemanticsError(LiquidMetalError):
    """Attempt to violate value semantics at run time (e.g. mutating a
    value array)."""


class JobResultTimeout(LiquidMetalError):
    """``CoExecutionService.result(timeout_s=...)`` gave up waiting.

    Not a job failure: the job is still in flight (or stuck). Carries
    the job id and the state it was observed in so a client can decide
    to keep waiting, cancel, or escalate."""

    def __init__(self, message: str, job_id: str | None = None,
                 state: str | None = None,
                 timeout_s: float | None = None):
        self.job_id = job_id
        self.state = state
        self.timeout_s = timeout_s
        super().__init__(message)


class CheckpointReplayError(LiquidMetalError):
    """A checkpoint frame disagrees with the re-executing run (stage
    key, call order, or item count diverged). The frame is discarded
    and the job is re-run from scratch — recovery stays correct, just
    slower (docs/RECOVERY.md)."""

    def __init__(self, message: str, job_id: str | None = None):
        self.job_id = job_id
        super().__init__(message)


class ProcessCrash(BaseException):
    """A simulated host-process crash (the ``crash`` fault kind).

    Deliberately derives from :class:`BaseException`, *not*
    :class:`LiquidMetalError`: a crash is not a device fault the
    supervisor may retry or a failure a generic handler may swallow —
    it must unwind the whole service dispatch, exactly like a real
    ``kill -9`` would. The co-execution service catches it at the job
    boundary, appends a ``crashed`` journal record, and marks the
    journal dead (docs/RECOVERY.md)."""

    def __init__(self, message: str, site: str = "", target: str = "",
                 spec_index: int = 0, call_index: int = 0,
                 job_id: str | None = None, tenant: str | None = None):
        self.site = site
        self.target = target
        self.spec_index = spec_index
        self.call_index = call_index
        self.job_id = job_id
        self.tenant = tenant
        super().__init__(message)
