"""The Liquid Metal runtime engine (Section 4).

The engine owns the bytecode interpreter (our JVM stand-in), the device
simulators, the artifact store, and the timing ledger. It implements
the interpreter's :class:`Services` interface, which is how "the
generated bytecode that instantiates a task also provides the runtime
with the unique identifiers … generated by the backend compilers"
(Section 4.1): MKSOURCE/MKSINK/MKTASK opcodes call straight into
:meth:`make_source` / :meth:`make_sink` / :meth:`make_task`.

Execution is functionally real; time is simulated (see
:mod:`repro.runtime.timing`). ``start()`` on a task graph is executed
eagerly (sources are finite, so eager completion is observationally
equivalent for linear pipelines); ``finish()`` joins.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import threading
from dataclasses import dataclass, field

from repro.backends.bytecode.interpreter import Interpreter, Services
from repro.backends.common import BYTECODE, FPGA, GPU
from repro.devices.cpu import CPUSpec
from repro.devices.fpga.simulator import FPGASimulator
from repro.devices.gpu.simulator import GPUSimulator
from repro.devices.gpu.timing import GTX580, GPUSpec
from repro.devices.interconnect import PCIE_GEN2_X8, PCIE_GEN2_X16, Link
from repro.errors import (
    ArgumentTypeError,
    ConfigurationError,
    LiquidMetalError,
    RetryExhaustedError,
    RuntimeGraphError,
)
from repro.ir.ops import float_once, to_float32
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.runtime.adaptive import AdaptiveTask
from repro.runtime.faults import NULL_INJECTOR, as_injector
from repro.runtime.graph import Pipeline
from repro.runtime.health import (
    RUN_BYTECODE,
    RUN_DEVICE,
    RUN_PROBE,
    HealthRegistry,
    RetryStreams,
    is_retryable,
)
from repro.runtime.marshaling import MarshalingBoundary
from repro.runtime.scheduler import SequentialScheduler, ThreadedScheduler
from repro.runtime.specialize import KernelSpecializer
from repro.runtime.substitution import (
    SubstitutionPolicy,
    apply_substitutions,
    plan_substitutions,
)
from repro.runtime.tasks import (
    DeviceTask,
    ExecutionContext,
    FilterTask,
    SinkTask,
    SourceTask,
    replay_filters,
)
from repro.runtime.timing import OffloadRecord, TimingLedger
from repro.values import ValueArray, same_value
from repro.values.marshal import fits_type


#: Scheduler names accepted by :class:`RuntimeConfig`.
SCHEDULERS = ("threaded", "sequential")

#: The GPU's host link (the paper's GTX580 sits on PCIe gen2 x16).
GPU_LINK = PCIE_GEN2_X16

#: The FPGA clock cap: a module runs at its synthesized fmax or this,
#: whichever is lower.
FPGA_MAX_CLOCK_HZ = 250e6


def check_entry_args(compiled, qualified: str, args: list) -> list:
    """Refuse ``args`` for the entry point ``qualified`` of ``compiled``
    unless each fits its parameter's type in the entry's signature,
    with :class:`~repro.errors.ArgumentTypeError` naming the parameter.
    Returns the arguments the entry runs: an integer passed for a
    ``float`` or ``double`` parameter converted as Java's widening
    conversion does, rounded once to the parameter's format. An unknown
    entry or a wrong argument count is the interpreter's to refuse."""
    function = compiled.bytecode_program.functions.get(qualified)
    if function is None or len(args) != function.num_params:
        return args
    converted = list(args)
    for index, (typename, value) in enumerate(zip(function.signature, args)):
        if not fits_type(typename, value):
            # The error path only: a cached compile rebuilds its IR here.
            name = compiled.module.functions[qualified].params[index].name
            raise ArgumentTypeError(
                f"{qualified}: parameter {name!r} of type {typename} "
                f"cannot take {value!r}",
                entry=qualified, parameter=name, expected=typename,
            )
        if typename in _FLOATING and isinstance(value, int):
            converted[index] = _FLOATING[typename](value)
    return converted


def _int_to_double(value: int) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _int_to_float(value: int) -> float:
    """``value`` rounded once to binary32 (:func:`repro.ir.ops.float_once`)."""
    try:
        return to_float32(float_once(value))
    except OverflowError:
        return math.inf if value > 0 else -math.inf


#: Java's widening conversion of an integer to each floating type.
_FLOATING = {"float": _int_to_float, "double": _int_to_double}


def _gpu_launch(execution):
    """A finished GPU launch as :meth:`Runtime._offload` consumes it:
    outputs, OffloadRecord kernel-time fields, close-time span attrs."""
    timing = execution.timing
    fields = ("kernel_s", "launch_s", "compute_s", "memory_s")
    return (
        execution.outputs,
        {name: getattr(timing, name) for name in fields},
        {"kernel_s": timing.kernel_s},
    )


def _fpga_launch(runtime, bundle, operands):
    """Stream one batch through the bundle's netlist at its synthesized
    clock (capped at :data:`FPGA_MAX_CLOCK_HZ`)."""
    clock_hz = min(bundle.synthesis.fmax_hz, FPGA_MAX_CLOCK_HZ)
    encode, decode = bundle.converters()
    result = FPGASimulator(clock_hz=clock_hz).run_stream(
        bundle.elaborate(), list(map(encode, operands[0]))
    )
    return (
        list(map(decode, result.outputs)),
        {"kernel_s": result.seconds, "compute_s": result.seconds},
        {"cycles": result.cycles},
    )


#: What differs between the offload paths is data. The simulator entry
#: point per (kind, device), as ``launch(runtime, payload, operands)``;
#: attributes are looked up per call, so instrumentation that wraps the
#: simulator classes in place sees every launch.
_LAUNCH = {
    ("map", GPU): lambda rt, k, ops: _gpu_launch(rt.gpu.run_map(k, ops)),
    ("reduce", GPU): lambda rt, k, ops: _gpu_launch(
        rt.gpu.run_reduce(k, ops[0])
    ),
    ("filter-batch", GPU): lambda rt, k, ops: _gpu_launch(
        rt.gpu.run_filter(k, list(ops[0]))
    ),
    ("filter-batch", FPGA): _fpga_launch,
}

#: ...and, per device, the (in, out) element kinds a filter batch is
#: coerced to and framed as on the wire.
_WIRE_KINDS = {
    GPU: lambda kernel: (kernel.param_kinds[0], kernel.result_kind),
    FPGA: lambda bundle: (bundle.in_kind, bundle.out_kind),
}


@dataclass
class RuntimeConfig:
    """Knobs for the runtime; defaults mirror the paper's setup.

    Validated eagerly: constructing an invalid config raises
    :class:`repro.errors.ConfigurationError` immediately instead of
    failing deep inside the engine. Derive per-call variants with
    :meth:`with_overrides` rather than mutating a shared config.
    """

    cpu: CPUSpec = field(default_factory=CPUSpec)
    gpu: GPUSpec = field(default_factory=lambda: GTX580)
    fpga_link: Link = PCIE_GEN2_X8
    policy: SubstitutionPolicy = field(default_factory=SubstitutionPolicy)
    scheduler: str = "threaded"       # 'threaded' | 'sequential'
    map_offload_min_items: int = 64   # below this, CPU wins on transfer
    #: Marshaling batch: FIFO elements packed into ONE wire buffer and
    #: charged ONE crossing when a device stage fires. batch_size=1 is
    #: the per-element slow path; larger values amortize the fixed
    #: serialize/JNI/convert costs (docs/PERFORMANCE.md).
    batch_size: int = 4096
    tracer: object = NULL_TRACER      # repro.obs.Tracer when tracing
    #: Tries per device call before the span is demoted to bytecode
    #: (docs/RESILIENCE.md; the backoff schedule is fixed).
    max_attempts: int = 3
    #: Circuit-breaker cool-down for device spans, in simulated
    #: seconds (docs/RESILIENCE.md). None keeps demotion permanent; a
    #: finite cool-down turns it into a quarantine with shadow-probe
    #: recovery.
    cooldown_s: "float | None" = None
    fault_plan: object = None         # repro.runtime.faults.FaultPlan
    stage_timeout_s: "float | None" = None  # threaded stage watchdog
    #: Service-job attribution (docs/SERVICE.md): stamped onto
    #: RetryExhaustedError / DeviceTimeoutError raised by this runtime
    #: so multi-tenant error reports can name the job they belong to.
    #: None for standalone runs.
    job_id: "str | None" = None
    tenant: "str | None" = None
    #: Runtime kernel specialization (docs/FUSION.md): None is off; N
    #: compiles a variant after N consecutive stable batches.
    specialize_after: "int | None" = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> "RuntimeConfig":
        """Reject invalid knob combinations; returns self."""
        if self.scheduler not in SCHEDULERS:
            raise ConfigurationError(
                f"unknown scheduler {self.scheduler!r}; "
                f"expected one of {', '.join(SCHEDULERS)}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if self.map_offload_min_items < 1:
            raise ConfigurationError(
                f"map_offload_min_items must be positive, "
                f"got {self.map_offload_min_items}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.cooldown_s is not None and self.cooldown_s < 0:
            raise ConfigurationError(
                f"cooldown_s must be >= 0 (or None), got {self.cooldown_s}"
            )
        if self.stage_timeout_s is not None and self.stage_timeout_s <= 0:
            raise ConfigurationError(
                f"stage_timeout_s must be positive (or None), "
                f"got {self.stage_timeout_s}"
            )
        if self.specialize_after is not None and self.specialize_after < 1:
            raise ConfigurationError(
                f"specialize_after must be positive (or None), "
                f"got {self.specialize_after}"
            )
        return self

    def with_overrides(self, **overrides) -> "RuntimeConfig":
        """A validated copy with the given fields changed — the
        builder callers use instead of mutating shared configs."""
        unknown = set(overrides) - {
            f.name for f in dataclasses.fields(self)
        }
        if unknown:
            raise ConfigurationError(
                "unknown RuntimeConfig fields: "
                + ", ".join(sorted(unknown))
            )
        return dataclasses.replace(self, **overrides)


@dataclass
class RunOutcome:
    """Result of one runtime invocation."""

    value: object
    ledger: TimingLedger
    output: str
    trace: object = None     # the Tracer, when tracing was enabled

    @property
    def seconds(self) -> float:
        return self.ledger.total_s


class Runtime(Services):
    """Co-execution runtime over a compiled program.

    ``compiled`` is a ``CompileResult``: the runtime reads its artifact
    store, bytecode program and compile options, and never runs the
    compiler. How large a span substitution takes is the substitution
    policy's decision alone (``SubstitutionPolicy.prefer_larger``).
    """

    def __init__(self, compiled, config: RuntimeConfig | None = None,
                 health_registry: "HealthRegistry | None" = None,
                 cancel_token=None, checkpointer=None):
        self.compiled = compiled
        self.config = (config or RuntimeConfig()).validate()
        self.trace = self.config.tracer
        self.metrics = getattr(self.trace, "metrics", NULL_METRICS)
        # Snapshot the policy so two Runtime instances handed the same
        # policy object cannot observe each other's directive edits
        # (dataclasses.replace re-runs the defensive directives copy).
        self.policy = dataclasses.replace(self.config.policy)
        self.store = compiled.store
        self.interp = Interpreter(compiled.bytecode_program, services=self)
        self.gpu = GPUSimulator(compiled.bytecode_program, self.config.gpu)
        # Fault injection and retries (docs/RESILIENCE.md): every
        # device call gets `max_attempts` tries, backing off by draws
        # from this runtime's own per-task jitter streams.
        self.faults = as_injector(self.config.fault_plan, tracer=self.trace)
        self.retry_streams = RetryStreams()
        # Cooperative cancellation (docs/SERVICE.md): when a token is
        # attached, task loops poll it at firing/batch boundaries.
        self.cancel_token = cancel_token
        # Pipelines currently inside run_to_completion — what a
        # cross-thread teardown needs to drain.
        self._active_pipelines: list = []
        # Device health (docs/RESILIENCE.md): every offload is mediated
        # by a per-(device, span) circuit breaker, the one record of
        # whether the span is quarantined. A service passes its own
        # service-scoped registry so breaker state is shared across
        # jobs (docs/SERVICE.md).
        if health_registry is None:
            health_registry = HealthRegistry(
                self.config.cooldown_s, tracer=self.trace
            )
        self.health = health_registry
        self.gpu_boundary = MarshalingBoundary(
            GPU_LINK,
            tracer=self.trace,
            injector=self.faults,
            name="gpu",
        )
        self.fpga_boundary = MarshalingBoundary(
            self.config.fpga_link,
            tracer=self.trace,
            injector=self.faults,
            name="fpga",
        )
        self.ledger = TimingLedger(self.config.cpu.clock_hz)
        # Kernel specialization (docs/FUSION.md): opt-in. Variants are
        # content-addressed in the compilation's artifact cache.
        if self.config.specialize_after is not None:
            self.specializer = KernelSpecializer(
                self.config.specialize_after,
                compiled.compile_options,
                tracer=self.trace,
                charge=lambda seconds: self.ledger.add_host_cycles(
                    int(seconds * self.config.cpu.clock_hz)
                ),
            )
        else:
            self.specializer = None
        self._lock = threading.RLock()
        if self.config.scheduler == "sequential":
            self.scheduler = SequentialScheduler()
        else:
            self.scheduler = ThreadedScheduler(
                stage_timeout_s=self.config.stage_timeout_s,
                job_id=self.config.job_id,
                tenant=self.config.tenant,
            )
        self.substitution_log: list = []
        self.adaptation_log: list = []
        # Crash-consistent checkpointing (docs/RECOVERY.md): when a
        # recorder is attached, every device decision point is
        # memoized (capture) or served from the last persisted frame
        # (replay), and quiescent points persist frames.
        self.checkpointer = checkpointer
        if checkpointer is not None:
            checkpointer.attach(self)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def cancel(self, reason: str = "cancelled"):
        """Trip this runtime's cancel token (creating one if the
        runtime was built without). Cooperative: running task loops
        observe the trip at their next firing/batch boundary and raise
        :class:`~repro.errors.JobCancelledError`; a subsequent
        :meth:`run` fails immediately. Returns the token."""
        from repro.runtime.cancel import CancelToken

        token = self.cancel_token
        if token is None:
            token = self.cancel_token = CancelToken(
                job_id=self.config.job_id, tenant=self.config.tenant
            )
        token.cancel(reason)
        return token

    def shutdown_active(self, timeout_s: float = 0.5) -> bool:
        """Drain every pipeline currently executing (bounded wait) —
        the teardown half of :meth:`cancel` when the run thread is
        wedged on a FIFO. True when every worker thread joined."""
        ok = True
        for pipeline in list(self._active_pipelines):
            ok = self.scheduler.shutdown(pipeline, timeout_s) and ok
        return ok

    def run(self, qualified: str, args: list | None = None) -> RunOutcome:
        """Invoke an entry point and account its simulated time."""
        token = self.cancel_token
        if token is not None:
            token.check()
        args = check_entry_args(self.compiled, qualified, list(args or []))
        self.ledger = TimingLedger(self.config.cpu.clock_hz)
        before = self.interp.cycles
        out_before = len(self.interp.stdout)
        with self.trace.span("run", entry=qualified) as span:
            value = self.interp.call(qualified, args)
            self.ledger.add_host_cycles(self.interp.cycles - before)
            span.set(
                host_cycles=self.interp.cycles - before,
                simulated_s=self.ledger.total_s,
            )
        output = "".join(self.interp.stdout[out_before:])
        return RunOutcome(
            value=value,
            ledger=self.ledger,
            output=output,
            trace=self.trace if self.trace.enabled else None,
        )

    def call(self, qualified: str, args: list | None = None):
        """Invoke an entry point, returning just the value."""
        return self.run(qualified, args).value

    def profile(self, top: int = 10) -> list:
        """Inclusive per-method profile: [(qualified, calls, cycles)]
        sorted by cycles — the runtime-introspection hook the paper
        lists as a current direction (Section 7)."""
        rows = [
            (name, stats[0], stats[1])
            for name, stats in self.interp.method_stats.items()
        ]
        rows.sort(key=lambda r: r[2], reverse=True)
        return rows[:top]

    def metered_call(self, qualified: str, args: list):
        """Thread-safe interpreter call returning (value, cycles)."""
        with self._lock:
            before = self.interp.cycles
            value = self.interp.call(qualified, args)
            return value, self.interp.cycles - before

    # ------------------------------------------------------------------
    # Services: data-parallel operators
    # ------------------------------------------------------------------

    def _observe_offload(self, record: OffloadRecord) -> None:
        """Feed the metrics registry from one offload record: batch
        size, kernel latency, and amortized per-item latency (all in
        simulated time, so profile histograms are deterministic)."""
        metrics = self.metrics
        metrics.histogram("offload.batch.items").observe(record.items)
        metrics.histogram("offload.kernel_us").observe(record.kernel_s * 1e6)
        if record.items:
            metrics.histogram("offload.item_latency_us").observe(
                record.total_s / record.items * 1e6
            )

    def execute_map(self, method: str, args: list, broadcast, interp):
        mapped = [a for a, b in zip(args, broadcast) if not b]
        n = len(mapped[0]) if mapped else 0

        def device(artifact):
            resident = ()
            if self.specializer is not None:
                artifact, resident = self.specializer.observe(
                    artifact, args, broadcast
                )
            scalars = [
                pos for pos, arg in enumerate(args)
                if broadcast[pos] and not isinstance(arg, ValueArray)
            ]
            outputs, seconds = self._offload(
                "map", artifact, args, n, skip=scalars, resident=resident
            )
            return list(outputs), seconds

        return self._operator(
            "map", method, n, device,
            lambda: Services.execute_map(
                self, method, args, broadcast, interp
            ),
        )

    def execute_reduce(self, method: str, array, interp):
        return self._operator(
            "reduce", method, len(array),
            lambda artifact: self._offload(
                "reduce", artifact, [array], len(array)
            ),
            lambda: Services.execute_reduce(self, method, array, interp),
        )

    def _operator(self, kind, method, n, device_fn, bytecode_fn):
        """One blocking data-parallel operator (map or reduce) over
        ``n`` items: compute eligibility, then let :meth:`_mediated`
        choose between ``device_fn(artifact)`` and ``bytecode_fn()``."""
        task_id = f"{kind}:{method}"

        def metered_bytecode():
            cycles_before = self.interp.cycles
            result = bytecode_fn()
            return result, self.ledger.cycles_to_seconds(
                self.interp.cycles - cycles_before
            )

        def live():
            artifact = next(
                (a for a in self.store.for_task(task_id) if a.device == GPU),
                None,
            )
            policy = self.policy
            counters = self.trace.counters
            counters.add(f"offload.{kind}.considered")
            deciding = self.trace.span(
                "run.substitution", kind=kind, task=task_id, items=n
            )
            if (
                artifact is not None
                and policy.use_accelerators
                and GPU in policy.device_order
                and n >= self.config.map_offload_min_items
                and policy.allows(artifact, artifact.manifest.task_ids)
            ):
                return self._mediated(
                    kind, artifact, task_id, n,
                    lambda: device_fn(artifact), metered_bytecode, deciding,
                )[0]
            with deciding:
                deciding.set(
                    taken=False,
                    device=BYTECODE,
                    target=artifact.artifact_id if artifact else None,
                    breaker=None,
                )
            counters.add(f"offload.{kind}.cpu")
            return bytecode_fn()

        recorder = self.checkpointer
        if recorder is None:
            return live()
        # One memoized decision point per whole call (eligibility,
        # breaker decision, offload or CPU path — everything). A memo
        # holds a list of outputs, so a reduce's scalar is wrapped.
        scalar = kind == "reduce"
        outputs, _ = recorder.around(
            kind, task_id, n,
            lambda: ([live()] if scalar else list(live()), 0.0),
        )
        self.checkpoint_quiesce()
        return outputs[0] if scalar else outputs

    def _boundary(self, device: str) -> MarshalingBoundary:
        return self.gpu_boundary if device == GPU else self.fpga_boundary

    def _offload(self, kind, artifact, operands, items, skip=(),
                 resident=None):
        """The one device offload (Section 4: any task may be replaced
        by a semantically equivalent device artifact behind a
        marshaling boundary): marshal in -> launch -> marshal out ->
        OffloadRecord -> ledger -> metrics, in one ``run.offload``
        span. Returns ``(outputs, seconds)``.

        A map or reduce blocks the host and crosses each operand as
        its own value, except ``skip`` positions (scalar broadcasts
        ride in the launch packet) and ``resident`` ones (on the device
        already, verified by the specialization guard). A filter batch
        runs in a task-graph stage and crosses its one operand, the
        firing's items, as one ``*_batch`` frame each way."""
        device = artifact.device
        key = artifact.artifact_id
        payload = artifact.payload
        boundary = self._boundary(device)
        batched = kind == "filter-batch"
        # Trace shape: `specialized` only where a specializer can act;
        # `items` at open only when the batch itself is the operand.
        opened = {} if resident is None else {"specialized": bool(resident)}
        if batched:
            opened["items"] = items
        with self.trace.span(
            "run.offload", kind=kind, target=key, device=device, **opened
        ) as span:
            if batched:
                # Coerce to the artifact's declared parameter kind.
                in_kind, out_kind = _WIRE_KINDS[device](payload)
                in_array = ValueArray(in_kind, operands[0])
                transfers = [boundary.to_device_batch(in_array, in_kind)[1]]
                operands = [in_array]
            else:
                transfers = []
                for pos, operand in enumerate(operands):
                    if pos in skip:
                        continue
                    if resident and pos in resident:
                        self.trace.counters.add("specialize.resident_skip")
                        continue
                    transfers.append(boundary.to_device(operand)[1])
            outputs, timing, closed = _LAUNCH[kind, device](
                self, payload, operands
            )
            if batched:
                out_array = ValueArray(out_kind, outputs)
                back = boundary.from_device_batch(out_array, out_kind)[1]
                outputs = list(out_array)
            else:
                back = boundary.from_device(outputs)[1]
            transfers.append(back)
            # In-graph time reaches the ledger as stage busy_s instead.
            record = OffloadRecord(
                kind=kind, target=key, device=device, items=items,
                transfers=transfers, in_graph=batched, **timing,
            )
            self.ledger.add_offload(record)
            self._observe_offload(record)
            num_bytes = sum(t.num_bytes for t in transfers)
            if batched:
                # Summed in crossing order, NOT record.total_s (kernel
                # first): the two differ in the last bit, and this is
                # the stage busy time every modeled second builds on.
                seconds = (
                    transfers[0].total_s + record.kernel_s + back.total_s
                )
                span.set(**closed, bytes=num_bytes, simulated_s=seconds)
            else:
                seconds = record.total_s
                span.set(
                    items=items, **closed,
                    transfer_s=record.transfer_s, bytes=num_bytes,
                )
        return outputs, seconds

    # ------------------------------------------------------------------
    # Services: task-graph construction
    # ------------------------------------------------------------------

    def make_source(self, array, rate, task_id):
        return SourceTask(array, rate, task_id)

    def make_sink(self, array, task_id):
        return SinkTask(array, task_id)

    def make_task(self, method, task_id, arity, relocatable, instance=None):
        return FilterTask(
            method, arity, task_id, relocatable, instance=instance
        )

    def connect(self, left, right):
        return Pipeline.connect(left, right)

    def graph_start(self, graph, blocking, graph_id, interp) -> None:
        pipeline = Pipeline.of(graph)
        if pipeline.started:
            return  # finish() after start(): already executed eagerly
        pipeline.validate()
        executed = self._substitute(pipeline, graph_id)
        run = self.ledger.new_graph_run(graph_id or "dynamic")
        ctx = ExecutionContext(self, run)
        cycles_before = self.interp.cycles
        token = self.cancel_token
        if token is not None:
            token.check()
        with self.trace.span(
            "run.graph",
            graph_id=graph_id or "dynamic",
            stages=len(executed.tasks),
            scheduler=self.scheduler.name,
        ) as span:
            self._active_pipelines.append(executed)
            try:
                self.scheduler.run_to_completion(executed, ctx)
            finally:
                self._active_pipelines.remove(executed)
            span.set(wall_s=run.wall_s)
        # CPU cycles burned inside graph stages are modeled through the
        # per-stage pipeline model, not as serial host time.
        self.interp.cycles = cycles_before
        pipeline.started = True
        pipeline.graph_run = run
        # A finished graph is a quiescent point under both schedulers.
        self.checkpoint_quiesce()

    def checkpoint_quiesce(self, inline: bool = False) -> None:
        """Give the checkpoint recorder a chance to persist a frame.

        Only quiescent points qualify: with pipelines in flight a frame
        would capture half-finished concurrent stages, so the call is a
        no-op — except for the sequential scheduler's stage-boundary
        calls (``inline=True``), where mid-graph execution is genuinely
        quiescent.
        """
        recorder = self.checkpointer
        if recorder is None:
            return
        if self._active_pipelines and not inline:
            return
        recorder.quiesce()

    # ------------------------------------------------------------------
    # Substitution
    # ------------------------------------------------------------------

    def _substitute(self, pipeline: Pipeline, graph_id) -> Pipeline:
        policy = self.policy
        estimator = self._cost_estimator(pipeline)
        with self.trace.span(
            "run.substitution",
            kind="graph",
            graph_id=graph_id or "dynamic",
            tasks=len(pipeline.tasks),
        ) as span:
            decisions = plan_substitutions(
                pipeline,
                self.store,
                policy,
                cost_estimator=estimator,
                counters=self.trace.counters,
            )
            fused_spans = sum(
                1 for d in decisions if len(d.covered_task_ids) > 1
            )
            if fused_spans:
                self.trace.counters.add(
                    "fusion.graph.substituted", fused_spans
                )
            span.set(
                decisions=len(decisions),
                devices=",".join(d.device for d in decisions) or BYTECODE,
                fused_spans=fused_spans,
            )
        self.substitution_log.append((graph_id, decisions))

        def task_for(decision, artifact, span_tasks):
            task = DeviceTask(
                artifact_id=decision.artifact_id,
                device=decision.device,
                covered_task_ids=decision.covered_task_ids,
                executor=self._filter_executor(artifact, span_tasks),
                batch_size=self.config.batch_size,
            )
            if policy.adaptive and all(
                isinstance(t, FilterTask)
                and t.arity == 1
                and t.instance is None
                for t in span_tasks
            ):
                # Runtime adaptation (the paper's future work, Section
                # 4.2): hold both the bytecode filters and the device
                # task, and migrate to the winner.
                return AdaptiveTask(task, [t.method for t in span_tasks])
            return task

        return apply_substitutions(pipeline, decisions, self.store, task_for)

    def _cost_estimator(self, pipeline: Pipeline):
        """Estimate (transfer_s, cpu_s) for substituting a span — used
        by the communication-aware policy (the paper's future work)."""
        source = pipeline.tasks[0]
        n = len(source.array) if isinstance(source, SourceTask) else 1024

        def estimate(artifact, covered_ids):
            boundary = self._boundary(artifact.device)
            elem_bytes = 4
            num_bytes = n * elem_bytes
            transfer_s = 2 * (
                boundary.link.transfer_time(num_bytes)
                + boundary.costs.serialize_fixed_s
                + num_bytes * boundary.costs.serialize_per_byte_s
            )
            # Probe the CPU cost of one item through the covered chain.
            filters = [
                t
                for t in pipeline.tasks
                if isinstance(t, FilterTask) and t.task_id in covered_ids
            ]
            sample = source.array[0] if n else None
            _, cycles = replay_filters(self.metered_call, filters, [sample])
            self.interp.cycles -= cycles  # probing is free
            cpu_s = n * cycles / self.config.cpu.clock_hz
            return transfer_s, cpu_s

        return estimate

    # ------------------------------------------------------------------
    # Mediation: breaker, probe, retry, bytecode fallback
    # ------------------------------------------------------------------

    def _mediated(self, kind, artifact, task_id, items, device_fn,
                  bytecode_fn, deciding=None):
        """One breaker-mediated offload decision, for every kind.
        CLOSED runs ``device_fn`` under fault injection with up to
        ``max_attempts`` tries (exhausting them is a failure, which
        opens the breaker, then replays on ``bytecode_fn``); OPEN
        serves from bytecode, advancing the quarantine clock; HALF_OPEN
        runs a shadow probe: bytecode is authoritative, the device
        output is compared element-wise, and enough clean probes
        re-promote the span. Thunks and method all return
        ``(outputs, seconds)``.

        A filter batch (``task_id`` is the artifact id) is one firing
        inside a task-graph stage. A map or reduce is a blocking call
        that passes its open ``run.substitution`` span as ``deciding``:
        the breaker speaks inside it and the verdict closes it."""
        in_graph = kind == "filter-batch"
        key = artifact.artifact_id
        device = artifact.device
        covered = list(artifact.manifest.task_ids)
        health = self.health
        # Fault specs match on `sites`, backoff jitter streams are
        # keyed by task_id: an operator's task name stays in both.
        sites = [key, *covered] if in_graph else [key, task_id, *covered]

        def run_device():
            self.faults.check(
                "device", sites, device=device, task_id=task_id
            )
            outputs, seconds = device_fn()
            # `corrupt` perturbs a batch; a reduce returns a scalar.
            if isinstance(outputs, list):
                outputs = self.faults.transform_outputs(
                    "device", sites, outputs, device=device, task_id=task_id
                )
            return outputs, seconds

        with deciding or contextlib.nullcontext():
            action = health.decide(device, key, covered)
            if bytecode_fn is None:
                # Nothing to serve or compare from: always try the
                # device; exhausted retries raise RetryExhaustedError.
                action = RUN_DEVICE
            taken = action != RUN_BYTECODE
            if deciding is not None:
                deciding.set(
                    taken=taken,
                    device=device if taken else BYTECODE,
                    target=key,
                    breaker=action,
                )
                self.trace.counters.add(
                    f"offload.{kind}.{'taken' if taken else 'cpu'}"
                )
        if not taken:
            outputs, seconds = bytecode_fn()
            # Time served while OPEN advances the quarantine clock, so
            # the cool-down can expire.
            health.on_fallback(device, key, seconds)
            return outputs, seconds

        if action == RUN_PROBE:
            with self.trace.span(
                "probe.shadow", key=key, device=device,
                **({"kind": kind, "items": items} if in_graph
                   else {"kind": task_id}),
            ) as span:
                expected, bytecode_s = bytecode_fn()
                ok, reason, device_s = True, "clean", 0.0
                try:
                    outputs, device_s = run_device()
                    if not same_value(expected, outputs):
                        ok, reason = False, "mismatch"
                except LiquidMetalError as exc:
                    ok, reason = False, type(exc).__name__
                span.set(
                    ok=ok, reason=reason,
                    bytecode_s=bytecode_s, device_s=device_s,
                )
            seconds = bytecode_s + device_s
            health.on_probe(device, key, ok, seconds, reason=reason)
            return expected, seconds

        counters = self.trace.counters
        attempts, call_backoff_s = 0, 0.0
        while True:
            attempts += 1
            try:
                outputs, seconds = run_device()
            except LiquidMetalError as exc:
                if (
                    not is_retryable(exc)
                    or attempts >= self.config.max_attempts
                ):
                    error = exc
                    break
                backoff = self.retry_streams.backoff(task_id, attempts)
                call_backoff_s += backoff
                counters.add("retry.attempt")
                counters.add(f"retry.attempt[{device}]")
                self.metrics.histogram("retry.backoff_us").observe(
                    backoff * 1e6
                )
                with self.trace.span(
                    "retry.attempt", task_id=task_id, device=device,
                    attempt=attempts, backoff_s=backoff,
                    error=type(exc).__name__,
                ):
                    pass
                continue
            if attempts > 1:
                counters.add("retry.recovered")
                counters.add(f"retry.recovered[{device}]")
                with self.trace.span(
                    "retry.recovered", task_id=task_id, device=device,
                    attempts=attempts, backoff_s=call_backoff_s,
                ):
                    pass
            # The seconds this call's own offload returned: an
            # operator's ledger record, a batch's stage-busy time.
            health.on_success(device, key, seconds)
            return outputs, seconds
        if bytecode_fn is None:
            config = self.config
            raise RetryExhaustedError(
                f"task {task_id!r} on {device} failed after "
                f"{attempts} attempt(s): {error}",
                task_id=task_id, device=device, attempts=attempts,
                cause=error, job_id=config.job_id, tenant=config.tenant,
            ) from error
        # Runtime re-substitution: the breaker opens — for good with no
        # cool-down, as a liftable quarantine with one — and its OPEN
        # transition is the one record of the demotion.
        health.on_failure(
            device, key, call_backoff_s,
            error=type(error).__name__, covered_task_ids=covered,
        )
        outputs, seconds = bytecode_fn()
        if in_graph:
            # The replay that served this batch is already quarantine
            # time; an operator's clock starts at its next call.
            health.on_fallback(device, key, seconds)
        return outputs, seconds

    def _filter_executor(self, artifact, span_tasks):
        """A device task's ``execute(items) -> (outputs, busy_seconds)``:
        every batch is one :meth:`_mediated` decision between the
        artifact and a replay of the span's original bytecode filters
        (none when the filters are unknown: no degradation possible)."""
        if ("filter-batch", artifact.device) not in _LAUNCH:
            raise RuntimeGraphError(
                f"no executor for device {artifact.device!r}"
            )
        key = artifact.artifact_id
        filters = [t for t in span_tasks if isinstance(t, FilterTask)]

        def bytecode(items: list):
            out, cycles = replay_filters(self.metered_call, filters, items)
            return out, self.ledger.cycles_to_seconds(cycles)

        def execute(items: list):
            n = len(items)

            def live():
                return self._mediated(
                    "filter-batch", artifact, key, n,
                    lambda: self._offload(
                        "filter-batch", artifact, [items], n
                    ),
                    (lambda: bytecode(items)) if filters else None,
                )

            # Under checkpointing, one memoized decision point per batch.
            recorder = self.checkpointer
            if recorder is None:
                return live()
            return recorder.around("filter-batch", key, n, live)

        return execute
