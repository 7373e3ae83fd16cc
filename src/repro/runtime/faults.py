"""Deterministic fault injection for the runtime.

The paper's artifact model keeps bytecode as the universally available
implementation of every task (Section 4.1), which means a device
failure should never be fatal — the runtime can always re-substitute
the affected span back onto the host. This module provides the harness
that *proves* that property: a :class:`FaultPlan` describes faults to
inject into device executors and marshaling boundaries — by task or
artifact id, by call count, or probabilistically with a seeded RNG —
and a :class:`FaultInjector` fires them deterministically, recording
every injection through the tracer's counters so a traced run shows
exactly which faults fired and how the supervisor recovered.

Determinism is a hard requirement (the fault harness is itself under
test): there is no wall-clock randomness anywhere. Each spec owns its
own xorshift RNG seeded from ``(plan.seed, spec_index)``, so the
sequence of probabilistic decisions depends only on how many times that
spec's site was hit, never on thread interleaving between specs.
"""

from __future__ import annotations

import fnmatch
import threading
import time
from dataclasses import dataclass, field

from repro import schema
from repro.errors import (
    ConfigurationError,
    DeviceError,
    DeviceTimeoutError,
    MarshalingError,
    ProcessCrash,
)
from repro.obs.tracer import NULL_TRACER

#: Injection sites the runtime consults.
SITES = (
    "device",               # inside a GPU/FPGA executor, before the kernel
    "marshal.to_device",    # host -> device serialization boundary
    "marshal.from_device",  # device -> host deserialization boundary
)

#: Fault kinds a spec can inject.
ERRORS = (
    "device",      # raises DeviceError (retryable by default)
    "marshaling",  # raises MarshalingError (retryable by default)
    "timeout",     # raises DeviceTimeoutError (demotes immediately)
    "stall",       # sleeps stall_s without raising (trips the watchdog)
    "corrupt",     # silently perturbs device outputs (wrong answers);
                   # only shadow probes (docs/RESILIENCE.md) catch it
    "crash",       # raises ProcessCrash (a BaseException): simulates
                   # the host process dying mid-dispatch; only the
                   # journal/recovery path survives it (docs/RECOVERY.md)
)


#: A fault-plan file (``examples/fault_plans/``): each entry of
#: ``faults`` is a :class:`FaultSpec`'s keywords plus an ignored comment.
FAULT_PLAN_SPEC = schema.obj(optional={
    "seed": schema.NUMBER,
    "faults": schema.array(schema.obj(
        optional={
            **dict.fromkeys(("site", "error", "target", "message"),
                            schema.STRING),
            **dict.fromkeys(("probability", "stall_s"), schema.NUMBER),
            **dict.fromkeys(("from_call", "until_call", "times"),
                            {"type": "number", "nullable": True}),
            "on_calls": schema.array(schema.NUMBER),
        },
        closed=True,
    )),
})


class _XorShift:
    """Tiny deterministic PRNG (xorshift32) — no wall-clock entropy."""

    def __init__(self, seed: int):
        self.state = seed & 0xFFFFFFFF or 1

    def next_u32(self) -> int:
        x = self.state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self.state = x
        return x

    def random(self) -> float:
        """A unit float in [0, 1)."""
        return self.next_u32() / 2**32


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    A spec matches a site and a target pattern; among matching calls it
    fires on the listed 1-based ``on_calls`` indices (every call when
    empty), within the burst window ``[from_call, until_call]`` (both
    1-based and inclusive; unbounded when ``None``), with
    ``probability`` (decided by the plan's seeded RNG), at most
    ``times`` times (unlimited when ``None``).

    Burst windows are how a *transient* outage is expressed: the call
    stream is the runtime's deterministic proxy for time, so
    ``until_call=3`` means "this device is broken for its first three
    calls and healthy afterwards" — which makes demotion, shadow
    probing, and re-promotion (docs/RESILIENCE.md) reachable in tests.
    """

    site: str = "device"
    error: str = "device"
    target: str = "*"          # fnmatch over task/artifact ids (device
                               # site) or boundary name (marshal sites)
    on_calls: tuple = ()       # 1-based matching-call indices
    from_call: "int | None" = None   # burst window start (inclusive)
    until_call: "int | None" = None  # burst window end (inclusive)
    probability: float = 1.0
    times: "int | None" = None
    stall_s: float = 0.0       # wall-clock stall for error == 'stall'
    message: str = ""

    def __post_init__(self):
        if self.site not in SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; "
                f"expected one of {', '.join(SITES)}"
            )
        if self.error not in ERRORS:
            raise ConfigurationError(
                f"unknown fault error {self.error!r}; "
                f"expected one of {', '.join(ERRORS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], "
                f"got {self.probability}"
            )
        if self.times is not None and self.times < 1:
            raise ConfigurationError(
                f"fault times must be >= 1 (or null), got {self.times}"
            )
        if self.stall_s < 0:
            raise ConfigurationError(
                f"fault stall_s must be >= 0, got {self.stall_s}"
            )
        object.__setattr__(
            self, "on_calls", tuple(int(c) for c in self.on_calls)
        )
        if any(c < 1 for c in self.on_calls):
            raise ConfigurationError(
                f"fault on_calls are 1-based, got {self.on_calls}"
            )
        for name in ("from_call", "until_call"):
            bound = getattr(self, name)
            if bound is not None and bound < 1:
                raise ConfigurationError(
                    f"fault {name} is 1-based, got {bound}"
                )
        if (
            self.from_call is not None
            and self.until_call is not None
            and self.until_call < self.from_call
        ):
            raise ConfigurationError(
                f"fault window is empty: from_call={self.from_call} > "
                f"until_call={self.until_call}"
            )
        if self.error == "crash" and self.times is None:
            # A crash that refires forever can never converge across
            # restarts; one firing per spec is the sane default (an
            # explicit times=N still works for chaos schedules).
            object.__setattr__(self, "times", 1)

    def matches(self, site: str, targets: list) -> bool:
        if site != self.site:
            return False
        return any(fnmatch.fnmatch(t, self.target) for t in targets)

    def in_window(self, call: int) -> bool:
        """Whether the 1-based matching-call index falls inside the
        spec's burst window."""
        if self.from_call is not None and call < self.from_call:
            return False
        if self.until_call is not None and call > self.until_call:
            return False
        return True

    def to_dict(self) -> dict:
        payload = {"site": self.site, "error": self.error,
                   "target": self.target}
        if self.on_calls:
            payload["on_calls"] = list(self.on_calls)
        if self.from_call is not None:
            payload["from_call"] = self.from_call
        if self.until_call is not None:
            payload["until_call"] = self.until_call
        if self.probability != 1.0:
            payload["probability"] = self.probability
        if self.times is not None:
            payload["times"] = self.times
        if self.stall_s:
            payload["stall_s"] = self.stall_s
        if self.message:
            payload["message"] = self.message
        return payload


@dataclass(frozen=True)
class InjectedFault:
    """One fired fault, as recorded in :attr:`FaultInjector.log`."""

    spec_index: int
    site: str
    error: str
    target: str      # the concrete target that matched, not the pattern
    call_index: int  # 1-based index among the spec's matching calls

    def to_dict(self) -> dict:
        return {
            "spec_index": self.spec_index,
            "site": self.site,
            "error": self.error,
            "target": self.target,
            "call_index": self.call_index,
        }


def fault_log_payload(log) -> list:
    """A fault log as plain dicts — the canonical form journal records,
    checkpoint frames, and result digests use."""
    return [record.to_dict() for record in log]


class FaultPlan:
    """An ordered list of :class:`FaultSpec` plus the RNG seed."""

    def __init__(self, specs: list, seed: int = 0):
        self.specs = list(specs)
        self.seed = int(seed)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"fault plan entries must be FaultSpec, got {spec!r}"
                )

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        schema.require(payload, FAULT_PLAN_SPEC, "fault plan")
        specs = [
            FaultSpec(**{k: v for k, v in entry.items() if k != "comment"})
            for entry in payload.get("faults", [])
        ]
        return cls(specs, seed=payload.get("seed", 0))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.specs],
        }

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.specs)} specs, seed={self.seed})"


def load_fault_plan(path: str) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file."""
    return FaultPlan.from_dict(
        schema.load(path, FAULT_PLAN_SPEC, "fault plan")
    )


def kill_all_devices_plan(seed: int = 0) -> FaultPlan:
    """The canonical degradation plan: every accelerator call fails."""
    return FaultPlan(
        [FaultSpec(site="device", error="device", target="*")], seed=seed
    )


def _corrupt_value(value):
    """A deterministic wrong-but-plausible perturbation of one value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ 1
    if isinstance(value, float):
        return value + 1.0
    try:
        return ~value  # Bit values invert
    except TypeError:
        return value


def _corrupt_outputs(outputs: list) -> list:
    """Perturb a device result batch: flip the first element, and drop
    the last element if nothing was perturbable (a short read is still
    a wrong answer)."""
    corrupted = list(outputs)
    if not corrupted:
        return corrupted
    perturbed = _corrupt_value(corrupted[0])
    if perturbed is not corrupted[0] and perturbed != corrupted[0]:
        corrupted[0] = perturbed
        return corrupted
    return corrupted[:-1]


class FaultInjector:
    """Fires a :class:`FaultPlan` against one runtime's call stream.

    The runtime consults :meth:`check` at each injection site. Call
    counting is per spec (a call increments a spec's counter only when
    the spec matches it), so two specs never perturb each other's
    call indices or RNG draws.
    """

    enabled = True

    def __init__(self, plan: FaultPlan, tracer=NULL_TRACER):
        self.plan = plan
        self.tracer = tracer
        self._lock = threading.Lock()
        self._calls: dict[int, int] = {}
        self._fires: dict[int, int] = {}
        self._rngs = [
            _XorShift((plan.seed << 4) ^ (0x9E3779B9 * (index + 1)))
            for index in range(len(plan.specs))
        ]
        self.log: list[InjectedFault] = []
        # Crash suppression (docs/RECOVERY.md): (spec_index, call_index)
        # pairs the journal already witnessed firing. A suppressed crash
        # still consumes its fire budget and RNG draw — so every other
        # counter stays aligned with the uninterrupted run — but does
        # not log or raise, which is what makes restart loops converge.
        self.suppressed: set = set()
        self.suppress_all_crashes = False

    def check(self, site: str, targets: list, device=None, task_id=None,
              count: int = 1):
        """Raise (or stall) if any spec decides to fire here.

        ``targets`` are the concrete names this call is known by (e.g.
        an artifact id plus the task ids it covers); a spec matches if
        its pattern matches any of them.

        ``count`` is the number of *logical* transfers this one call
        stands for: a batched boundary crossing of N values passes
        ``count=N`` so call indices (and the RNG draw sequence) stay
        element-accurate — a plan written against the per-element path
        fires at the same logical points under any batch size. When a
        fault fires at logical index i, indices after i are left
        unconsumed, exactly as if the per-element path had raised on
        its i-th call; the retry then replays from the batch start and
        the counters keep advancing past i.
        """
        for _ in range(count):
            self._check_one(site, targets, device=device, task_id=task_id)

    def _consult(self, index: int, spec: FaultSpec, site: str,
                 targets: list) -> "InjectedFault | None":
        """Advance one spec's call counter and decide whether it fires
        (appending to the log when it does). Caller holds no lock."""
        with self._lock:
            call = self._calls.get(index, 0) + 1
            self._calls[index] = call
            if spec.on_calls and call not in spec.on_calls:
                return None
            if not spec.in_window(call):
                return None
            fires = self._fires.get(index, 0)
            if spec.times is not None and fires >= spec.times:
                return None
            if spec.probability < 1.0:
                if self._rngs[index].random() >= spec.probability:
                    return None
            if spec.error == "crash" and (
                self.suppress_all_crashes
                or (index, call) in self.suppressed
            ):
                # Witnessed (or baseline-suppressed) crash: burn the
                # fire budget silently so later calls see identical
                # counters, but don't unwind again.
                self._fires[index] = fires + 1
                return None
            self._fires[index] = fires + 1
            record = InjectedFault(
                spec_index=index,
                site=site,
                error=spec.error,
                target=targets[0] if targets else spec.target,
                call_index=call,
            )
            self.log.append(record)
            return record

    def _check_one(self, site: str, targets: list, device=None,
                   task_id=None) -> None:
        """One logical call: consult every spec in plan order.

        ``corrupt`` specs are excluded — they do not raise; they fire
        through :meth:`transform_outputs`, so their call counters count
        *completed* device executions, not attempts.
        """
        for index, spec in enumerate(self.plan.specs):
            if spec.error == "corrupt" or not spec.matches(site, targets):
                continue
            record = self._consult(index, spec, site, targets)
            if record is not None:
                self._fire(spec, record, device=device, task_id=task_id)

    def transform_outputs(self, site: str, targets: list, outputs: list,
                          device=None, task_id=None) -> list:
        """Apply any firing ``corrupt`` specs to a device's outputs.

        Called by the device executors *after* the kernel produced its
        results: a wrong-answer device completes normally but returns
        perturbed values. Nothing raises here — during normal (CLOSED)
        operation the corruption flows downstream undetected, exactly
        like a real silent-data-corruption fault; only a shadow probe's
        element-wise comparison (docs/RESILIENCE.md) catches it.
        """
        for index, spec in enumerate(self.plan.specs):
            if spec.error != "corrupt" or not spec.matches(site, targets):
                continue
            record = self._consult(index, spec, site, targets)
            if record is None:
                continue
            counters = self.tracer.counters
            counters.add("fault.injected[corrupt]")
            with self.tracer.span(
                "fault.injected",
                site=record.site,
                error="corrupt",
                target=record.target,
                call=record.call_index,
                device=device,
            ):
                pass
            outputs = _corrupt_outputs(outputs)
        return outputs

    def _fire(self, spec: FaultSpec, record: InjectedFault,
              device=None, task_id=None) -> None:
        counters = self.tracer.counters
        counters.add(f"fault.injected[{spec.error}]")
        with self.tracer.span(
            "fault.injected",
            site=record.site,
            error=spec.error,
            target=record.target,
            call=record.call_index,
            device=device,
        ):
            pass
        message = spec.message or (
            f"injected {spec.error} fault at {record.site} "
            f"on {record.target!r} (call #{record.call_index})"
        )
        if spec.error == "crash":
            raise ProcessCrash(
                message,
                site=record.site,
                target=record.target,
                spec_index=record.spec_index,
                call_index=record.call_index,
            )
        if spec.error == "device":
            raise DeviceError(message)
        if spec.error == "marshaling":
            raise MarshalingError(message)
        if spec.error == "timeout":
            raise DeviceTimeoutError(
                message, task_id=task_id or record.target, device=device
            )
        # 'stall': burn wall-clock time without raising, so the stage
        # watchdog (not the exception path) has to catch it.
        if spec.stall_s:
            time.sleep(spec.stall_s)

    def fired(self) -> int:
        """Total number of faults injected so far."""
        return len(self.log)

    # -- crash suppression and checkpoint state (docs/RECOVERY.md) -----

    def suppress(self, pairs) -> None:
        """Mark ``(spec_index, call_index)`` crash firings as already
        witnessed by the journal: they consume their budget silently
        instead of unwinding the process again."""
        self.suppressed.update((int(s), int(c)) for s, c in pairs)

    def export_state(self) -> dict:
        """Snapshot the injector for a checkpoint frame: per-spec call
        and fire counters, RNG stream positions, and the fault log."""
        with self._lock:
            return {
                "calls": {str(k): v for k, v in self._calls.items()},
                "fires": {str(k): v for k, v in self._fires.items()},
                "rngs": [rng.state for rng in self._rngs],
                "log": fault_log_payload(self.log),
            }

    def restore_state(self, payload: dict) -> None:
        """Restore a snapshot taken by :meth:`export_state` (resume
        from a checkpoint: memoized calls never re-consult the
        injector, so the restored counters line up with the first live
        call)."""
        with self._lock:
            self._calls = {
                int(k): int(v) for k, v in payload["calls"].items()
            }
            self._fires = {
                int(k): int(v) for k, v in payload["fires"].items()
            }
            for rng, state in zip(self._rngs, payload["rngs"]):
                rng.state = int(state)
            self.log = [InjectedFault(**row) for row in payload["log"]]

    def __repr__(self) -> str:
        return f"<FaultInjector {self.fired()} fired of {self.plan!r}>"


class _NullInjector:
    """No-op injector used when no fault plan is configured."""

    enabled = False
    log: tuple = ()
    suppress_all_crashes = False

    def suppress(self, pairs) -> None:
        pass

    def export_state(self) -> None:
        return None

    def restore_state(self, payload) -> None:
        pass

    def check(self, site, targets, device=None, task_id=None,
              count: int = 1) -> None:
        pass

    def transform_outputs(self, site, targets, outputs, device=None,
                          task_id=None):
        return outputs

    def fired(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "<NullInjector>"


NULL_INJECTOR = _NullInjector()


def as_injector(plan_or_injector, tracer=NULL_TRACER):
    """Normalize a FaultPlan/None/injector to an injector."""
    if plan_or_injector is None:
        return NULL_INJECTOR
    if isinstance(plan_or_injector, FaultPlan):
        return FaultInjector(plan_or_injector, tracer=tracer)
    return plan_or_injector
