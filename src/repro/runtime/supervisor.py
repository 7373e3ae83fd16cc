"""Supervised device execution: retry, backoff, and demotion.

The runtime always holds a bytecode artifact for every task
(Section 4.1), so no device failure needs to be fatal: a failing
GPU/FPGA executor is retried up to ``max_attempts`` times, and when
retries are exhausted the :class:`Supervisor` performs runtime
re-substitution — the caller supplies a bytecode fallback built from
the always-available artifact, the failed batch is replayed on it, and
the span is demoted (a ``bytecode`` directive is added to the
substitution policy so later graph runs skip the failed device
entirely).

Everything here is deterministic: backoff jitter comes from a seeded
RNG and backoff time is charged as *simulated* seconds (recorded in
spans and counters), never slept on the wall clock.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass

from repro.errors import (
    DeviceError,
    DeviceTimeoutError,
    LiquidMetalError,
    MarshalingError,
    RetryExhaustedError,
)
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.runtime.faults import _XorShift


#: The backoff schedule: retry ``k`` (1-based) backs off
#: ``BASE_BACKOFF_S * BACKOFF_MULTIPLIER**(k-1)`` seconds, capped at
#: ``MAX_BACKOFF_S``, scaled by a jitter factor in
#: ``[1 - JITTER_RATIO, 1 + JITTER_RATIO)`` drawn from a stream seeded
#: with ``RETRY_SEED`` (docs/RESILIENCE.md).
BASE_BACKOFF_S = 100e-6
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF_S = 0.1
JITTER_RATIO = 0.1
RETRY_SEED = 0x5EED


def is_retryable(exc: BaseException) -> bool:
    """Transient ``DeviceError`` / ``MarshalingError`` faults are
    retried; a ``DeviceTimeoutError`` (a stalled device) demotes at
    once, since retrying a hang just hangs again."""
    if isinstance(exc, DeviceTimeoutError):
        return False
    return isinstance(exc, (DeviceError, MarshalingError))


def backoff_s(attempt: int, unit: float) -> float:
    """Backoff before retry #``attempt`` given a unit draw."""
    base = min(
        BASE_BACKOFF_S * BACKOFF_MULTIPLIER ** (attempt - 1),
        MAX_BACKOFF_S,
    )
    return base * (1.0 + JITTER_RATIO * (2.0 * unit - 1.0))


@dataclass
class DemotionRecord:
    """One runtime re-substitution: a device span demoted to bytecode."""

    task_id: str
    device: str
    attempts: int
    error: str              # class name of the final error
    covered_task_ids: list
    # Simulated seconds of backoff this call accumulated before giving
    # up — the health registry charges it to the span's breaker clock.
    backoff_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "device": self.device,
            "attempts": self.attempts,
            "error": self.error,
            "covered_task_ids": list(self.covered_task_ids),
            "backoff_s": self.backoff_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DemotionRecord":
        return cls(**payload)


class Supervisor:
    """Wraps device execution with retry/backoff and demotion.

    One supervisor belongs to one runtime; it owns the retry RNG, the
    accumulated (simulated) backoff time, and the demotion log. The
    tracer records a ``retry.attempt`` span per retry and a
    ``demotion.taken`` span per re-substitution, plus matching
    counters, so ``python -m repro trace``/``faults`` show the whole
    recovery.
    """

    def __init__(self, max_attempts: int, tracer=NULL_TRACER,
                 job_id: "str | None" = None,
                 tenant: "str | None" = None):
        self.max_attempts = max_attempts
        self.tracer = tracer
        # Service-job attribution, stamped onto RetryExhaustedError so
        # multi-tenant error reports can say whose retries ran out.
        self.job_id = job_id
        self.tenant = tenant
        self.metrics = getattr(tracer, "metrics", NULL_METRICS)
        self._lock = threading.Lock()
        # Per-task-id RNG streams: concurrent device tasks under the
        # ThreadedScheduler must not interleave draws from one shared
        # stream, or the backoff sequence depends on thread timing.
        # Each task id gets its own deterministic stream derived from
        # RETRY_SEED, so draw order across tasks is irrelevant.
        self._rngs: dict = {}
        self._backoff_by_task: dict = {}
        self.demotions: list[DemotionRecord] = []

    @property
    def total_backoff_s(self) -> float:
        """Accumulated simulated backoff. Summed per task id in sorted
        key order, so the float total is bit-identical run-to-run no
        matter how concurrent stage threads interleaved their draws."""
        per_task = self._backoff_by_task
        return sum(per_task[task_id] for task_id in sorted(per_task))

    def _draw_backoff(self, task_id: str, attempt: int) -> float:
        """Draw jitter and accumulate backoff in ONE critical section.

        The draw and the total-backoff accumulation used to sit in two
        separate lock acquisitions, letting concurrent tasks interleave
        between them; doing both atomically (against a per-task stream)
        makes the total independent of scheduling.
        """
        with self._lock:
            rng = self._rngs.get(task_id)
            if rng is None:
                stream_seed = RETRY_SEED ^ zlib.crc32(
                    task_id.encode("utf-8")
                )
                rng = self._rngs[task_id] = _XorShift(stream_seed)
            backoff = backoff_s(attempt, rng.random())
            self._backoff_by_task[task_id] = (
                self._backoff_by_task.get(task_id, 0.0) + backoff
            )
        return backoff

    def run(self, attempt_fn, *, task_id: str, device: str,
            fallback=None, covered_task_ids=None, on_demote=None):
        """Execute ``attempt_fn()`` with up to ``max_attempts`` tries.

        On exhausted retries (or a non-retryable error), replays via
        ``fallback()`` — calling ``on_demote(record, error)`` first so
        the engine can pin the span to bytecode — or raises
        :class:`RetryExhaustedError` when no fallback exists.
        """
        counters = self.tracer.counters
        last: "LiquidMetalError | None" = None
        attempts = 0
        call_backoff_s = 0.0
        while attempts < self.max_attempts:
            attempts += 1
            try:
                result = attempt_fn()
                if attempts > 1:
                    # A recovered task used to be indistinguishable
                    # from a first-try success in traces; mark it.
                    counters.add("retry.recovered")
                    counters.add(f"retry.recovered[{device}]")
                    with self.tracer.span(
                        "retry.recovered",
                        task_id=task_id,
                        device=device,
                        attempts=attempts,
                        backoff_s=call_backoff_s,
                    ):
                        pass
                return result
            except LiquidMetalError as exc:
                last = exc
                if not is_retryable(exc):
                    break
                if attempts >= self.max_attempts:
                    break
                backoff = self._draw_backoff(task_id, attempts)
                call_backoff_s += backoff
                counters.add("retry.attempt")
                counters.add(f"retry.attempt[{device}]")
                self.metrics.histogram("retry.backoff_us").observe(
                    backoff * 1e6
                )
                with self.tracer.span(
                    "retry.attempt",
                    task_id=task_id,
                    device=device,
                    attempt=attempts,
                    backoff_s=backoff,
                    error=type(exc).__name__,
                ):
                    pass
        if fallback is None:
            raise RetryExhaustedError(
                f"task {task_id!r} on {device} failed after "
                f"{attempts} attempt(s): {last}",
                task_id=task_id,
                device=device,
                attempts=attempts,
                cause=last,
                job_id=self.job_id,
                tenant=self.tenant,
            ) from last
        record = DemotionRecord(
            task_id=task_id,
            device=device,
            attempts=attempts,
            error=type(last).__name__,
            covered_task_ids=list(covered_task_ids or []),
            backoff_s=call_backoff_s,
        )
        with self._lock:
            self.demotions.append(record)
        counters.add("demotion.taken")
        counters.add(f"demotion.taken[{device}]")
        with self.tracer.span(
            "demotion.taken",
            task_id=task_id,
            device=device,
            attempts=attempts,
            error=record.error,
            covered=",".join(record.covered_task_ids),
        ):
            if on_demote is not None:
                on_demote(record, last)
            return fallback()

    # -- checkpoint state (docs/RECOVERY.md) ---------------------------

    def export_state(self) -> dict:
        """Snapshot the per-task RNG stream positions, accumulated
        backoff, and the demotion log for a checkpoint frame."""
        with self._lock:
            return {
                "rngs": {
                    task_id: rng.state
                    for task_id, rng in self._rngs.items()
                },
                "backoff": dict(self._backoff_by_task),
                "demotions": [d.to_dict() for d in self.demotions],
            }

    def restore_state(self, payload: dict) -> None:
        """Restore a snapshot taken by :meth:`export_state`, so live
        retries after a checkpoint resume draw the same jitter the
        uninterrupted run would have."""
        with self._lock:
            self._rngs = {
                task_id: _XorShift(1)
                for task_id in payload["rngs"]
            }
            for task_id, state in payload["rngs"].items():
                self._rngs[task_id].state = int(state)
            self._backoff_by_task = {
                task_id: float(backoff)
                for task_id, backoff in payload["backoff"].items()
            }
            self.demotions = [
                DemotionRecord.from_dict(row)
                for row in payload["demotions"]
            ]

    def __repr__(self) -> str:
        return (
            f"<Supervisor {len(self.demotions)} demotions, "
            f"backoff {self.total_backoff_s:.3g}s>"
        )
