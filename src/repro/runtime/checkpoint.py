"""Stage-boundary checkpoints for crash-consistent co-execution.

A :class:`CheckpointRecorder` memoizes the results of the runtime's
*device decision points* — every supervised filter-batch executor call
and every whole ``execute_map`` / ``execute_reduce`` invocation — and
periodically persists them, together with wholesale snapshots of the
fault injector, the retry supervisor, and the device-health registry,
as ``repro.checkpoint/1`` frames appended to the service's job journal
(:class:`~repro.service.journal.JobJournal`) through its one locked
append handle. Frames are *deltas*: each carries only the entries
captured since the previous frame (state snapshots are always
wholesale), so a frame costs O(interval) however long the run is, and
resume consumes the concatenated entry slices of the job's frame chain
(``seq`` 0, 1, 2, ...), which :func:`~repro.service.journal.load_journal`
folds out of the journal beside the job's lifecycle state.

On restart the service resumes an interrupted job by re-running it
from its entry point with a recorder in *replay* mode: host/bytecode
work re-executes live (it is deterministic), while each memoized
decision point is served from the frame — outputs decoded from the
wire format, offload records re-charged to the ledger, stdout segments
and interpreter cycles replayed — so the resumed run is bit-identical
to the uninterrupted one. A decision point whose memo does not match
the live call signature raises
:class:`~repro.errors.CheckpointReplayError`; the service then
journals the job as recovered from scratch (which makes the chain
unresumable) and re-runs it (still bit-identical, just slower).

A decision point's outputs are kept as (immutable) values and packed
into the wire format only when a frame is written, so a job that
persists nothing packs nothing. An output outside the wire format stops
capture at that persist: the frame that would hold it, and every later
one, is never written.

Frames are only written at *quiescent* points: the sequential
scheduler persists inline at stage boundaries, the threaded scheduler
only between graphs and after top-level map/reduce commits — a frame
must never capture a half-finished concurrent stage.

Persistence cost is **modeled**, not charged to the job's ledger
(charging it would perturb the bit-identity the checkpoints exist to
protect): the recorder accumulates ``modeled_persist_s`` for the
benchmark harness (``BENCH_recovery.json``) to report against the
<10% overhead bar.
"""

from __future__ import annotations

import json
import threading

from repro.errors import CheckpointReplayError, ConfigurationError
from repro.obs.tracer import NULL_TRACER
from repro.runtime.timing import OffloadRecord
from repro.values import frame_record, pack_values, unpack_values

#: Schema tag stamped into every checkpoint frame.
CHECKPOINT_SCHEMA = "repro.checkpoint/1"

#: Modeled cost of persisting one frame: a fixed submit latency plus
#: the frame bytes over a local-SSD-class write stream. Kept out of
#: the job ledger (see module docstring); reported by the recovery
#: benchmark.
PERSIST_FIXED_S = 50e-6
PERSIST_BYTES_PER_S = 2.0e9

#: Default decision points between frames. Chosen so the modeled
#: persist cost (fixed submit latency dominates; frames are
#: O(interval) deltas) stays under the documented 10% overhead bar
#: even on launch-dominated streams: one frame (~50us) amortizes over
#: 32 batch decision points (docs/RECOVERY.md).
DEFAULT_INTERVAL = 32

#: Decision-point kinds a frame entry may carry.
ENTRY_KINDS = ("filter-batch", "map", "reduce")


def capture_refusal(config) -> "str | None":
    """Why a run under ``config`` (a ``RuntimeConfig``) cannot be
    checkpointed, or None when it can. Kernel specialization mutates
    artifacts across calls and adaptive policies re-decide per firing,
    so neither run's decision points are replayable."""
    if config.specialize_after is not None:
        return (
            "checkpointing cannot capture specialized kernels; "
            "disable specialize_after or checkpointing"
        )
    if config.policy.adaptive:
        return (
            "checkpointing cannot capture adaptive substitution; "
            "disable policy.adaptive or checkpointing"
        )
    return None


class CheckpointRecorder:
    """Memoizing capture/replay of one job's device decision points.

    ``chain`` is the job's frame chain from the journal snapshot
    (:attr:`~repro.service.journal.JobReplay.checkpoints`): a non-empty
    chain makes the recorder replay it and continue it at the next
    ``seq``; without one it captures afresh from ``seq`` 0. Frames are
    written to ``journal``. Either way, :meth:`attach` binds the
    recorder to the job's :class:`~repro.runtime.engine.Runtime`
    before the run starts.
    """

    def __init__(self, journal, job_id: str,
                 interval: int = DEFAULT_INTERVAL, tracer=NULL_TRACER,
                 chain: "list | None" = None):
        if interval < 1:
            raise ConfigurationError(
                f"checkpoint interval must be >= 1, got {interval}"
            )
        chain = chain or []
        self.journal = journal
        self.interval = interval
        self.job_id = job_id
        self.tracer = tracer
        self._runtime = None
        self._scheduler = ""
        # Replay state: per-(kind, key) FIFO queues of the chain's
        # entries (frames are deltas, so every frame's slice in frame
        # order), plus the last frame — its injector/supervisor/health
        # snapshots are the crashed run's state at its most recent
        # quiescent persist.
        self._queues: dict = {}
        for frame in chain:
            for entry in frame["entries"]:
                handle = (entry["kind"], entry["key"])
                self._queues.setdefault(handle, []).append(entry)
        self._frame: "dict | None" = chain[-1] if chain else None
        self._restored_breakers: list = []
        # Capture state: entries recorded since the last persisted
        # frame. Frames are *deltas* — each carries only this slice,
        # so persist cost stays O(interval) however long the run is.
        # An entry holds its outputs as values until _persist packs
        # them; ``_lock`` guards the list.
        self._entries: list = []
        self._next_seq = len(chain)
        self._unpersisted = 0
        self._disabled = False
        self._depth = 0
        self._lock = threading.RLock()
        # Accounting (surfaced by the recovery benchmark and tests).
        self.frames_persisted = 0
        self.bytes_persisted = 0
        self.resume_hits = 0
        self.modeled_persist_s = 0.0

    @property
    def resuming(self) -> bool:
        return self._frame is not None

    @property
    def entries(self) -> int:
        """Entries captured since the last persisted frame."""
        return len(self._entries)

    # -- runtime binding -----------------------------------------------

    def attach(self, runtime) -> None:
        """Bind to a runtime before its run starts.

        Fresh capture refuses configurations whose decision points are
        not replayable (:func:`capture_refusal`). Resume restores
        the frame's injector/supervisor/health snapshots wholesale —
        exactly the state the crashed run had at its last frame. A
        restored OPEN breaker needs nothing more: the runtime reads
        span health from its breakers alone.
        """
        refusal = capture_refusal(runtime.config)
        if refusal is not None:
            raise ConfigurationError(refusal)
        self._runtime = runtime
        self._scheduler = runtime.config.scheduler
        frame = self._frame
        if frame is None:
            return
        if frame.get("scheduler") != runtime.config.scheduler:
            raise CheckpointReplayError(
                f"checkpoint was captured under the "
                f"{frame.get('scheduler')!r} scheduler but the job is "
                f"resuming under {runtime.config.scheduler!r}",
                job_id=self.job_id,
            )
        injector_state = frame.get("injector")
        if (injector_state is None) != (not runtime.faults.enabled):
            raise CheckpointReplayError(
                "checkpoint and resumed job disagree about fault "
                "injection; cannot replay",
                job_id=self.job_id,
            )
        if injector_state is not None:
            runtime.faults.restore_state(injector_state)
        runtime.supervisor.restore_state(frame["supervisor"])
        restored = runtime.health.restore_state(frame["health"])
        self._restored_breakers = [(r.device, r.key) for r in restored]
        self.tracer.counters.add("checkpoint.resume.attached")

    def invalidate(self, registry) -> None:
        """Abandon this resume attempt: scrub the breakers the frame
        restored from the (possibly service-shared) health registry so
        the from-scratch re-run starts clean."""
        self.tracer.counters.add("checkpoint.invalid")
        for device, key in self._restored_breakers:
            registry.discard(device, key)
        self._restored_breakers = []

    # -- decision points -----------------------------------------------

    def around(self, kind: str, key: str, items: int, live_fn):
        """Serve one decision point — a supervised filter batch, or a
        whole ``execute_map`` / ``execute_reduce`` call — of ``items``
        inputs: replay the memo when the frame has one, otherwise run
        ``live_fn() -> (output list, seconds)`` and record. The lock
        serializes decision points across stage threads, which makes
        the cycles/stdout/offload deltas exact; simulated time is
        unaffected by the lost wall-clock overlap."""
        with self._lock:
            if self._depth:
                # Nested decision point (a map inside a mapped method):
                # the outer memo already covers it; never record or
                # consume at depth > 0.
                return live_fn()
            entry = self._pop(kind, key)
            if entry is not None:
                return self._replay(entry, items)
            result = self._capture(kind, key, items, live_fn)
            if self._scheduler == "sequential":
                # Single-threaded execution is quiescent between any
                # two top-level decision points, so the interval can
                # fire mid-stage — a fused pipeline with one device
                # stage still checkpoints per batch. Threaded runs
                # must wait for a graph/stage boundary.
                self.quiesce()
            return result

    def _pop(self, kind: str, key: str):
        queue = self._queues.get((kind, key))
        if not queue:
            return None
        return queue.pop(0)

    def _replay(self, entry: dict, items: int):
        if entry["items"] != items:
            raise CheckpointReplayError(
                f"checkpoint entry for {entry['kind']}:{entry['key']} "
                f"memoizes {entry['items']} item(s) but the resumed "
                f"run presented {items}",
                job_id=self.job_id,
            )
        runtime = self._runtime
        outputs = unpack_values(bytes.fromhex(entry["outputs"]))
        runtime.interp.stdout.extend(entry["stdout"])
        runtime.interp.cycles += entry["cycles"]
        for row in entry["offloads"]:
            record = OffloadRecord.from_dict(row)
            runtime.ledger.add_offload(record)
            runtime._observe_offload(record)
        self.resume_hits += 1
        self.tracer.counters.add("checkpoint.resume.hit")
        return outputs, entry["seconds"]

    def _capture(self, kind: str, key: str, items: int, live_fn):
        runtime = self._runtime
        interp = runtime.interp
        cycles_before = interp.cycles
        out_before = len(interp.stdout)
        offloads_before = len(runtime.ledger.offloads)
        self._depth += 1
        try:
            outputs, seconds = live_fn()
        finally:
            self._depth -= 1
        if self._disabled:
            return outputs, seconds
        # Kept as values and packed only when a frame is written
        # (_persist): a job that never persists packs nothing. Wire
        # values are immutable, so the copy of the list is enough.
        self._entries.append({
            "kind": kind,
            "key": key,
            "items": items,
            "outputs": list(outputs),
            "seconds": seconds,
            "cycles": interp.cycles - cycles_before,
            "stdout": list(interp.stdout[out_before:]),
            "offloads": [
                record.to_dict()
                for record in runtime.ledger.offloads[offloads_before:]
            ],
        })
        self._unpersisted += 1
        return outputs, seconds

    def _disable(self) -> None:
        self._disabled = True
        self.tracer.counters.add("checkpoint.disabled")

    # -- persistence ---------------------------------------------------

    def quiesce(self) -> None:
        """Persist a frame if enough decision points accumulated since
        the last one. Only call at quiescent points; a call that races
        a live capture (nested quiesce) is ignored."""
        with self._lock:
            if (
                self._disabled
                or self._runtime is None
                or self._depth
                or self._unpersisted < self.interval
            ):
                return
            self._persist()

    def flush(self) -> None:
        """Persist a final frame regardless of the interval (anything
        captured since the last frame would otherwise be lost)."""
        with self._lock:
            if self._disabled or self._runtime is None or self._depth:
                return
            if self._unpersisted:
                self._persist()

    def _persist(self) -> None:
        runtime = self._runtime
        try:
            entries = [
                {**entry, "outputs": pack_values(entry["outputs"]).hex()}
                for entry in self._entries
            ]
        except Exception:
            # Outputs outside the wire format cannot be memoized; a
            # partial memo is worse than none, so stop capturing and
            # write neither this frame nor any later one (the job stays
            # journal-recoverable from scratch).
            self._disable()
            return
        payload = json.dumps(
            {
                "schema": CHECKPOINT_SCHEMA,
                "job_id": self.job_id,
                "scheduler": self._scheduler,
                "seq": self._next_seq,
                "entries": entries,
                "injector": runtime.faults.export_state(),
                "supervisor": runtime.supervisor.export_state(),
                "health": runtime.health.export_state(),
            },
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8")
        frame = frame_record(payload)
        # Under _lock, so the lock order is recorder then journal.
        # A dead journal (a simulated process crash) drops the frame.
        self.journal.write_frame(frame)
        self._entries = []
        self._next_seq += 1
        self.frames_persisted += 1
        self.bytes_persisted += len(frame)
        self.modeled_persist_s += (
            PERSIST_FIXED_S + len(frame) / PERSIST_BYTES_PER_S
        )
        self._unpersisted = 0
        counters = self.tracer.counters
        counters.add("checkpoint.frame.persisted")
        counters.add("checkpoint.frame.bytes", len(frame))
        with self.tracer.span(
            "checkpoint.persist",
            job_id=self.job_id,
            entries=len(entries),
            bytes=len(frame),
        ):
            pass

    def __repr__(self) -> str:
        mode = "replay" if self.resuming else "capture"
        return (
            f"<CheckpointRecorder {mode} {len(self._entries)} entries, "
            f"{self.frames_persisted} frame(s)>"
        )

