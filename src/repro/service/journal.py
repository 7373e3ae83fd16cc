"""Durable job journal for crash-consistent co-execution.

The :class:`JobJournal` is the service's one durable file,
``<journal_dir>/journal.rj``: torn-write-tolerant frames (length +
sha256, see :func:`repro.values.frame_record`) of two kinds.

* ``repro.journal/1`` records: every job state transition the service
  performs — ``submitted`` / ``admitted`` / ``leased`` / ``running`` /
  ``completed`` / ``failed`` / ``cancelled`` / ``crashed`` /
  ``recovered``. The ``submitted`` record carries the job's *full
  deterministic inputs* (source, entry, wire-serialized arguments), so
  a restarted service can re-run the job bit-identically; the
  ``completed`` record carries the outcome digest and enough of the
  result to satisfy ``result()`` without re-running (idempotent
  dedup).
* ``repro.checkpoint/1`` frames: a job's stage checkpoints, written by
  its :class:`~repro.runtime.checkpoint.CheckpointRecorder` through the
  same locked append handle.

No fsync: the simulated :class:`~repro.errors.ProcessCrash` marks the
journal *dead* — every later append is silently dropped, modeling the
lost writes of a real crash — and on restart :func:`load_journal`
folds the surviving records per job (lifecycle state and checkpoint
chain), dropping a torn tail record exactly (and nothing before it).
A reopened journal truncates the file to the end of the last folded
record before it appends, so every record written after a tear is
read by the next recovery.

``repro.recover/1`` is the machine-readable recovery report the
service's ``recover()`` produces; validate/render helpers follow the
profile/health/service report pattern.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading

from repro import schema
from repro.errors import ConfigurationError
from repro.obs.tracer import NULL_TRACER
from repro.runtime.checkpoint import CHECKPOINT_SCHEMA
from repro.values import deserialize, frame_record, serialize, unframe_records

__all__ = [
    "JOURNAL_SCHEMA",
    "RECOVER_SCHEMA",
    "canonical_args",
    "encode_args",
    "JobJournal",
    "NULL_JOURNAL",
    "JobReplay",
    "JournalSnapshot",
    "load_journal",
    "outcome_digest",
    "RecoveredOutcome",
    "RECOVER_SPEC",
    "render_recover_report",
]

#: Schema stamp for journal records.
JOURNAL_SCHEMA = "repro.journal/1"

#: Schema stamp for recovery reports.
RECOVER_SCHEMA = "repro.recover/1"

#: File magic heading every journal file (frames follow).
JOURNAL_MAGIC = b"RJ1\n"

#: Journal file name inside the journal directory.
JOURNAL_FILE = "journal.rj"

#: Bytes a frame adds to its payload (length + sha256).
FRAME_OVERHEAD = len(frame_record(b""))

#: Record types a journal may carry, in lifecycle order.
RECORD_TYPES = (
    "submitted", "admitted", "leased", "running",
    "completed", "failed", "cancelled", "crashed", "recovered",
)

#: Terminal record types (the job needs no re-run).
TERMINAL_TYPES = ("completed", "failed", "cancelled")


def canonical_args(args) -> list:
    """One round-trip of job arguments through the wire format.

    Lime's ``float`` is 32-bit on the wire, so a Python double inside
    a ``float[]`` array loses precision the first time it is
    serialized. A journaled service therefore canonicalizes arguments
    *at submit*: the first run and any crash-recovered re-run (whose
    arguments come back out of the journal) execute bit-identical
    inputs. Raises on values outside the wire format.
    """
    return [deserialize(wire) for wire in encode_args(args)]


def encode_args(args) -> list:
    """Each argument's wire bytes: what a ``submitted`` record
    journals and, decoded, what the job runs. Raises on values outside
    the wire format."""
    return [serialize(value) for value in args]


def outcome_digest(value, output: str, total_s: float,
                   fault_log: list) -> str:
    """The job-outcome digest recovery certifies bit-identity with:
    sha256 over the value's repr, the printed output, the exact
    simulated seconds, and the canonical fault log."""
    h = hashlib.sha256()
    h.update(repr(value).encode("utf-8"))
    h.update(b"\x00")
    h.update(output.encode("utf-8"))
    h.update(b"\x00")
    h.update(repr(float(total_s)).encode("utf-8"))
    h.update(b"\x00")
    h.update(
        json.dumps(
            list(fault_log or []), separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
    )
    return h.hexdigest()


class _FrozenLedger:
    """The ledger view a journal-deduplicated outcome exposes: the
    recorded totals, immutable."""

    def __init__(self, total_s: float, summary: dict):
        self.total_s = float(total_s)
        self._summary = dict(summary or {})

    def summary(self) -> dict:
        return dict(self._summary)

    def __repr__(self) -> str:
        return f"<_FrozenLedger total_s={self.total_s!r}>"


class RecoveredOutcome:
    """A completed job's outcome reconstructed from its journal record
    — what ``result()`` returns after an idempotent dedup. Quacks like
    :class:`~repro.runtime.engine.RunOutcome` (value / output / ledger
    / seconds) plus the recovery fields (digest, fault_log)."""

    def __init__(self, value, output: str, total_s: float,
                 summary: dict, digest: str, fault_log: list):
        self.value = value
        self.output = output
        self.ledger = _FrozenLedger(total_s, summary)
        self.digest = digest
        self.fault_log = list(fault_log or [])
        self.trace = None

    @property
    def seconds(self) -> float:
        return self.ledger.total_s

    def __repr__(self) -> str:
        return f"<RecoveredOutcome digest={self.digest[:12]}…>"


class JobJournal:
    """Append-only journal over ``<journal_dir>/journal.rj``.

    Every frame — a lifecycle record from :meth:`append` or a
    checkpoint frame — is one :meth:`write_frame`: a ``write`` to an
    unbuffered append handle that is opened on first use and held,
    under ``_lock``, until :meth:`close` or :meth:`mark_dead`. (A write
    hands the bytes to the OS and nothing more; there is no fsync.)
    :meth:`mark_dead` models the process dying — every subsequent
    append is dropped, exactly the writes a real crash would lose.

    Opening an existing journal truncates it to ``snapshot.end`` (the
    :func:`load_journal` of the directory, loaded here when not
    given): a torn tail is dropped before anything is appended after
    it.
    """

    enabled = True

    def __init__(self, journal_dir: str, tracer=NULL_TRACER,
                 snapshot: "JournalSnapshot | None" = None):
        self.journal_dir = journal_dir
        self.tracer = tracer
        self.path = os.path.join(journal_dir, JOURNAL_FILE)
        self._lock = threading.Lock()
        self._dead = False
        self._handle = None
        self.records_written = 0
        if snapshot is None:
            snapshot = load_journal(journal_dir)
        if not snapshot.existed:
            os.makedirs(journal_dir, exist_ok=True)
            with open(self.path, "wb") as f:
                f.write(JOURNAL_MAGIC)
        elif os.path.getsize(self.path) > snapshot.end:
            os.truncate(self.path, snapshot.end)
            self.tracer.counters.add("journal.truncated")

    # -- plumbing ------------------------------------------------------

    @property
    def dead(self) -> bool:
        return self._dead

    def mark_dead(self) -> None:
        """The simulated process crash: all later appends are lost."""
        with self._lock:
            self._dead = True
            self._close_handle()
        self.tracer.counters.add("journal.dead")

    def close(self) -> None:
        """Release the append handle; the next append reopens it."""
        with self._lock:
            self._close_handle()

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def write_frame(self, frame: bytes) -> bool:
        """Append one framed record; False when the journal is dead
        and the frame was dropped."""
        with self._lock:
            if self._dead:
                self.tracer.counters.add("journal.append.dropped")
                return False
            if self._handle is None:
                self._handle = open(self.path, "ab", buffering=0)
            view = memoryview(frame)
            while view:   # one write, unless the OS takes fewer bytes
                view = view[self._handle.write(view):]
            self.records_written += 1
        return True

    def append(self, record: dict) -> None:
        payload = json.dumps(
            {"schema": JOURNAL_SCHEMA, **record},
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8")
        if not self.write_frame(frame_record(payload)):
            return
        counters = self.tracer.counters
        counters.add("journal.append")
        counters.add(f"journal.append[{record.get('type')}]")

    # -- record constructors -------------------------------------------

    def record_submitted(self, job, wire: "list | None" = None) -> None:
        """``wire`` is :func:`encode_args` of the job's arguments when
        the caller already has it."""
        if wire is None:
            try:
                wire = encode_args(job.args)
            except Exception:
                # Inputs outside the wire format cannot be re-run from
                # the journal; the job is journaled but unrecoverable.
                wire = None
        args_wire = None if wire is None else [w.hex() for w in wire]
        self.append({
            "type": "submitted",
            "job_id": job.job_id,
            "tenant": job.tenant,
            "app": job.app,
            "entry": job.entry,
            "filename": job.filename,
            "source": job.source,
            "args": args_wire,
        })

    def record_admitted(self, job_id: str) -> None:
        self.append({"type": "admitted", "job_id": job_id})

    def record_leased(self, job_id: str, families) -> None:
        self.append({
            "type": "leased", "job_id": job_id,
            "families": list(families),
        })

    def record_running(self, job_id: str) -> None:
        self.append({"type": "running", "job_id": job_id})

    def record_completed(self, job) -> None:
        outcome = job.outcome
        try:
            value_wire = serialize(outcome.value).hex()
        except Exception:
            value_wire = None
        self.append({
            "type": "completed",
            "job_id": job.job_id,
            "digest": job.digest,
            "value": value_wire,
            "value_repr": repr(outcome.value),
            "output": outcome.output,
            "total_s": outcome.ledger.total_s,
            "ledger": outcome.ledger.summary(),
            "fault_log": list(job.fault_log or []),
        })

    def record_failed(self, job_id: str, error: BaseException) -> None:
        self.append({
            "type": "failed",
            "job_id": job_id,
            "error_type": type(error).__name__,
            "error": str(error),
        })

    def record_cancelled(self, job_id: str,
                         error: "BaseException | None" = None) -> None:
        self.append({
            "type": "cancelled",
            "job_id": job_id,
            "error": str(error) if error is not None else "",
        })

    def record_crashed(self, job_id: str, crash) -> None:
        """The one record a dying service gets to write: which crash
        firing killed it — the pair recovery suppresses on re-run."""
        self.append({
            "type": "crashed",
            "job_id": job_id,
            "spec_index": crash.spec_index,
            "call_index": crash.call_index,
            "site": crash.site,
            "target": crash.target,
        })

    def record_recovered(self, job_id: str, mode: str) -> None:
        self.append({"type": "recovered", "job_id": job_id, "mode": mode})

    def __repr__(self) -> str:
        state = "dead" if self._dead else "live"
        return (
            f"<JobJournal {self.path} {state} "
            f"{self.records_written} record(s)>"
        )


class _NullJournal:
    """No-op journal for services running without a journal_dir."""

    enabled = False
    dead = False
    records_written = 0
    path = None

    def mark_dead(self) -> None:
        pass

    def close(self) -> None:
        pass

    def append(self, record: dict) -> None:
        pass

    def record_submitted(self, job, wire=None) -> None:
        pass

    def record_admitted(self, job_id) -> None:
        pass

    def record_leased(self, job_id, families) -> None:
        pass

    def record_running(self, job_id) -> None:
        pass

    def record_completed(self, job) -> None:
        pass

    def record_failed(self, job_id, error) -> None:
        pass

    def record_cancelled(self, job_id, error=None) -> None:
        pass

    def record_crashed(self, job_id, crash) -> None:
        pass

    def record_recovered(self, job_id, mode) -> None:
        pass

    def __repr__(self) -> str:
        return "<NullJournal>"


NULL_JOURNAL = _NullJournal()


class JobReplay:
    """One job's state folded out of the journal records.

    ``checkpoints`` is the job's resumable frame chain: frames whose
    ``seq`` runs 0, 1, 2, ... A frame out of that order ends the chain
    (later frames are ignored), a ``seq`` 0 frame — a fresh capture —
    starts it afresh, and a terminal record or a ``recovered`` record
    in any mode but ``checkpoint`` (a re-run from scratch) drops it.
    """

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.tenant = ""
        self.app = ""
        self.entry = ""
        self.filename = "<lime>"
        self.source = ""
        self.args: "list | None" = []
        self.state = "submitted"       # last journaled lifecycle state
        self.admitted = False
        self.families: list = []
        self.completed: "dict | None" = None
        self.error_type = ""
        self.error = ""
        self.crashes: list = []        # [(spec_index, call_index), ...]
        self.recovered_modes: list = []
        self.unrecoverable = False
        self.checkpoints: list = []
        self._chain_ended = False

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_TYPES

    def apply(self, record: dict) -> None:
        if record.get("schema") == CHECKPOINT_SCHEMA:
            self._chain(record)
            return
        kind = record.get("type")
        if kind == "submitted":
            self.tenant = record.get("tenant", "")
            self.app = record.get("app", "")
            self.entry = record.get("entry", "")
            self.filename = record.get("filename", "<lime>")
            self.source = record.get("source", "")
            wire = record.get("args")
            if wire is None:
                self.args = None
                self.unrecoverable = True
            else:
                self.args = [deserialize(bytes.fromhex(a)) for a in wire]
        elif kind == "admitted":
            self.admitted = True
        elif kind == "leased":
            self.families = list(record.get("families", []))
            self.state = "leased"
        elif kind == "running":
            self.state = "running"
        elif kind in TERMINAL_TYPES:
            self.state = kind
            self.checkpoints = []
            if kind == "completed":
                self.completed = record
            else:
                self.error_type = record.get("error_type", "")
                self.error = record.get("error", "")
        elif kind == "crashed":
            self.crashes.append(
                (record.get("spec_index", 0), record.get("call_index", 0))
            )
            # A crashed job is not terminal: it re-runs on recovery.
            self.state = "crashed"
        elif kind == "recovered":
            self.recovered_modes.append(record.get("mode", ""))
            if record.get("mode") != "checkpoint":
                self.checkpoints = []

    def _chain(self, frame: dict) -> None:
        if frame.get("seq") == 0:
            self.checkpoints, self._chain_ended = [], False
        if (
            self._chain_ended
            or frame.get("seq") != len(self.checkpoints)
            or not isinstance(frame.get("entries"), list)
        ):
            self._chain_ended = True
        else:
            self.checkpoints.append(frame)

    def outcome(self) -> RecoveredOutcome:
        """Reconstruct the completed outcome (requires ``completed``)."""
        record = self.completed
        value = None
        if record.get("value") is not None:
            value = deserialize(bytes.fromhex(record["value"]))
        return RecoveredOutcome(
            value=value,
            output=record.get("output", ""),
            total_s=record.get("total_s", 0.0),
            summary=record.get("ledger", {}),
            digest=record.get("digest", ""),
            fault_log=record.get("fault_log", []),
        )

    def __repr__(self) -> str:
        return f"<JobReplay {self.job_id} {self.app} {self.state}>"


class JournalSnapshot:
    """Everything :func:`load_journal` learned from one journal file."""

    def __init__(self, jobs: dict, records: int, torn_bytes: int,
                 existed: bool, end: int = 0):
        self.jobs = jobs               # job_id -> JobReplay (in order)
        self.records = records         # folded records, frames included
        self.torn_bytes = torn_bytes
        self.existed = existed
        self.end = end                 # file offset after the last one

    def __repr__(self) -> str:
        return (
            f"<JournalSnapshot {len(self.jobs)} job(s), "
            f"{self.records} record(s), torn={self.torn_bytes}>"
        )


def load_journal(journal_dir: str) -> JournalSnapshot:
    """Replay a journal directory into per-job folded state: lifecycle
    records into the job's state, checkpoint frames into its chain
    (see :class:`JobReplay`). Missing file → empty snapshot; a torn
    tail drops exactly the torn record; a record that fails to decode,
    carries another schema or no ``job_id`` stops the fold there
    (a reopened :class:`JobJournal` truncates it away)."""
    path = os.path.join(journal_dir, JOURNAL_FILE)
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return JournalSnapshot({}, 0, 0, existed=False)
    if not data.startswith(JOURNAL_MAGIC):
        raise ConfigurationError(
            f"{path} is not a repro job journal (bad magic)"
        )
    payloads, torn = unframe_records(data[len(JOURNAL_MAGIC):])
    jobs: dict = {}
    records = 0
    end = len(JOURNAL_MAGIC)
    for payload in payloads:
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        if (
            not isinstance(record, dict)
            or record.get("schema") not in (JOURNAL_SCHEMA, CHECKPOINT_SCHEMA)
        ):
            break
        job_id = record.get("job_id")
        if not job_id:
            break
        records += 1
        end += FRAME_OVERHEAD + len(payload)
        replay = jobs.get(job_id)
        if replay is None:
            replay = jobs[job_id] = JobReplay(job_id)
        replay.apply(record)
    return JournalSnapshot(jobs, records, torn, existed=True, end=end)


# ---------------------------------------------------------------------------
# The repro.recover/1 report document / rendering
# ---------------------------------------------------------------------------


#: The ``repro.recover/1`` document (:mod:`repro.schema`).
RECOVER_SPEC = schema.obj(
    {
        "schema": schema.one_of(RECOVER_SCHEMA),
        "journal": {"type": "object", "nullable": True},
        "deduped": schema.array(schema.obj(schema.keys("job_id"))),
        "recovered": schema.array(schema.obj({
            **schema.keys("job_id", "app", "tenant", "state"),
            "mode": schema.one_of(
                "checkpoint", "scratch", "unrecoverable", noun="mode"
            ),
        })),
        "totals": schema.OBJECT,
    },
    checks=(schema.totals_match("deduped", "recovered"),),
)


def render_recover_report(report: dict) -> str:
    """The human-readable form of a recovery report (CLI default)."""
    lines = []
    journal = report.get("journal", {})
    lines.append(
        "recovery — journal {p}: {r} record(s), {t} torn byte(s)".format(
            p=journal.get("path", "?"),
            r=journal.get("records", 0),
            t=journal.get("torn_bytes", 0),
        )
    )
    lines.append("")
    deduped = report.get("deduped", [])
    for row in deduped:
        digest = row.get("digest") or ""
        lines.append(
            f"{row['job_id']}  [{row.get('state', '?').upper()}]  "
            f"deduped (idempotent replay)"
            + (f"  digest={digest[:12]}" if digest else "")
        )
    for row in report.get("recovered", []):
        digest = row.get("digest") or ""
        lines.append(
            f"{row['job_id']}  {row.get('app', ''):<14} "
            f"[{row.get('state', '?').upper()}]  "
            f"recovered:{row.get('mode')}"
            f"  suppressed={row.get('crashes_suppressed', 0)}"
            + (f"  digest={digest[:12]}" if digest else "")
        )
    if not deduped and not report.get("recovered"):
        lines.append("(nothing to recover)")
    totals = report.get("totals", {})
    lines.append("")
    lines.append(
        "totals: {j} journaled job(s) — {d} deduped, {r} recovered "
        "({c} from checkpoint, {s} from scratch), {x} rejected".format(
            j=totals.get("jobs", 0),
            d=totals.get("deduped", 0),
            r=totals.get("recovered", 0),
            c=totals.get("from_checkpoint", 0),
            s=totals.get("from_scratch", 0),
            x=totals.get("rejected", 0),
        )
    )
    driver = report.get("driver")
    if driver:
        lines.append(
            "driver: {j} job(s), {n} restart(s), {v} verified "
            "bit-identical, {k} checkpoint resume(s)".format(
                j=driver.get("jobs", 0),
                n=driver.get("restarts", 0),
                v=driver.get("verified_jobs", 0),
                k=driver.get("checkpoint_resumes", 0),
            )
        )
    return "\n".join(lines)
