"""Tests for the durable job journal (repro.service.journal).

Covers the append-only framed file format (magic, schema stamp,
torn-write tolerance at *every* truncation offset of a journal that
interleaves checkpoint frames, the torn tail truncated on reopen),
record folding into :class:`JobReplay`, wire-canonical argument
normalization, the outcome digest, and the ``repro.recover/1`` report
validator."""

import json
import random

import pytest

from repro import schema
from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.runtime import CHECKPOINT_SCHEMA
from repro.service import (
    JOURNAL_SCHEMA,
    RECOVER_SCHEMA,
    RECOVER_SPEC,
    Job,
    JobJournal,
    load_journal,
    outcome_digest,
)
from repro.service.journal import (
    JOURNAL_FILE,
    JOURNAL_MAGIC,
    canonical_args,
    RecoveredOutcome,
)
from repro.values import (
    KIND_FLOAT,
    ValueArray,
    frame_record,
    unframe_records,
)


def _job(job_id="job-0001", tenant="t0", args=None):
    return Job(
        job_id=job_id,
        tenant=tenant,
        source="class C { }",
        entry="C.m",
        args=args if args is not None else [7],
        app="demo",
        filename="<demo.lime>",
    )


def _checkpoint_frame(job_id, seq) -> bytes:
    payload = json.dumps(
        {"schema": CHECKPOINT_SCHEMA, "job_id": job_id, "seq": seq,
         "entries": [{"kind": "map", "key": "k", "items": seq}]},
        separators=(",", ":"),
        sort_keys=True,
    )
    return frame_record(payload.encode("utf-8"))


def _write_journal(tmp_path, jobs=2, frames=0):
    """A journal with a full lifecycle per job, ``frames`` checkpoint
    frames written while each job runs; returns its path."""
    journal = JobJournal(str(tmp_path))
    for index in range(jobs):
        job = _job(job_id=f"job-{index + 1:04d}", tenant=f"t{index}")
        journal.record_submitted(job)
        journal.record_admitted(job.job_id)
        journal.record_leased(job.job_id, ("gpu",))
        journal.record_running(job.job_id)
        for seq in range(frames):
            journal.write_frame(_checkpoint_frame(job.job_id, seq))
        job.digest = f"d{index}"
        job.fault_log = []
        job.outcome = RecoveredOutcome(
            value=3 * index,
            output=f"out{index}\n",
            total_s=0.5 + index,
            summary={"total_s": 0.5 + index},
            digest=job.digest,
            fault_log=[],
        )
        journal.record_completed(job)
    journal.close()
    return str(tmp_path / JOURNAL_FILE)


def _frame_ends(data: bytes):
    """Byte offset (into the whole file) where each complete frame
    ends, in order."""
    body = data[len(JOURNAL_MAGIC):]
    payloads, torn = unframe_records(body)
    assert torn == 0
    ends = []
    offset = len(JOURNAL_MAGIC)
    for payload in payloads:
        offset += len(frame_record(payload))
        ends.append(offset)
    assert offset == len(data)
    return ends


class TestJournalFile:
    def test_fresh_file_has_magic_and_schema(self, tmp_path):
        path = _write_journal(tmp_path, jobs=1)
        data = open(path, "rb").read()
        assert data.startswith(JOURNAL_MAGIC)
        payloads, torn = unframe_records(data[len(JOURNAL_MAGIC):])
        assert torn == 0
        for payload in payloads:
            record = json.loads(payload.decode("utf-8"))
            assert record["schema"] == JOURNAL_SCHEMA

    def test_missing_file_is_empty_snapshot(self, tmp_path):
        snapshot = load_journal(str(tmp_path / "nowhere"))
        assert snapshot.jobs == {}
        assert snapshot.records == 0
        assert not snapshot.existed

    def test_bad_magic_raises(self, tmp_path):
        (tmp_path / JOURNAL_FILE).write_bytes(b"???\n12345")
        with pytest.raises(ConfigurationError):
            load_journal(str(tmp_path))

    def test_full_lifecycle_folds_terminal(self, tmp_path):
        _write_journal(tmp_path, jobs=2)
        snapshot = load_journal(str(tmp_path))
        assert sorted(snapshot.jobs) == ["job-0001", "job-0002"]
        for replay in snapshot.jobs.values():
            assert replay.terminal
            assert replay.admitted
            outcome = replay.outcome()
            assert outcome.output.startswith("out")
            assert outcome.seconds > 0.0

    def test_reopen_appends_instead_of_truncating(self, tmp_path):
        _write_journal(tmp_path, jobs=1)
        before = load_journal(str(tmp_path)).records
        journal = JobJournal(str(tmp_path))
        journal.record_admitted("job-0009")
        journal.close()
        after = load_journal(str(tmp_path))
        assert after.records == before + 1

    def test_dead_journal_drops_appends(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.record_admitted("job-0001")
        journal.mark_dead()
        journal.record_admitted("job-0002")
        snapshot = load_journal(str(tmp_path))
        assert snapshot.records == 1


def _folded(snapshot) -> dict:
    return {
        job_id: (replay.state, len(replay.checkpoints))
        for job_id, replay in snapshot.jobs.items()
    }


class TestTornTail:
    """Truncate a journal that interleaves lifecycle records and
    checkpoint frames at EVERY byte offset and assert recovery drops
    only the torn record."""

    def test_truncation_at_every_offset(self, tmp_path):
        path = _write_journal(tmp_path, jobs=2, frames=2)
        data = open(path, "rb").read()
        ends = _frame_ends(data)
        full = load_journal(str(tmp_path))
        assert full.records == len(ends)

        scratch = tmp_path / "scratch"
        scratch.mkdir()
        target = scratch / JOURNAL_FILE
        for offset in range(len(JOURNAL_MAGIC), len(data) + 1):
            target.write_bytes(data[:offset])
            snapshot = load_journal(str(scratch))
            complete = [e for e in ends if e <= offset]
            # Only whole frames decode; the torn tail is surfaced,
            # byte-exact, never guessed at.
            assert snapshot.records == len(complete), offset
            boundary = complete[-1] if complete else len(JOURNAL_MAGIC)
            assert snapshot.torn_bytes == offset - boundary, offset
            assert snapshot.end == boundary, offset
            # Folded job state (lifecycle and chain) equals the state
            # at the last complete frame: a clean prefix, nothing
            # else.
            folded = _folded(snapshot)
            target.write_bytes(data[:boundary])
            assert folded == _folded(load_journal(str(scratch))), offset

    def test_corrupt_byte_in_last_frame_drops_only_it(self, tmp_path):
        """Whether the last frame is a lifecycle record or a
        checkpoint frame."""
        journal_dir = tmp_path / "journal"
        path = _write_journal(journal_dir, jobs=2, frames=2)
        ends_in_record = open(path, "rb").read()
        journal = JobJournal(str(journal_dir))
        journal.write_frame(_checkpoint_frame("job-0002", 0))
        journal.close()
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        target = scratch / JOURNAL_FILE
        rng = random.Random(1234)
        for data in (ends_in_record, open(path, "rb").read()):
            ends = _frame_ends(data)
            last_start = ends[-2]
            target.write_bytes(data[:last_start])
            prefix = _folded(load_journal(str(scratch)))
            for _ in range(32):
                position = rng.randrange(last_start, len(data))
                corrupted = bytearray(data)
                corrupted[position] ^= 0xFF
                target.write_bytes(bytes(corrupted))
                snapshot = load_journal(str(scratch))
                assert snapshot.records == len(ends) - 1, position
                assert snapshot.end == last_start, position
                assert _folded(snapshot) == prefix, position

    def test_reopen_after_tear_drops_the_torn_tail(self, tmp_path):
        """A new incarnation truncates the torn tail before it
        appends, so every record it writes is read back."""
        journal = JobJournal(str(tmp_path))
        journal.record_admitted("job-0001")
        journal.record_admitted("job-0002")
        journal.close()
        path = tmp_path / JOURNAL_FILE
        path.write_bytes(path.read_bytes()[:-3])
        assert load_journal(str(tmp_path)).records == 1

        journal = JobJournal(str(tmp_path))
        journal.record_admitted("job-0003")
        journal.record_admitted("job-0004")
        journal.close()
        snapshot = load_journal(str(tmp_path))
        assert snapshot.torn_bytes == 0
        assert snapshot.records == 3
        assert list(snapshot.jobs) == ["job-0001", "job-0003", "job-0004"]

    def test_reopen_inside_a_checkpoint_frame(self, tmp_path):
        """Torn mid-frame: the chain keeps its whole frames and the new
        incarnation's records and frames all fold."""
        path = _write_journal(tmp_path, jobs=1, frames=0)
        journal = JobJournal(str(tmp_path))
        journal.record_running("job-0002")
        for seq in range(3):
            journal.write_frame(_checkpoint_frame("job-0002", seq))
        journal.close()
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[:-7])
        before = load_journal(str(tmp_path))
        assert len(before.jobs["job-0002"].checkpoints) == 2

        tracer = Tracer()
        journal = JobJournal(str(tmp_path), tracer=tracer, snapshot=before)
        assert tracer.counters.get("journal.truncated") == 1
        journal.record_recovered("job-0002", "checkpoint")
        journal.write_frame(_checkpoint_frame("job-0002", 2))
        journal.close()
        after = load_journal(str(tmp_path))
        assert after.torn_bytes == 0
        assert after.records == before.records + 2
        assert after.end == len(open(path, "rb").read())
        chain = after.jobs["job-0002"].checkpoints
        assert [frame["seq"] for frame in chain] == [0, 1, 2]


class TestCanonicalArgs:
    def test_floats_canonicalize_to_wire_precision(self):
        values = [ValueArray(KIND_FLOAT, [0.1, 0.2, 1.0 / 3.0])]
        once = canonical_args(values)
        twice = canonical_args(once)
        assert [list(v) for v in once] == [list(v) for v in twice]
        # 0.1 is not representable in f32: one round-trip moves it,
        # a second one must not.
        assert list(once[0]) != [0.1, 0.2, 1.0 / 3.0]

    def test_ints_pass_through(self):
        assert canonical_args([5, True]) == [5, True]


class TestOutcomeDigest:
    def test_deterministic(self):
        a = outcome_digest(5, "out\n", 1.25, [])
        b = outcome_digest(5, "out\n", 1.25, [])
        assert a == b

    def test_sensitive_to_every_component(self):
        base = outcome_digest(5, "out\n", 1.25, [])
        assert outcome_digest(6, "out\n", 1.25, []) != base
        assert outcome_digest(5, "OUT\n", 1.25, []) != base
        assert outcome_digest(5, "out\n", 1.5, []) != base
        assert outcome_digest(
            5, "out\n", 1.25, [{"site": "device"}]
        ) != base


class TestRecoverReportValidator:
    def _report(self):
        return {
            "schema": RECOVER_SCHEMA,
            "journal": {"path": "j", "records": 1, "torn_bytes": 0},
            "deduped": [],
            "recovered": [
                {
                    "job_id": "job-0001",
                    "app": "demo",
                    "tenant": "t0",
                    "mode": "checkpoint",
                    "state": "completed",
                }
            ],
            "rejected": [],
            "totals": {
                "jobs": 1,
                "deduped": 0,
                "recovered": 1,
                "from_checkpoint": 1,
                "from_scratch": 0,
                "rejected": 0,
            },
        }

    def test_valid(self):
        assert schema.problems(self._report(), RECOVER_SPEC) == []

    def test_bad_schema(self):
        report = self._report()
        report["schema"] = "nope/1"
        assert schema.problems(report, RECOVER_SPEC)

    def test_bad_mode(self):
        report = self._report()
        report["recovered"][0]["mode"] = "sideways"
        assert schema.problems(report, RECOVER_SPEC)

    def test_inconsistent_totals(self):
        report = self._report()
        report["totals"]["recovered"] = 7
        assert schema.problems(report, RECOVER_SPEC)

    def test_not_a_dict(self):
        assert schema.problems([1, 2], RECOVER_SPEC)
