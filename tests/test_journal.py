"""Tests for the durable job journal (repro.service.journal).

Covers the append-only framed file format (magic, schema stamp,
torn-write tolerance at *every* truncation offset), record folding
into :class:`JobReplay`, wire-canonical argument normalization, the
outcome digest, and the ``repro.recover/1`` report validator."""

import json
import random

import pytest

from repro.errors import ConfigurationError
from repro.service import (
    JOURNAL_SCHEMA,
    RECOVER_SCHEMA,
    Job,
    JobJournal,
    load_journal,
    outcome_digest,
    validate_recover_report,
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


def _write_journal(tmp_path, jobs=2):
    """A journal with a full lifecycle per job; returns its path."""
    journal = JobJournal(str(tmp_path))
    for index in range(jobs):
        job = _job(job_id=f"job-{index + 1:04d}", tenant=f"t{index}")
        journal.record_submitted(job)
        journal.record_admitted(job.job_id)
        journal.record_leased(job.job_id, ("gpu",))
        journal.record_running(job.job_id)
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


class TestTornTail:
    """Satellite: truncate the journal at EVERY byte offset and assert
    recovery drops only the torn record."""

    def test_truncation_at_every_offset(self, tmp_path):
        path = _write_journal(tmp_path, jobs=2)
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
            # Folded job state equals the state at the last complete
            # frame: a clean prefix, nothing else.
            states = {
                job_id: replay.state
                for job_id, replay in snapshot.jobs.items()
            }
            target.write_bytes(data[:boundary])
            clean = load_journal(str(scratch))
            assert states == {
                job_id: replay.state
                for job_id, replay in clean.jobs.items()
            }, offset

    def test_corrupt_byte_in_last_frame_drops_only_it(self, tmp_path):
        path = _write_journal(tmp_path, jobs=2)
        data = open(path, "rb").read()
        ends = _frame_ends(data)
        last_start = ends[-2]
        rng = random.Random(1234)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        target = scratch / JOURNAL_FILE
        for _ in range(32):
            position = rng.randrange(last_start, len(data))
            corrupted = bytearray(data)
            corrupted[position] ^= 0xFF
            target.write_bytes(bytes(corrupted))
            snapshot = load_journal(str(scratch))
            assert snapshot.records == len(ends) - 1, position

    def test_append_after_torn_tail_recovers_cleanly(self, tmp_path):
        """A journal whose tail tore mid-frame keeps accepting
        appends from a new incarnation; the torn bytes stay inert."""
        path = _write_journal(tmp_path, jobs=1)
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[:-3])
        snapshot = load_journal(str(tmp_path))
        torn_records = snapshot.records
        assert snapshot.torn_bytes > 0
        # NOTE: a real restart truncates through JobJournal -- here we
        # only assert the loader's tolerance is stable across loads.
        again = load_journal(str(tmp_path))
        assert again.records == torn_records


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
        assert validate_recover_report(self._report()) == []

    def test_bad_schema(self):
        report = self._report()
        report["schema"] = "nope/1"
        assert validate_recover_report(report)

    def test_bad_mode(self):
        report = self._report()
        report["recovered"][0]["mode"] = "sideways"
        assert validate_recover_report(report)

    def test_inconsistent_totals(self):
        report = self._report()
        report["totals"]["recovered"] = 7
        assert validate_recover_report(report)

    def test_not_a_dict(self):
        assert validate_recover_report([1, 2])
