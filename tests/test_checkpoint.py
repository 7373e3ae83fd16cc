"""Tests for stage-boundary checkpoints (repro.runtime.checkpoint).

Covers delta-frame capture/persist (seq-chained, O(interval) frames
written as records of the job journal), bit-identical resume on both
schedulers, replay refusals (specialization, adaptive substitution,
scheduler mismatch, item-count divergence), how ``load_journal`` folds
a job's frame chain (torn tail, seq gap, restart, terminal and scratch
resets), and frames dropped by a dead journal."""

import json

import pytest

from repro.apps import compile_app, workloads
from repro.errors import (
    CheckpointReplayError,
    ConfigurationError,
)
from repro.obs import NULL_TRACER, Tracer
from repro.runtime import (
    CheckpointRecorder,
    Runtime,
    RuntimeConfig,
    SubstitutionPolicy,
)
from repro.runtime.checkpoint import (
    CHECKPOINT_SCHEMA,
    DEFAULT_INTERVAL,
    PERSIST_BYTES_PER_S,
    PERSIST_FIXED_S,
    capture_refusal,
)
from repro.service import (
    COMPLETED,
    CoExecutionService,
    JobJournal,
    ServiceConfig,
    load_journal,
)
from repro.service.journal import JOURNAL_FILE, JOURNAL_MAGIC
from repro.values import frame_record, unframe_records

APP = "gray_pipeline"
JOB = "job-t"


@pytest.fixture
def journal(tmp_path):
    return JobJournal(str(tmp_path))


def _chain(journal, job_id=JOB) -> list:
    replay = load_journal(journal.journal_dir).jobs.get(job_id)
    return replay.checkpoints if replay else []


def _run(journal, *, scheduler="sequential", interval=2, resume=False,
         batch_size=8, app=APP, tracer=NULL_TRACER):
    entry, args = workloads.small_args(app)
    compiled = compile_app(app)
    chain = _chain(journal) if resume else None
    if resume:
        assert chain
    recorder = CheckpointRecorder(
        journal, JOB, interval=interval, tracer=tracer, chain=chain
    )
    runtime = Runtime(
        compiled,
        RuntimeConfig(
            scheduler=scheduler,
            batch_size=batch_size,
        ),
        checkpointer=recorder,
    )
    outcome = runtime.run(entry, args)
    return outcome, recorder


def _frame(seq, job_id=JOB) -> bytes:
    """A minimal checkpoint frame (no entries, no state)."""
    payload = json.dumps(
        {"schema": CHECKPOINT_SCHEMA, "job_id": job_id, "seq": seq,
         "entries": []},
        separators=(",", ":"),
        sort_keys=True,
    )
    return frame_record(payload.encode("utf-8"))


def _payloads(journal) -> list:
    with open(journal.path, "rb") as f:
        data = f.read()
    payloads, torn = unframe_records(data[len(JOURNAL_MAGIC):])
    assert torn == 0
    return [json.loads(payload.decode("utf-8")) for payload in payloads]


class TestCaptureAndPersist:
    def test_sequential_persists_delta_frames(self, journal):
        outcome, recorder = _run(journal, interval=2)
        assert recorder.frames_persisted >= 2
        frames = _chain(journal)
        assert [frame["seq"] for frame in frames] == list(
            range(len(frames))
        )
        # Delta frames: each carries only its slice, and the chain
        # carries every persisted entry exactly once.
        sizes = [len(frame["entries"]) for frame in frames]
        assert all(size <= 2 for size in sizes)
        assert sum(sizes) >= 2 * (len(frames) - 1)

    def test_interval_must_be_positive(self, journal):
        with pytest.raises(ConfigurationError):
            CheckpointRecorder(journal, JOB, interval=0)

    def test_default_interval(self, journal):
        recorder = CheckpointRecorder(journal, JOB)
        assert recorder.interval == DEFAULT_INTERVAL

    def test_dead_journal_drops_frames(self, tmp_path):
        """A zombie stage thread's recorder persists into a dead
        journal: every frame is dropped and counted."""
        tracer = Tracer()
        journal = JobJournal(str(tmp_path), tracer=tracer)
        journal.record_admitted(JOB)
        journal.mark_dead()
        before = (tmp_path / JOURNAL_FILE).read_bytes()
        _run(journal, interval=1)
        assert (tmp_path / JOURNAL_FILE).read_bytes() == before
        assert tracer.counters.get("journal.append.dropped") >= 1

    def test_refuses_specialization(self, journal):
        compiled = compile_app(APP)
        recorder = CheckpointRecorder(journal, JOB)
        with pytest.raises(ConfigurationError):
            Runtime(
                compiled,
                RuntimeConfig(
                    scheduler="sequential",
                    specialize_after=3,
                ),
                checkpointer=recorder,
            )

    def test_refuses_adaptive(self, journal):
        compiled = compile_app(APP)
        recorder = CheckpointRecorder(journal, JOB)
        with pytest.raises(ConfigurationError):
            Runtime(
                compiled,
                RuntimeConfig(
                    scheduler="sequential",
                    policy=SubstitutionPolicy(adaptive=True),
                ),
                checkpointer=recorder,
            )

    def test_one_rule_names_what_is_not_capturable(self):
        plain = RuntimeConfig()
        assert capture_refusal(plain) is None
        specialized = plain.with_overrides(
            specialize_after=3
        )
        adaptive = plain.with_overrides(
            policy=SubstitutionPolicy(adaptive=True)
        )
        assert "specialized kernels" in capture_refusal(specialized)
        assert "adaptive substitution" in capture_refusal(adaptive)

    @pytest.mark.parametrize(
        "overrides, frames",
        [
            ({}, True),
            ({"specialize_after": 3}, False),
            ({"policy": SubstitutionPolicy(adaptive=True)}, False),
        ],
        ids=["plain", "specialize", "adaptive"],
    )
    def test_journaled_service_runs_uncapturable_jobs_unrecorded(
        self, tmp_path, overrides, frames
    ):
        """The service asks the same rule as ``attach``: a job it
        cannot capture runs to completion without a recorder, so the
        journal holds its lifecycle records and no frame."""
        service = CoExecutionService(
            ServiceConfig(
                runtime=RuntimeConfig(
                    scheduler="sequential", batch_size=8
                ).with_overrides(**overrides),
                journal_dir=str(tmp_path),
                checkpoint_interval=1,
            )
        )
        entry, args = workloads.small_args(APP)
        job_id = service.submit(
            compile_app(APP).source, entry, args, tenant="t0", app=APP
        )
        service.drain()
        assert service.status(job_id)["state"] == COMPLETED
        data = (tmp_path / JOURNAL_FILE).read_bytes()
        payloads, _torn = unframe_records(data[len(JOURNAL_MAGIC):])
        schemas = [json.loads(payload)["schema"] for payload in payloads]
        assert (CHECKPOINT_SCHEMA in schemas) == frames


class TestResume:
    @pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
    def test_resume_is_bit_identical(self, journal, scheduler):
        first, recorder = _run(journal, scheduler=scheduler, interval=1)
        if scheduler == "threaded":
            # Threaded runs only persist at graph boundaries; force
            # the tail out so the replay covers the whole run.
            recorder.flush()
        assert recorder.frames_persisted >= 1
        second, replayer = _run(
            journal, scheduler=scheduler, interval=1, resume=True
        )
        assert replayer.resuming
        assert replayer.resume_hits > 0
        assert second.value == first.value
        assert second.output == first.output
        assert second.ledger.total_s == first.ledger.total_s

    def test_a_frame_with_backoff_and_demotions_restores_them_unread(
        self, journal
    ):
        """A frame's retry section holds the jitter stream positions
        alone; a frame journaled when it also carried the accumulated
        backoff and a demotion log still resumes, those keys unread."""
        first, _ = _run(journal, interval=1)
        chain = _chain(journal)
        assert all(set(frame["supervisor"]) == {"rngs"} for frame in chain)
        chain[-1]["supervisor"] = {
            "rngs": {"gpu:x": 12345},
            "backoff": {"gpu:x": 1e-4},
            "demotions": [{
                "task_id": "gpu:x", "device": "gpu", "attempts": 2,
                "error": "DeviceError", "covered_task_ids": [],
                "backoff_s": 1e-4,
            }],
        }
        recorder = CheckpointRecorder(journal, JOB, interval=1, chain=chain)
        entry, args = workloads.small_args(APP)
        runtime = Runtime(
            compile_app(APP),
            RuntimeConfig(scheduler="sequential", batch_size=8),
            checkpointer=recorder,
        )
        assert runtime.retry_streams.export_state() == {"gpu:x": 12345}
        second = runtime.run(entry, args)
        assert recorder.resume_hits > 0
        assert second.value == first.value
        assert second.ledger.total_s == first.ledger.total_s

    def test_resume_missing_file_is_none(self, tmp_path):
        """No journal, no chain: the recorder captures afresh."""
        assert load_journal(str(tmp_path / "no")).jobs == {}
        journal = JobJournal(str(tmp_path / "no"))
        assert _chain(journal) == []
        assert not CheckpointRecorder(journal, JOB, chain=[]).resuming

    def test_resume_torn_tail_uses_valid_prefix(self, journal):
        _run(journal, interval=1)
        whole = len(_chain(journal))
        assert whole >= 2
        with open(journal.path, "rb") as f:
            data = f.read()
        with open(journal.path, "wb") as f:
            f.write(data[:-5])
        chain = _chain(journal)
        assert len(chain) == whole - 1
        recorder = CheckpointRecorder(journal, JOB, interval=1,
                                      chain=chain)
        assert recorder.resuming

    def test_chain_stops_at_out_of_order_seq(self, journal):
        journal.write_frame(_frame(0))
        journal.write_frame(_frame(2))     # a gap: seq 1 is missing
        journal.write_frame(_frame(1))     # after the gap: ignored
        journal.write_frame(_frame(3))
        assert [frame["seq"] for frame in _chain(journal)] == [0]

    def test_scheduler_mismatch_raises(self, journal):
        _run(journal, scheduler="sequential", interval=1)
        with pytest.raises(CheckpointReplayError):
            _run(journal, scheduler="threaded", interval=1, resume=True)

    def test_item_count_divergence_raises(self, journal):
        _run(journal, interval=1, batch_size=8)
        with pytest.raises(CheckpointReplayError):
            # Different batch size => the first memoized decision
            # point sees a different item count.
            _run(journal, interval=1, batch_size=4, resume=True)


class TestChainFold:
    """How ``load_journal`` folds one job's frames beside its
    lifecycle records."""

    def test_resumed_capture_continues_the_chain(self, journal, tmp_path):
        """A resume from the first two frames captures the rest of the
        run and persists it at seq 2, 3, ... of the same chain."""
        first, _ = _run(journal, interval=1)
        whole = _chain(journal)
        assert len(whole) >= 3
        partial = JobJournal(str(tmp_path / "partial"))
        for frame in whole[:2]:
            payload = json.dumps(frame, separators=(",", ":"),
                                 sort_keys=True)
            partial.write_frame(frame_record(payload.encode("utf-8")))
        second, recorder = _run(partial, interval=1, resume=True)
        assert recorder.frames_persisted == len(whole) - 2
        assert [frame["seq"] for frame in _chain(partial)] == list(
            range(len(whole))
        )
        assert second.ledger.total_s == first.ledger.total_s

    def test_seq_zero_restarts_the_chain(self, journal):
        for seq in (0, 1, 2):
            journal.write_frame(_frame(seq))
        journal.write_frame(_frame(0))     # a fresh capture
        journal.write_frame(_frame(1))
        assert [frame["seq"] for frame in _chain(journal)] == [0, 1]

    def test_seq_zero_restarts_an_ended_chain(self, journal):
        journal.write_frame(_frame(0))
        journal.write_frame(_frame(5))
        journal.write_frame(_frame(0))
        assert [frame["seq"] for frame in _chain(journal)] == [0]

    def test_chains_are_per_job(self, journal):
        journal.write_frame(_frame(0, "job-a"))
        journal.write_frame(_frame(0, "job-b"))
        journal.write_frame(_frame(1, "job-a"))
        assert len(_chain(journal, "job-a")) == 2
        assert len(_chain(journal, "job-b")) == 1

    @pytest.mark.parametrize("terminal", ["completed", "failed",
                                          "cancelled"])
    def test_terminal_record_drops_the_chain(self, journal, terminal):
        journal.write_frame(_frame(0))
        journal.append({"type": terminal, "job_id": JOB})
        assert _chain(journal) == []

    def test_scratch_recovery_drops_the_chain(self, journal):
        journal.write_frame(_frame(0))
        journal.record_recovered(JOB, "scratch")
        assert _chain(journal) == []
        # The scratch run's own frames start a new chain.
        journal.write_frame(_frame(0))
        assert len(_chain(journal)) == 1

    def test_checkpoint_recovery_keeps_the_chain(self, journal):
        journal.write_frame(_frame(0))
        journal.append({"type": "crashed", "job_id": JOB})
        journal.record_recovered(JOB, "checkpoint")
        journal.write_frame(_frame(1))
        assert [frame["seq"] for frame in _chain(journal)] == [0, 1]


class TestFrameContent:
    def test_frames_are_schema_stamped(self, journal):
        _run(journal, interval=1)
        frames = _payloads(journal)
        assert frames
        for frame in frames:
            assert frame["schema"] == "repro.checkpoint/1"
            assert frame["scheduler"] == "sequential"
            assert frame["job_id"] == JOB
            assert "injector" in frame
            assert set(frame["supervisor"]) == {"rngs"}
            assert "health" in frame

    def test_persist_span_reports_the_frame_it_wrote(self, journal):
        tracer = Tracer()
        _run(journal, interval=2, tracer=tracer)
        frames = _chain(journal)
        spans = tracer.find("checkpoint.persist")
        assert [span.attributes["entries"] for span in spans] == [
            len(frame["entries"]) for frame in frames
        ]
        assert all(span.attributes["entries"] > 0 for span in spans)

    def test_modeled_persist_cost_accumulates(self, journal):
        _, recorder = _run(journal, interval=1)
        assert recorder.frames_persisted > 0
        assert recorder.bytes_persisted == (
            len(open(journal.path, "rb").read()) - len(JOURNAL_MAGIC)
        )
        assert recorder.modeled_persist_s == pytest.approx(
            recorder.frames_persisted * PERSIST_FIXED_S
            + recorder.bytes_persisted / PERSIST_BYTES_PER_S
        )
