"""Tests for stage-boundary checkpoints (repro.runtime.checkpoint).

Covers delta-frame capture/persist (seq-chained, O(interval) frames),
bit-identical resume on both schedulers, replay refusals
(specialization, adaptive substitution, scheduler mismatch, item-count
divergence), torn-chain tolerance, and the kill switch."""

import json

import pytest

from repro.apps import SUITE, compile_app, workloads
from repro.errors import (
    CheckpointReplayError,
    ConfigurationError,
)
from repro.obs import NULL_TRACER, Tracer
from repro.runtime import (
    CheckpointRecorder,
    Runtime,
    RuntimeConfig,
    SpecializationPolicy,
    SubstitutionPolicy,
    load_frames,
    load_last_frame,
)
from repro.runtime.checkpoint import CHECKPOINT_MAGIC, DEFAULT_INTERVAL
from repro.values import frame_record, unframe_records

APP = "gray_pipeline"


def _run(path, *, scheduler="sequential", interval=2, resume=False,
         batch_size=8, app=APP, tracer=NULL_TRACER):
    entry, args = workloads.small_args(app)
    compiled = compile_app(app)
    if resume:
        recorder = CheckpointRecorder.resume(
            str(path), interval=interval, job_id="job-t"
        )
        assert recorder is not None
    else:
        recorder = CheckpointRecorder(
            str(path), interval=interval, job_id="job-t", tracer=tracer
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


class TestCaptureAndPersist:
    def test_sequential_persists_delta_frames(self, tmp_path):
        path = tmp_path / "c.ckpt"
        outcome, recorder = _run(path, interval=2)
        assert recorder.frames_persisted >= 2
        frames = load_frames(str(path))
        assert [frame["seq"] for frame in frames] == list(
            range(len(frames))
        )
        # Delta frames: each carries only its slice, and the chain
        # carries every persisted entry exactly once.
        sizes = [len(frame["entries"]) for frame in frames]
        assert all(size <= 2 for size in sizes)
        assert sum(sizes) >= 2 * (len(frames) - 1)

    def test_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointRecorder(str(tmp_path / "c.ckpt"), interval=0)

    def test_default_interval(self, tmp_path):
        recorder = CheckpointRecorder(str(tmp_path / "c.ckpt"))
        assert recorder.interval == DEFAULT_INTERVAL

    def test_fresh_recorder_truncates(self, tmp_path):
        path = tmp_path / "c.ckpt"
        _run(path, interval=1)
        assert len(load_frames(str(path))) > 0
        CheckpointRecorder(str(path), job_id="job-t")
        assert load_frames(str(path)) == []

    def test_kill_stops_persisting(self, tmp_path):
        path = tmp_path / "c.ckpt"
        entry, args = workloads.small_args(APP)
        compiled = compile_app(APP)
        recorder = CheckpointRecorder(str(path), interval=1)
        recorder.kill()
        runtime = Runtime(
            compiled,
            RuntimeConfig(
                scheduler="sequential",
                batch_size=8,
            ),
            checkpointer=recorder,
        )
        runtime.run(entry, args)
        assert recorder.frames_persisted == 0
        assert load_frames(str(path)) == []

    def test_refuses_specialization(self, tmp_path):
        compiled = compile_app(APP)
        recorder = CheckpointRecorder(str(tmp_path / "c.ckpt"))
        with pytest.raises(ConfigurationError):
            Runtime(
                compiled,
                RuntimeConfig(
                    scheduler="sequential",
                    specialize=SpecializationPolicy(enabled=True),
                ),
                checkpointer=recorder,
            )

    def test_refuses_adaptive(self, tmp_path):
        compiled = compile_app(APP)
        recorder = CheckpointRecorder(str(tmp_path / "c.ckpt"))
        with pytest.raises(ConfigurationError):
            Runtime(
                compiled,
                RuntimeConfig(
                    scheduler="sequential",
                    policy=SubstitutionPolicy(adaptive=True),
                ),
                checkpointer=recorder,
            )


class TestResume:
    @pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
    def test_resume_is_bit_identical(self, tmp_path, scheduler):
        path = tmp_path / "c.ckpt"
        first, recorder = _run(path, scheduler=scheduler, interval=1)
        if scheduler == "threaded":
            # Threaded runs only persist at graph boundaries; force
            # the tail out so the replay covers the whole run.
            recorder.flush()
        assert recorder.frames_persisted >= 1
        second, replayer = _run(
            path, scheduler=scheduler, interval=1, resume=True
        )
        assert replayer.resume_hits > 0
        assert second.value == first.value
        assert second.output == first.output
        assert second.ledger.total_s == first.ledger.total_s

    def test_resume_missing_file_is_none(self, tmp_path):
        assert CheckpointRecorder.resume(str(tmp_path / "no")) is None

    def test_resume_magic_only_is_none(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC)
        assert CheckpointRecorder.resume(str(path)) is None

    def test_resume_torn_tail_uses_valid_prefix(self, tmp_path):
        path = tmp_path / "c.ckpt"
        _run(path, interval=1)
        whole = len(load_frames(str(path)))
        assert whole >= 2
        path.write_bytes(path.read_bytes()[:-5])
        assert len(load_frames(str(path))) == whole - 1
        recorder = CheckpointRecorder.resume(str(path), interval=1)
        assert recorder is not None

    def test_chain_stops_at_out_of_order_seq(self, tmp_path):
        path = tmp_path / "c.ckpt"
        _run(path, interval=1)
        frames = load_frames(str(path))
        assert len(frames) >= 2
        # Re-write the chain with a gap: seq 0 then seq 2.
        frames[1]["seq"] = 2
        data = CHECKPOINT_MAGIC
        for frame in frames:
            payload = json.dumps(
                frame, separators=(",", ":"), sort_keys=True
            ).encode("utf-8")
            data += frame_record(payload)
        path.write_bytes(data)
        assert len(load_frames(str(path))) == 1

    def test_scheduler_mismatch_raises(self, tmp_path):
        path = tmp_path / "c.ckpt"
        _run(path, scheduler="sequential", interval=1)
        with pytest.raises(CheckpointReplayError):
            _run(path, scheduler="threaded", interval=1, resume=True)

    def test_item_count_divergence_raises(self, tmp_path):
        path = tmp_path / "c.ckpt"
        _run(path, interval=1, batch_size=8)
        with pytest.raises(CheckpointReplayError):
            # Different batch size => the first memoized decision
            # point sees a different item count.
            _run(path, interval=1, batch_size=4, resume=True)

    def test_load_last_frame_is_chain_tail(self, tmp_path):
        path = tmp_path / "c.ckpt"
        _run(path, interval=1)
        frames = load_frames(str(path))
        last = load_last_frame(str(path))
        assert last == frames[-1]


class TestFrameContent:
    def test_frames_are_schema_stamped(self, tmp_path):
        path = tmp_path / "c.ckpt"
        _run(path, interval=1)
        data = path.read_bytes()
        assert data.startswith(CHECKPOINT_MAGIC)
        payloads, torn = unframe_records(data[len(CHECKPOINT_MAGIC):])
        assert torn == 0
        for payload in payloads:
            frame = json.loads(payload.decode("utf-8"))
            assert frame["schema"] == "repro.checkpoint/1"
            assert frame["scheduler"] == "sequential"
            assert frame["job_id"] == "job-t"
            assert "injector" in frame
            assert "supervisor" in frame
            assert "health" in frame

    def test_persist_span_reports_the_frame_it_wrote(self, tmp_path):
        path = tmp_path / "c.ckpt"
        tracer = Tracer()
        _run(path, interval=2, tracer=tracer)
        frames = load_frames(str(path))
        spans = tracer.find("checkpoint.persist")
        assert [span.attributes["entries"] for span in spans] == [
            len(frame["entries"]) for frame in frames
        ]
        assert all(span.attributes["entries"] > 0 for span in spans)

    def test_modeled_persist_cost_accumulates(self, tmp_path):
        path = tmp_path / "c.ckpt"
        _, recorder = _run(path, interval=1)
        assert recorder.frames_persisted > 0
        assert recorder.modeled_persist_s > 0.0
        assert recorder.bytes_persisted > len(CHECKPOINT_MAGIC)
