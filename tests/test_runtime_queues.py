"""Unit tests for FIFO connections and the runtime task classes."""

import threading
import time

import pytest

from repro.errors import RuntimeGraphError
from repro.runtime.queues import END_OF_STREAM, Connection, EndOfStream
from repro.runtime.tasks import SinkTask, SourceTask
from repro.values import KIND_INT, MutableArray, ValueArray


class TestEndOfStream:
    def test_singleton(self):
        assert EndOfStream() is END_OF_STREAM

    def test_repr(self):
        assert "end-of-stream" in repr(END_OF_STREAM)


class TestConnection:
    def test_fifo_order(self):
        conn = Connection()
        for i in range(10):
            conn.put(i)
        assert [conn.get() for _ in range(10)] == list(range(10))

    def test_items_transferred_excludes_eos(self):
        conn = Connection()
        conn.put(1)
        conn.close()
        assert conn.items_transferred == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(RuntimeGraphError):
            Connection(capacity=0)

    def test_get_batch(self):
        conn = Connection()
        for i in range(4):
            conn.put(i)
        assert conn.get_batch(2) == [0, 1]
        assert conn.get_batch(2) == [2, 3]

    def test_get_batch_eos(self):
        conn = Connection()
        conn.close()
        assert conn.get_batch(3) == [END_OF_STREAM]

    def test_get_batch_partial_eos_is_error(self):
        conn = Connection()
        conn.put(1)
        conn.close()
        with pytest.raises(RuntimeGraphError):
            conn.get_batch(2)

    def test_blocking_behaviour(self):
        conn = Connection(capacity=2)
        received = []

        def consumer():
            while True:
                item = conn.get()
                if item is END_OF_STREAM:
                    return
                received.append(item)

        thread = threading.Thread(target=consumer)
        thread.start()
        for i in range(100):  # more than capacity: producer must block
            conn.put(i)
        conn.close()
        thread.join(timeout=5)
        assert received == list(range(100))

    def test_drain(self):
        conn = Connection()
        conn.put(1)
        conn.put(2)
        assert conn.drain() == [1, 2]
        assert conn.drain() == []


class TestBackpressure:
    """Bounded-FIFO semantics under contention (Section 4.1: upstream
    tasks block when a downstream stage is slow)."""

    def test_capacity_one_blocks_producer(self):
        conn = Connection(capacity=1)
        conn.put(0)  # queue now full
        second_put_done = threading.Event()

        def producer():
            conn.put(1)  # must block until the consumer drains
            second_put_done.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not second_put_done.wait(timeout=0.05)
        assert conn.approximate_depth == 1
        assert conn.get() == 0
        assert second_put_done.wait(timeout=5)
        assert conn.get() == 1
        thread.join(timeout=5)

    def test_close_while_producer_blocked(self):
        # close() enqueues the end-of-stream sentinel through the same
        # bounded queue, so a producer blocked on a full capacity-1
        # connection must be drained before close() can complete.
        conn = Connection(capacity=1)
        conn.put(0)
        closed = threading.Event()

        def producer():
            conn.put(1)
            conn.close()
            closed.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not closed.wait(timeout=0.05)  # still blocked on put(1)
        received = []
        while True:
            item = conn.get()
            if item is END_OF_STREAM:
                break
            received.append(item)
        assert closed.wait(timeout=5)
        assert received == [0, 1]
        assert conn.items_transferred == 2
        thread.join(timeout=5)

    def test_fast_producer_slow_consumer_threaded_scheduler(self):
        # End-to-end: a capacity-1 pipeline where the middle stage is
        # slower than the source. The scheduler must neither drop nor
        # reorder items, and the connection depth can never exceed the
        # configured capacity.
        import time

        from repro.runtime.graph import Pipeline
        from repro.runtime.scheduler import ThreadedScheduler
        from repro.runtime.tasks import ExecutionContext, Task
        from repro.runtime.timing import TimingLedger

        class _SlowRelay(Task):
            kind = "filter"
            device = "bytecode"

            def __init__(self):
                super().__init__("t:slow")
                self.seen_depths = []

            def run(self, ctx):
                while True:
                    item = self.input_conn.get()
                    self.seen_depths.append(
                        self.input_conn.approximate_depth
                    )
                    if item is END_OF_STREAM:
                        break
                    time.sleep(0.002)  # slower than the producer
                    self.output_conn.put(item)
                self.output_conn.close()

        class _Engine:
            config = None

            def __init__(self):
                self.ledger = TimingLedger()

            def metered_call(self, method, args):
                return args[0], 1

        values = list(range(24))
        relay = _SlowRelay()
        sink = SinkTask(MutableArray.allocate(KIND_INT, len(values)))
        pipeline = Pipeline(
            [SourceTask(ValueArray(KIND_INT, values), 1), relay, sink]
        )
        engine = _Engine()
        ctx = ExecutionContext(engine, engine.ledger.new_graph_run("g"))
        ThreadedScheduler(queue_capacity=1).run_to_completion(pipeline, ctx)
        assert list(sink.array) == values
        assert relay.seen_depths  # consumer actually observed the queue
        assert max(relay.seen_depths) <= 1


class TestSourceSinkTasks:
    def test_source_requires_value_array(self):
        with pytest.raises(RuntimeGraphError):
            SourceTask(MutableArray(KIND_INT, [1]), 1)

    def test_sink_requires_mutable_array(self):
        with pytest.raises(RuntimeGraphError):
            SinkTask(ValueArray(KIND_INT, [1]))

    def test_source_rate_chunks(self):
        source = SourceTask(ValueArray(KIND_INT, [1, 2, 3, 4]), rate=2)
        chunks = source.emit_items()
        assert len(chunks) == 2
        assert list(chunks[0]) == [1, 2]
        assert list(chunks[1]) == [3, 4]

    def test_source_rate_one(self):
        source = SourceTask(ValueArray(KIND_INT, [7, 8]), rate=1)
        assert source.emit_items() == [7, 8]

    def test_sink_overflow_detected(self):
        sink = SinkTask(MutableArray.allocate(KIND_INT, 1))
        sink._store(1)
        with pytest.raises(RuntimeGraphError):
            sink._store(2)

    def test_dynamic_task_ids_unique(self):
        a = SourceTask(ValueArray(KIND_INT, [1]), 1)
        b = SourceTask(ValueArray(KIND_INT, [1]), 1)
        assert a.task_id != b.task_id


class TestDrainBounded:
    def test_returns_abandoned_items_and_appends_eos(self):
        conn = Connection(capacity=8)
        for i in range(5):
            conn.put(i)
        abandoned = conn.drain_bounded()
        assert abandoned == [0, 1, 2, 3, 4]
        # A sentinel is left behind so any blocked consumer wakes up.
        assert conn.get() is END_OF_STREAM

    def test_empty_queue_still_gets_sentinel(self):
        conn = Connection(capacity=2)
        assert conn.drain_bounded() == []
        assert conn.get() is END_OF_STREAM

    def test_unblocks_a_producer_stuck_on_a_full_queue(self):
        # The deadlock satellite: a producer blocked in put() on a
        # full FIFO whose consumer died must be released by the
        # scheduler's shutdown drain.
        conn = Connection(capacity=1)
        conn.put("seed")
        unblocked = threading.Event()

        def producer():
            conn.put("stuck")   # blocks until the drain empties it
            unblocked.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        deadline = time.monotonic() + 2.0
        drained = []
        while not unblocked.is_set():
            drained.extend(conn.drain_bounded())
            if time.monotonic() > deadline:
                break
        assert unblocked.is_set()
        thread.join(2.0)
        assert not thread.is_alive()
        assert "seed" in drained

    def test_excludes_eos_from_abandoned_items(self):
        conn = Connection(capacity=8)
        conn.put(1)
        conn.close()
        abandoned = conn.drain_bounded()
        assert abandoned == [1]


class TestCancelMidStageShutdown:
    def test_threaded_cancel_drains_and_joins(self, monkeypatch):
        """A job cancelled mid-stage on the threaded scheduler must
        drain its Connections and join worker threads — not deadlock
        on a full queue (the pre-PR hazard: a failed stage blocking in
        output_conn.close())."""
        from repro.apps import compile_app, workloads
        from repro.errors import JobCancelledError
        from repro.runtime.cancel import CancelToken
        from repro.runtime.engine import Runtime, RuntimeConfig

        class TripOnThirdPoll(CancelToken):
            def __init__(self):
                super().__init__(job_id="job-q", tenant="t")
                self._polls = 0

            def cancelled(self):
                self._polls += 1
                if self._polls > 3:
                    self.cancel()
                return super().cancelled()

        from repro.runtime.scheduler import ThreadedScheduler
        from repro.runtime.workers import WORKERS

        compiled = compile_app("gray_pipeline")
        runtime = Runtime(
            compiled,
            RuntimeConfig(scheduler="threaded"),
            cancel_token=TripOnThirdPoll(),
        )
        pipelines = []
        start = ThreadedScheduler.start

        def recording_start(scheduler, pipeline, ctx):
            pipelines.append(pipeline)
            start(scheduler, pipeline, ctx)

        monkeypatch.setattr(ThreadedScheduler, "start", recording_start)
        entry, args = workloads.small_args("gray_pipeline")
        busy_before = WORKERS.busy
        with pytest.raises(JobCancelledError) as excinfo:
            runtime.run(entry, args)
        assert excinfo.value.job_id == "job-q"
        assert runtime.shutdown_active(timeout_s=2.0)
        # Stage threads are pooled: an idle worker outlives the run by
        # design, so "no thread wedged in put()/close()" reads as every
        # stage handle finished and every worker back in the pool (not
        # as the process's thread count falling back).
        assert pipelines
        deadline = time.monotonic() + 2.0
        while (
            any(h.is_alive() for p in pipelines for h in p.threads)
            or WORKERS.busy > busy_before
        ) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(h.is_alive() for p in pipelines for h in p.threads)
        assert WORKERS.busy <= busy_before
