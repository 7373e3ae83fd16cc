"""The pooled task threads (``repro.runtime.workers``).

Every stage of a threaded graph run and every service job still runs on
a thread of its own; the pool only stops each of them from *starting*
one. ``TestThreadReuse`` is the end-to-end statement: over many runs,
threads started stay within the most tasks that ever ran at once.
"""

import threading
import time

import pytest

from repro.apps import SUITE, compile_app, workloads
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.scheduler import ThreadedScheduler
from repro.runtime.workers import WorkerPool
from repro.service import CoExecutionService, ServiceConfig


def _wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


class TestWorkerPool:
    def test_a_finished_worker_takes_the_next_task(self):
        pool = WorkerPool()
        seen = []
        for _ in range(20):
            handle = pool.submit(
                lambda: seen.append(threading.get_ident()), "t"
            )
            handle.join()
            assert not handle.is_alive()
        assert pool.started == 1
        assert len(set(seen)) == 1
        assert pool.busy == 0

    def test_a_submission_never_waits_for_a_worker(self):
        """Tasks that wait on each other: each gets its own worker."""
        pool = WorkerPool()
        gates = [threading.Event() for _ in range(4)]

        def stage(index):
            if index + 1 < len(gates):
                assert gates[index + 1].wait(5.0)
            gates[index].set()

        handles = [pool.submit(lambda i=i: stage(i), f"s{i}")
                   for i in range(4)]
        for handle in handles:
            handle.join(5.0)
            assert not handle.is_alive()
        assert pool.started == 4
        assert pool.busy == 0

    def test_the_worker_carries_the_task_name(self):
        pool = WorkerPool()
        names = []
        for name in ("lime-a", "svc-job-0001"):
            pool.submit(
                lambda: names.append(threading.current_thread().name), name
            ).join()
        assert names == ["lime-a", "svc-job-0001"]
        assert pool.started == 1

    def test_join_with_a_timeout_returns_while_running(self):
        pool = WorkerPool()
        release = threading.Event()
        handle = pool.submit(lambda: release.wait(5.0), "slow")
        handle.join(0.01)
        assert handle.is_alive()
        assert pool.busy == 1
        release.set()
        handle.join(5.0)
        assert not handle.is_alive()
        assert pool.busy == 0

    def test_a_failing_task_leaves_its_worker_alive(self, monkeypatch):
        reported = []
        monkeypatch.setattr(
            "sys.excepthook", lambda *info: reported.append(info[0])
        )
        pool = WorkerPool()

        def boom():
            raise ValueError("task failed")

        pool.submit(boom, "bad").join(5.0)
        ran = []
        pool.submit(lambda: ran.append(1), "good").join(5.0)
        assert reported == [ValueError]
        assert ran == [1]
        assert pool.started == 1

    def test_a_base_exception_ends_the_worker_not_the_handle(
        self, monkeypatch
    ):
        class Crash(BaseException):
            pass

        def crash():
            raise Crash()

        monkeypatch.setattr(threading, "excepthook", lambda args: None)
        pool = WorkerPool()
        done = threading.Event()
        handle = pool.submit(crash, "crash", done=done.set)
        handle.join(5.0)
        assert not handle.is_alive()
        assert done.wait(5.0)   # a job's waiter is not left hanging
        pool.submit(lambda: None, "next").join(5.0)
        assert pool.started == 2   # the crashed worker did not return

    def test_a_hung_task_keeps_its_worker(self):
        pool = WorkerPool()
        release = threading.Event()
        hung = pool.submit(lambda: release.wait(10.0), "hung")
        pool.submit(lambda: None, "next").join(5.0)
        assert pool.started == 2   # the hung worker was not reused
        assert hung.is_alive()
        release.set()
        hung.join(5.0)
        _wait_until(lambda: pool.busy == 0)


class TestThreadReuse:
    """Starting a thread per stage per graph, and per service job, was
    a fixed cost of every run. Thread starts are now bounded by the
    most tasks that were ever in flight at once, however many runs."""

    RUNS = 50

    @pytest.fixture
    def tally(self, monkeypatch):
        lock = threading.Lock()
        counts = {"starts": 0, "active": 0, "high_water": 0}
        start = threading.Thread.start

        def counting_start(thread):
            with lock:
                counts["starts"] += 1
            start(thread)

        def in_flight(fn, tasks):
            def wrapped(*args):
                n = tasks(*args)
                with lock:
                    counts["active"] += n
                    counts["high_water"] = max(
                        counts["high_water"], counts["active"]
                    )
                try:
                    return fn(*args)
                finally:
                    with lock:
                        counts["active"] -= n
            return wrapped

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        # Every stage of a graph is in flight while the graph runs (the
        # stages are connected by bounded FIFOs), and a job while it
        # runs.
        monkeypatch.setattr(
            ThreadedScheduler, "run_to_completion",
            in_flight(ThreadedScheduler.run_to_completion,
                      lambda _scheduler, pipeline, _ctx: len(pipeline.tasks)),
        )
        monkeypatch.setattr(
            CoExecutionService, "_run_job",
            in_flight(CoExecutionService._run_job, lambda *_: 1),
        )
        return counts

    def test_thread_starts_stay_within_concurrency(self, tally):
        compiled = compile_app("gray_pipeline")
        entry, args = workloads.small_args("gray_pipeline")
        runtime = Runtime(compiled, RuntimeConfig(scheduler="threaded"))
        for _ in range(self.RUNS):
            runtime.run(entry, args)
        with CoExecutionService(ServiceConfig()) as service:
            for _ in range(self.RUNS):
                job_id = service.submit(
                    SUITE["gray_pipeline"].source, entry, args,
                    tenant="t", app="gray_pipeline",
                )
                service.result(job_id, timeout_s=60.0)
        stages = len(runtime.ledger.graph_runs[-1].stages)
        assert stages >= 3
        # A job and the stages of its graph.
        assert tally["high_water"] == stages + 1
        assert tally["starts"] <= tally["high_water"], tally
