"""The process-wide pool of task threads.

The paper's runtime runs "a thread for each task" (Section 4.1), and so
does this one: every stage of a graph run and every service job has a
thread of its own for as long as it runs. What the pool removes is the
cost of *starting* that thread. A finished task's worker waits for the
next function instead of exiting, the way Insieme's runtime keeps its
workers alive and hands them work items (SNIPPETS.md).

* A submitted function goes to an idle worker, or to a new one when
  none is idle, so a submission never waits for a worker. A job whose
  stages wait on each other cannot deadlock on the pool, and the pool
  is as large as the most tasks that ever ran at once. Nothing sets a
  size.
* While a worker runs a task it carries the task's name (``lime-<task
  id>``, ``svc-<job id>``), which is what a span records as its
  ``thread_name``.
* Workers are daemonic. A task that never returns keeps its worker,
  which is then never idle again: a hung stage is abandoned exactly as
  its own daemonic thread was.
* A :class:`TaskHandle` answers ``is_alive()`` and ``join(timeout)``
  like the ``Thread`` it replaces. A worker is back on the idle list
  before its handle reads finished, and before the optional ``done``
  callback runs, so whoever waited for either and submits again finds
  it there: a task is in flight until its worker is idle.
"""

from __future__ import annotations

import sys
import threading

__all__ = ["TaskHandle", "WorkerPool", "WORKERS", "spawn"]


class TaskHandle:
    """One submitted function, joinable like a thread."""

    __slots__ = ("name", "fn", "done", "_running")

    def __init__(self, fn, name: str, done=None):
        self.name = name
        self.fn = fn
        self.done = done
        # Held from submission until ``fn`` has returned.
        self._running = threading.Lock()
        self._running.acquire()

    def is_alive(self) -> bool:
        return self._running.locked()

    def join(self, timeout: "float | None" = None) -> None:
        wait = -1 if timeout is None else max(timeout, 0.0)
        if self._running.acquire(timeout=wait):
            self._running.release()

    def _finish(self) -> None:
        """Read finished, then run ``done``; called by the worker."""
        self.fn = None  # what the task referenced may go now
        self._running.release()
        if self.done is not None:
            self.done()
            self.done = None

    def __repr__(self) -> str:
        state = "running" if self.is_alive() else "finished"
        return f"<TaskHandle {self.name} {state}>"


class _Worker:
    """One daemonic thread that runs the functions it is handed."""

    __slots__ = ("_pool", "_ready", "_handle", "thread")

    def __init__(self, pool: "WorkerPool", number: int):
        self._pool = pool
        # Released when a handle is waiting: a binary semaphore, the
        # cheapest hand-off the threading module has.
        self._ready = threading.Lock()
        self._ready.acquire()
        self._handle: "TaskHandle | None" = None
        self.thread = threading.Thread(
            target=self._loop, name=f"repro-worker-{number}", daemon=True
        )

    def assign(self, handle: TaskHandle) -> None:
        self._handle = handle
        self._ready.release()

    def _loop(self) -> None:
        thread = self.thread
        idle_name = thread.name
        while True:
            self._ready.acquire()
            handle = self._handle
            self._handle = None
            thread.name = handle.name
            try:
                handle.fn()
            except Exception:  # reported as a thread's; the worker lives on
                sys.excepthook(*sys.exc_info())
            except BaseException:
                # Not an error to outlive: the worker ends with it, and
                # the handle reads finished as a dead thread's would.
                handle._finish()
                raise
            thread.name = idle_name
            self._pool._idle(self)
            handle._finish()


class WorkerPool:
    """Idle workers, and how many were ever started; ``_lock`` guards
    both."""

    def __init__(self):
        self._lock = threading.Lock()
        self._idle_workers: list = []   # LIFO: the warmest worker first
        self.started = 0

    def submit(self, fn, name: str, done=None) -> TaskHandle:
        """Run ``fn()`` on a worker named ``name`` for the duration,
        then ``done()`` once the worker is idle again."""
        handle = TaskHandle(fn, name, done)
        with self._lock:
            worker = self._idle_workers.pop() if self._idle_workers else None
            if worker is None:
                self.started += 1
                number = self.started
        if worker is None:
            worker = _Worker(self, number)
            worker.assign(handle)
            worker.thread.start()
        else:
            worker.assign(handle)
        return handle

    def _idle(self, worker: _Worker) -> None:
        with self._lock:
            self._idle_workers.append(worker)

    @property
    def busy(self) -> int:
        """Workers running a task (or abandoned inside one)."""
        with self._lock:
            return self.started - len(self._idle_workers)

    def __repr__(self) -> str:
        return f"<WorkerPool started={self.started} busy={self.busy}>"


#: The pool every stage and service job runs on.
WORKERS = WorkerPool()


def spawn(fn, name: str, done=None) -> TaskHandle:
    """Run ``fn()`` on a pooled task thread named ``name``; see
    :meth:`WorkerPool.submit`."""
    return WORKERS.submit(fn, name, done)
