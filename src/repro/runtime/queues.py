"""FIFO connections between runtime tasks.

"A connect operation '=>' creates a FIFO queue between tasks"
(Section 4.1). The queue is bounded so upstream tasks block when a
downstream stage is slow, and carries an end-of-stream sentinel so
graph termination propagates: "the graph execution terminates when the
last bit produced by the source is consumed by the sink."

Task bodies are written against :class:`Edge`; :class:`Connection` is
the bounded blocking FIFO between two task threads, :class:`InlineEdge`
what the sequential scheduler wires instead (DESIGN.md §3c).

When a metrics registry is attached (profiling runs), every ``put``
samples the queue depth into a per-edge histogram and both sides
accumulate their blocking time (``producer_wait_s`` /
``consumer_wait_s``), which the schedulers surface as explicit
``queue_wait_*`` span attributes and the profiler turns into
utilization and queue-occupancy statistics. Without a registry the
hot path is untouched.
"""

from __future__ import annotations

import queue as _queue
import time
from typing import Optional

from repro.errors import RuntimeGraphError
from repro.obs.metrics import DEPTH_BUCKETS


class EndOfStream:
    """Sentinel flowing after the last value."""

    _instance: "Optional[EndOfStream]" = None

    def __new__(cls) -> "EndOfStream":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<end-of-stream>"


END_OF_STREAM = EndOfStream()


class Edge:
    """What a task body is written against: ``put``, ``close``, ``get``
    (the next item; ``END_OF_STREAM`` after the last) and ``get_up_to``
    from the subclass, the firing rule written once over ``get_up_to``."""

    def get_batch(self, count: int) -> "list":
        """Blockingly read ``count`` items; a premature end-of-stream
        with a partially filled batch is an error (the upstream closed
        mid-firing)."""
        batch, eos = self.get_up_to(count)
        if not eos:
            return batch
        if batch:
            raise RuntimeGraphError(
                "stream ended mid-firing: upstream produced "
                f"{len(batch)} of {count} required items"
            )
        return [END_OF_STREAM]


class Connection(Edge):
    """A bounded FIFO between a producer task and a consumer task."""

    def __init__(self, capacity: int = 64, metrics=None, name: str = ""):
        if capacity < 1:
            raise RuntimeGraphError("connection capacity must be >= 1")
        self._queue: _queue.Queue = _queue.Queue(maxsize=capacity)
        self.capacity = capacity
        self.name = name
        self.items_transferred = 0
        # Each wait accumulator is written only by its owning side
        # (producer thread / consumer thread), so no lock is needed.
        self.producer_wait_s = 0.0
        self.consumer_wait_s = 0.0
        if metrics is not None and getattr(metrics, "enabled", False):
            self._metrics = metrics
            label = name or "anonymous"
            self._depth_hist = metrics.histogram(
                f"queue.depth[{label}]", buckets=DEPTH_BUCKETS
            )
            self._counters = metrics.counters
            self._label = label
        else:
            self._metrics = None

    def put(self, item) -> None:
        if self._metrics is None:
            self._queue.put(item)
        else:
            self._depth_hist.observe(self._queue.qsize())
            start = time.perf_counter()
            self._queue.put(item)
            self.producer_wait_s += time.perf_counter() - start
        if item is not END_OF_STREAM:
            self.items_transferred += 1
        elif self._metrics is not None:
            # End of stream: the producer is done — flush its total
            # blocking time so reports can read it from counters even
            # when no stage span captured it.
            self._counters.add(
                f"queue.producer_wait_us[{self._label}]",
                self.producer_wait_s * 1e6,
            )

    def get(self):
        if self._metrics is None:
            return self._queue.get()
        start = time.perf_counter()
        item = self._queue.get()
        self.consumer_wait_s += time.perf_counter() - start
        if item is END_OF_STREAM:
            self._counters.add(
                f"queue.consumer_wait_us[{self._label}]",
                self.consumer_wait_s * 1e6,
            )
        return item

    def get_up_to(self, count: int) -> "tuple[list, bool]":
        """Blockingly drain up to ``count`` items for one batched
        dispatch; returns ``(items, eos)``. Unlike :meth:`get_batch`,
        a premature end-of-stream is not an error — the partial batch
        is returned with ``eos=True`` so a device stage can marshal
        the tail of the stream as one final (smaller) batch."""
        if count < 1:
            raise RuntimeGraphError("batch draining requires count >= 1")
        batch: list = []
        while len(batch) < count:
            item = self.get()
            if item is END_OF_STREAM:
                return batch, True
            batch.append(item)
        return batch, False

    def close(self) -> None:
        self.put(END_OF_STREAM)

    def drain(self) -> list:
        """Non-blocking read of everything currently queued (test aid)."""
        out = []
        while True:
            try:
                out.append(self._queue.get_nowait())
            except _queue.Empty:
                return out

    def drain_bounded(self, timeout_s: float = 0.0) -> list:
        """Bounded-wait shutdown drain: empty the queue and wake both
        sides so a cancelled pipeline can unwind without deadlocking.

        A producer blocked in :meth:`put` (full queue) is unblocked by
        the drain itself; a consumer blocked in :meth:`get` (empty
        queue) is woken by the ``END_OF_STREAM`` this pushes back in.
        The sentinel is pushed with ``put_nowait`` so the drain itself
        can never block — if the queue refilled to capacity in the
        race, the producer that filled it is about to observe the
        cancellation anyway, and the next drain pass clears it.

        Returns the abandoned (non-sentinel) items so callers can
        count discarded work. ``timeout_s`` bounds an optional settle
        wait for a last straggler ``put`` to land before the final
        sweep.
        """
        abandoned: list = []
        deadline = time.perf_counter() + max(0.0, timeout_s)
        while True:
            try:
                item = self._queue.get_nowait()
            except _queue.Empty:
                if time.perf_counter() >= deadline:
                    break
                time.sleep(0.001)
                continue
            if item is not END_OF_STREAM:
                abandoned.append(item)
        try:
            self._queue.put_nowait(END_OF_STREAM)
        except _queue.Full:
            pass
        return abandoned

    @property
    def approximate_depth(self) -> int:
        return self._queue.qsize()


class InlineEdge(Edge):
    """The edge between two stages that run one after the other on one
    thread: the producer has finished (or failed, and the scheduler
    closed its output) before the consumer reads. Unbounded, lock-free
    and un-instrumented — nothing waits, so sequential profile reports
    carry no ``queue.*`` metrics — and where a FIFO would block forever
    (reading past what was produced on an open edge) it raises."""

    def __init__(self):
        self._items: list = []
        self._head = 0
        self._closed = False
        self.put = self._items.append  # per item: no Python frame

    @property
    def items_transferred(self) -> int:
        return len(self._items)

    def close(self) -> None:
        self._closed = True

    def _ran_dry(self) -> None:
        # A read wants more than was produced: the end of a closed
        # stream, but on an open edge a FIFO would block forever.
        if not self._closed:
            raise RuntimeGraphError(
                "read past the end of an open in-process edge: the "
                "upstream stage returned without closing its output"
            )

    def get(self):
        head = self._head
        if head == len(self._items):
            self._ran_dry()
            return END_OF_STREAM
        self._head = head + 1
        return self._items[head]

    def get_batch(self, count: int) -> list:
        head = self._head
        batch = self._items[head : head + count]
        if len(batch) < count:
            return super().get_batch(count)  # end of stream, or an error
        self._head = head + count
        return batch

    def get_up_to(self, count: int) -> "tuple[list, bool]":
        """As :meth:`Connection.get_up_to`, in one slice."""
        if count < 1:
            raise RuntimeGraphError("batch draining requires count >= 1")
        head = self._head
        batch = self._items[head : head + count]
        if len(batch) < count:
            self._ran_dry()
        self._head = head + len(batch)
        return batch, len(batch) < count
