"""FIFO connections between runtime tasks.

"A connect operation '=>' creates a FIFO queue between tasks"
(Section 4.1). The queue is bounded so upstream tasks block when a
downstream stage is slow, and a closed edge reads ``END_OF_STREAM``
after its last item so graph termination propagates: "the graph
execution terminates when the last bit produced by the source is
consumed by the sink."

Task bodies are written against :class:`Edge`; :class:`Connection` is
the bounded blocking FIFO between two task threads, :class:`InlineEdge`
what the sequential scheduler wires instead (DESIGN.md §3c).

When a metrics registry is attached (profiling runs), every item put
(and the close) samples the queue depth into a per-edge histogram and
both sides accumulate their blocking time (``producer_wait_s`` /
``consumer_wait_s``), which the schedulers surface as explicit
``queue_wait_*`` span attributes and the profiler turns into
utilization and queue-occupancy statistics. Without a registry the
hot path is untouched.
"""

from __future__ import annotations

import threading
import time
from collections import deque
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
    """What a task body is written against: ``put``, ``put_many``,
    ``close``, ``get`` (the next item; ``END_OF_STREAM`` after the
    last), ``get_up_to`` and ``get_queued`` from the subclass, the
    firing rule written once over ``get_up_to``."""

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
    """A bounded FIFO between one producer task and one consumer task.

    A deque under one lock, with a condition for each side: the
    producer waits for room, the consumer for items. Capacity counts
    items. End of stream is a flag, not a slot, so ``close`` never
    waits. ``put_many``, ``get_up_to`` and ``get_queued`` take the lock
    once for each run of items that fits rather than once per item.
    """

    def __init__(self, capacity: int = 64, metrics=None, name: str = ""):
        if capacity < 1:
            raise RuntimeGraphError("connection capacity must be >= 1")
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self.capacity = capacity
        self.name = name
        self.items_transferred = 0
        # Each wait accumulator is written only by its owning side
        # (producer thread / consumer thread), so no lock is needed.
        self.producer_wait_s = 0.0
        self.consumer_wait_s = 0.0
        self._consumer_done = False
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

    # -- producer side -------------------------------------------------

    def put(self, item) -> None:
        if self._metrics is not None:
            self.put_many((item,))
            return
        queue = self._items
        with self._lock:
            while len(queue) >= self.capacity:
                self._not_full.wait()
            queue.append(item)
            self.items_transferred += 1
            self._not_empty.notify()

    def put_many(self, items, check=None) -> None:
        """Append ``items`` (a sequence) in order, blocking while the
        edge is full. ``check`` (a cancel token's) is called before
        each item, so a trip on item k leaves items 0..k-1 queued.

        With metrics on, each item samples the depth it found, as a
        ``put`` of that item alone would have."""
        queue = self._items
        not_full = self._not_full
        capacity = self.capacity
        metered = self._metrics is not None
        done, total = 0, len(items)
        while done < total:
            if metered:
                start = time.perf_counter()
            with self._lock:
                while len(queue) >= capacity:
                    not_full.wait()
                depth = len(queue)
                run = items[done : done + capacity - depth]
                moved = 0
                try:
                    if check is None:
                        queue.extend(run)
                        moved = len(run)
                    else:
                        for item in run:
                            check()
                            queue.append(item)
                            moved += 1
                finally:
                    if moved:
                        self.items_transferred += moved
                        self._not_empty.notify()
                    if metered:
                        self.producer_wait_s += time.perf_counter() - start
                        for position in range(depth, depth + moved):
                            self._depth_hist.observe(position)
            done += moved

    def close(self) -> None:
        with self._lock:
            depth = len(self._items)
            self._closed = True
            self._not_empty.notify()
        if self._metrics is not None:
            # The end of stream samples the depth like an item, and
            # flushes the producer's total blocking time so reports can
            # read it from counters even when no stage span captured it.
            self._depth_hist.observe(depth)
            self._counters.add(
                f"queue.producer_wait_us[{self._label}]",
                self.producer_wait_s * 1e6,
            )

    # -- consumer side -------------------------------------------------

    def _take(self, count: int) -> "tuple[list, bool]":
        """Block until an item is queued or the stream has ended, then
        take up to ``count`` queued items; ``eos`` is True once the
        stream has ended and nothing is left to take."""
        queue = self._items
        not_empty = self._not_empty
        metered = self._metrics is not None
        if metered:
            start = time.perf_counter()
        with self._lock:
            while not queue and not self._closed:
                not_empty.wait()
            if count >= len(queue):
                taken = list(queue)
                queue.clear()
            else:
                popleft = queue.popleft
                taken = [popleft() for _ in range(count)]
            if taken:
                self._not_full.notify()
            eos = self._closed and not queue
        if metered:
            self.consumer_wait_s += time.perf_counter() - start
            if eos and not self._consumer_done:
                self._consumer_done = True
                self._counters.add(
                    f"queue.consumer_wait_us[{self._label}]",
                    self.consumer_wait_s * 1e6,
                )
        return taken, eos

    def get(self):
        taken, _eos = self._take(1)
        return taken[0] if taken else END_OF_STREAM

    def get_up_to(self, count: int) -> "tuple[list, bool]":
        """Blockingly drain up to ``count`` items for one batched
        dispatch; returns ``(items, eos)``. Unlike :meth:`get_batch`,
        a premature end-of-stream is not an error — the partial batch
        is returned with ``eos=True`` so a device stage can marshal
        the tail of the stream as one final (smaller) batch."""
        if count < 1:
            raise RuntimeGraphError("batch draining requires count >= 1")
        batch, eos = self._take(count)
        while len(batch) < count and not eos:
            more, eos = self._take(count - len(batch))
            batch += more
        return batch, eos and len(batch) < count

    def get_queued(self) -> "tuple[list, bool]":
        """Block until something is queued (or the stream ended) and
        take all of it; returns ``(items, eos)``."""
        return self._take(self.capacity)

    # -- shutdown ------------------------------------------------------

    def drain(self) -> list:
        """Non-blocking take of everything currently queued."""
        with self._lock:
            out = list(self._items)
            self._items.clear()
            self._not_full.notify()
        return out

    def drain_bounded(self, timeout_s: float = 0.0) -> list:
        """Bounded-wait shutdown drain: empty the queue and wake both
        sides so a cancelled pipeline can unwind without deadlocking.

        A producer blocked in :meth:`put` (full queue) is unblocked by
        the drain itself; a consumer blocked in :meth:`get` (empty
        queue) is woken by the end of stream this sets. Nothing here
        blocks on the other side: if a producer refills the queue in
        the race, it is about to observe the cancellation anyway, and
        the next drain pass clears it.

        Returns the abandoned items so callers can count discarded
        work. ``timeout_s`` bounds an optional settle wait for a last
        straggler ``put`` to land before the final sweep.
        """
        abandoned: list = []
        deadline = time.perf_counter() + max(0.0, timeout_s)
        while True:
            drained = self.drain()
            abandoned += drained
            if not drained:
                if time.perf_counter() >= deadline:
                    break
                time.sleep(0.001)
        with self._lock:
            self._closed = True
            self._not_empty.notify()
        return abandoned

    @property
    def approximate_depth(self) -> int:
        return len(self._items)


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

    def put_many(self, items, check=None) -> None:
        """As :meth:`Connection.put_many`; never blocks."""
        if check is None:
            self._items.extend(items)
            return
        for item in items:
            check()
            self._items.append(item)

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

    def get_queued(self) -> "tuple[list, bool]":
        """As :meth:`Connection.get_queued`: the rest of the stream."""
        batch = self._items[self._head :]
        if not batch:
            self._ran_dry()
        self._head = len(self._items)
        return batch, self._closed
