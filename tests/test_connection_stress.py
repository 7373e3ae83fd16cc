"""Stress tests for the chunked FIFO (``repro.runtime.queues.Connection``).

A producer moves its stream in runs of random length (``put_many``,
with single ``put``s mixed in) while a consumer reads with ``get``,
``get_up_to`` and ``get_queued``; the interpreter switches threads
every microsecond so the lock and both conditions are contended at
every step. Whatever the interleaving: FIFO order, no item lost or
duplicated, the depth never above capacity, the firing rule's
end-of-stream behaviour exact, and a shutdown drain that unblocks a
producer waiting for room and a consumer waiting for items.
"""

import random
import sys
import threading

import pytest

from repro.errors import RuntimeGraphError
from repro.obs.metrics import MetricsRegistry
from repro.runtime.queues import END_OF_STREAM, Connection

CAPACITIES = (1, 2, 7, 64)


@pytest.fixture(autouse=True)
def fast_switching():
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(before)


def _produce(conn, items, rng):
    done = 0
    while done < len(items):
        size = rng.choice((1, 1, 2, 3, 5, 8, 13, 70))
        run = items[done : done + size]
        if len(run) == 1 and rng.random() < 0.5:
            conn.put(run[0])
        else:
            conn.put_many(run)
        done += len(run)
    conn.close()


def _consume(conn, rng):
    received = []
    while True:
        how = rng.random()
        if how < 0.3:
            item = conn.get()
            if item is END_OF_STREAM:
                return received
            received.append(item)
            continue
        if how < 0.7:
            batch, eos = conn.get_up_to(rng.randint(1, 9))
        else:
            batch, eos = conn.get_queued()
        received += batch
        if eos:
            return received


def _sample_depth(conn, stop, depths):
    """Read the depth under the edge's own lock, as often as possible."""
    while not stop.is_set():
        with conn._lock:
            depths.append(len(conn._items))


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("seed", range(4))
def test_fifo_under_contention(capacity, seed):
    rng = random.Random(seed * 31 + capacity)
    items = list(range(rng.randint(150, 400)))
    conn = Connection(capacity)
    received, depths = [], []
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=_produce, args=(conn, items, random.Random(seed))
        ),
        threading.Thread(
            target=lambda: received.extend(
                _consume(conn, random.Random(seed + 100))
            )
        ),
    ]
    sampler = threading.Thread(
        target=_sample_depth, args=(conn, stop, depths)
    )
    sampler.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(20.0)
        assert not thread.is_alive()
    stop.set()
    sampler.join(5.0)
    assert received == items
    assert conn.items_transferred == len(items)
    assert depths and max(depths) <= capacity
    assert conn.get() is END_OF_STREAM   # and it stays ended


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("count", (1, 3, 4))
def test_get_up_to_returns_full_batches_then_the_tail(capacity, count):
    items = list(range(12 + (capacity % 5)))
    conn = Connection(capacity)
    producer = threading.Thread(
        target=_produce, args=(conn, items, random.Random(capacity))
    )
    producer.start()
    batches = []
    while True:
        batch, eos = conn.get_up_to(count)
        batches.append((batch, eos))
        if eos:
            break
    producer.join(10.0)
    *full, (tail, eos) = batches
    assert all(len(b) == count and not e for b, e in full)
    assert eos and len(tail) == len(items) % count
    assert [x for b, _ in batches for x in b] == items


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_get_batch_fires_whole_groups_or_raises(capacity):
    for total, arity in ((12, 3), (13, 3)):
        items = list(range(total))
        conn = Connection(capacity)
        producer = threading.Thread(
            target=_produce, args=(conn, items, random.Random(total))
        )
        producer.start()
        fired = []
        if total % arity:
            with pytest.raises(RuntimeGraphError, match="1 of 3 required"):
                while True:
                    fired.append(conn.get_batch(arity))
        else:
            while True:
                batch = conn.get_batch(arity)
                if batch == [END_OF_STREAM]:
                    break
                fired.append(batch)
        producer.join(10.0)
        assert [x for b in fired for x in b] == items[: total // arity * arity]


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_drain_bounded_unblocks_a_blocked_producer(capacity):
    conn = Connection(capacity)
    finished = threading.Event()

    def producer():
        conn.put_many(list(range(capacity * 3)))
        finished.set()

    thread = threading.Thread(target=producer, daemon=True)
    thread.start()
    assert not finished.wait(0.05)   # blocked: the edge is full
    drained = []
    while not finished.is_set():
        drained += conn.drain_bounded(0.001)
    thread.join(5.0)
    drained += conn.drain_bounded()
    assert sorted(drained) == list(range(capacity * 3))


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_drain_bounded_unblocks_a_blocked_consumer(capacity):
    conn = Connection(capacity)
    result = []
    thread = threading.Thread(
        target=lambda: result.append(conn.get_up_to(capacity + 1)),
        daemon=True,
    )
    thread.start()
    conn.put(7)
    thread.join(0.05)
    assert thread.is_alive()   # one item short of its batch
    conn.drain_bounded()
    thread.join(5.0)
    assert not thread.is_alive()
    # The drain took the item; the consumer sees the end of stream.
    assert result == [([], True)] or result == [([7], True)]


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_metrics_sample_every_item_and_the_close(capacity):
    metrics = MetricsRegistry()
    conn = Connection(capacity, metrics=metrics, name="a->b")
    items = list(range(97))
    consumer = threading.Thread(
        target=lambda: _consume(conn, random.Random(capacity))
    )
    consumer.start()
    _produce(conn, items, random.Random(capacity + 1))
    consumer.join(10.0)
    snapshot = metrics.snapshot()
    depth = snapshot["histograms"]["queue.depth[a->b]"]
    assert depth["count"] == len(items) + 1
    assert depth["max"] <= capacity
    counters = snapshot["counters"]
    assert "queue.producer_wait_us[a->b]" in counters
    assert "queue.consumer_wait_us[a->b]" in counters


@pytest.mark.parametrize("app", ("gray_pipeline", "bitflip", "crc8"))
def test_threaded_run_samples_one_depth_per_item_per_edge(app):
    """Source (``put_many``), device stages (one ``put_many`` per
    batch) and sink (``get_queued``) move chunks; the depth histogram
    of every edge still counts each item it carried, plus the close."""
    from repro.apps import compile_app, workloads
    from repro.obs import Tracer
    from repro.runtime import Runtime, RuntimeConfig

    tracer = Tracer()
    entry, args = workloads.small_args(app)
    Runtime(
        compile_app(app),
        RuntimeConfig(scheduler="threaded", tracer=tracer, batch_size=3),
    ).run(entry, args)
    histograms = tracer.metrics.snapshot()["histograms"]
    spans = [s for s in tracer.find("run.graph.stage")
             if "out_items" in s.attributes]
    assert spans
    for span in spans:
        task_id = span.attributes["task_id"]
        (name,) = [n for n in histograms
                   if n.startswith(f"queue.depth[{task_id}->")]
        assert histograms[name]["count"] == span.attributes["out_items"] + 1
