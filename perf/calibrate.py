"""The calibration tick: the benchmark's unit of host time.

One tick is a fixed pure-Python loop of about a millisecond (list
push/pop, dict store, float and int arithmetic) -- the same kind of
work the repo's interpreter, simulators and compilers do, so whatever
slows the box (a loaded neighbour, frequency scaling, a cold cache)
slows ticks and ops alike and cancels in ``op seconds / tick seconds``.

One tick is timed before every op (every block of jobs on the threaded
workload), on the main thread with nothing in flight. That fine a grain
is deliberate: on the box this was built on, the slowdowns to cancel
(a busy SMT sibling or neighbour VM, visible as 1.0-1.9 ms ticks) come
in episodes of 0.1-1 s. One 20-tick burst per second left 10-22%
run-to-run spread in the medians; a tick per op leaves 2-6%.

The loop body and TICK_ITERATIONS are part of the benchmark's
definition: changing either changes every ``op_ticks_*`` value ever
recorded, so they are never edited.
"""

from __future__ import annotations

import time

TICK_ITERATIONS = 6000
#: An op is measured against the ticks timed within this many ops
#: either side of it (six ticks in all).
WINDOW = 2
#: What a tick takes on a quiet core of the box this was built on;
#: only ``nominal_seconds`` uses it.
NOMINAL_TICK_S = 0.001


def tick() -> int:
    """One unit of calibration work; returns a checksum so no part of
    the loop can be optimised away."""
    stack: list = []
    table: dict = {}
    x = 1.0
    k = 7
    for i in range(TICK_ITERATIONS):
        stack.append(i)
        k = (k * 31 + i) & 0xFFFF
        table[k & 127] = x
        x = x * 0.999 + 0.5
        if i & 1:
            k ^= stack.pop()
    return k + len(stack) + len(table) + int(x)


def timed_tick() -> float:
    """Seconds one tick took just now."""
    clock = time.perf_counter
    start = clock()
    tick()
    return clock() - start


def tick_seconds(ticks: list, index: int) -> float:
    """The yardstick for the op (or block) that ran between
    ``ticks[index]`` and ``ticks[index + 1]``: mean seconds of the ticks
    within WINDOW ops either side. The mean, not the minimum: an op
    absorbs a busy neighbour at its average rate, and so must its
    yardstick."""
    window = ticks[max(index - WINDOW, 0):index + WINDOW + 2]
    return sum(window) / len(window)


def nominal_seconds(wall_seconds: float, ticks: list) -> float:
    """Wall seconds restated at the nominal tick rate: what the interval
    would have taken had ticks run at NOMINAL_TICK_S instead of the rate
    of ``ticks`` (timed inside it). Set-up is reported this way: it must
    carry the unit ``s``, and in raw seconds its medians moved 36%
    between two sets of runs of the same code on a busier box."""
    return wall_seconds * NOMINAL_TICK_S * len(ticks) / sum(ticks)
