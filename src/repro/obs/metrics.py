"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Spans (``repro.obs.tracer``) answer "what happened, when"; the metrics
registry answers "how much, how often, how spread out". One
:class:`MetricsRegistry` lives on every :class:`~repro.obs.Tracer`, so
any instrumented seam — scheduler stage loops, FIFO connections, the
marshaling boundary, device executors, the retry loop — can record
distributions without new plumbing, and the profiler
(:mod:`repro.obs.profile`) turns the aggregate into per-stage
utilization, queue-occupancy, and latency reports.

Concurrency model:

* :class:`Counters` keeps one shard dict per thread (registered under a
  lock once, then mutated lock-free by its owner), merged on
  ``snapshot()``/``get()``. Increments on the ThreadedScheduler's
  worker threads never contend.
* :class:`Gauge` and :class:`Histogram` mutate under a per-instance
  lock; they sit on colder paths (one observation per crossing, batch,
  or retry — never per stream element).

Disabled metrics cost (almost) nothing: :data:`NULL_METRICS` hands out
shared no-op counter/gauge/histogram singletons, so instrumentation
calls them unconditionally, mirroring the ``NULL_TRACER`` contract.
"""

from __future__ import annotations

import bisect
import threading


class Counters:
    """A thread-safe registry of named monotonic counters.

    Mutation is lock-free on the hot path: each thread owns a private
    shard (a plain dict registered once under the lock), and reads
    merge the shards. A shard is only ever written by its owner thread,
    so merging can tolerate concurrent writes — a resize mid-iteration
    is simply retried.
    """

    __slots__ = ("_lock", "_local", "_shards")

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._shards: list[dict] = []

    def _shard(self) -> dict:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = self._local.shard = {}
            with self._lock:
                self._shards.append(shard)
        return shard

    def add(self, name: str, amount: float = 1) -> None:
        shard = self._shard()
        shard[name] = shard.get(name, 0) + amount

    def _merged(self) -> dict:
        with self._lock:
            shards = list(self._shards)
        merged: dict[str, float] = {}
        for shard in shards:
            while True:
                try:
                    items = list(shard.items())
                    break
                except RuntimeError:  # owner resized it mid-iteration
                    continue
            for name, value in items:
                merged[name] = merged.get(name, 0) + value
        return merged

    def get(self, name: str) -> float:
        return self._merged().get(name, 0)

    def snapshot(self) -> dict:
        """Point-in-time merged copy, sorted by counter name."""
        return dict(sorted(self._merged().items()))

    def reset(self) -> None:
        with self._lock:
            shards = list(self._shards)
        for shard in shards:
            shard.clear()

    def __len__(self) -> int:
        return len(self._merged())

    def __repr__(self) -> str:
        return f"Counters({self.snapshot()!r})"


class _NullCounters:
    """No-op counters for the null registry/tracer."""

    __slots__ = ()

    def add(self, name: str, amount: float = 1) -> None:
        pass

    def get(self, name: str) -> float:
        return 0

    def snapshot(self) -> dict:
        return {}

    def reset(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


class Gauge:
    """A point-in-time value with min/max/update tracking."""

    __slots__ = ("name", "_lock", "value", "min", "max", "updates")

    enabled = True

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self.value = 0.0
        self.min: "float | None" = None
        self.max: "float | None" = None
        self.updates = 0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value
            self.updates += 1
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def add(self, amount: float = 1) -> None:
        with self._lock:
            value = self.value + amount
        self.set(value)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "value": self.value,
                "min": self.min,
                "max": self.max,
                "updates": self.updates,
            }

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class _NullGauge:
    __slots__ = ()

    enabled = False
    name = ""
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float = 1) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


#: Default bucket ladders (upper bounds; an overflow bucket is
#: implicit). Times are microseconds, sizes are counts/bytes.
TIME_US_BUCKETS = (
    1, 2, 5, 10, 25, 50, 100, 250, 500,
    1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
    100_000, 250_000, 500_000, 1_000_000,
)
SIZE_BUCKETS = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
    1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576,
)
DEPTH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024)


def default_buckets_for(name: str) -> tuple:
    """Pick a bucket ladder from a metric-name convention: ``*_us`` is
    a latency, ``*depth*`` a queue depth, everything else a size."""
    if name.endswith("_us") or "_us[" in name:
        return TIME_US_BUCKETS
    if "depth" in name:
        return DEPTH_BUCKETS
    return SIZE_BUCKETS


class Histogram:
    """A fixed-bucket histogram with count/sum/min/max and estimated
    quantiles (linear interpolation inside the winning bucket)."""

    __slots__ = (
        "name", "buckets", "_lock", "counts", "overflow",
        "count", "sum", "min", "max",
    )

    enabled = True

    def __init__(self, name: str, buckets=None):
        self.name = name
        self.buckets = tuple(buckets or default_buckets_for(name))
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError(
                f"histogram {name!r} buckets must be sorted: "
                f"{self.buckets}"
            )
        self._lock = threading.Lock()
        self.counts = [0] * len(self.buckets)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min: "float | None" = None
        self.max: "float | None" = None

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            if index < len(self.counts):
                self.counts[index] += 1
            else:
                self.overflow += 1
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 <= q <= 1) from the bucket counts.

        Linear interpolation within the containing bucket, clamped to
        the observed [min, max] so a wide bucket can never report an
        estimate outside the range of real samples."""
        with self._lock:
            if not self.count:
                return 0.0
            observed_max = self.max if self.max is not None else 0.0
            target = q * self.count
            seen = 0
            lo = self.min if self.min is not None else 0.0
            for index, bucket_count in enumerate(self.counts):
                if not bucket_count:
                    continue
                hi = self.buckets[index]
                if seen + bucket_count >= target:
                    frac = (target - seen) / bucket_count
                    lo_clamped = min(lo, hi)
                    estimate = lo_clamped + frac * (hi - lo_clamped)
                    return min(estimate, observed_max)
                seen += bucket_count
                lo = hi
            return observed_max

    def snapshot(self) -> dict:
        with self._lock:
            counts = list(self.counts)
            overflow = self.overflow
            count = self.count
            total = self.sum
            lo, hi = self.min, self.max
        mean = total / count if count else 0.0
        return {
            "buckets": list(self.buckets),
            "counts": counts,
            "overflow": overflow,
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "mean": mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def reset(self) -> None:
        with self._lock:
            self.counts = [0] * len(self.buckets)
            self.overflow = 0
            self.count = 0
            self.sum = 0.0
            self.min = None
            self.max = None

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.3g}>"


class _NullHistogram:
    __slots__ = ()

    enabled = False
    name = ""
    buckets: tuple = ()
    count = 0
    sum = 0.0
    min = None
    max = None
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {}

    def reset(self) -> None:
        pass


_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Named counters + gauges + histograms behind one handle.

    ``counter`` semantics live on the embedded :class:`Counters`
    registry (``metrics.counters.add(name)``); ``gauge(name)`` and
    ``histogram(name)`` create-or-return named instruments. A
    histogram's buckets are fixed by its first creation; later callers
    get the existing instrument regardless of the ``buckets`` they
    pass.
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self.counters = Counters()
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name))
        return gauge

    def histogram(self, name: str, buckets=None) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            with self._lock:
                hist = self._histograms.get(name)
                if hist is None:
                    hist = Histogram(name, buckets)
                    self._histograms[name] = hist
        return hist

    def snapshot(self) -> dict:
        """Point-in-time copy of everything, sorted by name."""
        with self._lock:
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": self.counters.snapshot(),
            "gauges": {
                name: gauges[name].snapshot() for name in sorted(gauges)
            },
            "histograms": {
                name: histograms[name].snapshot()
                for name in sorted(histograms)
            },
        }

    def reset(self) -> None:
        self.counters.reset()
        with self._lock:
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        for hist in histograms:
            hist.reset()
        for gauge in gauges:
            gauge.value = 0.0
            gauge.min = None
            gauge.max = None
            gauge.updates = 0

    def __len__(self) -> int:
        return len(self.counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {len(self.counters)} counters, "
            f"{len(self._gauges)} gauges, "
            f"{len(self._histograms)} histograms>"
        )


class NullMetrics:
    """Zero-overhead stand-in used whenever metrics are disabled."""

    enabled = False
    counters = _NullCounters()

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, buckets=None) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def reset(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "<NullMetrics>"


NULL_METRICS = NullMetrics()


def as_metrics(metrics) -> "MetricsRegistry | NullMetrics":
    """Normalize ``None``/missing to the null registry."""
    return NULL_METRICS if metrics is None else metrics
