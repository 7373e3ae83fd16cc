"""Metric names, units and definitions: the one list that
``BENCHMARK.json``, the worker, ``run.py --smoke`` and ``compare.py``
all agree on.

End-to-end metrics come from an untraced run (``--trace 0``); per-layer
metrics come from a traced run (``--trace 1``) and are per *op*
(seconds per op, count per op) unless the name says otherwise.
"""

from __future__ import annotations

#: (name, unit). Lower is better for every one of them.
END_TO_END = [
    ("setup_s", "s"),
    ("op_ticks_p50", "ticks"),
    ("op_ticks_mean", "ticks"),
    ("op_ticks_p90", "ticks"),
    ("peak_rss_mb", "MiB"),
]


class Missing(Exception):
    """The span a metric is built from could not be wrapped."""


class Layers:
    """Accessors over ``Recorder.layers()`` for the metric table."""

    ZERO = {"self_s": 0.0, "total_s": 0.0, "root_s": 0.0, "spans": 0,
            "counts": {}}

    def __init__(self, layers: dict, missing: set, uncounted: set,
                 ops: int, extra: dict):
        self.layers = layers
        self.missing = missing      # span names without a wrapper
        self.uncounted = uncounted  # span names whose counts failed
        self.ops = max(ops, 1)
        self.extra = extra          # facts measured by the harness itself

    def _layer(self, name: str) -> dict:
        if name in self.missing:
            raise Missing(name)
        return self.layers.get(name, self.ZERO)

    def busy(self, *names) -> float:
        """Self seconds per op."""
        return sum(self._layer(n)["self_s"] for n in names) / self.ops

    def total(self, name: str) -> float:
        """Inclusive seconds per op."""
        return self._layer(name)["total_s"] / self.ops

    def spans(self, name: str) -> float:
        return self._layer(name)["spans"] / self.ops

    def count(self, name: str, key: str) -> float:
        if name in self.uncounted:
            raise Missing(name)
        return self._layer(name)["counts"].get(key, 0) / self.ops

    def rate(self, name: str, key: str) -> float:
        """Counted things per busy second (0 when the layer is idle)."""
        busy = self._layer(name)["self_s"]
        return self.count(name, key) * self.ops / busy if busy else 0.0

    def fact(self, key: str) -> float:
        return self.extra[key]

    def runtime_self(self) -> float:
        """Runtime.run minus the interpreter, device and marshal work
        done for it -- on its own thread (children) and on stage threads
        (root spans there): engine glue, scheduler, queues."""
        own = self.busy("runtime.run", "runtime.graph")
        staged = sum(
            self._layer(n)["root_s"]
            for n in ("interp", "gpu.run", "fpga.run", "fpga.elaborate",
                      "marshal")
        ) / self.ops
        return max(own - staged, 0.0)


#: (name, unit, value(Layers)). The layers are the repo's modules.
PER_LAYER = [
    # repro.lime
    ("lime.lex.busy_s", "s", lambda L: L.busy("lime.lex")),
    ("lime.lex.tokens", "count", lambda L: L.count("lime.lex", "tokens")),
    ("lime.parse.busy_s", "s", lambda L: L.busy("lime.parse")),
    ("lime.check.busy_s", "s", lambda L: L.busy("lime.check")),
    # repro.ir
    ("ir.build.busy_s", "s", lambda L: L.busy("ir.build")),
    ("ir.build.functions", "count",
     lambda L: L.count("ir.build", "functions")),
    ("ir.build.task_graphs", "count",
     lambda L: L.count("ir.build", "task_graphs")),
    # repro.backends.bytecode
    ("bytecode.compile.busy_s", "s", lambda L: L.busy("bytecode.compile")),
    ("bytecode.compile.instructions", "count",
     lambda L: L.count("bytecode.compile", "instructions")),
    ("interp.busy_s", "s", lambda L: L.busy("interp")),
    ("interp.calls", "count", lambda L: L.count("interp", "calls")),
    ("interp.cycles", "cycles", lambda L: L.count("interp", "cycles")),
    ("interp.cycles_per_s", "1/s", lambda L: L.rate("interp", "cycles")),
    # repro.backends.opencl
    ("opencl.compile.busy_s", "s", lambda L: L.busy("opencl.compile")),
    ("opencl.kernels", "count",
     lambda L: L.count("opencl.compile", "kernels")),
    ("opencl.source_bytes", "bytes",
     lambda L: L.count("opencl.compile", "source_bytes")),
    # repro.backends.verilog
    ("verilog.compile.busy_s", "s", lambda L: L.busy("verilog.compile")),
    ("verilog.modules", "count",
     lambda L: L.count("verilog.compile", "modules")),
    ("verilog.source_bytes", "bytes",
     lambda L: L.count("verilog.compile", "source_bytes")),
    # repro.backends.artifacts
    ("artifacts.key.busy_s", "s", lambda L: L.busy("artifacts.key")),
    ("artifacts.load.busy_s", "s", lambda L: L.busy("artifacts.load")),
    ("artifacts.store.busy_s", "s", lambda L: L.busy("artifacts.store")),
    ("artifacts.hits", "count", lambda L: L.count("artifacts.load", "hits")),
    ("artifacts.misses", "count",
     lambda L: L.count("artifacts.load", "misses")),
    ("artifacts.bytes_loaded", "bytes",
     lambda L: L.count("artifacts.load", "bytes_loaded")),
    # repro.devices.gpu
    ("gpu.run.busy_s", "s", lambda L: L.busy("gpu.run")),
    ("gpu.launches", "count", lambda L: L.count("gpu.run", "launches")),
    ("gpu.items", "count", lambda L: L.count("gpu.run", "items")),
    ("gpu.items_per_s", "1/s", lambda L: L.rate("gpu.run", "items")),
    ("gpu.modeled_kernel_s", "s",
     lambda L: L.count("gpu.run", "modeled_kernel_s")),
    # repro.devices.fpga
    ("fpga.run.busy_s", "s", lambda L: L.busy("fpga.run")),
    ("fpga.elaborate.busy_s", "s", lambda L: L.busy("fpga.elaborate")),
    ("fpga.cycles", "cycles", lambda L: L.count("fpga.run", "cycles")),
    ("fpga.items", "count", lambda L: L.count("fpga.run", "items")),
    ("fpga.cycles_per_s", "1/s", lambda L: L.rate("fpga.run", "cycles")),
    # repro.values + repro.runtime.marshaling
    ("marshal.busy_s", "s", lambda L: L.busy("marshal")),
    ("marshal.crossings", "count",
     lambda L: L.count("marshal", "crossings")),
    ("marshal.bytes", "bytes", lambda L: L.count("marshal", "bytes")),
    ("marshal.bytes_per_s", "1/s", lambda L: L.rate("marshal", "bytes")),
    # repro.runtime
    ("runtime.init.busy_s", "s", lambda L: L.busy("runtime.init")),
    ("runtime.run.busy_s", "s", lambda L: L.total("runtime.run")),
    ("runtime.self_s", "s", lambda L: L.runtime_self()),
    ("runtime.graphs", "count",
     lambda L: L.count("runtime.graph", "graphs")),
    ("runtime.offloads", "count",
     lambda L: L.count("runtime.run", "offloads")),
    # repro.service
    ("service.submit.busy_s", "s", lambda L: L.busy("service.submit")),
    ("service.result.wait_s", "s", lambda L: L.total("service.result")),
    ("service.overhead_s", "s",
     lambda L: (
         max(L.fact("op_s") - L.total("runtime.run"), 0.0)
         if L.spans("service.submit") else 0.0
     )),
    ("service.jobs", "count", lambda L: L.spans("service.submit")),
    ("service.rejected", "count",
     lambda L: L.count("service.submit", "raised:AdmissionRejected")),
    ("journal.append.busy_s", "s", lambda L: L.busy("journal.append")),
    ("journal.appends", "count", lambda L: L.spans("journal.append")),
    ("journal.bytes", "bytes", lambda L: L.fact("journal_bytes")),
    ("journal.load.busy_s", "s", lambda L: L.fact("journal_load_s")),
    ("journal.load.records", "count",
     lambda L: L.fact("journal_load_records")),
    # the harness itself, and the two facts every run must repeat
    ("bench.op_s", "s", lambda L: L.fact("op_s")),
    ("bench.trace_overhead_ratio", "ratio",
     lambda L: L.fact("trace_overhead_ratio")),
    ("bench.tick_inflation", "ratio", lambda L: L.fact("tick_inflation")),
    ("modeled_s", "s", lambda L: L.fact("modeled_s")),
    ("fail_ratio", "ratio", lambda L: L.fact("fail_ratio")),
]


def evaluate(layers: Layers) -> dict:
    """name -> {'value': number | None, 'unit': unit}."""
    out = {}
    for name, unit, value in PER_LAYER:
        try:
            number = value(layers)
        except Missing:
            number = None
        out[name] = {"value": number, "unit": unit}
    return out


def percentile(ordered: list, q: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
