"""The SIMT GPU simulator.

Executes GPU kernel artifacts *functionally* — each work-item's work is
the kernel method's bytecode, interpreted with full Lime semantics so
results are bit-identical to the CPU path — while collecting per-item
abstract cycle counts that feed the Fermi timing model in
:mod:`repro.devices.gpu.timing`. A kernel run is one
``Interpreter.launch``: a staged loop over the work-items.

A dedicated interpreter instance is used so GPU work never pollutes the
host CPU's cycle ledger.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import repeat

from repro.backends.bytecode.interpreter import Interpreter
from repro.backends.bytecode.isa import BytecodeProgram
from repro.backends.opencl.compiler import GPUKernel
from repro.devices.gpu.timing import (
    GPUSpec,
    GTX580,
    GPUTiming,
    data_parallel_time,
    reduction_time,
)
from repro.errors import DeviceError
from repro.values import ValueArray
from repro.values.base import Kind


def _element_bytes(kind: Kind) -> float:
    """Bytes per element in the device's dense layout."""
    if kind.name == "bit":
        return 0.125
    return kind.wire_bits() / 8


@dataclass
class GPUExecution:
    """Result of one kernel run: output values plus timing."""

    outputs: object
    timing: GPUTiming
    per_item_cycles: list = field(default_factory=list)


class GPUSimulator:
    """One simulated GPU device executing compiled kernel artifacts."""

    def __init__(self, program: BytecodeProgram, spec: GPUSpec = GTX580):
        self.spec = spec
        # Private interpreter: functional execution engine for kernels.
        self._interp = Interpreter(program)
        self._lock = threading.Lock()
        self.kernel_log: list[GPUTiming] = []

    # ------------------------------------------------------------------

    def run(self, kernel: GPUKernel, inputs: list) -> GPUExecution:
        """Dispatch on kernel kind. ``inputs`` is a list of ValueArray
        (map: one per parameter; reduce/filter: exactly one)."""
        if kernel.kind == "map":
            return self.run_map(kernel, inputs)
        if kernel.kind == "reduce":
            return self.run_reduce(kernel, inputs[0])
        if kernel.kind == "filter":
            return self.run_filter(kernel, inputs[0])
        raise DeviceError(f"unknown kernel kind {kernel.kind!r}")

    def run_map(self, kernel: GPUKernel, args: list) -> GPUExecution:
        broadcast = kernel.properties.get(
            "broadcast", (False,) * len(args)
        )
        mapped = [a for a, b in zip(args, broadcast) if not b]
        lengths = {len(a) for a in mapped}
        if len(lengths) != 1:
            raise DeviceError("map kernel inputs must have equal lengths")
        n = lengths.pop()
        columns = [
            repeat(arg, n) if is_broadcast else arg
            for arg, is_broadcast in zip(args, broadcast)
        ]
        per_item: list = []
        items, _ = self._launch("map", kernel.methods, zip(*columns), per_item)
        outputs = ValueArray(kernel.result_kind, items)
        bytes_in = 0.0
        for kind, arg, is_broadcast in zip(
            kernel.param_kinds, args, broadcast
        ):
            if is_broadcast and kind.is_array:
                # Whole operand array: read once (cached across items).
                bytes_in += _element_bytes(kind.element) * len(arg)
            elif not is_broadcast:
                bytes_in += _element_bytes(kind) * n
        bytes_out = _element_bytes(kernel.result_kind) * n
        timing = data_parallel_time(
            self.spec,
            per_item,
            int(bytes_in),
            int(bytes_out),
            coalesced=True,
            kernel_name=kernel.name,
        )
        self.kernel_log.append(timing)
        return GPUExecution(outputs, timing, per_item)

    def run_reduce(self, kernel: GPUKernel, array) -> GPUExecution:
        n = len(array)
        if not n:
            raise DeviceError("reduce of empty array on GPU")
        acc, elapsed = self._launch("reduce", kernel.methods[:1], array)
        per_op = elapsed / max(n - 1, 1)
        bytes_in = int(_element_bytes(kernel.param_kinds[0]) * n)
        timing = reduction_time(
            self.spec, n, per_op, bytes_in, kernel_name=kernel.name
        )
        self.kernel_log.append(timing)
        return GPUExecution(acc, timing)

    def run_filter(self, kernel: GPUKernel, items) -> GPUExecution:
        """A batch of stream elements pulled through the (possibly
        fused) filter chain, one work-item per element."""
        per_item: list = []
        outputs, _ = self._launch("filter", kernel.methods, items, per_item)
        bytes_in = int(_element_bytes(kernel.param_kinds[0]) * len(outputs))
        bytes_out = int(_element_bytes(kernel.result_kind) * len(outputs))
        timing = data_parallel_time(
            self.spec,
            per_item or [0],
            bytes_in,
            bytes_out,
            coalesced=True,
            kernel_name=kernel.name,
        )
        self.kernel_log.append(timing)
        return GPUExecution(outputs, timing, per_item)

    def _launch(self, kind: str, methods, items, per_item=None):
        """One ``Interpreter.launch`` on the private interpreter and the
        cycles it took. One launch at a time: device stages on scheduler
        threads share this simulator, and a launch's cycle counts (the
        timing model's input) must be its own."""
        interp = self._interp
        with self._lock:
            before = interp.cycles
            result = interp.launch(kind, methods, items, per_item)
            return result, interp.cycles - before

    @property
    def total_kernel_time(self) -> float:
        return sum(t.kernel_s for t in self.kernel_log)
