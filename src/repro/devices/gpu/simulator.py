"""The SIMT GPU simulator.

Executes GPU kernel artifacts *functionally* — each work-item's work is
the kernel method's bytecode, interpreted with full Lime semantics so
results are bit-identical to the CPU path — while collecting per-item
abstract cycle counts that feed the Fermi timing model in
:mod:`repro.devices.gpu.timing`.

A dedicated interpreter instance is used so GPU work never pollutes the
host CPU's cycle ledger.
"""

from __future__ import annotations

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
        per_item, items = self._execute_items(kernel.methods, zip(*columns))
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
        method = kernel.methods[0]
        items = list(array)
        if not items:
            raise DeviceError("reduce of empty array on GPU")
        before = self._interp.cycles
        acc = items[0]
        for item in items[1:]:
            acc = self._interp.call(method, [acc, item])
        elapsed = self._interp.cycles - before
        per_op = elapsed / max(len(items) - 1, 1)
        bytes_in = int(_element_bytes(kernel.param_kinds[0]) * len(items))
        timing = reduction_time(
            self.spec, len(items), per_op, bytes_in, kernel_name=kernel.name
        )
        self.kernel_log.append(timing)
        return GPUExecution(acc, timing)

    def run_filter(self, kernel: GPUKernel, items) -> GPUExecution:
        """A batch of stream elements pulled through the (possibly
        fused) filter chain, one work-item per element."""
        per_item, outputs = self._execute_items(
            kernel.methods, [(item,) for item in items]
        )
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

    # ------------------------------------------------------------------

    def _execute_items(self, methods: list, item_args):
        """Run each work-item (one argument tuple) through the method
        chain, recording the abstract cycles each lane spends."""
        per_item: list[int] = []
        outputs: list = []
        interp = self._interp
        call = interp.call
        for args in item_args:
            before = interp.cycles
            value = None
            for method in methods:
                value = call(method, args)
                args = (value,)
            per_item.append(interp.cycles - before)
            outputs.append(value)
        return per_item, outputs

    @property
    def total_kernel_time(self) -> float:
        return sum(t.kernel_s for t in self.kernel_log)
