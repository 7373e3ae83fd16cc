"""Logic synthesis estimation for generated datapaths.

The paper's flow drives "FPGA-specific logic synthesis flows" after
Verilog generation (Section 5); without vendor tools we estimate the
resources (LUTs, flip-flops, BRAMs) and achievable clock (Fmax) from
the datapath expression DAG, using rule-of-thumb costs for Virtex-5
class parts (XUP V5 / Nallatech 280 era).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir import nodes as ir
from repro.lime import types as ty


def width_of(type_) -> int:
    """RTL width in bits of a Lime scalar type."""
    if isinstance(type_, ty.PrimType):
        return {
            "bit": 1,
            "boolean": 1,
            "int": 32,
            "long": 64,
        }[type_.name]
    if isinstance(type_, ty.ClassType) and type_.is_enum:
        return 8
    raise ValueError(f"no RTL width for {type_}")


@dataclass
class SynthesisReport:
    module: str
    luts: int
    flipflops: int
    brams: int
    logic_depth: int           # levels of LUTs on the critical path
    fmax_hz: float

    def __repr__(self) -> str:
        return (
            f"SynthesisReport({self.module}: {self.luts} LUT, "
            f"{self.flipflops} FF, {self.brams} BRAM, "
            f"Fmax {self.fmax_hz / 1e6:.0f}MHz)"
        )


# Per-node LUT cost as a function of operand width, and logic depth in
# LUT levels. Coarse Virtex-5 heuristics.
def _node_cost(expr: ir.IRExpr) -> "tuple[int, int]":
    width = _expr_width(expr)
    if isinstance(expr, ir.EConst):
        return 0, 0
    if isinstance(expr, ir.ELocal):
        return 0, 0
    if isinstance(expr, ir.EBinary):
        op = expr.op
        if op in ("+", "-"):
            return width, 1
        if op == "*":
            return max(1, (width * width) // 6), 3
        if op in ("/", "%"):
            return width * width, 8  # iterative divider, expensive
        if op in ("<<", ">>"):
            if isinstance(expr.right, ir.EConst):
                return 0, 0  # constant shift is pure wiring
            return width * 2, 2  # barrel shifter
        if op in ("&", "|", "^"):
            return max(1, width // 2), 1
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return max(1, width), 1
        if op in ("&&", "||"):
            return 1, 1
        return width, 1
    if isinstance(expr, ir.EUnary):
        if expr.op == "-":
            return width, 1
        return max(1, width // 2), 1
    if isinstance(expr, ir.ETernary):
        return width, 1  # a mux
    if isinstance(expr, ir.ECast):
        return 0, 0
    if isinstance(expr, ir.EIntrinsic):
        return max(1, width // 2), 1  # bit.~ and friends
    return width, 1


def _expr_width(expr: ir.IRExpr) -> int:
    try:
        return width_of(expr.type)
    except (ValueError, KeyError):
        return 32


def estimate(module_name: str, datapath: ir.IRExpr,
             in_width: int, out_width: int,
             pipelined: bool = False,
             compute_stages: int = 1) -> SynthesisReport:
    """Estimate resources for a filter module wrapping ``datapath``.

    ``compute_stages`` models retiming: the combinational path is cut
    into that many register-separated stages, dividing the critical
    path (and hence raising Fmax) at the cost of extra flip-flops."""
    luts = 0
    # DAG walk with memoization: the datapath builder shares
    # subexpressions (an unrolled CRC reuses each round's value in both
    # mux arms), and synthesis shares the corresponding logic — a naive
    # tree walk would double-count exponentially.
    memo: dict = {}

    def walk(expr: ir.IRExpr) -> int:
        nonlocal luts
        cached = memo.get(id(expr))
        if cached is not None:
            return cached
        cost, depth = _node_cost(expr)
        luts += cost
        child_depth = 0
        # Depth is a max and LUTs a sum: child order cannot matter.
        for child in ir.children(expr):
            child_depth = max(child_depth, walk(child))
        total_depth = depth + child_depth
        memo[id(expr)] = total_depth
        return total_depth

    depth = walk(datapath)
    stages = max(compute_stages, 1)
    # Handshake/pipeline registers: input, result, output, valid bits,
    # plus one data+valid register per extra compute stage.
    flipflops = in_width + 2 * out_width + 8 + (stages - 1) * (out_width + 1)
    if pipelined:
        flipflops += out_width  # skid register for II=1 operation
    brams = 1  # the input FIFO
    # Virtex-5: ~0.9ns per LUT level + 1.5ns routing/FF overhead; the
    # retimed path is depth/stages levels long.
    stage_depth = max(depth, 1) / stages
    critical_ns = stage_depth * 0.9 + 1.5
    fmax = min(1e9 / critical_ns, 450e6)
    return SynthesisReport(
        module=module_name,
        luts=max(luts, 1),
        flipflops=flipflops,
        brams=brams,
        logic_depth=max(depth, 1),
        fmax_hz=fmax,
    )
