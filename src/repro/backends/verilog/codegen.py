"""Verilog generation and RTL elaboration for filter modules.

Every generated module implements the handshake of the paper's
Figure 4: the host asserts ``inReady`` with a word on ``inWord``; a
1-deep input FIFO presents the word on ``inData`` one cycle later; the
datapath then takes one cycle to read, one to compute, and one to
publish, asserting ``outReady`` with the result on ``outData``. By
default the module is *not* fully pipelined (initiation interval 3),
exactly as the paper describes its generated logic; ``pipelined=True``
generates the II=1 variant used by the pipelining ablation bench.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.devices.fpga.rtl import Assign, Module, Netlist, Signal, Update
from repro.devices.fpga.synthesis import SynthesisReport, estimate, width_of
from repro.errors import BackendError
from repro.ir import nodes as ir
from repro.ir import ops
from repro.lime import types as ty
from repro.values.bits import Bit
from repro.values.enums import EnumValue


def mangle(qualified: str) -> str:
    return qualified.replace(".", "_").replace("~", "invert")


def _signed(type_) -> bool:
    return isinstance(type_, ty.PrimType) and type_.name in ("int", "long")


# ---------------------------------------------------------------------------
# Verilog expression text
# ---------------------------------------------------------------------------


def verilog_expr(expr: ir.IRExpr, param_map: dict) -> str:
    """Render a datapath expression DAG as Verilog."""
    if isinstance(expr, ir.EConst):
        return _verilog_const(expr)
    if isinstance(expr, ir.ELocal):
        return param_map[expr.name]
    if isinstance(expr, ir.EBinary):
        left = verilog_expr(expr.left, param_map)
        right = verilog_expr(expr.right, param_map)
        if expr.op in ("<<", ">>"):
            # Java takes the amount modulo the width of the shifted
            # type; a Verilog shift by the width or more gives 0.
            mask = ops.shift_mask(expr.type.name)
            amount = expr.right
            if not isinstance(amount, ir.EConst):
                right = f"({right} & {mask})"
            elif amount.value & mask != amount.value:
                right = _verilog_const(
                    ir.EConst(amount.type, amount.value & mask)
                )
        return f"({left} {expr.op} {right})"
    if isinstance(expr, ir.EUnary):
        operand = verilog_expr(expr.operand, param_map)
        op = {"!": "!", "~": "~", "-": "-"}[expr.op]
        return f"({op}{operand})"
    if isinstance(expr, ir.ETernary):
        return (
            f"({verilog_expr(expr.cond, param_map)} ? "
            f"{verilog_expr(expr.then, param_map)} : "
            f"{verilog_expr(expr.other, param_map)})"
        )
    if isinstance(expr, ir.ECast):
        width = width_of(expr.type)
        inner = verilog_expr(expr.operand, param_map)
        return f"({width}'(({inner})))" if width > 1 else f"({inner}[0])"
    if isinstance(expr, ir.EIntrinsic) and expr.name == "bit.~":
        return f"(~{verilog_expr(expr.args[0], param_map)})"
    raise BackendError(
        f"cannot render {type(expr).__name__} as Verilog"
    )


def _verilog_const(expr: ir.EConst) -> str:
    value = expr.value
    if isinstance(value, Bit):
        return f"1'b{int(value)}"
    if isinstance(value, bool):
        return f"1'b{int(value)}"
    if isinstance(value, EnumValue):
        return f"8'd{value.ordinal}"
    if isinstance(value, int):
        width = width_of(expr.type)
        if value < 0:
            return f"-{width}'sd{-value}"
        suffix = "sd" if _signed(expr.type) else "d"
        return f"{width}'{suffix}{value}"
    raise BackendError(f"constant {value!r} has no Verilog form")


# ---------------------------------------------------------------------------
# Python evaluation of the datapath (for the cycle simulator)
# ---------------------------------------------------------------------------


def compile_datapath(expr: ir.IRExpr, params: list):
    """Compile the datapath DAG to one Python function of ``params``
    (positional; each an int or the unsigned register word holding
    one), over Python ints: bits and booleans as 0/1, enums as ordinals.

    The DAG is walked once by node identity in post-order and every
    operator node becomes one ``tN = ...`` line holding the
    :mod:`repro.ir.ops` template of that operator, ``exec``'d with
    ``ops.NAMESPACE`` as globals -- the splice the bytecode stager
    does, so the simulated hardware computes what the interpreter
    computes. Only hardware *encodings* are decided here: constants,
    one-bit ``~`` and casts, and a divider that has no trap."""
    lines: list = []
    atoms: dict = {}  # id(node) -> the literal or tN holding its value

    def emit(value: str) -> str:
        lines.append(f"    t{len(lines)} = {value}")
        return f"t{len(lines) - 1}"

    def atom(node: ir.IRExpr) -> str:
        text = atoms.get(id(node))
        if text is None:
            if isinstance(node, ir.EConst):
                text = _python_const(node)
            elif isinstance(node, ir.ELocal):
                text = f"p{params.index(node.name)}"
                if _signed(node.type):  # a register word is unsigned
                    text = emit(ops.cast_expr(node.type.name, text))
            else:
                text = emit(operation(node))
            atoms[id(node)] = text
        return text

    def operation(node: ir.IRExpr) -> str:
        one_bit = node.type in (ty.BIT, ty.BOOLEAN)
        if isinstance(node, ir.EBinary):
            typename = node.type.name
            left, right = atom(node.left), atom(node.right)
            text = ops.binary_expr(node.op, typename, left, right)
            if ops.binary_can_raise(node.op, typename):
                # The one deviation from bytecode, which raises: a
                # hardware divider does not trap, x / 0 and x % 0 are 0.
                text = f"({text} if {right} else 0)"
            return text
        if isinstance(node, ir.EUnary):
            operand = atom(node.operand)
            if node.op == "~" and one_bit:
                return f"({operand} ^ 1)"
            return ops.unary_expr(node.op, node.type.name, operand)
        if isinstance(node, ir.ETernary):
            cond = atom(node.cond)  # a mux: both arms are computed
            return f"({atom(node.then)} if {cond} else {atom(node.other)})"
        if isinstance(node, ir.ECast):
            operand = atom(node.operand)
            if one_bit:
                return f"({operand} & 1)"
            return ops.cast_expr(node.type.name, operand)
        if isinstance(node, ir.EIntrinsic) and node.name == "bit.~":
            return f"({atom(node.args[0])} ^ 1)"
        raise BackendError(f"cannot evaluate {type(node).__name__}")

    result = atom(expr)
    arguments = ", ".join(f"p{i}" for i in range(len(params)))
    source = "\n".join(
        [f"def datapath({arguments}):", *lines, f"    return {result}"]
    )
    scope: dict = {}
    exec(source, ops.NAMESPACE, scope)  # text built from ops templates
    return scope["datapath"]


def _python_const(expr: ir.EConst) -> str:
    value = expr.value
    if isinstance(value, EnumValue):
        return str(value.ordinal)
    if isinstance(value, (Bit, bool, int)):
        return f"({int(value)})"
    raise BackendError(f"constant {value!r} has no hardware encoding")


#: id(bundle) -> its compiled datapath, and id(bundle) -> its netlist.
#: Kept beside the bundle, not on it (like the stager's memo): the
#: runtime elaborates per run, so each compile happens once per bundle
#: object, and a pickled, cached or copied bundle carries no callable --
#: ``payload_bytes`` is unchanged.
_COMPILED: dict = {}
_NETLISTS: dict = {}


def _beside(memo: dict, bundle, make):
    """``memo``'s value for ``bundle``, made on first use and dropped
    with the bundle."""
    key = id(bundle)
    value = memo.get(key)
    if value is None:
        value = memo[key] = make()
        weakref.finalize(bundle, memo.pop, key, None)
    return value


# ---------------------------------------------------------------------------
# Module generation
# ---------------------------------------------------------------------------


@dataclass
class FPGAModuleBundle:
    """Payload of one FPGA artifact: everything needed to simulate and
    to inspect the generated hardware."""

    name: str
    methods: list
    datapath: ir.IRExpr
    param_name: str
    in_type: object
    out_type: object
    in_kind: object
    out_kind: object
    pipelined: bool
    synthesis: SynthesisReport
    # Retiming: number of register-separated compute stages the
    # datapath is cut into (1 = the Figure 4 single-cycle compute).
    compute_stages: int = 1

    @property
    def in_width(self) -> int:
        return width_of(self.in_type)

    @property
    def out_width(self) -> int:
        return width_of(self.out_type)

    # -- value <-> wire conversions (the device boundary) ---------------

    def encode(self, value) -> int:
        if isinstance(value, Bit):
            return int(value)
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, EnumValue):
            return value.ordinal
        return int(value)

    def decode(self, raw: int):
        out = self.out_type
        if out == ty.BIT:
            return Bit(raw & 1)
        if out == ty.BOOLEAN:
            return bool(raw & 1)
        if isinstance(out, ty.ClassType) and out.is_enum:
            return EnumValue(out.name, raw, out.enum_size)
        return ops.apply_cast(raw, out.name)  # the word as a signed int

    def compiled_datapath(self):
        """The datapath as a Python function of the input word."""
        return _beside(
            _COMPILED, self,
            lambda: compile_datapath(self.datapath, [self.param_name]),
        )

    def elaborate(self) -> Netlist:
        """The module compiled for the cycle simulator, once per bundle."""
        return _beside(
            _NETLISTS, self,
            lambda: Netlist(self.rtl(), self.compiled_datapath()),
        )

    # -- the hardware -----------------------------------------------------

    def rtl(self) -> Module:
        """The module's one description: the Verilog text, the simulated
        netlist and the testbench's ports all derive from it.

        The handshake of Figure 4: a 1-deep input FIFO whose output
        register is the waveform's inData (high one cycle after
        inReady), then read, compute (retimed into ``compute_stages``
        register-separated stages; the first evaluates the datapath) and
        publish, one cycle each."""
        stages = max(self.compute_stages, 1)

        def word(name, type_, kind="reg"):
            return Signal(name, width_of(type_), kind, _signed(type_), True)

        def valid(name, comment=""):
            return Signal(name, 1, "reg", comment=comment)

        def stage(valid_reg, data_reg, prev_valid, prev_data):
            return (
                Update(valid_reg, prev_valid, reset=0),
                Update(data_reg, prev_data, enable=prev_valid),
            )

        chain = [("comp_valid", "comp_data")] + [
            (f"comp{i}_valid", f"comp{i}_data") for i in range(2, stages + 1)
        ]
        signals = (
            Signal("inReady", 1, "input"),
            word("inWord", self.in_type, "input"),
            valid("fifo_valid", "1-deep input FIFO: produces its value on "
                                "the next rising edge"),
            word("inData", self.in_type),
            valid("read_valid", f"read -> compute x{stages} -> publish "
                                "stages (one cycle each)"),
            word("read_data", self.in_type),
            *[s for v, d in chain for s in (valid(v), word(d, self.out_type))],
            valid("out_valid"),
            word("out_data", self.out_type),
            Signal("can_issue", 1),
            word("datapath", self.out_type, "wire"),
            Signal("inAccept", 1, "output"),
            Signal("outReady", 1, "output"),
            word("outData", self.out_type, "output"),
        )
        busy = ("|", "read_valid", *[v for v, _ in chain], "out_valid")
        assigns = (
            Assign("can_issue", "fifo_valid" if self.pipelined
                   else ("&", "fifo_valid", ("~", busy))),
            Assign("datapath", ("datapath", "read_data")),
            Assign("inAccept", ("|", ("~", "fifo_valid"), "can_issue")),
            Assign("outReady", "out_valid"),
            Assign("outData", "out_data"),
        )
        fifo = ("|", "inReady", ("&", "fifo_valid", ("~", "can_issue")))
        updates = (
            (
                Update("inData", "inWord", enable="inReady"),
                Update("fifo_valid", fifo, reset=0),
                *stage("read_valid", "read_data", "can_issue", "inData"),
                *stage(*chain[0], "read_valid", "datapath"),
            ),
            tuple(  # the retiming registers
                update
                for prev, this in zip(chain, chain[1:])
                for update in stage(*this, *prev)
            ),
            stage("out_valid", "out_data", *chain[-1]),
        )
        return Module(self.name, signals, assigns, updates)

    def verilog(self) -> str:
        stages = max(self.compute_stages, 1)
        header = (
            "// generated by the Liquid Metal FPGA backend\n"
            f"// methods: {', '.join(self.methods)}\n"
            f"// initiation interval: {1 if self.pipelined else 2 + stages}\n"
            f"// compute stages (retiming): {stages}\n"
        )
        return header + verilog_module(
            self.rtl(),
            lambda names: verilog_expr(
                self.datapath, {self.param_name: names[0]}
            ),
        )


def verilog_module(module: Module, datapath) -> str:
    """``module`` as Verilog text; ``datapath(names)`` renders its
    datapath leaf over the signals ``names``."""
    drives = {assign.target: assign.expr for assign in module.assigns}
    signals = {signal.name: signal for signal in module.signals}

    def text(expr, nested=False) -> str:
        if isinstance(expr, str):
            return expr
        op, *operands = expr
        if op == "datapath":
            return datapath(operands)
        if op == "~":
            return "~" + text(operands[0], nested=True)
        joined = f" {op} ".join(text(x, nested=True) for x in operands)
        return f"({joined})" if nested else joined

    def declare(signal) -> str:
        signed = " signed" if signal.signed else ""
        return f"{signed}{bit_range(signal)} {signal.name}"

    def clocked(update) -> str:
        line = f"{update.target} <= {text(update.expr)};"
        if update.enable is not None:
            line = f"if ({text(update.enable)}) {line}"
        return " " * 12 + line

    lines = [
        f"module {module.name} (",
        "    input  wire clk,",
        "    input  wire rst,",
        ",\n".join(f"    {s.kind:<6} wire{declare(s)}" for s in module.ports),
        ");",
    ]
    for kind in ("reg", "wire"):
        for s in module.signals:
            if s.kind == kind:
                lines += [f"    // {s.comment}"] if s.comment else []
                lines.append(f"    {kind}{declare(s)}" + (
                    f" = {text(drives[s.name])};" if kind == "wire" else ";"
                ))
        lines.append("")
    # Each run of aligned lines is aligned on its first target.
    outputs = [s.name for s in module.ports if s.kind == "output"]
    lines += [
        f"    assign {name:<{len(outputs[0])}} = {text(drives[name])};"
        for name in outputs
    ]
    updates = [update for block in module.updates for update in block]
    resets = [u for u in updates if u.reset is not None]
    lines += ["", "    always @(posedge clk) begin", "        if (rst) begin"]
    lines += [
        f"            {u.target:<{len(resets[0].target)}} <= "
        f"{literal(signals[u.target], u.reset)};"
        for u in resets
    ]
    lines.append("        end else begin")
    lines += ["\n".join(map(clocked, block)) for block in module.updates]
    lines += ["        end", "    end", "endmodule", ""]
    return "\n".join(lines)


def bit_range(signal: Signal) -> str:
    """A data word's bit range; a one-bit control signal has none."""
    if signal.vector or signal.width > 1:
        return f" [{signal.width - 1}:0]"
    return ""


def literal(signal: Signal, value: int) -> str:
    """``value`` as a Verilog literal sized for ``signal``."""
    if bit_range(signal):
        return f"{signal.width}'d{value}"
    return f"1'b{value}"


def make_bundle(
    module: ir.IRModule,
    methods: list,
    datapath: ir.IRExpr,
    pipelined: bool = False,
    max_stage_depth: "int | None" = None,
) -> FPGAModuleBundle:
    """Assemble the bundle for a (possibly fused) filter chain.

    ``max_stage_depth`` enables automatic retiming: datapaths deeper
    than that many LUT levels are cut into multiple compute stages."""
    first = module.functions[methods[0]]
    last = module.functions[methods[-1]]
    name = "mod_" + "__".join(mangle(m) for m in methods)
    in_type = first.params[0].type
    out_type = last.return_type
    report = estimate(
        name,
        datapath,
        width_of(in_type),
        width_of(out_type),
        pipelined=pipelined,
    )
    stages = 1
    if max_stage_depth is not None and report.logic_depth > max_stage_depth:
        stages = -(-report.logic_depth // max_stage_depth)
        report = estimate(
            name,
            datapath,
            width_of(in_type),
            width_of(out_type),
            pipelined=pipelined,
            compute_stages=stages,
        )
    return FPGAModuleBundle(
        name=name,
        methods=list(methods),
        datapath=datapath,
        param_name=first.params[0].name,
        in_type=in_type,
        out_type=out_type,
        in_kind=in_type.kind(),
        out_kind=out_type.kind(),
        pipelined=pipelined,
        synthesis=report,
        compute_stages=stages,
    )
