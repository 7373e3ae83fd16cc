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

from repro.devices.fpga.rtl import Netlist
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


#: id(bundle) -> its compiled datapath. Kept beside the bundle, not on
#: it (like the stager's memo): the runtime elaborates per run, so the
#: compile happens once per bundle object, and a pickled, cached or
#: copied bundle carries no callable -- ``payload_bytes`` is unchanged.
_COMPILED: dict = {}


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
        key = id(self)
        datapath = _COMPILED.get(key)
        if datapath is None:
            datapath = _COMPILED[key] = compile_datapath(
                self.datapath, [self.param_name]
            )
            weakref.finalize(self, _COMPILED.pop, key, None)
        return datapath

    # -- elaboration ------------------------------------------------------

    def elaborate(self) -> Netlist:
        net = Netlist(self.name)
        w_in, w_out = self.in_width, self.out_width
        net.add_input("inReady", 1)
        net.add_input("inWord", w_in)
        # 1-deep input FIFO; its output register is the waveform's
        # inData, which goes high one cycle after inReady (Figure 4).
        net.add_reg("fifo_valid", 1)
        net.add_reg("inData", w_in)
        net.add_reg("read_valid", 1)
        net.add_reg("read_data", w_in)
        stages = max(self.compute_stages, 1)
        stage_names = [
            ("comp_valid" if i == 0 else f"comp{i + 1}_valid",
             "comp_data" if i == 0 else f"comp{i + 1}_data")
            for i in range(stages)
        ]
        for valid_name, data_name in stage_names:
            net.add_reg(valid_name, 1)
            net.add_reg(data_name, w_out)
        net.add_reg("out_valid", 1)
        net.add_reg("out_data", w_out)
        net.add_wire("can_issue", 1)
        net.add_wire("datapath", w_out)
        net.add_output("inAccept", 1)
        net.add_output("outReady", 1)
        net.add_output("outData", w_out)

        if self.pipelined:
            net.assign("can_issue", lambda e: e["fifo_valid"], ["fifo_valid"])
        else:
            busy_signals = (
                ["read_valid"]
                + [v for v, _ in stage_names]
                + ["out_valid"]
            )

            def issue(e, names=tuple(busy_signals)):
                busy = 0
                for name in names:
                    busy |= e[name]
                return e["fifo_valid"] & ~busy & 1

            net.assign(
                "can_issue", issue, ["fifo_valid"] + busy_signals
            )
        datapath = self.compiled_datapath()
        net.assign(
            "datapath", lambda e: datapath(e["read_data"]), ["read_data"]
        )
        net.assign(
            "inAccept",
            lambda e: (1 - e["fifo_valid"]) | e["can_issue"],
            ["fifo_valid", "can_issue"],
        )
        net.assign("outReady", lambda e: e["out_valid"], ["out_valid"])
        net.assign("outData", lambda e: e["out_data"], ["out_data"])

        net.on_clock(
            "fifo_valid",
            lambda e: e["inReady"] | (e["fifo_valid"] & (1 - e["can_issue"])),
        )
        net.on_clock(
            "inData",
            lambda e: e["inWord"] if e["inReady"] else e["inData"],
        )
        net.on_clock("read_valid", lambda e: e["can_issue"])
        net.on_clock(
            "read_data",
            lambda e: e["inData"] if e["can_issue"] else e["read_data"],
        )
        # First compute stage evaluates the (retimed) datapath; the
        # remaining stages are the retiming registers.
        net.on_clock("comp_valid", lambda e: e["read_valid"])
        net.on_clock(
            "comp_data",
            lambda e: e["datapath"] if e["read_valid"] else e["comp_data"],
        )
        for (prev_valid, prev_data), (valid_name, data_name) in zip(
            stage_names, stage_names[1:]
        ):
            net.on_clock(
                valid_name, lambda e, pv=prev_valid: e[pv]
            )
            net.on_clock(
                data_name,
                lambda e, pv=prev_valid, pd=prev_data, dn=data_name: (
                    e[pd] if e[pv] else e[dn]
                ),
            )
        last_valid, last_data = stage_names[-1]
        net.on_clock("out_valid", lambda e, lv=last_valid: e[lv])
        net.on_clock(
            "out_data",
            lambda e, lv=last_valid, ld=last_data: (
                e[ld] if e[lv] else e["out_data"]
            ),
        )
        return net

    # -- Verilog text -----------------------------------------------------

    def verilog(self) -> str:
        w_in, w_out = self.in_width, self.out_width
        signed_in = " signed" if _signed(self.in_type) else ""
        signed_out = " signed" if _signed(self.out_type) else ""
        stages = max(self.compute_stages, 1)
        stage_names = [
            ("comp_valid" if i == 0 else f"comp{i + 1}_valid",
             "comp_data" if i == 0 else f"comp{i + 1}_data")
            for i in range(stages)
        ]
        busy = " | ".join(
            ["read_valid"] + [v for v, _ in stage_names] + ["out_valid"]
        )
        issue = (
            "fifo_valid"
            if self.pipelined
            else f"fifo_valid & ~({busy})"
        )
        expr_text = verilog_expr(self.datapath, {self.param_name: "read_data"})
        stage_decls = "\n".join(
            f"    reg {valid};\n"
            f"    reg{signed_out} [{w_out - 1}:0] {data};"
            for valid, data in stage_names
        )
        stage_resets = "\n".join(
            f"            {valid} <= 1'b0;" for valid, _ in stage_names
        )
        shift_lines = []
        for (pv, pd), (valid, data) in zip(stage_names, stage_names[1:]):
            shift_lines.append(f"            {valid} <= {pv};")
            shift_lines.append(f"            if ({pv}) {data} <= {pd};")
        shifts = "\n".join(shift_lines)
        last_valid, last_data = stage_names[-1]
        return f"""// generated by the Liquid Metal FPGA backend
// methods: {', '.join(self.methods)}
// initiation interval: {1 if self.pipelined else 2 + stages}
// compute stages (retiming): {stages}
module {self.name} (
    input  wire clk,
    input  wire rst,
    input  wire inReady,
    input  wire{signed_in} [{w_in - 1}:0] inWord,
    output wire inAccept,
    output wire outReady,
    output wire{signed_out} [{w_out - 1}:0] outData
);
    // 1-deep input FIFO: produces its value on the next rising edge
    reg fifo_valid;
    reg{signed_in} [{w_in - 1}:0] inData;
    // read -> compute x{stages} -> publish stages (one cycle each)
    reg read_valid;
    reg{signed_in} [{w_in - 1}:0] read_data;
{stage_decls}
    reg out_valid;
    reg{signed_out} [{w_out - 1}:0] out_data;

    wire can_issue = {issue};
    wire{signed_out} [{w_out - 1}:0] datapath = {expr_text};

    assign inAccept = ~fifo_valid | can_issue;
    assign outReady = out_valid;
    assign outData  = out_data;

    always @(posedge clk) begin
        if (rst) begin
            fifo_valid <= 1'b0;
            read_valid <= 1'b0;
{stage_resets}
            out_valid  <= 1'b0;
        end else begin
            if (inReady) inData <= inWord;
            fifo_valid <= inReady | (fifo_valid & ~can_issue);
            read_valid <= can_issue;
            if (can_issue) read_data <= inData;
            comp_valid <= read_valid;
            if (read_valid) comp_data <= datapath;
{shifts}
            out_valid <= {last_valid};
            if ({last_valid}) out_data <= {last_data};
        end
    end
endmodule
"""


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
