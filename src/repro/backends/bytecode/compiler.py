"""The CPU backend: compiles the *entire* IR module to stack bytecode.

Section 2 (introduction): "the CPU compiler always compiles the entire
program, guaranteeing that every node has at least one implementation."
"""

from __future__ import annotations

from repro.backends import common
from repro.backends.bytecode import isa
from repro.values import default_value as values_default
from repro.errors import BackendError
from repro.ir import nodes as ir
from repro.lime import types as ty


def _typename(type_) -> str:
    if isinstance(type_, ty.PrimType):
        return type_.name
    if isinstance(type_, ty.StringType):
        return "String"
    return "ref"


class FunctionCompiler:
    def __init__(self, function: ir.IRFunction, module: ir.IRModule):
        self.function = function
        self.module = module
        self.code: list = []
        self.slots: dict[str, int] = {}
        for param in function.params:
            self.slots[param.name] = len(self.slots)
        # (break_patches, continue_target_or_patches) per enclosing loop
        self._loops: list = []

    # -- emission helpers ---------------------------------------------------

    def emit(self, op: str, operand=None) -> int:
        self.code.append((op, operand))
        return len(self.code) - 1

    def _placeholder(self, op: str) -> int:
        return self.emit(op, -1)

    def _patch(self, index: int, target: int) -> None:
        op, _ = self.code[index]
        self.code[index] = (op, target)

    def _here(self) -> int:
        return len(self.code)

    def _slot(self, name: str) -> int:
        if name not in self.slots:
            self.slots[name] = len(self.slots)
        return self.slots[name]

    # -- compilation --------------------------------------------------------

    def compile(self) -> isa.CompiledFunction:
        for stmt in self.function.body:
            self._stmt(stmt)
        # Implicit return for void functions / constructors.
        if not self.code or self.code[-1][0] not in (isa.RET, isa.RETV):
            self.emit(isa.RET)
        result = (
            "void" if self.function.is_constructor
            else str(self.function.return_type)
        )
        return isa.CompiledFunction(
            qualified_name=self.function.qualified_name,
            code=self.code,
            signature=tuple(
                str(param.type) for param in self.function.params
            ) + (result,),
            num_locals=len(self.slots),
            is_constructor=self.function.is_constructor,
            class_name=self.function.class_name,
        )

    def _stmt(self, stmt: ir.IRStmt) -> None:
        if isinstance(stmt, ir.SLet):
            self._expr(stmt.init)
            self.emit(isa.STORE, self._slot(stmt.name))
        elif isinstance(stmt, ir.SAssignLocal):
            self._expr(stmt.value)
            self.emit(isa.STORE, self._slot(stmt.name))
        elif isinstance(stmt, ir.SArrayStore):
            self._expr(stmt.array)
            self._expr(stmt.index)
            self._expr(stmt.value)
            self.emit(isa.ASTORE)
        elif isinstance(stmt, ir.SFieldStore):
            self._expr(stmt.receiver)
            self._expr(stmt.value)
            self.emit(isa.PUTFIELD, stmt.field_name)
        elif isinstance(stmt, ir.SStaticStore):
            self._expr(stmt.value)
            self.emit(isa.PUTSTATIC, (stmt.class_name, stmt.field_name))
        elif isinstance(stmt, ir.SIf):
            self._expr(stmt.cond)
            to_else = self._placeholder(isa.JZ)
            for s in stmt.then:
                self._stmt(s)
            if stmt.other:
                to_end = self._placeholder(isa.JMP)
                self._patch(to_else, self._here())
                for s in stmt.other:
                    self._stmt(s)
                self._patch(to_end, self._here())
            else:
                self._patch(to_else, self._here())
        elif isinstance(stmt, ir.SWhile):
            top = self._here()
            self._expr(stmt.cond)
            to_end = self._placeholder(isa.JZ)
            breaks: list = []
            self._loops.append((breaks, top))
            for s in stmt.body:
                self._stmt(s)
            self._loops.pop()
            self.emit(isa.JMP, top)
            end = self._here()
            self._patch(to_end, end)
            for b in breaks:
                self._patch(b, end)
        elif isinstance(stmt, ir.SFor):
            self._compile_for(stmt)
        elif isinstance(stmt, ir.SBreak):
            if not self._loops:
                raise BackendError("break outside loop in IR")
            self._loops[-1][0].append(self._placeholder(isa.JMP))
        elif isinstance(stmt, ir.SContinue):
            if not self._loops:
                raise BackendError("continue outside loop in IR")
            target = self._loops[-1][1]
            if isinstance(target, tuple) and target[0] == "patch":
                # For loops: the update block is not emitted yet, so
                # record a placeholder to patch later.
                target[1].append(self._placeholder(isa.JMP))
            else:
                self.emit(isa.JMP, target)
        elif isinstance(stmt, ir.SReturn):
            if stmt.value is not None:
                self._expr(stmt.value)
                self.emit(isa.RETV)
            else:
                self.emit(isa.RET)
        elif isinstance(stmt, ir.SExpr):
            self._expr(stmt.expr)
            if stmt.expr.type != ty.VOID:
                self.emit(isa.POP)
        elif isinstance(stmt, ir.SGraphStart):
            self._expr(stmt.graph)
            self.emit(isa.GRAPH_START, (stmt.blocking, stmt.graph_id))
        else:
            raise BackendError(f"cannot compile statement {stmt!r}")

    def _compile_for(self, stmt: ir.SFor) -> None:
        var = self._slot(stmt.var)
        self._expr(stmt.start)
        self.emit(isa.STORE, var)
        top = self._here()
        self.emit(isa.LOAD, var)
        self._expr(stmt.limit)
        self.emit(isa.BINOP, ("<", "int"))
        to_end = self._placeholder(isa.JZ)
        breaks: list = []
        # 'continue' must jump to the update block, which is not emitted
        # yet; SContinue records placeholders into this patch list.
        continue_patches: list = []
        self._loops.append((breaks, ("patch", continue_patches)))
        for s in stmt.body:
            self._stmt(s)
        self._loops.pop()
        update = self._here()
        for c in continue_patches:
            self._patch(c, update)
        self.emit(isa.LOAD, var)
        self._expr(stmt.step)
        self.emit(isa.BINOP, ("+", "int"))
        self.emit(isa.STORE, var)
        self.emit(isa.JMP, top)
        end = self._here()
        self._patch(to_end, end)
        for b in breaks:
            self._patch(b, end)

    # -- expressions --------------------------------------------------------

    def _expr(self, expr: ir.IRExpr) -> None:
        if isinstance(expr, ir.EConst):
            self.emit(isa.CONST, expr.value)
        elif isinstance(expr, ir.ELocal):
            self.emit(isa.LOAD, self._slot(expr.name))
        elif isinstance(expr, ir.EThis):
            self.emit(isa.LOAD, self._slot("this"))
        elif isinstance(expr, ir.EBinary):
            self._binary(expr)
        elif isinstance(expr, ir.EUnary):
            self._expr(expr.operand)
            self.emit(isa.UNOP, (expr.op, _typename(expr.type)))
        elif isinstance(expr, ir.ETernary):
            self._expr(expr.cond)
            to_else = self._placeholder(isa.JZ)
            self._expr(expr.then)
            to_end = self._placeholder(isa.JMP)
            self._patch(to_else, self._here())
            self._expr(expr.other)
            self._patch(to_end, self._here())
        elif isinstance(expr, ir.ECast):
            self._expr(expr.operand)
            self.emit(isa.CAST, _typename(expr.type))
        elif isinstance(expr, ir.EIndex):
            self._expr(expr.array)
            self._expr(expr.index)
            self.emit(isa.ALOAD)
        elif isinstance(expr, ir.ELength):
            self._expr(expr.array)
            self.emit(isa.LEN)
        elif isinstance(expr, ir.ECall):
            for arg in expr.args:
                self._expr(arg)
            self.emit(
                isa.CALL,
                (expr.callee, len(expr.args), expr.type != ty.VOID),
            )
        elif isinstance(expr, ir.EIntrinsic):
            for arg in expr.args:
                self._expr(arg)
            self.emit(
                isa.INTRINSIC,
                (expr.name, len(expr.args), _typename(expr.type)),
            )
        elif isinstance(expr, ir.ENewArray):
            self._expr(expr.length)
            element = expr.type.element
            self.emit(isa.NEWARRAY, element.kind())
        elif isinstance(expr, ir.EFreeze):
            self._expr(expr.operand)
            self.emit(isa.FREEZE)
        elif isinstance(expr, ir.ENewObject):
            self.emit(isa.NEWOBJ, expr.class_name)
            self.emit(isa.DUP)
            for arg in expr.args:
                self._expr(arg)
            self.emit(isa.CALL, (expr.ctor, len(expr.args) + 1, False))
            meta = self.module.classes[expr.class_name]
            if meta.is_value:
                self.emit(isa.FREEZEOBJ)
        elif isinstance(expr, ir.EFieldLoad):
            self._expr(expr.receiver)
            self.emit(isa.GETFIELD, expr.field_name)
        elif isinstance(expr, ir.EStaticLoad):
            self.emit(isa.GETSTATIC, (expr.class_name, expr.field_name))
        elif isinstance(expr, ir.EMap):
            for arg in expr.args:
                self._expr(arg)
            self.emit(
                isa.MAP,
                (
                    expr.method,
                    len(expr.args),
                    expr.type.element.kind(),
                    tuple(expr.broadcast) or (False,) * len(expr.args),
                ),
            )
        elif isinstance(expr, ir.EReduce):
            self._expr(expr.args[0])
            self.emit(isa.REDUCE, expr.method)
        elif isinstance(expr, ir.EGraphSource):
            self._expr(expr.array)
            self.emit(
                isa.MKSOURCE,
                (expr.rate, getattr(expr, "task_id", None)),
            )
        elif isinstance(expr, ir.EGraphSink):
            self._expr(expr.array)
            self.emit(isa.MKSINK, getattr(expr, "task_id", None))
        elif isinstance(expr, ir.EGraphTask):
            has_instance = expr.instance is not None
            if has_instance:
                self._expr(expr.instance)
            self.emit(
                isa.MKTASK,
                (
                    expr.method,
                    getattr(expr, "task_id", None),
                    expr.arity,
                    expr.relocatable,
                    has_instance,
                ),
            )
        elif isinstance(expr, ir.EGraphConnect):
            self._expr(expr.left)
            self._expr(expr.right)
            self.emit(isa.CONNECT)
        else:
            raise BackendError(f"cannot compile expression {expr!r}")

    def _binary(self, expr: ir.EBinary) -> None:
        if expr.op == "&&":
            self._expr(expr.left)
            self.emit(isa.DUP)
            to_end = self._placeholder(isa.JZ)
            self.emit(isa.POP)
            self._expr(expr.right)
            self._patch(to_end, self._here())
            return
        if expr.op == "||":
            self._expr(expr.left)
            self.emit(isa.DUP)
            to_end = self._placeholder(isa.JNZ)
            self.emit(isa.POP)
            self._expr(expr.right)
            self._patch(to_end, self._here())
            return
        self._expr(expr.left)
        self._expr(expr.right)
        # Comparisons need the *operand* width only for documentation;
        # arithmetic needs the result type for wrapping.
        self.emit(isa.BINOP, (expr.op, _typename(expr.type)))


def compile_module(module: ir.IRModule) -> isa.BytecodeProgram:
    """Compile every function (plus class initializers) to bytecode."""
    functions: dict[str, isa.CompiledFunction] = {}
    classes: dict[str, isa.ClassMeta] = {}
    clinit_order: list = []
    for name, cls in module.classes.items():
        defaults = {}
        for field_name, field_type in cls.static_types.items():
            try:
                defaults[field_name] = values_default(field_type.kind())
            except ValueError:
                defaults[field_name] = None
        classes[name] = isa.ClassMeta(
            name=name,
            is_value=cls.is_value,
            is_enum=cls.is_enum,
            enum_constants=list(cls.enum_constants),
            field_names=list(cls.field_names),
            static_defaults=defaults,
        )
        if cls.static_fields:
            clinit = _compile_clinit(name, cls, module)
            functions[clinit.qualified_name] = clinit
            clinit_order.append(clinit.qualified_name)
    for qualified, function in module.functions.items():
        functions[qualified] = FunctionCompiler(function, module).compile()
    return isa.BytecodeProgram(
        functions=functions, classes=classes, clinit_order=clinit_order
    )


def _compile_clinit(
    class_name: str, cls: ir.IRClass, module: ir.IRModule
) -> isa.CompiledFunction:
    synthetic = ir.IRFunction(
        qualified_name=f"{class_name}.<clinit>",
        params=[],
        return_type=ty.VOID,
        body=[],
        class_name=class_name,
    )
    compiler = FunctionCompiler(synthetic, module)
    for field_name, init in cls.static_fields.items():
        if init is None:
            continue
        compiler._expr(init)
        compiler.emit(isa.PUTSTATIC, (class_name, field_name))
    compiler.emit(isa.RET)
    return isa.CompiledFunction(
        qualified_name=synthetic.qualified_name,
        code=compiler.code,
        signature=("void",),
        num_locals=len(compiler.slots),
        class_name=class_name,
    )


def make_cpu_artifact(module: ir.IRModule) -> common.Artifact:
    """Compile and wrap the whole program as the CPU artifact. Its
    manifest lists *every* task id so substitution always has a
    bytecode fallback."""
    program = compile_module(module)
    task_ids = [
        stage.task_id
        for graph in module.task_graphs
        for stage in graph.stages
    ]
    manifest = common.Manifest(
        artifact_id="bytecode:program",
        device=common.BYTECODE,
        task_ids=task_ids,
        source_language="java-bytecode",
    )
    return common.Artifact(manifest=manifest, payload=program)
