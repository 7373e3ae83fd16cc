"""Lowering from the checked Lime AST to the function IR.

The lowerer desugars:

* compound assignment and ++/-- into explicit load/op/store,
* canonical counted ``for`` loops into :class:`SFor` (other loop shapes
  become :class:`SWhile`),
* relocation brackets into ``relocatable`` flags on the task nodes they
  enclose,
* bare field reads into explicit ``this`` accesses,
* instance field initializers into constructor prologues (a synthetic
  ``<init>`` is produced for every non-enum class).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import LoweringError
from repro.lime import ast_nodes as ast
from repro.lime import types as ty
from repro.lime.symbols import CheckedProgram, ClassInfo
from repro.ir import nodes as ir
from repro.ir.optimizations import optimize
from repro.ir.shape import discover_task_graphs
from repro.ir.verifier import verify_module
from repro.values.bits import Bit
from repro.values.arrays import ValueArray
from repro.values.enums import EnumValue


class Lowerer:
    def __init__(self, checked: CheckedProgram):
        self.checked = checked
        self.module = ir.IRModule(functions={}, classes={}, checked=checked)
        self._current_class: Optional[ClassInfo] = None
        self._reloc_depth = 0

    # ------------------------------------------------------------------

    def lower(self) -> ir.IRModule:
        for name, info in self.checked.classes.items():
            if info.decl is None:  # the built-in bit enum
                self.module.classes[name] = ir.IRClass(
                    name, True, True, ["zero", "one"], [], {}
                )
                continue
            self._lower_class(info)
        return self.module

    def _lower_class(self, info: ClassInfo) -> None:
        decl = info.decl
        field_names = [
            f.name for f in decl.fields if not f.is_static
        ]
        field_types = {
            f.name: info.fields[f.name].type
            for f in decl.fields
            if not f.is_static
        }
        statics = {}
        static_types = {}
        self._current_class = info
        for f in decl.fields:
            if f.is_static:
                statics[f.name] = (
                    self._expr(f.init) if f.init is not None else None
                )
                static_types[f.name] = info.fields[f.name].type
        self.module.classes[info.name] = ir.IRClass(
            info.name,
            info.is_value,
            info.is_enum,
            list(decl.enum_constants),
            field_names,
            field_types,
            statics,
            static_types,
        )
        for method in decl.methods:
            if method.is_constructor:
                continue
            self._lower_method(info, method)
        if not info.is_enum:
            self._lower_constructor(info, decl)
        self._current_class = None

    def _lower_method(self, info: ClassInfo, method: ast.MethodDecl) -> None:
        minfo = method.signature
        params = [
            ir.IRParam(p.name, p.type) for p in method.params
        ]
        if not minfo.is_static:
            params.insert(0, ir.IRParam("this", info.type))
        body = self._block(method.body)
        qualified = minfo.qualified_name
        self.module.functions[qualified] = ir.IRFunction(
            qualified_name=qualified,
            params=params,
            return_type=minfo.return_type,
            body=body,
            is_static=minfo.is_static,
            is_local=minfo.is_local,
            is_pure=minfo.is_pure,
            class_name=info.name,
            facts=self.checked.method_facts.get(qualified),
        )

    def _lower_constructor(self, info: ClassInfo, decl: ast.ClassDecl) -> None:
        """Produce ``C.<init>`` — declared constructor body prefixed with
        instance-field-initializer stores."""
        prologue: list = []
        for f in decl.fields:
            if not f.is_static and f.init is not None:
                prologue.append(
                    ir.SFieldStore(
                        ir.EThis(info.type),
                        f.name,
                        info.name,
                        self._expr(f.init),
                    )
                )
        ctor = info.constructors[0] if info.constructors else None
        params: list = [ir.IRParam("this", info.type)]
        body = list(prologue)
        if ctor is not None and ctor.decl is not None:
            params += [
                ir.IRParam(p.name, p.type) for p in ctor.decl.params
            ]
            body += self._block(ctor.decl.body)
        qualified = f"{info.name}.<init>"
        self.module.functions[qualified] = ir.IRFunction(
            qualified_name=qualified,
            params=params,
            return_type=ty.VOID,
            body=body,
            is_static=False,
            is_local=ctor.is_local if ctor else info.is_value,
            is_constructor=True,
            class_name=info.name,
        )

    # -- statements ------------------------------------------------------

    def _block(self, block: ast.Block) -> list:
        out: list = []
        for stmt in block.statements:
            self._stmt(stmt, out)
        return out

    def _stmt(self, stmt: ast.Stmt, out: list) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self._stmt(inner, out)
            return
        if isinstance(stmt, ast.VarDecl):
            init = (
                self._expr(stmt.init)
                if stmt.init is not None
                else self._default_init(stmt.declared_type)
            )
            out.append(ir.SLet(stmt.name, stmt.declared_type, init))
            return
        if isinstance(stmt, ast.ExprStmt):
            self._expr_stmt(stmt.expr, out)
            return
        if isinstance(stmt, ast.If):
            then: list = []
            other: list = []
            self._stmt(stmt.then, then)
            if stmt.other is not None:
                self._stmt(stmt.other, other)
            out.append(ir.SIf(self._expr(stmt.cond), then, other))
            return
        if isinstance(stmt, ast.While):
            body: list = []
            self._stmt(stmt.body, body)
            out.append(ir.SWhile(self._expr(stmt.cond), body))
            return
        if isinstance(stmt, ast.For):
            self._lower_for(stmt, out)
            return
        if isinstance(stmt, ast.Return):
            value = self._expr(stmt.value) if stmt.value is not None else None
            out.append(ir.SReturn(value))
            return
        if isinstance(stmt, ast.Break):
            out.append(ir.SBreak())
            return
        if isinstance(stmt, ast.Continue):
            out.append(ir.SContinue())
            return
        raise LoweringError(f"cannot lower statement {stmt!r}")

    def _default_init(self, var_type: ty.Type) -> ir.IRExpr:
        if isinstance(var_type, ty.PrimType):
            defaults = {
                "int": 0,
                "long": 0,
                "float": 0.0,
                "double": 0.0,
                "boolean": False,
                "bit": Bit.ZERO,
            }
            return ir.EConst(var_type, defaults[var_type.name])
        raise LoweringError(
            f"declaration of {var_type} requires an initializer"
        )

    def _expr_stmt(self, expr: ast.Expr, out: list) -> None:
        if isinstance(expr, ast.Assign):
            self._lower_assign(expr, out)
            return
        if isinstance(expr, ast.Unary) and expr.op in (
            "++pre",
            "--pre",
            "++post",
            "--post",
        ):
            self._lower_incr(expr, out)
            return
        out.append(ir.SExpr(self._expr(expr)))

    def _lower_incr(self, expr: ast.Unary, out: list) -> None:
        delta_op = "+" if expr.op.startswith("++") else "-"
        target = expr.operand
        one = ir.EConst(target.type, 1)
        updated = ir.EBinary(
            target.type, delta_op, self._expr(target), one
        )
        self._store(target, updated, out)

    def _lower_assign(self, expr: ast.Assign, out: list) -> None:
        # 'E1 op= E2' is '(T)(E1 op E2)', the operation in the type the
        # checker promoted to (JLS §15.26.2).
        value = self._expr(expr.value)
        if expr.op != "=":
            op = expr.op[0]  # '+=' -> '+'
            current = self._expr(expr.target)
            value = ir.EBinary(expr.op_type, op, current, value)
        if value.type != expr.target.type and isinstance(
            expr.target.type, ty.PrimType
        ):
            value = ir.ECast(expr.target.type, value)
        self._store(expr.target, value, out)

    def _store(self, target: ast.Expr, value: ir.IRExpr, out: list) -> None:
        if isinstance(target, ast.Name):
            if target.resolution == "local":
                out.append(ir.SAssignLocal(target.ident, value))
                return
            if target.resolution == "field":
                out.append(
                    ir.SFieldStore(
                        ir.EThis(self._current_class.type),
                        target.ident,
                        self._current_class.name,
                        value,
                    )
                )
                return
            if target.resolution == "static_field":
                out.append(
                    ir.SStaticStore(
                        target.decl.owner.name, target.ident, value
                    )
                )
                return
        if isinstance(target, ast.Index):
            out.append(
                ir.SArrayStore(
                    self._expr(target.array),
                    self._expr(target.index),
                    value,
                )
            )
            return
        if isinstance(target, ast.FieldAccess):
            if target.resolution == "static_field":
                out.append(
                    ir.SStaticStore(
                        target.decl.owner.name, target.name, value
                    )
                )
                return
            out.append(
                ir.SFieldStore(
                    self._expr(target.receiver),
                    target.name,
                    target.decl.owner.name,
                    value,
                )
            )
            return
        raise LoweringError(f"cannot lower store to {target!r}")

    def _lower_for(self, stmt: ast.For, out: list) -> None:
        canonical = self._try_canonical_for(stmt)
        if canonical is not None:
            out.append(canonical)
            return
        # General shape: init; while (cond) { body; update; }
        if stmt.init is not None:
            self._stmt(stmt.init, out)
        body: list = []
        self._stmt(stmt.body, body)
        if stmt.update is not None:
            if any(
                isinstance(s, ir.SContinue)
                for s in ir.walk_stmts(body)
            ):
                raise LoweringError(
                    "'continue' inside a non-canonical for loop is not "
                    "supported by the lowerer"
                )
            self._expr_stmt(stmt.update, body)
        cond = (
            self._expr(stmt.cond)
            if stmt.cond is not None
            else ir.EConst(ty.BOOLEAN, True)
        )
        out.append(ir.SWhile(cond, body))

    def _try_canonical_for(self, stmt: ast.For) -> Optional[ir.SFor]:
        """Recognize ``for (int i = start; i < limit; i++/i += step)``
        with an ``int`` limit and step: the bytecode compiles ``SFor``
        with ``int`` arithmetic, and the OpenCL printer declares its
        variable ``int``. Every other loop is an ``SWhile``, computed
        in the checker's types."""
        init = stmt.init
        if not isinstance(init, ast.VarDecl) or init.init is None:
            return None
        if init.declared_type != ty.INT:
            return None
        var = init.name
        cond = stmt.cond
        if (
            not isinstance(cond, ast.Binary)
            or cond.op != "<"
            or not isinstance(cond.left, ast.Name)
            or cond.left.ident != var
            or cond.right.type != ty.INT
        ):
            return None
        update = stmt.update
        step: Optional[ir.IRExpr] = None
        if (
            isinstance(update, ast.Unary)
            and update.op in ("++pre", "++post")
            and isinstance(update.operand, ast.Name)
            and update.operand.ident == var
        ):
            step = ir.EConst(ty.INT, 1)
        elif (
            isinstance(update, ast.Assign)
            and update.op == "+="
            and update.op_type == ty.INT
            and isinstance(update.target, ast.Name)
            and update.target.ident == var
        ):
            step = self._expr(update.value)
        if step is None:
            return None
        body: list = []
        self._stmt(stmt.body, body)
        return ir.SFor(
            var,
            self._expr(init.init),
            self._expr(cond.right),
            step,
            body,
        )

    # -- expressions -------------------------------------------------------

    def _expr(self, expr: ast.Expr) -> ir.IRExpr:
        if isinstance(expr, ast.IntLit):
            return ir.EConst(expr.type, expr.value)
        if isinstance(expr, ast.FloatLit):
            return ir.EConst(expr.type, float(expr.value))
        if isinstance(expr, ast.BoolLit):
            return ir.EConst(ty.BOOLEAN, expr.value)
        if isinstance(expr, ast.BitLit):
            return ir.EConst(expr.type, ValueArray.of_bits(expr.bits))
        if isinstance(expr, ast.StringLit):
            return ir.EConst(ty.STRING, expr.value)
        if isinstance(expr, ast.Name):
            return self._lower_name(expr)
        if isinstance(expr, ast.This):
            return ir.EThis(expr.type)
        if isinstance(expr, ast.FieldAccess):
            return self._lower_field_access(expr)
        if isinstance(expr, ast.Index):
            return ir.EIndex(
                expr.type, self._expr(expr.array), self._expr(expr.index)
            )
        if isinstance(expr, ast.Call):
            return self._lower_call(expr)
        if isinstance(expr, ast.New):
            return self._lower_new(expr)
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Binary):
            return ir.EBinary(
                expr.type, expr.op, self._expr(expr.left), self._expr(expr.right)
            )
        if isinstance(expr, ast.Ternary):
            return ir.ETernary(
                expr.type,
                self._expr(expr.cond),
                self._expr(expr.then),
                self._expr(expr.other),
            )
        if isinstance(expr, ast.Cast):
            return ir.ECast(expr.type, self._expr(expr.operand))
        if isinstance(expr, ast.Assign):
            raise LoweringError(
                "assignment used as a value; Lime subset supports "
                "assignment statements only"
            )
        if isinstance(expr, ast.MapExpr):
            return ir.EMap(
                expr.type,
                expr.target.qualified_name,
                [self._expr(a) for a in expr.args],
                broadcast=list(getattr(expr, "broadcast", [])),
            )
        if isinstance(expr, ast.ReduceExpr):
            return ir.EReduce(
                expr.type,
                expr.target.qualified_name,
                [self._expr(a) for a in expr.args],
            )
        if isinstance(expr, ast.TaskExpr):
            task_type = expr.type
            instance = None
            if getattr(expr, "is_instance_task", False):
                instance = ir.ELocal(expr.receiver_type, expr.receiver)
            node = ir.EGraphTask(
                task_type,
                expr.target.qualified_name,
                relocatable=self._reloc_depth > 0,
                input_type=task_type.input,
                output_type=task_type.output,
                arity=len(expr.target.param_types),
                instance=instance,
            )
            node.src_position = expr.position
            return node
        if isinstance(expr, ast.ConnectExpr):
            return ir.EGraphConnect(
                expr.type, self._expr(expr.left), self._expr(expr.right)
            )
        if isinstance(expr, ast.RelocExpr):
            self._reloc_depth += 1
            try:
                return self._expr(expr.inner)
            finally:
                self._reloc_depth -= 1
        raise LoweringError(f"cannot lower expression {expr!r}")

    def _lower_unary(self, expr: ast.Unary) -> ir.IRExpr:
        if expr.op in ("++pre", "--pre", "++post", "--post"):
            raise LoweringError(
                "++/-- may only be used as a statement or loop update "
                "in this Lime subset"
            )
        operand = self._expr(expr.operand)
        if expr.op == "~":
            if expr.operand.type == ty.BIT:
                return ir.EIntrinsic(ty.BIT, "bit.~", [operand])
            if (
                isinstance(expr.operand.type, ty.ClassType)
                and expr.operand.type.is_enum
            ):
                return ir.ECall(
                    expr.type, f"{expr.operand.type.name}.~", [operand]
                )
        return ir.EUnary(expr.type, expr.op, operand)

    def _lower_new(self, expr: ast.New) -> ir.IRExpr:
        if expr.array_length is not None:
            result_type = expr.type
            return ir.ENewArray(result_type, self._expr(expr.array_length))
        if isinstance(expr.type, ty.ArrayType) and expr.type.is_value_array:
            return ir.EFreeze(expr.type, self._expr(expr.args[0]))
        class_name = expr.type.name
        ctor = f"{class_name}.<init>"
        args = [self._expr(a) for a in expr.args]
        if expr.target is not None:
            args = self._coerce_args(args, expr.target.param_types)
        return ir.ENewObject(expr.type, class_name, ctor, args)

    def _lower_name(self, expr: ast.Name) -> ir.IRExpr:
        if expr.resolution == "local":
            return ir.ELocal(expr.type, expr.ident)
        if expr.resolution == "field":
            return ir.EFieldLoad(
                expr.type,
                ir.EThis(self._current_class.type),
                expr.ident,
                self._current_class.name,
            )
        if expr.resolution == "static_field":
            return ir.EStaticLoad(
                expr.type, expr.decl.owner.name, expr.ident
            )
        if expr.resolution == "enum_const":
            return self._enum_const(self._current_class, expr.ident, expr.type)
        raise LoweringError(f"cannot lower name {expr.ident!r}")

    def _enum_const(self, info: ClassInfo, constant: str, etype) -> ir.IRExpr:
        if info.name == "bit":
            return ir.EConst(ty.BIT, Bit(0 if constant == "zero" else 1))
        descriptor = info.enum_descriptor
        return ir.EConst(etype, descriptor.value_of(constant))

    def _lower_field_access(self, expr: ast.FieldAccess) -> ir.IRExpr:
        if expr.resolution == "length":
            return ir.ELength(ty.INT, self._expr(expr.receiver))
        if expr.resolution == "enum_const":
            info = self.checked.classes[expr.receiver.ident]
            return self._enum_const(info, expr.name, expr.type)
        if expr.resolution == "static_field":
            return ir.EStaticLoad(
                expr.type, expr.decl.owner.name, expr.name
            )
        return ir.EFieldLoad(
            expr.type,
            self._expr(expr.receiver),
            expr.name,
            expr.decl.owner.name,
        )

    def _lower_call(self, expr: ast.Call) -> ir.IRExpr:
        if expr.intrinsic is not None:
            return self._lower_intrinsic_call(expr)
        target = expr.target
        args = [self._expr(a) for a in expr.args]
        args = self._coerce_args(args, target.param_types)
        if not target.is_static:
            if expr.receiver is not None and expr.receiver.type is not None:
                receiver = self._expr(expr.receiver)
            else:
                receiver = ir.EThis(self._current_class.type)
            args.insert(0, receiver)
        return ir.ECall(target.return_type, target.qualified_name, args)

    def _coerce_args(self, args: list, param_types: list) -> list:
        coerced = []
        for arg, expected in zip(args, param_types):
            if arg.type != expected and isinstance(expected, ty.PrimType):
                arg = ir.ECast(expected, arg)
            coerced.append(arg)
        return coerced

    def _lower_intrinsic_call(self, expr: ast.Call) -> ir.IRExpr:
        name = expr.intrinsic
        if name in ("println", "print"):
            return ir.EIntrinsic(
                ty.VOID, name, [self._expr(expr.args[0])]
            )
        if name.startswith("Math."):
            return ir.EIntrinsic(
                expr.type, name, [self._expr(a) for a in expr.args]
            )
        if name == "source":
            rate = getattr(expr, "rate", None)
            if rate is None:
                raise LoweringError(
                    "source rate must be an integer literal so the "
                    "compiler can discover the task graph shape"
                )
            task_type = expr.type
            node = ir.EGraphSource(
                task_type,
                self._expr(expr.receiver),
                rate,
                element_type=task_type.output,
            )
            node.src_position = expr.position
            return node
        if name == "sink":
            task_type = expr.type
            node = ir.EGraphSink(
                task_type,
                self._expr(expr.receiver),
                element_type=task_type.input,
            )
            node.src_position = expr.position
            return node
        if name in ("start", "finish"):
            # Wrapped by _expr_stmt? start/finish are void calls used as
            # statements; represent as an intrinsic marker expression
            # that the statement layer rewraps.
            return ir.EIntrinsic(
                ty.VOID,
                f"graph.{name}",
                [self._expr(expr.receiver)],
            )
        raise LoweringError(f"unknown intrinsic {name!r}")


def _rewrite_graph_starts(body: list) -> None:
    """Replace SExpr(EIntrinsic('graph.start'/'graph.finish')) with the
    dedicated SGraphStart statement, recursively."""
    for i, stmt in enumerate(body):
        if isinstance(stmt, ir.SExpr) and isinstance(stmt.expr, ir.EIntrinsic):
            if stmt.expr.name in ("graph.start", "graph.finish"):
                body[i] = ir.SGraphStart(
                    stmt.expr.args[0],
                    blocking=stmt.expr.name == "graph.finish",
                )
        elif isinstance(stmt, ir.SIf):
            _rewrite_graph_starts(stmt.then)
            _rewrite_graph_starts(stmt.other)
        elif isinstance(stmt, (ir.SWhile, ir.SFor)):
            _rewrite_graph_starts(stmt.body)


def lower(checked: CheckedProgram) -> ir.IRModule:
    """Lower a checked program to IR (without optimization)."""
    module = Lowerer(checked).lower()
    for function in module.functions.values():
        _rewrite_graph_starts(function.body)
    return module


def build_ir(checked, run_optimizations: bool = True) -> ir.IRModule:
    """Lower a checked program, optimize, verify, and discover task
    graphs. Verification is an internal consistency check on the
    lowerer/optimizer output (compiler bugs, not user errors)."""
    module = lower(checked)
    if run_optimizations:
        optimize(module)
    verify_module(module)
    discover_task_graphs(module)
    return module
