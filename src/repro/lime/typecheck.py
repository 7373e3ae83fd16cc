"""Semantic analysis for Lime.

Beyond ordinary Java-style type checking, this pass enforces the strong
isolation rules of Section 2.1 and the task-graph typing of Section 2.2:

* value classes may only contain value-typed (implicitly final) fields,
  and their methods are implicitly ``local``;
* a ``local`` method may only call other local methods, may not touch
  static mutable state, may not perform I/O, and may not build tasks;
* a pure method is a local static method whose parameters and return
  type are all values and which touches no fields;
* the ``task`` operator applies only to local methods with value
  parameters and a value return (these become filters);
* only values may flow along a connect (``=>``) edge;
* relocation brackets wrap task-typed expressions only.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import IsolationError, LimeTypeError, TaskGraphError
from repro.lime import ast_nodes as ast
from repro.lime import types as ty
from repro.lime.parser import parse
from repro.lime.symbols import (
    MATH_INTRINSICS,
    CheckedProgram,
    ClassInfo,
    FieldInfo,
    MethodFacts,
    MethodInfo,
    make_builtin_bit_class,
)


class _Scope:
    """Lexical scope chain for locals. Lime forbids shadowing, so a
    redeclaration anywhere in the chain is an error."""

    def __init__(self, parent: "Optional[_Scope]" = None):
        self.parent = parent
        self.names: dict[str, ty.Type] = {}

    def declare(self, name: str, type_: ty.Type, position) -> None:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                raise LimeTypeError(
                    f"variable {name!r} is already declared", position
                )
            scope = scope.parent
        self.names[name] = type_

    def lookup(self, name: str) -> Optional[ty.Type]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class TypeChecker:
    def __init__(self, program: ast.Program):
        self.program = program
        self.checked = CheckedProgram(program)
        self.checked.classes["bit"] = make_builtin_bit_class()
        # Per-body state.
        self._current_class: Optional[ClassInfo] = None
        self._current_method: Optional[MethodInfo] = None
        self._facts: Optional[MethodFacts] = None
        self._loop_depth = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def check(self) -> CheckedProgram:
        self._declare_classes()
        self._declare_members()
        for cls in self.program.classes:
            self._check_class_body(cls)
        self._compute_purity()
        return self.checked

    # ------------------------------------------------------------------
    # Declaration passes
    # ------------------------------------------------------------------

    def _declare_classes(self) -> None:
        for cls in self.program.classes:
            if cls.name in self.checked.classes:
                raise LimeTypeError(
                    f"duplicate class {cls.name!r}", cls.position
                )
            if cls.is_enum and not cls.is_value:
                raise LimeTypeError(
                    "Lime enums must be declared 'value' (unlike Java "
                    "enums, they are immutable)",
                    cls.position,
                )
            self.checked.classes[cls.name] = ClassInfo(
                cls, cls.name, cls.is_value, cls.is_enum
            )

    def _declare_members(self) -> None:
        for cls in self.program.classes:
            info = self.checked.classes[cls.name]
            for field in cls.fields:
                self._declare_field(info, field)
            for method in cls.methods:
                self._declare_method(info, method)

    def _declare_field(self, info: ClassInfo, field: ast.FieldDecl) -> None:
        if info.is_enum:
            raise LimeTypeError(
                "value enums may not declare fields", field.position
            )
        field_type = self.resolve_type(field.type_syntax)
        if info.is_value:
            if not field_type.is_value_type:
                raise IsolationError(
                    f"field {field.name!r} of value class {info.name} "
                    f"must have a value type, found {field_type}",
                    field.position,
                )
        if field.name in info.fields:
            raise LimeTypeError(
                f"duplicate field {field.name!r}", field.position
            )
        field.owner = info
        field.type = field_type
        # Fields of value classes are implicitly final.
        is_final = field.is_final or info.is_value
        info.fields[field.name] = FieldInfo(
            field.name, field_type, field.is_static, is_final, info, field
        )

    def _declare_method(self, info: ClassInfo, method: ast.MethodDecl) -> None:
        if method.is_constructor:
            if method.name != info.name:
                raise LimeTypeError(
                    f"constructor name {method.name!r} does not match "
                    f"class {info.name}",
                    method.position,
                )
            param_types = [
                self.resolve_type(p.type_syntax) for p in method.params
            ]
            for param, ptype in zip(method.params, param_types):
                param.type = ptype
            method.owner = info
            minfo = MethodInfo(
                name=method.name,
                param_types=param_types,
                return_type=info.type,
                is_static=False,
                is_local=("local" in method.modifiers) or info.is_value,
                is_operator=False,
                owner=info,
                decl=method,
                is_constructor=True,
            )
            method.signature = minfo
            info.constructors.append(minfo)
            return
        if method.name in info.methods:
            raise LimeTypeError(
                f"duplicate method {method.name!r} in {info.name} "
                "(the Lime subset does not support overloading)",
                method.position,
            )
        return_type = self.resolve_type(method.return_type)
        param_types = [
            self.resolve_type(p.type_syntax) for p in method.params
        ]
        for param, ptype in zip(method.params, param_types):
            param.type = ptype
        if method.is_operator and method.is_static:
            raise LimeTypeError(
                "operator methods apply to 'this' and cannot be static",
                method.position,
            )
        # Methods of value classes (and enums) are local by default
        # (Section 2.1: "The methods of a value type are local by
        # default").
        is_local = ("local" in method.modifiers) or info.is_value
        method.owner = info
        method.is_local_effective = is_local
        minfo = MethodInfo(
            name=method.name,
            param_types=param_types,
            return_type=return_type,
            is_static=method.is_static,
            is_local=is_local,
            is_operator=method.is_operator,
            owner=info,
            decl=method,
        )
        method.signature = minfo
        info.methods[method.name] = minfo

    def resolve_type(self, syntax: Optional[ast.TypeSyntax]) -> ty.Type:
        if syntax is None:
            return ty.VOID
        base: ty.Type
        prim = ty.type_from_kind_name(syntax.name)
        if prim is not None:
            base = prim
        elif syntax.name == "String":
            base = ty.STRING
        else:
            info = self.checked.classes.get(syntax.name)
            if info is None:
                raise LimeTypeError(
                    f"unknown type {syntax.name!r}", syntax.position
                )
            base = info.type
        for dim in reversed(syntax.array_dims):
            is_value = dim == "value"
            if is_value and not base.is_value_type:
                raise IsolationError(
                    f"value array element type {base} must itself be a "
                    "value type",
                    syntax.position,
                )
            if isinstance(base, ty.PrimType) and base.name == "void":
                raise LimeTypeError("array of void", syntax.position)
            base = ty.ArrayType(base, is_value)
        return base

    # ------------------------------------------------------------------
    # Body checking
    # ------------------------------------------------------------------

    def _check_class_body(self, cls: ast.ClassDecl) -> None:
        info = self.checked.classes[cls.name]
        self._current_class = info
        for field in cls.fields:
            if field.init is not None:
                # Field initializers are checked in a static-global or
                # instance context without locals.
                self._current_method = None
                self._facts = None
                self._scope = None
                init_type = self.check_expr(field.init)
                if not ty.assignable(info.fields[field.name].type, init_type):
                    raise LimeTypeError(
                        f"cannot initialize {info.fields[field.name].type} "
                        f"field {field.name!r} with {init_type}",
                        field.position,
                    )
        for method in cls.methods:
            self._check_method_body(info, method)
        self._current_class = None

    def _check_method_body(self, info: ClassInfo, method: ast.MethodDecl) -> None:
        minfo = method.signature
        self._current_method = minfo
        self._facts = self.checked.facts(minfo.qualified_name)
        scope = _Scope()
        for param in method.params:
            scope.declare(param.name, param.type, param.position)
        returns = self._check_block(method.body, scope)
        if (
            not minfo.is_constructor
            and minfo.return_type != ty.VOID
            and not returns
        ):
            raise LimeTypeError(
                f"method {minfo.qualified_name} may complete without "
                "returning a value",
                method.position,
            )
        self._current_method = None
        self._facts = None

    # Statements ---------------------------------------------------------

    def _check_block(self, block: ast.Block, scope: _Scope) -> bool:
        inner = _Scope(scope)
        returns = False
        for stmt in block.statements:
            if returns:
                raise LimeTypeError("unreachable statement", stmt.position)
            returns = self._check_stmt(stmt, inner)
        return returns

    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope) -> bool:
        # Pin the expression-resolution scope to this statement's scope;
        # otherwise a scope from an exited nested block could leak into
        # sibling statements.
        self._scope = scope
        if isinstance(stmt, ast.Block):
            return self._check_block(stmt, scope)
        if isinstance(stmt, ast.VarDecl):
            self._check_var_decl(stmt, scope)
            return False
        if isinstance(stmt, ast.ExprStmt):
            self.check_expr(stmt.expr)
            return False
        if isinstance(stmt, ast.If):
            self._require_boolean(stmt.cond, "if condition")
            then_returns = self._check_stmt(stmt.then, _Scope(scope))
            else_returns = False
            if stmt.other is not None:
                else_returns = self._check_stmt(stmt.other, _Scope(scope))
            return then_returns and else_returns and stmt.other is not None
        if isinstance(stmt, ast.While):
            if self._facts is not None:
                self._facts.has_while = True
            self._require_boolean(stmt.cond, "while condition")
            self._loop_depth += 1
            self._check_stmt(stmt.body, _Scope(scope))
            self._loop_depth -= 1
            return False
        if isinstance(stmt, ast.For):
            if self._facts is not None:
                self._facts.has_for = True
            inner = _Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._require_boolean(stmt.cond, "for condition")
            self._loop_depth += 1
            if stmt.update is not None:
                # Must check the body first? Order does not matter for
                # typing; update may use loop variables from init.
                pass
            self._check_stmt(stmt.body, _Scope(inner))
            if stmt.update is not None:
                self.check_expr_in_scope(stmt.update, inner)
            self._loop_depth -= 1
            return False
        if isinstance(stmt, (ast.Break, ast.Continue)):
            if self._loop_depth == 0:
                raise LimeTypeError(
                    "break/continue outside of a loop", stmt.position
                )
            return False
        if isinstance(stmt, ast.Return):
            return self._check_return(stmt)
        raise AssertionError(f"unknown statement {stmt!r}")

    def _check_var_decl(self, stmt: ast.VarDecl, scope: _Scope) -> None:
        if stmt.init is None and stmt.type_syntax is None:
            raise LimeTypeError(
                f"'var' declaration of {stmt.name!r} needs an initializer",
                stmt.position,
            )
        declared = (
            self.resolve_type(stmt.type_syntax)
            if stmt.type_syntax is not None
            else None
        )
        if stmt.init is not None:
            init_type = self.check_expr_in_scope(stmt.init, scope)
            if isinstance(init_type, ty.PrimType) and init_type.name == "void":
                raise LimeTypeError(
                    "cannot assign a void expression", stmt.position
                )
            if declared is None:
                declared = init_type
            elif not ty.assignable(declared, init_type):
                raise LimeTypeError(
                    f"cannot initialize {declared} variable "
                    f"{stmt.name!r} with {init_type}",
                    stmt.position,
                )
        assert declared is not None
        stmt.declared_type = declared
        scope.declare(stmt.name, declared, stmt.position)

    def _check_return(self, stmt: ast.Return) -> bool:
        minfo = self._current_method
        assert minfo is not None
        expected = (
            minfo.owner.type if minfo.is_constructor else minfo.return_type
        )
        if minfo.is_constructor:
            if stmt.value is not None:
                raise LimeTypeError(
                    "constructors cannot return a value", stmt.position
                )
            return True
        if expected == ty.VOID:
            if stmt.value is not None:
                raise LimeTypeError(
                    f"{minfo.qualified_name} returns void", stmt.position
                )
            return True
        if stmt.value is None:
            raise LimeTypeError(
                f"{minfo.qualified_name} must return {expected}",
                stmt.position,
            )
        actual = self.check_expr(stmt.value)
        if not ty.assignable(expected, actual):
            raise LimeTypeError(
                f"cannot return {actual} from method of type {expected}",
                stmt.position,
            )
        return True

    def _require_boolean(self, expr: ast.Expr, what: str) -> None:
        found = self.check_expr(expr)
        if found != ty.BOOLEAN:
            raise LimeTypeError(
                f"{what} must be boolean, found {found}", expr.position
            )

    # Expressions ----------------------------------------------------------

    def check_expr_in_scope(self, expr: ast.Expr, scope: _Scope) -> ty.Type:
        self._scope = scope
        return self.check_expr(expr)

    def check_expr(self, expr: ast.Expr) -> ty.Type:
        result = self._check_expr_inner(expr)
        expr.type = result
        return result

    # The scope is threaded through an attribute because every recursive
    # call shares the innermost scope of the enclosing statement.
    _scope: Optional[_Scope] = None

    def _check_expr_inner(self, expr: ast.Expr) -> ty.Type:
        if isinstance(expr, ast.IntLit):
            return ty.LONG if expr.is_long else ty.INT
        if isinstance(expr, ast.FloatLit):
            if self._facts is not None and expr.is_double:
                self._facts.uses_double = True
            return ty.DOUBLE if expr.is_double else ty.FLOAT
        if isinstance(expr, ast.BoolLit):
            return ty.BOOLEAN
        if isinstance(expr, ast.BitLit):
            return ty.ArrayType(ty.BIT, is_value=True)
        if isinstance(expr, ast.StringLit):
            self._note_string_use(expr)
            return ty.STRING
        if isinstance(expr, ast.Name):
            return self._check_name(expr)
        if isinstance(expr, ast.This):
            return self._check_this(expr)
        if isinstance(expr, ast.FieldAccess):
            return self._check_field_access(expr)
        if isinstance(expr, ast.Index):
            return self._check_index(expr)
        if isinstance(expr, ast.Call):
            return self._check_call(expr)
        if isinstance(expr, ast.New):
            return self._check_new(expr)
        if isinstance(expr, ast.Unary):
            return self._check_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._check_binary(expr)
        if isinstance(expr, ast.Ternary):
            return self._check_ternary(expr)
        if isinstance(expr, ast.Assign):
            return self._check_assign(expr)
        if isinstance(expr, ast.Cast):
            return self._check_cast(expr)
        if isinstance(expr, ast.MapExpr):
            return self._check_map(expr)
        if isinstance(expr, ast.ReduceExpr):
            return self._check_reduce(expr)
        if isinstance(expr, ast.TaskExpr):
            return self._check_task(expr)
        if isinstance(expr, ast.ConnectExpr):
            return self._check_connect(expr)
        if isinstance(expr, ast.RelocExpr):
            return self._check_reloc(expr)
        raise AssertionError(f"unknown expression {expr!r}")

    def _note_string_use(self, expr: ast.Expr) -> None:
        if self._facts is not None:
            self._facts.uses_strings = True
        if self._in_local_context():
            raise IsolationError(
                "strings are host-only and unavailable in local methods",
                expr.position,
            )

    def _in_local_context(self) -> bool:
        return self._current_method is not None and self._current_method.is_local

    def _check_name(self, expr: ast.Name) -> ty.Type:
        if self._scope is not None:
            local = self._scope.lookup(expr.ident)
            if local is not None:
                expr.resolution = "local"
                return local
        # A field of the current class?
        if self._current_class is not None:
            field = self._current_class.find_field(expr.ident)
            if field is not None:
                return self._resolve_field_use(expr, field)
            # Bare enum constants are in scope inside their own enum
            # (Figure 1: 'this == zero ? one : zero').
            descriptor = self._current_class.enum_descriptor
            if descriptor is not None and expr.ident in descriptor.constants:
                expr.resolution = "enum_const"
                expr.decl = self._current_class
                return (
                    ty.BIT
                    if self._current_class.name == "bit"
                    else self._current_class.type
                )
        # A class name (receiver position)?
        if expr.ident in self.checked.classes or expr.ident == "Math":
            expr.resolution = "class"
            # Class references have no value type; flag misuse lazily at
            # the use site (calls and field accesses handle 'class').
            return ty.VOID
        raise LimeTypeError(f"unknown name {expr.ident!r}", expr.position)

    def _resolve_field_use(self, expr, field: FieldInfo) -> ty.Type:
        if field.is_static:
            expr.resolution = "static_field"
            if not field.is_final and self._in_local_context():
                raise IsolationError(
                    f"local method {self._current_method.qualified_name} "
                    f"may not access static mutable field {field.name!r}",
                    expr.position,
                )
            if not field.is_final and self._facts is not None:
                self._facts.accesses_static_mutable = True
        else:
            expr.resolution = "field"
            if self._current_method is not None and self._current_method.is_static:
                raise LimeTypeError(
                    f"instance field {field.name!r} referenced from a "
                    "static method",
                    expr.position,
                )
            if self._facts is not None:
                self._facts.accesses_instance_fields = True
        expr.decl = field
        return field.type

    def _check_this(self, expr: ast.This) -> ty.Type:
        if self._current_class is None or (
            self._current_method is not None and self._current_method.is_static
        ):
            raise LimeTypeError("'this' in a static context", expr.position)
        if self._facts is not None:
            self._facts.accesses_instance_fields = True
        return self._current_class.type

    def _check_field_access(self, expr: ast.FieldAccess) -> ty.Type:
        receiver = expr.receiver
        # Class-qualified access: enum constants or static fields.
        if isinstance(receiver, ast.Name):
            receiver_type = self.check_expr(receiver)
            if receiver.resolution == "class":
                info = self.checked.classes.get(receiver.ident)
                if info is None:
                    raise LimeTypeError(
                        f"unknown class {receiver.ident!r}", expr.position
                    )
                if info.is_enum and info.enum_descriptor is not None:
                    if expr.name in info.enum_descriptor.constants:
                        expr.resolution = "enum_const"
                        # The built-in bit enum is also the primitive
                        # bit type: bit.zero has type bit.
                        if info.name == "bit":
                            return ty.BIT
                        return info.type
                field = info.find_field(expr.name)
                if field is not None and field.is_static:
                    return self._resolve_field_use(expr, field)
                raise LimeTypeError(
                    f"{receiver.ident} has no static member {expr.name!r}",
                    expr.position,
                )
        else:
            receiver_type = self.check_expr(receiver)
        if isinstance(receiver_type, ty.ArrayType) and expr.name == "length":
            expr.resolution = "length"
            return ty.INT
        if isinstance(receiver_type, ty.ClassType):
            info = self.checked.classes.get(receiver_type.name)
            if info is not None:
                field = info.find_field(expr.name)
                if field is not None and not field.is_static:
                    expr.resolution = "field"
                    expr.decl = field
                    return field.type
        raise LimeTypeError(
            f"{receiver_type} has no member {expr.name!r}", expr.position
        )

    def _check_index(self, expr: ast.Index) -> ty.Type:
        array_type = self.check_expr(expr.array)
        if not isinstance(array_type, ty.ArrayType):
            raise LimeTypeError(
                f"cannot index into {array_type}", expr.position
            )
        index_type = self.check_expr(expr.index)
        if index_type not in (ty.INT, ty.LONG):
            raise LimeTypeError(
                f"array index must be integral, found {index_type}",
                expr.index.position,
            )
        return array_type.element

    # Calls ----------------------------------------------------------------

    def _check_call(self, expr: ast.Call) -> ty.Type:
        # Bare calls: method of the current class, or the println/print
        # intrinsics.
        if expr.receiver is None:
            if expr.name in ("println", "print"):
                return self._check_println(expr)
            if self._current_class is None:
                raise LimeTypeError(
                    f"unknown function {expr.name!r}", expr.position
                )
            target = self._current_class.find_method(expr.name)
            if target is None:
                raise LimeTypeError(
                    f"{self._current_class.name} has no method "
                    f"{expr.name!r}",
                    expr.position,
                )
            return self._check_resolved_call(expr, target, has_receiver=False)
        # Receiver may be a class reference (static call / Math).
        if isinstance(expr.receiver, ast.Name):
            receiver_name = expr.receiver.ident
            if receiver_name == "Math":
                expr.receiver.resolution = "class"
                return self._check_math(expr)
            if receiver_name in self.checked.classes and (
                self._scope is None
                or self._scope.lookup(receiver_name) is None
            ):
                expr.receiver.resolution = "class"
                info = self.checked.classes[receiver_name]
                target = info.find_method(expr.name)
                if target is None or not target.is_static:
                    raise LimeTypeError(
                        f"{receiver_name} has no static method "
                        f"{expr.name!r}",
                        expr.position,
                    )
                return self._check_resolved_call(
                    expr, target, has_receiver=False
                )
        receiver_type = self.check_expr(expr.receiver)
        if isinstance(receiver_type, ty.ArrayType):
            return self._check_array_method(expr, receiver_type)
        if isinstance(receiver_type, ty.TaskType):
            return self._check_task_method(expr, receiver_type)
        if isinstance(receiver_type, ty.ClassType):
            info = self.checked.classes.get(receiver_type.name)
            if info is None:
                raise LimeTypeError(
                    f"unknown class {receiver_type.name!r}", expr.position
                )
            target = info.find_method(expr.name)
            if target is None or target.is_static:
                raise LimeTypeError(
                    f"{receiver_type} has no instance method {expr.name!r}",
                    expr.position,
                )
            return self._check_resolved_call(expr, target, has_receiver=True)
        raise LimeTypeError(
            f"cannot call {expr.name!r} on {receiver_type}", expr.position
        )

    def _check_resolved_call(
        self, expr: ast.Call, target: MethodInfo, has_receiver: bool
    ) -> ty.Type:
        if not target.is_static and not has_receiver:
            # Implicit this call.
            if self._current_method is not None and self._current_method.is_static:
                raise LimeTypeError(
                    f"instance method {target.qualified_name} called from "
                    "a static context",
                    expr.position,
                )
        if len(expr.args) != len(target.param_types):
            raise LimeTypeError(
                f"{target.qualified_name} expects "
                f"{len(target.param_types)} arguments, got {len(expr.args)}",
                expr.position,
            )
        for arg, param_type in zip(expr.args, target.param_types):
            arg_type = self.check_expr(arg)
            if not ty.assignable(param_type, arg_type):
                raise LimeTypeError(
                    f"argument of type {arg_type} not assignable to "
                    f"{param_type} in call to {target.qualified_name}",
                    arg.position,
                )
        if self._in_local_context() and not target.is_local:
            raise IsolationError(
                f"local method {self._current_method.qualified_name} may "
                f"only call local methods; {target.qualified_name} is "
                "global",
                expr.position,
            )
        if self._facts is not None:
            self._facts.calls.add(target.qualified_name)
        expr.target = target
        return target.return_type

    def _check_println(self, expr: ast.Call) -> ty.Type:
        if self._in_local_context():
            raise IsolationError(
                "I/O (println) is not allowed in local methods",
                expr.position,
            )
        if self._facts is not None:
            self._facts.does_io = True
        if len(expr.args) != 1:
            raise LimeTypeError(
                f"{expr.name} takes exactly one argument", expr.position
            )
        self.check_expr(expr.args[0])
        expr.intrinsic = expr.name
        return ty.VOID

    def _check_math(self, expr: ast.Call) -> ty.Type:
        spec = MATH_INTRINSICS.get(expr.name)
        if spec is None:
            raise LimeTypeError(
                f"Math has no intrinsic {expr.name!r}", expr.position
            )
        arity, result_rule = spec
        if len(expr.args) != arity:
            raise LimeTypeError(
                f"Math.{expr.name} expects {arity} arguments",
                expr.position,
            )
        arg_types = [self.check_expr(arg) for arg in expr.args]
        promoted: ty.Type = ty.DOUBLE
        for arg_type in arg_types:
            if not (isinstance(arg_type, ty.PrimType) and arg_type.is_numeric):
                raise LimeTypeError(
                    f"Math.{expr.name} requires numeric arguments, "
                    f"found {arg_type}",
                    expr.position,
                )
        if result_rule == "numeric":
            promoted = arg_types[0]
            for arg_type in arg_types[1:]:
                promoted = ty.binary_numeric_result(promoted, arg_type)
        if self._facts is not None:
            self._facts.intrinsic_calls.add(f"Math.{expr.name}")
        expr.intrinsic = f"Math.{expr.name}"
        return promoted

    def _check_array_method(
        self, expr: ast.Call, receiver_type: ty.ArrayType
    ) -> ty.Type:
        if expr.name == "source":
            return self._check_source(expr, receiver_type)
        if expr.name == "sink":
            return self._check_sink(expr, receiver_type)
        raise LimeTypeError(
            f"arrays have no method {expr.name!r}", expr.position
        )

    def _check_source(
        self, expr: ast.Call, receiver_type: ty.ArrayType
    ) -> ty.Type:
        self._require_graph_context(expr, "source")
        if not receiver_type.is_value_array:
            raise IsolationError(
                "source() requires a value array: only values may flow "
                "between tasks",
                expr.position,
            )
        if len(expr.args) != 1:
            raise LimeTypeError(
                "source(rate) takes exactly one argument", expr.position
            )
        rate_type = self.check_expr(expr.args[0])
        if rate_type != ty.INT:
            raise LimeTypeError(
                f"source rate must be int, found {rate_type}",
                expr.position,
            )
        rate = None
        if isinstance(expr.args[0], ast.IntLit):
            rate = expr.args[0].value
            if rate < 1:
                raise LimeTypeError(
                    "source rate must be at least 1", expr.position
                )
        expr.intrinsic = "source"
        expr.rate = rate
        element = receiver_type.element
        out_type = (
            element
            if rate == 1 or rate is None
            else ty.ArrayType(element, is_value=True)
        )
        return ty.TaskType(None, out_type)

    def _check_sink(
        self, expr: ast.Call, receiver_type: ty.ArrayType
    ) -> ty.Type:
        self._require_graph_context(expr, "sink")
        if receiver_type.is_value_array:
            raise LimeTypeError(
                "sink() accumulates into a mutable array, not a value "
                "array",
                expr.position,
            )
        if expr.args:
            raise LimeTypeError("sink() takes no arguments", expr.position)
        element = receiver_type.element
        if expr.type_args:
            explicit = self.resolve_type(expr.type_args[0])
            if explicit != element:
                raise LimeTypeError(
                    f"sink type argument {explicit} does not match array "
                    f"element type {element}",
                    expr.position,
                )
        if not element.is_value_type:
            raise IsolationError(
                "sink element type must be a value type", expr.position
            )
        expr.intrinsic = "sink"
        return ty.TaskType(element, None)

    def _check_task_method(
        self, expr: ast.Call, receiver_type: ty.TaskType
    ) -> ty.Type:
        if expr.name not in ("start", "finish"):
            raise LimeTypeError(
                f"task graphs have no method {expr.name!r}", expr.position
            )
        if expr.args:
            raise LimeTypeError(
                f"{expr.name}() takes no arguments", expr.position
            )
        if not receiver_type.is_closed:
            raise TaskGraphError(
                f"cannot {expr.name}() an open task graph of type "
                f"{receiver_type}: connect a source and a sink first",
                expr.position,
            )
        expr.intrinsic = expr.name
        return ty.VOID

    def _require_graph_context(self, expr: ast.Expr, what: str) -> None:
        if self._in_local_context():
            raise IsolationError(
                f"task graph construction ({what}) is not allowed in "
                "local methods",
                expr.position,
            )
        if self._facts is not None:
            self._facts.builds_tasks = True

    # new ------------------------------------------------------------------

    def _check_new(self, expr: ast.New) -> ty.Type:
        syntax = expr.type_syntax
        if expr.array_length is not None:
            # new T[n]
            element = self.resolve_type(
                ast.TypeSyntax(syntax.name, [], syntax.position)
            )
            length_type = self.check_expr(expr.array_length)
            if length_type != ty.INT:
                raise LimeTypeError(
                    f"array length must be int, found {length_type}",
                    expr.position,
                )
            if self._facts is not None:
                self._facts.allocates_arrays = True
            return ty.ArrayType(element, is_value=False)
        resolved = self.resolve_type(syntax)
        if isinstance(resolved, ty.ArrayType) and resolved.is_value_array:
            # new T[[]](mutableArray): freeze conversion (Figure 1).
            if len(expr.args) != 1:
                raise LimeTypeError(
                    "value array construction takes one array argument",
                    expr.position,
                )
            arg_type = self.check_expr(expr.args[0])
            expected = ty.ArrayType(resolved.element, is_value=False)
            if arg_type != expected and arg_type != resolved:
                raise LimeTypeError(
                    f"cannot construct {resolved} from {arg_type}",
                    expr.position,
                )
            return resolved
        if isinstance(resolved, ty.ClassType):
            info = self.checked.classes[resolved.name]
            if info.is_enum:
                raise LimeTypeError(
                    "enums cannot be instantiated with new", expr.position
                )
            ctor = self._find_constructor(info, expr)
            expr.target = ctor
            return resolved
        raise LimeTypeError(f"cannot instantiate {resolved}", expr.position)

    def _find_constructor(
        self, info: ClassInfo, expr: ast.New
    ) -> Optional[MethodInfo]:
        if not info.constructors:
            if expr.args:
                raise LimeTypeError(
                    f"{info.name} has no constructor taking arguments",
                    expr.position,
                )
            if info.is_value and info.fields:
                raise LimeTypeError(
                    f"value class {info.name} requires a constructor to "
                    "initialize its fields",
                    expr.position,
                )
            return None
        ctor = info.constructors[0]
        if len(expr.args) != len(ctor.param_types):
            raise LimeTypeError(
                f"{info.name} constructor expects "
                f"{len(ctor.param_types)} arguments",
                expr.position,
            )
        for arg, param_type in zip(expr.args, ctor.param_types):
            arg_type = self.check_expr(arg)
            if not ty.assignable(param_type, arg_type):
                raise LimeTypeError(
                    f"constructor argument {arg_type} not assignable to "
                    f"{param_type}",
                    arg.position,
                )
        if self._facts is not None:
            self._facts.calls.add(f"{info.name}.<init>")
        return ctor

    # Operators --------------------------------------------------------------

    def _check_unary(self, expr: ast.Unary) -> ty.Type:
        operand = self.check_expr(expr.operand)
        op = expr.op
        if op in ("++pre", "--pre", "++post", "--post"):
            if not isinstance(expr.operand, (ast.Name, ast.Index, ast.FieldAccess)):
                raise LimeTypeError(
                    "++/-- require an assignable operand", expr.position
                )
            self._check_lvalue(expr.operand)
            if operand not in (ty.INT, ty.LONG):
                raise LimeTypeError(
                    f"++/-- require an integral operand, found {operand}",
                    expr.position,
                )
            return operand
        if op == "-":
            if not (isinstance(operand, ty.PrimType) and operand.is_numeric):
                raise LimeTypeError(
                    f"cannot negate {operand}", expr.position
                )
            return operand
        if op == "!":
            if operand != ty.BOOLEAN:
                raise LimeTypeError(
                    f"'!' requires boolean, found {operand}", expr.position
                )
            return ty.BOOLEAN
        if op == "~":
            if operand == ty.BIT:
                # The built-in bit.~ operator method (Figure 1).
                if self._facts is not None:
                    self._facts.intrinsic_calls.add("bit.~")
                return ty.BIT
            if operand in (ty.INT, ty.LONG):
                return operand
            if isinstance(operand, ty.ClassType) and operand.is_enum:
                info = self.checked.classes.get(operand.name)
                target = info.find_method("~") if info else None
                if target is not None:
                    if self._facts is not None:
                        self._facts.calls.add(target.qualified_name)
                    return target.return_type
            raise LimeTypeError(
                f"no '~' operator for {operand}", expr.position
            )
        raise AssertionError(f"unknown unary {op}")

    def _check_binary(self, expr: ast.Binary) -> ty.Type:
        left = self.check_expr(expr.left)
        right = self.check_expr(expr.right)
        op = expr.op
        if op == "+" and (left == ty.STRING or right == ty.STRING):
            self._note_string_use(expr)
            return ty.STRING
        if op in ("+", "-", "*", "/", "%"):
            result = ty.binary_numeric_result(left, right)
            if result is None:
                raise LimeTypeError(
                    f"operator {op} undefined for {left} and {right}",
                    expr.position,
                )
            return result
        if op in ("<<", ">>"):
            if left not in (ty.INT, ty.LONG) or right != ty.INT:
                raise LimeTypeError(
                    f"shift requires integral operands, found {left} "
                    f"and {right}",
                    expr.position,
                )
            return left
        if op in ("&", "|", "^"):
            if left == right == ty.BOOLEAN:
                return ty.BOOLEAN
            if left == right == ty.BIT:
                return ty.BIT
            if left in (ty.INT, ty.LONG) and right in (ty.INT, ty.LONG):
                result = ty.binary_numeric_result(left, right)
                assert result is not None
                return result
            raise LimeTypeError(
                f"operator {op} undefined for {left} and {right}",
                expr.position,
            )
        if op in ("&&", "||"):
            if left != ty.BOOLEAN or right != ty.BOOLEAN:
                raise LimeTypeError(
                    f"operator {op} requires booleans", expr.position
                )
            return ty.BOOLEAN
        if op in ("<", ">", "<=", ">="):
            if ty.binary_numeric_result(left, right) is None:
                raise LimeTypeError(
                    f"cannot compare {left} and {right}", expr.position
                )
            return ty.BOOLEAN
        if op in ("==", "!="):
            if (
                left == right
                or ty.binary_numeric_result(left, right) is not None
            ):
                return ty.BOOLEAN
            raise LimeTypeError(
                f"cannot compare {left} and {right}", expr.position
            )
        raise AssertionError(f"unknown binary {op}")

    def _check_ternary(self, expr: ast.Ternary) -> ty.Type:
        self._require_boolean(expr.cond, "conditional expression")
        then = self.check_expr(expr.then)
        other = self.check_expr(expr.other)
        if then == other:
            return then
        promoted = ty.binary_numeric_result(then, other)
        if promoted is not None:
            return promoted
        raise LimeTypeError(
            f"incompatible branches {then} and {other} in conditional",
            expr.position,
        )

    def _check_assign(self, expr: ast.Assign) -> ty.Type:
        target_type = self.check_expr(expr.target)
        self._check_lvalue(expr.target)
        value_type = self.check_expr(expr.value)
        if expr.op == "=":
            if not ty.assignable(target_type, value_type):
                raise LimeTypeError(
                    f"cannot assign {value_type} to {target_type}",
                    expr.position,
                )
            return target_type
        # Compound assignment computes in the promoted type and carries
        # an implicit narrowing cast back to the target type (JLS
        # §15.26.2: 'x += 2.5' is legal for int x), so both sides
        # merely need to be numeric.
        expr.op_type = ty.binary_numeric_result(target_type, value_type)
        if expr.op_type is None:
            raise LimeTypeError(
                f"compound assignment {expr.op} undefined for "
                f"{target_type} and {value_type}",
                expr.position,
            )
        return target_type

    def _check_lvalue(self, target: ast.Expr) -> None:
        if isinstance(target, ast.Name):
            if target.resolution in ("local", "param"):
                return
            if target.resolution in ("field", "static_field"):
                self._check_field_store(target, target.decl)
                return
            raise LimeTypeError(
                f"cannot assign to {target.ident!r}", target.position
            )
        if isinstance(target, ast.Index):
            array_type = target.array.type
            if isinstance(array_type, ty.ArrayType) and array_type.is_value_array:
                raise IsolationError(
                    "value array elements are read-only and cannot be "
                    "assigned (Section 2.2)",
                    target.position,
                )
            return
        if isinstance(target, ast.FieldAccess):
            if target.resolution in ("field", "static_field"):
                self._check_field_store(target, target.decl)
                return
            raise LimeTypeError(
                "cannot assign to this expression", target.position
            )
        raise LimeTypeError("invalid assignment target", target.position)

    def _check_field_store(self, node, field: Optional[FieldInfo]) -> None:
        if field is None:
            raise LimeTypeError("cannot assign here", node.position)
        in_constructor = (
            self._current_method is not None
            and self._current_method.is_constructor
            and self._current_method.owner is field.owner
        )
        if field.is_final and not in_constructor:
            raise IsolationError(
                f"field {field.name!r} is final"
                + (
                    " (fields of value classes are immutable)"
                    if field.owner.is_value
                    else ""
                ),
                node.position,
            )
        if self._in_local_context() and field.is_static:
            raise IsolationError(
                "local methods may not write static fields", node.position
            )

    def _check_cast(self, expr: ast.Cast) -> ty.Type:
        target = self.resolve_type(expr.type_syntax)
        operand = self.check_expr(expr.operand)
        if not ty.castable(target, operand):
            raise LimeTypeError(
                f"cannot cast {operand} to {target}", expr.position
            )
        return target

    # Map / reduce / tasks ---------------------------------------------------

    def _resolve_map_target(self, expr, what: str) -> MethodInfo:
        if expr.receiver is not None:
            info = self.checked.classes.get(expr.receiver)
            if info is None:
                raise LimeTypeError(
                    f"unknown class {expr.receiver!r}", expr.position
                )
        else:
            info = self._current_class
            if info is None:
                raise LimeTypeError(
                    f"{what} outside of a class", expr.position
                )
        target = info.find_method(expr.method)
        if target is None:
            raise LimeTypeError(
                f"{info.name} has no method {expr.method!r}", expr.position
            )
        if not target.is_local or not target.is_static:
            raise IsolationError(
                f"{what} requires a local static method; "
                f"{target.qualified_name} is not",
                expr.position,
            )
        if not target.takes_only_values:
            raise IsolationError(
                f"{what} method {target.qualified_name} must take only "
                "value parameters",
                expr.position,
            )
        if not target.return_type.is_value_type:
            raise IsolationError(
                f"{what} method {target.qualified_name} must return a "
                "value",
                expr.position,
            )
        if self._facts is not None:
            self._facts.calls.add(target.qualified_name)
        expr.target = target
        return target

    def _check_map(self, expr: ast.MapExpr) -> ty.Type:
        """Map with broadcasting: an argument whose type is ``T[[]]``
        against a ``T`` parameter is *mapped* (one element per work
        item); an argument whose type equals the parameter type exactly
        is *broadcast* (the same value for every work item — how
        kernels like matrix multiply receive whole operand arrays).
        At least one argument must be mapped."""
        target = self._resolve_map_target(expr, "map ('@')")
        if len(expr.args) != len(target.param_types):
            raise LimeTypeError(
                f"map over {target.qualified_name} needs "
                f"{len(target.param_types)} arguments",
                expr.position,
            )
        broadcast: list = []
        for arg, param_type in zip(expr.args, target.param_types):
            arg_type = self.check_expr(arg)
            mapped_type = ty.ArrayType(param_type, is_value=True)
            if arg_type == mapped_type:
                broadcast.append(False)
            elif arg_type == param_type:
                broadcast.append(True)
            else:
                raise LimeTypeError(
                    f"map argument must be {mapped_type} (mapped) or "
                    f"{param_type} (broadcast), found {arg_type}",
                    arg.position,
                )
        if all(broadcast):
            raise LimeTypeError(
                "map needs at least one mapped (array) argument",
                expr.position,
            )
        element = target.return_type
        if not (
            isinstance(element, ty.PrimType)
            or (isinstance(element, ty.ClassType) and element.is_enum)
        ):
            raise LimeTypeError(
                f"map methods must return a primitive or enum value, "
                f"found {element}",
                expr.position,
            )
        expr.broadcast = broadcast
        return ty.ArrayType(element, is_value=True)

    def _check_reduce(self, expr: ast.ReduceExpr) -> ty.Type:
        target = self._resolve_map_target(expr, "reduce ('!')")
        if len(target.param_types) != 2 or (
            target.param_types[0] != target.param_types[1]
            or target.return_type != target.param_types[0]
        ):
            raise LimeTypeError(
                f"reduce requires a binary method (T, T) -> T; "
                f"{target.qualified_name} does not qualify",
                expr.position,
            )
        if len(expr.args) != 1:
            raise LimeTypeError(
                "reduce takes exactly one array argument", expr.position
            )
        arg_type = self.check_expr(expr.args[0])
        expected = ty.ArrayType(target.param_types[0], is_value=True)
        if arg_type != expected:
            raise LimeTypeError(
                f"reduce argument must be {expected}, found {arg_type}",
                expr.position,
            )
        return target.return_type

    def _check_task(self, expr: ast.TaskExpr) -> ty.Type:
        self._require_graph_context(expr, "task")
        target = self._resolve_task_target(expr)
        expr.target = target
        if getattr(expr, "is_instance_task", False):
            # Stateful tasks require pipeline parallelism; data
            # parallelism is impossible, so arity stays per the method.
            pass
        if not target.param_types:
            raise TaskGraphError(
                f"task method {target.qualified_name} must consume at "
                "least one input",
                expr.position,
            )
        first = target.param_types[0]
        if any(p != first for p in target.param_types):
            raise TaskGraphError(
                "all parameters of a task method must share one type "
                "(the task consumes that many items per firing)",
                expr.position,
            )
        if target.return_type == ty.VOID:
            raise TaskGraphError(
                f"task method {target.qualified_name} must produce a "
                "value",
                expr.position,
            )
        return ty.TaskType(first, target.return_type)

    def _resolve_task_target(self, expr: ast.TaskExpr) -> MethodInfo:
        expr.is_instance_task = False
        if expr.receiver is not None:
            # The receiver may be a local variable holding an object
            # instance (a *stateful* task, Section 2.1) or a class name
            # (a pure static task).
            local_type = (
                self._scope.lookup(expr.receiver)
                if self._scope is not None
                else None
            )
            if local_type is not None:
                return self._resolve_instance_task(expr, local_type)
            info = self.checked.classes.get(expr.receiver)
            if info is None:
                raise LimeTypeError(
                    f"unknown class or variable {expr.receiver!r}",
                    expr.position,
                )
        else:
            info = self._current_class
            assert info is not None
        target = info.find_method(expr.method)
        if target is None:
            raise LimeTypeError(
                f"{info.name} has no method {expr.method!r}", expr.position
            )
        # Inner tasks (filters) must be strongly isolated: local methods
        # with value arguments (Section 2.2).
        if not target.is_local:
            raise IsolationError(
                f"the task operator requires a local method; "
                f"{target.qualified_name} is global",
                expr.position,
            )
        if not target.is_static:
            raise TaskGraphError(
                f"use an object instance for the stateful task over "
                f"{target.qualified_name} (e.g. 'task obj.{expr.method}')",
                expr.position,
            )
        produces_value = (
            target.return_type == ty.VOID or target.return_type.is_value_type
        )
        if not target.takes_only_values or not produces_value:
            raise IsolationError(
                f"task method {target.qualified_name} must consume and "
                "produce values only",
                expr.position,
            )
        if self._facts is not None:
            self._facts.calls.add(target.qualified_name)
        return target

    def _resolve_instance_task(
        self, expr: ast.TaskExpr, receiver_type: ty.Type
    ) -> MethodInfo:
        """Stateful task (Section 2.1): the instance must come from an
        *isolating constructor* — a local constructor with value
        arguments — and the method must be local with value I/O."""
        if not isinstance(receiver_type, ty.ClassType) or receiver_type.is_enum:
            raise TaskGraphError(
                f"task receiver {expr.receiver!r} must be an object "
                f"instance, found {receiver_type}",
                expr.position,
            )
        info = self.checked.classes.get(receiver_type.name)
        assert info is not None
        ctor = info.constructors[0] if info.constructors else None
        ctor_isolating = info.is_value or (
            ctor is not None
            and ctor.is_local
            and all(p.is_value_type for p in ctor.param_types)
        )
        if not ctor_isolating:
            raise IsolationError(
                f"stateful tasks require an isolating constructor "
                f"(local, value arguments) on {info.name}",
                expr.position,
            )
        target = info.find_method(expr.method)
        if target is None or target.is_static:
            raise LimeTypeError(
                f"{info.name} has no instance method {expr.method!r}",
                expr.position,
            )
        if not target.is_local:
            raise IsolationError(
                f"the task operator requires a local method; "
                f"{target.qualified_name} is global",
                expr.position,
            )
        produces_value = (
            target.return_type == ty.VOID
            or target.return_type.is_value_type
        )
        if not target.takes_only_values or not produces_value:
            raise IsolationError(
                f"task method {target.qualified_name} must consume and "
                "produce values only",
                expr.position,
            )
        if self._facts is not None:
            self._facts.calls.add(target.qualified_name)
        expr.is_instance_task = True
        expr.receiver_type = receiver_type
        return target

    def _check_connect(self, expr: ast.ConnectExpr) -> ty.Type:
        self._require_graph_context(expr, "connect ('=>')")
        left = self.check_expr(expr.left)
        right = self.check_expr(expr.right)
        if not isinstance(left, ty.TaskType) or not isinstance(
            right, ty.TaskType
        ):
            raise TaskGraphError(
                f"'=>' connects tasks, found {left} and {right}",
                expr.position,
            )
        if left.output is None:
            raise TaskGraphError(
                "left side of '=>' has no output (it ends in a sink)",
                expr.position,
            )
        if right.input is None:
            raise TaskGraphError(
                "right side of '=>' has no input (it starts at a source)",
                expr.position,
            )
        if not ty.assignable(right.input, left.output):
            raise TaskGraphError(
                f"type mismatch across '=>': {left.output} flows into "
                f"{right.input}",
                expr.position,
            )
        if not left.output.is_value_type:
            raise IsolationError(
                f"only values may flow between tasks; {left.output} is "
                "not a value type",
                expr.position,
            )
        return ty.TaskType(left.input, right.output)

    def _check_reloc(self, expr: ast.RelocExpr) -> ty.Type:
        inner = self.check_expr(expr.inner)
        if not isinstance(inner, ty.TaskType):
            raise TaskGraphError(
                "relocation brackets '([ ... ])' must wrap a task "
                f"expression, found {inner}",
                expr.position,
            )
        return inner

    # ------------------------------------------------------------------
    # Purity fixpoint
    # ------------------------------------------------------------------

    def _compute_purity(self) -> None:
        """Pure = local static, value params and return, no field access,
        no allocation side channels beyond values, and all callees pure.

        Iterate to a fixpoint because purity is mutually recursive
        through the call graph. Operator methods of value enums are also
        pure (their only state is the immutable ``this``).
        """
        methods = [
            m
            for m in self.checked.all_methods()
            if not m.is_constructor and not m.is_intrinsic
        ]

        def base_eligible(m: MethodInfo) -> bool:
            facts = self.checked.method_facts.get(m.qualified_name)
            if facts is None:
                facts = MethodFacts()
            if facts.does_io or facts.builds_tasks:
                return False
            if facts.accesses_static_mutable:
                return False
            if m.is_operator and m.owner.is_enum:
                return m.is_local
            if facts.accesses_instance_fields:
                # Instance methods of value classes are stateless with
                # respect to mutation, but we reserve 'pure' for static
                # relocatable methods plus value-type instance methods.
                return m.owner.is_value and m.is_local
            if not (m.is_local and m.is_static):
                return False
            if not m.takes_only_values:
                return False
            return m.return_type == ty.VOID or m.return_type.is_value_type

        pure = {m.qualified_name: base_eligible(m) for m in methods}
        changed = True
        while changed:
            changed = False
            for m in methods:
                name = m.qualified_name
                if not pure[name]:
                    continue
                facts = self.checked.method_facts.get(name)
                if facts is None:
                    continue
                for callee in facts.calls:
                    if callee.endswith(".<init>"):
                        continue
                    if callee in pure and not pure[callee]:
                        pure[name] = False
                        changed = True
                        break
        for m in methods:
            m.is_pure = pure[m.qualified_name]
            if m.decl is not None:
                m.decl.is_pure = m.is_pure


def check(program: ast.Program) -> CheckedProgram:
    """Run semantic analysis over a parsed program."""
    return TypeChecker(program).check()


def analyze(source: str, filename: str = "<lime>") -> CheckedProgram:
    """Parse and check Lime source text in one step."""
    return check(parse(source, filename))
