"""Shallow IR optimizations.

The paper's frontend "performs shallow optimizations" before emitting
bytecode (Section 3). We implement the classic shallow set:

* constant folding over arithmetic/logic/comparison operators,
* algebraic identity simplification (x+0, x*1, x*0, x&&true, …),
* branch pruning for constant conditions,
* unreachable-code elimination after return/break/continue.

All passes preserve types and evaluation order of side-effecting
expressions (calls are never folded or dropped).
"""

from __future__ import annotations

import functools
import math

from repro.errors import DeviceError
from repro.ir import nodes as ir
from repro.ir.ops import apply_binary, apply_cast, apply_unary
from repro.lime import types as ty


def _fold(evaluate, operands: tuple, type_: ty.Type):
    """One :mod:`repro.ir.ops` operation over constants, as ``(ok,
    value)``. Declined when an operand is not a plain ``bool``/``int``/
    ``float`` (``Bit``, enum, string and array constants stay as
    written), when the result is not primitive, and when the operation
    raises (integer ``/`` and ``%`` by zero): it must raise at run time.
    """
    if not isinstance(type_, ty.PrimType) or not all(
        type(value) in (bool, int, float) for value in operands
    ):
        return False, None
    try:
        return True, evaluate(*operands, type_.name)
    except DeviceError:
        return False, None


def fold_binary(op: str, left: object, right: object, type_: ty.Type):
    """Fold two Python-level constants; returns (ok, value)."""
    return _fold(functools.partial(apply_binary, op), (left, right), type_)


def fold_unary(op: str, operand: object, type_: ty.Type):
    """Fold a unary operator over a constant; returns (ok, value)."""
    if op == "-" and type_ == ty.FLOAT and type(operand) is float:
        # An exact sign flip, not apply_unary's binary32 rounding:
        # float literals are still carried at double precision (ROADMAP,
        # "float literals"), the unfolded ``-`` would round one, and
        # perf/expected/ pins black_scholes with -0.356563782f unrounded.
        # Delete this rule when literals are rounded at lowering.
        return True, -operand
    return _fold(functools.partial(apply_unary, op), (operand,), type_)


def fold_cast(value: object, type_: ty.Type):
    """Fold a cast of a constant to ``type_``; returns (ok, value)."""
    return _fold(apply_cast, (value,), type_)


def _is_number(expr: ir.IRExpr, value: int) -> bool:
    """``expr`` is the numeric constant ``value`` (0 or 1). ``-0.0`` is
    not 0: ``x - -0.0`` is ``+0.0`` at ``x = -0.0``."""
    return (
        isinstance(expr, ir.EConst)
        and type(expr.value) in (int, float)
        and expr.value == value
        and math.copysign(1.0, expr.value) == 1.0
    )


def _pure_expr(expr: ir.IRExpr) -> bool:
    """Conservatively: no calls, loads from mutable state are fine to
    duplicate-free drop but we only use this to *discard* expressions,
    so anything without calls/intrinsics/allocation is safe."""
    for e in ir.walk_expr(expr):
        if isinstance(
            e,
            (
                ir.ECall,
                ir.EIntrinsic,
                ir.ENewArray,
                ir.ENewObject,
                ir.EMap,
                ir.EReduce,
                ir.EGraphSource,
                ir.EGraphSink,
                ir.EGraphTask,
                ir.EGraphConnect,
            ),
        ):
            return False
    return True


class Optimizer:
    def __init__(self, module: ir.IRModule):
        self.module = module

    def run(self) -> ir.IRModule:
        for function in self.module.functions.values():
            function.body = self._stmts(function.body)
        return self.module

    # -- statements --------------------------------------------------

    def _stmts(self, body: list) -> list:
        out: list = []
        for stmt in body:
            simplified = self._stmt(stmt)
            if simplified is None:
                continue
            if isinstance(simplified, list):
                out.extend(simplified)
            else:
                out.append(simplified)
            last = out[-1] if out else None
            if isinstance(last, (ir.SReturn, ir.SBreak, ir.SContinue)):
                break  # anything after is unreachable
        return out

    def _stmt(self, stmt: ir.IRStmt):
        if isinstance(stmt, ir.SLet):
            stmt.init = self._expr(stmt.init)
            return stmt
        if isinstance(stmt, ir.SAssignLocal):
            stmt.value = self._expr(stmt.value)
            return stmt
        if isinstance(stmt, ir.SArrayStore):
            stmt.array = self._expr(stmt.array)
            stmt.index = self._expr(stmt.index)
            stmt.value = self._expr(stmt.value)
            return stmt
        if isinstance(stmt, ir.SFieldStore):
            stmt.receiver = self._expr(stmt.receiver)
            stmt.value = self._expr(stmt.value)
            return stmt
        if isinstance(stmt, ir.SStaticStore):
            stmt.value = self._expr(stmt.value)
            return stmt
        if isinstance(stmt, ir.SIf):
            stmt.cond = self._expr(stmt.cond)
            stmt.then = self._stmts(stmt.then)
            stmt.other = self._stmts(stmt.other)
            if isinstance(stmt.cond, ir.EConst):
                return stmt.then if stmt.cond.value else stmt.other
            if not stmt.then and not stmt.other and _pure_expr(stmt.cond):
                return None
            return stmt
        if isinstance(stmt, ir.SWhile):
            stmt.cond = self._expr(stmt.cond)
            stmt.body = self._stmts(stmt.body)
            if isinstance(stmt.cond, ir.EConst) and not stmt.cond.value:
                return None
            return stmt
        if isinstance(stmt, ir.SFor):
            stmt.start = self._expr(stmt.start)
            stmt.limit = self._expr(stmt.limit)
            stmt.step = self._expr(stmt.step)
            stmt.body = self._stmts(stmt.body)
            if (
                isinstance(stmt.start, ir.EConst)
                and isinstance(stmt.limit, ir.EConst)
                and stmt.start.value >= stmt.limit.value
            ):
                return None  # zero-trip loop
            return stmt
        if isinstance(stmt, ir.SReturn):
            if stmt.value is not None:
                stmt.value = self._expr(stmt.value)
            return stmt
        if isinstance(stmt, ir.SExpr):
            stmt.expr = self._expr(stmt.expr)
            if _pure_expr(stmt.expr):
                return None  # value discarded, no effects
            return stmt
        if isinstance(stmt, ir.SGraphStart):
            stmt.graph = self._expr(stmt.graph)
            return stmt
        return stmt

    # -- expressions ---------------------------------------------------

    def _expr(self, expr: ir.IRExpr) -> ir.IRExpr:
        # Recurse first.
        if isinstance(expr, ir.EUnary):
            expr.operand = self._expr(expr.operand)
            return self._fold_unary(expr)
        if isinstance(expr, ir.EBinary):
            expr.left = self._expr(expr.left)
            expr.right = self._expr(expr.right)
            return self._fold_binary_expr(expr)
        if isinstance(expr, ir.ETernary):
            expr.cond = self._expr(expr.cond)
            expr.then = self._expr(expr.then)
            expr.other = self._expr(expr.other)
            if isinstance(expr.cond, ir.EConst):
                return expr.then if expr.cond.value else expr.other
            return expr
        if isinstance(expr, ir.ECast):
            expr.operand = self._expr(expr.operand)
            return self._fold_cast(expr)
        if isinstance(expr, ir.EIndex):
            expr.array = self._expr(expr.array)
            expr.index = self._expr(expr.index)
            return expr
        if isinstance(expr, ir.ELength):
            expr.array = self._expr(expr.array)
            if isinstance(expr.array, ir.EConst):
                return ir.EConst(ty.INT, len(expr.array.value))
            return expr
        if isinstance(
            expr, (ir.ECall, ir.EIntrinsic, ir.EMap, ir.EReduce)
        ):
            expr.args = [self._expr(a) for a in expr.args]
            return expr
        if isinstance(expr, ir.ENewArray):
            expr.length = self._expr(expr.length)
            return expr
        if isinstance(expr, ir.ENewObject):
            expr.args = [self._expr(a) for a in expr.args]
            return expr
        if isinstance(expr, ir.EFieldLoad):
            expr.receiver = self._expr(expr.receiver)
            return expr
        if isinstance(expr, ir.EFreeze):
            expr.operand = self._expr(expr.operand)
            return expr
        if isinstance(expr, ir.EGraphSource):
            expr.array = self._expr(expr.array)
            return expr
        if isinstance(expr, ir.EGraphSink):
            expr.array = self._expr(expr.array)
            return expr
        if isinstance(expr, ir.EGraphConnect):
            expr.left = self._expr(expr.left)
            expr.right = self._expr(expr.right)
            return expr
        return expr

    def _fold_unary(self, expr: ir.EUnary) -> ir.IRExpr:
        operand = expr.operand
        if isinstance(operand, ir.EConst):
            ok, value = fold_unary(expr.op, operand.value, expr.type)
            if ok:
                return ir.EConst(expr.type, value)
        # --x => x, !!x => x
        if (
            expr.op in ("-", "!")
            and isinstance(operand, ir.EUnary)
            and operand.op == expr.op
        ):
            return operand.operand
        return expr

    def _fold_binary_expr(self, expr: ir.EBinary) -> ir.IRExpr:
        left, right = expr.left, expr.right
        if isinstance(left, ir.EConst) and isinstance(right, ir.EConst):
            ok, value = fold_binary(
                expr.op, left.value, right.value, expr.type
            )
            if ok:
                return ir.EConst(expr.type, value)
        op = expr.op
        # Algebraic identities, between operands of the result type (a
        # float constant in an int expression is a narrowing ``x += c``,
        # which rounds a long through double). Those that drop or keep a
        # zero hold for integers only: in floating point ``x + 0.0`` is
        # ``+0.0`` at ``x = -0.0`` and ``x * 0.0`` is NaN at infinity.
        if left.type == right.type == expr.type:
            integral = expr.type in (ty.INT, ty.LONG)
            if op == "+" and integral:
                if _is_number(left, 0):
                    return right
                if _is_number(right, 0):
                    return left
            if op == "-" and _is_number(right, 0):
                return left
            if op == "*":
                if _is_number(left, 1):
                    return right
                if _is_number(right, 1):
                    return left
                # Only applied when dropping the other operand is
                # effect-free.
                if integral and _is_number(right, 0) and _pure_expr(left):
                    return right
                if integral and _is_number(left, 0) and _pure_expr(right):
                    return left
            if op == "/" and _is_number(right, 1):
                return left
        if op == "&&":
            if isinstance(left, ir.EConst):
                return right if left.value else left
            if isinstance(right, ir.EConst) and right.value:
                return left
        if op == "||":
            if isinstance(left, ir.EConst):
                return left if left.value else right
            if isinstance(right, ir.EConst) and not right.value:
                return left
        return expr

    def _fold_cast(self, expr: ir.ECast) -> ir.IRExpr:
        operand = expr.operand
        if operand.type == expr.type:
            return operand
        if isinstance(operand, ir.EConst):
            ok, value = fold_cast(operand.value, expr.type)
            if ok:
                return ir.EConst(expr.type, value)
        return expr


def optimize(module: ir.IRModule) -> ir.IRModule:
    """Run the shallow optimization pipeline in place."""
    return Optimizer(module).run()
