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

from typing import Optional

from repro.ir import nodes as ir
from repro.lime import types as ty

_INT_MASK = (1 << 32) - 1
_LONG_MASK = (1 << 64) - 1


def _wrap_int(value: int, type_: ty.Type) -> int:
    """Two's-complement wrap-around like the JVM."""
    if type_ == ty.INT:
        value &= _INT_MASK
        return value - (1 << 32) if value >= (1 << 31) else value
    if type_ == ty.LONG:
        value &= _LONG_MASK
        return value - (1 << 64) if value >= (1 << 63) else value
    return value


def _narrow(value, type_: ty.Type) -> int:
    """``(int)``/``(long)`` of a constant, as ``ops.apply_cast`` does it
    at run time: ints wrap; floats truncate, saturate, and NaN is 0."""
    if isinstance(value, float):
        if value != value:
            return 0
        half = 1 << (31 if type_ == ty.INT else 63)
        return int(max(-half, min(half - 1, value)))
    return _wrap_int(value, type_)


def fold_binary(op: str, left: object, right: object, type_: ty.Type):
    """Fold two Python-level constants; returns (ok, value)."""
    try:
        if op == "+":
            result = left + right
        elif op == "-":
            result = left - right
        elif op == "*":
            result = left * right
        elif op == "/":
            if isinstance(left, int) and isinstance(right, int):
                if right == 0:
                    return False, None
                result = abs(left) // abs(right)
                if (left < 0) != (right < 0):
                    result = -result
            else:
                if right == 0:
                    return False, None
                result = left / right
        elif op == "%":
            if right == 0:
                return False, None
            if isinstance(left, int) and isinstance(right, int):
                result = abs(left) % abs(right)
                if left < 0:
                    result = -result
            else:
                import math

                result = math.fmod(left, right)
        elif op == "<<":
            result = left << (right & 31)
        elif op == ">>":
            result = left >> (right & 31)
        elif op == "&":
            result = left & right
        elif op == "|":
            result = left | right
        elif op == "^":
            result = left ^ right
        elif op == "==":
            result = left == right
        elif op == "!=":
            result = left != right
        elif op == "<":
            result = left < right
        elif op == ">":
            result = left > right
        elif op == "<=":
            result = left <= right
        elif op == ">=":
            result = left >= right
        elif op == "&&":
            result = left and right
        elif op == "||":
            result = left or right
        else:
            return False, None
    except TypeError:
        return False, None
    if isinstance(result, bool):
        return True, result
    if isinstance(result, int) and type_ in (ty.INT, ty.LONG):
        return True, _wrap_int(result, type_)
    if type_ in (ty.FLOAT, ty.DOUBLE):
        return True, float(result)
    return True, result


def _is_const(expr: ir.IRExpr, value=None) -> bool:
    if not isinstance(expr, ir.EConst):
        return False
    if value is None:
        return True
    return expr.value == value and not isinstance(expr.value, bool) or (
        isinstance(value, bool) and expr.value is value
    )


def _is_number(expr: ir.IRExpr, value: float) -> bool:
    return (
        isinstance(expr, ir.EConst)
        and isinstance(expr.value, (int, float))
        and not isinstance(expr.value, bool)
        and expr.value == value
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
            value = operand.value
            if expr.op == "-" and isinstance(value, (int, float)):
                return ir.EConst(expr.type, _wrap_int(-value, expr.type))
            if expr.op == "!" and isinstance(value, bool):
                return ir.EConst(expr.type, not value)
            if expr.op == "~" and isinstance(value, int) and not isinstance(value, bool):
                return ir.EConst(expr.type, _wrap_int(~value, expr.type))
        # --x => x
        if (
            expr.op == "-"
            and isinstance(operand, ir.EUnary)
            and operand.op == "-"
        ):
            return operand.operand
        if (
            expr.op == "!"
            and isinstance(operand, ir.EUnary)
            and operand.op == "!"
        ):
            return operand.operand
        return expr

    def _fold_binary_expr(self, expr: ir.EBinary) -> ir.IRExpr:
        left, right = expr.left, expr.right
        if (
            isinstance(left, ir.EConst)
            and isinstance(right, ir.EConst)
            and expr.type != ty.STRING
        ):
            ok, value = fold_binary(
                expr.op, left.value, right.value, expr.type
            )
            if ok:
                return ir.EConst(expr.type, value)
        op = expr.op
        # Algebraic identities. Only applied when dropping the other
        # operand is effect-free.
        if op == "+":
            if _is_number(left, 0) and expr.type == right.type:
                return right
            if _is_number(right, 0) and expr.type == left.type:
                return left
        if op == "-" and _is_number(right, 0) and expr.type == left.type:
            return left
        if op == "*":
            if _is_number(left, 1) and expr.type == right.type:
                return right
            if _is_number(right, 1) and expr.type == left.type:
                return left
            if (
                _is_number(right, 0)
                and _pure_expr(left)
                and expr.type == right.type
            ):
                return right
            if (
                _is_number(left, 0)
                and _pure_expr(right)
                and expr.type == left.type
            ):
                return left
        if op == "/" and _is_number(right, 1) and expr.type == left.type:
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
        if isinstance(operand, ir.EConst) and isinstance(
            expr.type, ty.PrimType
        ):
            value = operand.value
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if expr.type in (ty.INT, ty.LONG):
                    return ir.EConst(expr.type, _narrow(value, expr.type))
                if expr.type in (ty.FLOAT, ty.DOUBLE):
                    return ir.EConst(expr.type, float(value))
        return expr


def optimize(module: ir.IRModule) -> ir.IRModule:
    """Run the shallow optimization pipeline in place."""
    return Optimizer(module).run()
