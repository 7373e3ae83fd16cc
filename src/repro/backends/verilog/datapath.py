"""Datapath extraction: behavioral synthesis of a pure filter method
into a single combinational expression DAG.

The FPGA backend accepts a deliberately narrower language subset than
the GPU backend — the paper is explicit that "our FPGA backend is a
work in progress" (Section 5) and that its device compiler excludes
tasks with unsuitable constructs (Section 3). Supported here:

* scalar types: bit, boolean, int, long, and value enums;
* straight-line code, if/else (converted to muxes), ternaries;
* canonical ``for`` loops with constant bounds (fully unrolled);
* calls to other eligible local methods (inlined);
* ``Math.abs/min/max`` on integers (become mux trees).

Everything else raises :class:`ExclusionNotice`, which the backend
records as the exclusion reason.
"""

from __future__ import annotations

from repro.errors import ExclusionNotice
from repro.ir import nodes as ir
from repro.ir.optimizations import fold_binary, fold_unary
from repro.lime import types as ty


_SCALAR_OK = ("bit", "boolean", "int", "long")

#: Most iterations a loop may fully unroll into.
UNROLL_BUDGET = 256
#: Deepest call chain inlined into one datapath.
INLINE_DEPTH = 16


def _check_type(type_) -> None:
    if isinstance(type_, ty.PrimType) and type_.name in _SCALAR_OK:
        return
    if isinstance(type_, ty.ClassType) and type_.is_enum:
        return
    raise ExclusionNotice(
        f"type {type_} is not synthesizable (FPGA backend supports "
        "bit/boolean/int/long/enums)"
    )


def _mk_binary(type_, op, left, right) -> ir.IRExpr:
    if isinstance(left, ir.EConst) and isinstance(right, ir.EConst):
        ok, value = fold_binary(op, left.value, right.value, type_)
        if ok:
            return ir.EConst(type_, value)
    return ir.EBinary(type_, op, left, right)


def _mk_mux(type_, cond, then, other) -> ir.IRExpr:
    if isinstance(cond, ir.EConst):
        return then if cond.value else other
    if (
        isinstance(then, ir.EConst)
        and isinstance(other, ir.EConst)
        and then.value == other.value
    ):
        return then
    return ir.ETernary(type_, cond, then, other)


class DatapathBuilder:
    """Symbolically evaluates a method body into an expression DAG."""

    def __init__(self, module: ir.IRModule):
        self.module = module

    def build(self, method: str) -> ir.IRExpr:
        """The datapath of ``method`` as a function of its parameters
        (ELocal leaves named after the parameters)."""
        return self._inline(method, None, 0)

    # ------------------------------------------------------------------

    def _inline(self, method: str, args, depth: int) -> ir.IRExpr:
        if depth > INLINE_DEPTH:
            raise ExclusionNotice(
                f"call inlining too deep at {method} (recursion?)"
            )
        function = self.module.functions.get(method)
        if function is None:
            raise ExclusionNotice(f"method {method} not found")
        if not function.is_pure:
            raise ExclusionNotice(
                f"{method} is not pure and cannot be synthesized"
            )
        _check_type(function.return_type)
        env: dict[str, ir.IRExpr] = {}
        for i, param in enumerate(function.params):
            _check_type(param.type)
            env[param.name] = (
                ir.ELocal(param.type, param.name) if args is None else args[i]
            )
        result = self._eval_stmts(list(function.body), env, depth)
        if result is None:
            raise ExclusionNotice(
                f"{method}: not all paths produce a value"
            )
        return result

    def _eval_stmts(self, stmts: list, env: dict, depth: int):
        """Evaluate statements; returns the return-value expression or
        None if control falls through."""
        for i, stmt in enumerate(stmts):
            rest = stmts[i + 1 :]
            if isinstance(stmt, ir.SReturn):
                if stmt.value is None:
                    raise ExclusionNotice("void return in a filter")
                return self._eval_expr(stmt.value, env, depth)
            if isinstance(stmt, (ir.SLet, ir.SAssignLocal)):
                value = self._eval_expr(
                    stmt.init if isinstance(stmt, ir.SLet) else stmt.value,
                    env,
                    depth,
                )
                env[stmt.name] = value
                continue
            if isinstance(stmt, ir.SIf):
                return self._eval_if(stmt, rest, env, depth)
            if isinstance(stmt, ir.SFor):
                self._unroll_for(stmt, env, depth)
                continue
            if isinstance(stmt, ir.SWhile):
                raise ExclusionNotice(
                    "while loops are not synthesizable (no static bound)"
                )
            if isinstance(stmt, ir.SExpr):
                continue  # pure expression statements have no effect
            if isinstance(stmt, (ir.SBreak, ir.SContinue)):
                raise ExclusionNotice(
                    "break/continue are not synthesizable"
                )
            raise ExclusionNotice(
                f"statement {type(stmt).__name__} is not synthesizable"
            )
        return None

    def _eval_if(self, stmt: ir.SIf, rest: list, env: dict, depth: int):
        cond = self._eval_expr(stmt.cond, env, depth)
        env_then = dict(env)
        env_else = dict(env)
        ret_then = self._eval_stmts(list(stmt.then), env_then, depth)
        ret_else = self._eval_stmts(list(stmt.other), env_else, depth)
        if ret_then is not None and ret_else is not None:
            return _mk_mux(ret_then.type, cond, ret_then, ret_else)
        if ret_then is None and ret_else is None:
            # Merge variable bindings with muxes.
            for name in set(env_then) | set(env_else):
                then_value = env_then.get(name)
                else_value = env_else.get(name)
                if then_value is None or else_value is None:
                    # Variable scoped to one branch; drop it.
                    env.pop(name, None)
                    continue
                if then_value is else_value:
                    env[name] = then_value
                else:
                    env[name] = _mk_mux(
                        then_value.type, cond, then_value, else_value
                    )
            return self._eval_stmts(rest, env, depth)
        # Exactly one branch returns: continue along the other path,
        # then mux the early return against the rest of the block.
        if ret_then is not None:
            env.update(env_else)
            ret_rest = self._eval_stmts(rest, env, depth)
            if ret_rest is None:
                raise ExclusionNotice(
                    "a path after the if does not produce a value"
                )
            return _mk_mux(ret_then.type, cond, ret_then, ret_rest)
        env.update(env_then)
        ret_rest = self._eval_stmts(rest, env, depth)
        if ret_rest is None:
            raise ExclusionNotice(
                "a path after the if does not produce a value"
            )
        return _mk_mux(
            ret_else.type,
            cond,
            ret_rest,
            ret_else,
        )

    def _unroll_for(self, stmt: ir.SFor, env: dict, depth: int) -> None:
        start = self._eval_expr(stmt.start, env, depth)
        limit = self._eval_expr(stmt.limit, env, depth)
        step = self._eval_expr(stmt.step, env, depth)
        if not all(
            isinstance(e, ir.EConst) for e in (start, limit, step)
        ):
            raise ExclusionNotice(
                "for loop bounds must be compile-time constants for "
                "synthesis (full unrolling)"
            )
        if step.value <= 0:
            raise ExclusionNotice("non-positive loop step")
        trip_count = max(
            0, -(-(limit.value - start.value) // step.value)
        )
        if trip_count > UNROLL_BUDGET:
            raise ExclusionNotice(
                f"loop trip count {trip_count} exceeds the unroll "
                f"budget ({UNROLL_BUDGET})"
            )
        value = start.value
        for _ in range(trip_count):
            env[stmt.var] = ir.EConst(ty.INT, value)
            result = self._eval_stmts(list(stmt.body), env, depth)
            if result is not None:
                raise ExclusionNotice(
                    "return inside a loop is not synthesizable"
                )
            value += step.value
        env[stmt.var] = ir.EConst(ty.INT, value)

    # ------------------------------------------------------------------

    def _eval_expr(self, expr: ir.IRExpr, env: dict, depth: int):
        if isinstance(expr, ir.EConst):
            if isinstance(expr.value, str):
                raise ExclusionNotice("strings are not synthesizable")
            return expr
        if isinstance(expr, ir.ELocal):
            bound = env.get(expr.name)
            if bound is None:
                raise ExclusionNotice(
                    f"unbound variable {expr.name!r} in datapath"
                )
            return bound
        if isinstance(expr, ir.EBinary):
            _check_type(expr.type) if expr.type != ty.BOOLEAN else None
            return _mk_binary(
                expr.type,
                expr.op,
                self._eval_expr(expr.left, env, depth),
                self._eval_expr(expr.right, env, depth),
            )
        if isinstance(expr, ir.EUnary):
            operand = self._eval_expr(expr.operand, env, depth)
            if isinstance(operand, ir.EConst):
                ok, value = fold_unary(expr.op, operand.value, expr.type)
                if ok:
                    return ir.EConst(expr.type, value)
            return ir.EUnary(expr.type, expr.op, operand)
        if isinstance(expr, ir.ETernary):
            return _mk_mux(
                expr.type,
                self._eval_expr(expr.cond, env, depth),
                self._eval_expr(expr.then, env, depth),
                self._eval_expr(expr.other, env, depth),
            )
        if isinstance(expr, ir.ECast):
            _check_type(expr.type)
            operand = self._eval_expr(expr.operand, env, depth)
            if operand.type == expr.type:
                return operand
            return ir.ECast(expr.type, operand)
        if isinstance(expr, ir.ECall):
            args = [self._eval_expr(a, env, depth) for a in expr.args]
            return self._inline(expr.callee, args, depth + 1)
        if isinstance(expr, ir.EIntrinsic):
            return self._eval_intrinsic(expr, env, depth)
        raise ExclusionNotice(
            f"expression {type(expr).__name__} is not synthesizable"
        )

    def _eval_intrinsic(self, expr: ir.EIntrinsic, env, depth):
        args = [self._eval_expr(a, env, depth) for a in expr.args]
        if expr.name == "bit.~":
            return ir.EIntrinsic(ty.BIT, "bit.~", args)
        if expr.name == "Math.abs" and expr.type in (ty.INT, ty.LONG):
            x = args[0]
            zero = ir.EConst(expr.type, 0)
            return _mk_mux(
                expr.type,
                _mk_binary(ty.BOOLEAN, "<", x, zero),
                ir.EUnary(expr.type, "-", x),
                x,
            )
        if expr.name in ("Math.min", "Math.max") and expr.type in (
            ty.INT,
            ty.LONG,
        ):
            op = "<" if expr.name == "Math.min" else ">"
            return _mk_mux(
                expr.type,
                _mk_binary(ty.BOOLEAN, op, args[0], args[1]),
                args[0],
                args[1],
            )
        raise ExclusionNotice(
            f"intrinsic {expr.name} is not synthesizable (no "
            "floating-point units in the FPGA backend)"
        )
