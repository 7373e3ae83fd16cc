"""IR well-formedness verifier.

Run after lowering and optimization as an internal consistency check —
the lowerer and optimizer must only ever hand the backends IR that
satisfies these invariants:

* every expression node carries a semantic type;
* locals are defined (parameter or SLet) before use, per control-flow
  path approximation (declaration seen earlier in the same or an
  enclosing block);
* break/continue appear only inside loops;
* non-void functions end every path with a return (mirrors the
  checker; the optimizer must not have broken it);
* task-graph expressions appear only in global (non-local) functions;
* every ECall target exists in the module;
* an ``int``/``long`` EBinary or EUnary has only ``int``/``long``
  operands: the checker decided the type an operation computes in
  (``x += 2.5`` on an int x is ``(int)(x + 2.5)``, a double addition
  and a cast), so no backend may see a float in integer arithmetic.

Violations raise :class:`~repro.errors.LoweringError` — they indicate a
compiler bug, not a user error.
"""

from __future__ import annotations

from repro.errors import LoweringError
from repro.ir import nodes as ir
from repro.lime import types as ty

_INTEGRAL = (ty.INT, ty.LONG)


class _FunctionVerifier:
    def __init__(self, function: ir.IRFunction, module: ir.IRModule):
        self.function = function
        self.module = module
        self.defined: set = {p.name for p in function.params}

    def fail(self, message: str) -> None:
        raise LoweringError(
            f"IR verification failed in {self.function.qualified_name}: "
            f"{message}"
        )

    def run(self) -> None:
        returns = self._stmts(self.function.body, loop_depth=0)
        f = self.function
        if (
            f.return_type != ty.VOID
            and not f.is_constructor
            and not returns
        ):
            self.fail("a path falls off the end without returning")

    # ------------------------------------------------------------------

    def _stmts(self, body: list, loop_depth: int) -> bool:
        """Returns True when the statement list definitely returns."""
        returns = False
        for stmt in body:
            if returns:
                self.fail("unreachable statement survived optimization")
            returns = self._stmt(stmt, loop_depth)
        return returns

    def _stmt(self, stmt: ir.IRStmt, loop_depth: int) -> bool:
        if isinstance(stmt, ir.SLet):
            self._expr(stmt.init)
            self.defined.add(stmt.name)
            return False
        if isinstance(stmt, ir.SAssignLocal):
            if stmt.name not in self.defined:
                self.fail(f"assignment to undefined local {stmt.name!r}")
            self._expr(stmt.value)
            return False
        if isinstance(stmt, ir.SArrayStore):
            for e in (stmt.array, stmt.index, stmt.value):
                self._expr(e)
            return False
        if isinstance(stmt, ir.SFieldStore):
            self._expr(stmt.receiver)
            self._expr(stmt.value)
            return False
        if isinstance(stmt, ir.SStaticStore):
            self._expr(stmt.value)
            return False
        if isinstance(stmt, ir.SIf):
            self._expr(stmt.cond)
            saved = set(self.defined)
            then_returns = self._stmts(stmt.then, loop_depth)
            defined_then = self.defined
            self.defined = set(saved)
            else_returns = self._stmts(stmt.other, loop_depth)
            # Only names defined on *both* arms survive the join.
            self.defined = (
                saved | (defined_then & self.defined)
                if not (then_returns or else_returns)
                else (
                    self.defined
                    if then_returns and not else_returns
                    else defined_then
                    if else_returns and not then_returns
                    else saved
                )
            )
            return then_returns and else_returns
        if isinstance(stmt, ir.SWhile):
            self._expr(stmt.cond)
            saved = set(self.defined)
            self._stmts(stmt.body, loop_depth + 1)
            self.defined = saved  # loop may run zero times
            return False
        if isinstance(stmt, ir.SFor):
            for e in (stmt.start, stmt.limit, stmt.step):
                self._expr(e)
            saved = set(self.defined)
            self.defined.add(stmt.var)
            self._stmts(stmt.body, loop_depth + 1)
            self.defined = saved | {stmt.var}
            return False
        if isinstance(stmt, (ir.SBreak, ir.SContinue)):
            if loop_depth == 0:
                self.fail("break/continue outside a loop")
            return False
        if isinstance(stmt, ir.SReturn):
            if stmt.value is not None:
                self._expr(stmt.value)
                if self.function.return_type == ty.VOID:
                    self.fail("value returned from a void function")
            return True
        if isinstance(stmt, ir.SExpr):
            self._expr(stmt.expr)
            return False
        if isinstance(stmt, ir.SGraphStart):
            self._expr(stmt.graph)
            return False
        self.fail(f"unknown statement {type(stmt).__name__}")
        return False

    # ------------------------------------------------------------------

    def _expr(self, expr: ir.IRExpr) -> None:
        for node in ir.walk_expr(expr):
            if getattr(node, "type", None) is None:
                self.fail(
                    f"expression {type(node).__name__} has no type"
                )
            if isinstance(node, ir.ELocal):
                if node.name not in self.defined:
                    self.fail(f"use of undefined local {node.name!r}")
            elif isinstance(node, ir.ECall):
                if node.callee not in self.module.functions:
                    self.fail(f"call to unknown function {node.callee!r}")
            elif isinstance(node, (ir.EBinary, ir.EUnary)):
                if node.type in _INTEGRAL:
                    operands = (
                        (node.left, node.right)
                        if isinstance(node, ir.EBinary)
                        else (node.operand,)
                    )
                    for operand in operands:
                        if operand.type not in _INTEGRAL:
                            self.fail(
                                f"{node.type} {node.op!r} has a "
                                f"{operand.type} operand"
                            )
            elif isinstance(
                node,
                (
                    ir.EGraphSource,
                    ir.EGraphSink,
                    ir.EGraphTask,
                    ir.EGraphConnect,
                ),
            ):
                if self.function.is_local:
                    self.fail(
                        "task-graph construction inside a local method"
                    )


def verify_module(module: ir.IRModule) -> None:
    """Check every function; raises LoweringError on the first defect."""
    for function in module.functions.values():
        _FunctionVerifier(function, module).run()
