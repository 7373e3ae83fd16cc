"""The Liquid Metal intermediate representation.

Section 1 of the paper: "a program is lowered into an intermediate
representation that describes the computation as independent but
interconnected computational nodes". Our IR has two levels:

* **function IR** — a typed, desugared, structured representation of
  each method body (statements/expressions with resolved names), which
  every backend consumes;
* **task-graph IR** (:mod:`repro.ir.taskgraph`) — the computational
  nodes (sources, filters, sinks) with their connections, discovered
  statically from the function IR.

Expression nodes carry their semantic type (:mod:`repro.lime.types`),
which backends translate to device-specific types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.lime import types as ty

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class IRExpr:
    type: ty.Type


@dataclass
class EConst(IRExpr):
    """A literal of any value kind (int, float, bool, Bit, string,
    ValueArray for bit literals, EnumValue for enum constants)."""

    value: object


@dataclass
class ELocal(IRExpr):
    """A local variable or parameter read, by name (names are unique
    within a function because Lime forbids shadowing)."""

    name: str


@dataclass
class EThis(IRExpr):
    pass


@dataclass
class EFieldLoad(IRExpr):
    receiver: IRExpr
    field_name: str
    class_name: str


@dataclass
class EStaticLoad(IRExpr):
    """Read of a static field (mutable statics only appear in global
    code; final statics are usually constant-folded)."""

    class_name: str
    field_name: str


@dataclass
class EUnary(IRExpr):
    op: str  # '-', '!', '~'
    operand: IRExpr


@dataclass
class EBinary(IRExpr):
    op: str
    left: IRExpr
    right: IRExpr


@dataclass
class ETernary(IRExpr):
    cond: IRExpr
    then: IRExpr
    other: IRExpr


@dataclass
class ECast(IRExpr):
    operand: IRExpr


@dataclass
class EIndex(IRExpr):
    array: IRExpr
    index: IRExpr


@dataclass
class ELength(IRExpr):
    array: IRExpr


@dataclass
class ECall(IRExpr):
    """Direct call to a compiled Lime method, by qualified name."""

    callee: str
    args: list


@dataclass
class EIntrinsic(IRExpr):
    """Call to a runtime intrinsic: 'Math.sqrt', 'bit.~', 'println',
    'str.concat'."""

    name: str
    args: list


@dataclass
class ENewArray(IRExpr):
    """``new T[n]`` — a default-filled mutable array."""

    length: IRExpr


@dataclass
class EFreeze(IRExpr):
    """``new T[[]](mutable)`` — snapshot a mutable array into a value
    array (Figure 1, line 21)."""

    operand: IRExpr


@dataclass
class ENewObject(IRExpr):
    """``new C(args)``; ``ctor`` is the constructor's qualified name or
    None for the implicit default constructor."""

    class_name: str
    ctor: Optional[str]
    args: list


@dataclass
class EMap(IRExpr):
    """Data-parallel map of a pure method over value arrays
    (``C @ m(arrays...)``). The primary GPU offload unit.

    ``broadcast[i]`` marks argument i as a whole-value broadcast
    (same for every work item) rather than a mapped array."""

    method: str
    args: list
    broadcast: list = field(default_factory=list)


@dataclass
class EReduce(IRExpr):
    """Data-parallel reduction with a pure binary method
    (``C ! m(array)``)."""

    method: str
    args: list


# Task-graph construction expressions (only in global code) ----------------


@dataclass
class EGraphSource(IRExpr):
    """``arr.source(rate)``."""

    array: IRExpr
    rate: int
    element_type: ty.Type = None


@dataclass
class EGraphSink(IRExpr):
    """``arr.sink()`` — accumulates into the (host-side) mutable array."""

    array: IRExpr
    element_type: ty.Type = None


@dataclass
class EGraphTask(IRExpr):
    """``task m`` — a filter actor applying method ``method``.

    ``relocatable`` is True when the task appeared inside relocation
    brackets ``([ ... ])``; only those tasks are offered to the device
    backends (Section 2.3).
    """

    method: str
    relocatable: bool = False
    input_type: ty.Type = None
    output_type: ty.Type = None
    arity: int = 1
    # Stateful tasks (Section 2.1): the instance expression whose
    # isolating-constructor-built object carries the pipeline state.
    instance: "IRExpr | None" = None


@dataclass
class EGraphConnect(IRExpr):
    left: IRExpr
    right: IRExpr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class IRStmt:
    pass


@dataclass
class SLet(IRStmt):
    """Declaration (with initializer) of a new local variable."""

    name: str
    var_type: ty.Type
    init: IRExpr


@dataclass
class SAssignLocal(IRStmt):
    name: str
    value: IRExpr


@dataclass
class SArrayStore(IRStmt):
    array: IRExpr
    index: IRExpr
    value: IRExpr


@dataclass
class SFieldStore(IRStmt):
    receiver: IRExpr
    field_name: str
    class_name: str
    value: IRExpr


@dataclass
class SStaticStore(IRStmt):
    class_name: str
    field_name: str
    value: IRExpr


@dataclass
class SIf(IRStmt):
    cond: IRExpr
    then: list
    other: list


@dataclass
class SWhile(IRStmt):
    cond: IRExpr
    body: list


@dataclass
class SFor(IRStmt):
    """Canonical counted loop: ``for (var = start; var < limit;
    var += step)``. Loops that do not fit the canonical shape lower to
    SWhile instead; the FPGA backend only accepts SFor with constant
    bounds (it fully unrolls or pipelines them)."""

    var: str
    start: IRExpr
    limit: IRExpr
    step: IRExpr
    body: list


@dataclass
class SBreak(IRStmt):
    pass


@dataclass
class SContinue(IRStmt):
    pass


@dataclass
class SReturn(IRStmt):
    value: Optional[IRExpr]


@dataclass
class SExpr(IRStmt):
    expr: IRExpr


@dataclass
class SGraphStart(IRStmt):
    """``g.start()`` / ``g.finish()`` on a task graph local."""

    graph: IRExpr
    blocking: bool  # finish() blocks; start() does not
    graph_id: Optional[str] = None  # filled by shape discovery


# ---------------------------------------------------------------------------
# Functions and the whole-program IR module
# ---------------------------------------------------------------------------


@dataclass
class IRParam:
    name: str
    type: ty.Type


@dataclass
class IRFunction:
    """One compiled method/constructor."""

    qualified_name: str
    params: list
    return_type: ty.Type
    body: list
    is_static: bool = True
    is_local: bool = False
    is_pure: bool = False
    is_constructor: bool = False
    class_name: str = ""
    facts: object = None

    def __repr__(self) -> str:
        params = ", ".join(f"{p.type} {p.name}" for p in self.params)
        return f"ir {self.return_type} {self.qualified_name}({params})"


@dataclass
class IRClass:
    name: str
    is_value: bool
    is_enum: bool
    enum_constants: list
    field_names: list
    field_types: dict
    static_fields: dict = field(default_factory=dict)  # name -> init IRExpr|None
    static_types: dict = field(default_factory=dict)   # name -> semantic type


@dataclass
class IRModule:
    """The whole program in IR form."""

    functions: dict        # qualified name -> IRFunction
    classes: dict          # class name -> IRClass
    task_graphs: list = field(default_factory=list)  # filled by shape discovery
    checked: object = None  # the CheckedProgram, for backends needing facts

    def function(self, qualified_name: str) -> IRFunction:
        return self.functions[qualified_name]


def _args_reversed(expr) -> list:
    return expr.args[::-1]


# Node type -> its sub-expressions, last first: ``walk_expr`` pushes
# them on its stack, so they pop in source order. A type not listed is a
# leaf (``EGraphTask.instance`` and ``EMap.broadcast`` are not walked).
_CHILDREN_REVERSED = {
    EUnary: lambda e: (e.operand,),
    ECast: lambda e: (e.operand,),
    EFreeze: lambda e: (e.operand,),
    EBinary: lambda e: (e.right, e.left),
    ETernary: lambda e: (e.other, e.then, e.cond),
    EIndex: lambda e: (e.index, e.array),
    ELength: lambda e: (e.array,),
    ECall: _args_reversed,
    EIntrinsic: _args_reversed,
    EMap: _args_reversed,
    EReduce: _args_reversed,
    ENewArray: lambda e: (e.length,),
    ENewObject: _args_reversed,
    EFieldLoad: lambda e: (e.receiver,),
    EGraphSource: lambda e: (e.array,),
    EGraphSink: lambda e: (e.array,),
    EGraphConnect: lambda e: (e.right, e.left),
}


def children(expr: IRExpr) -> tuple:
    """The direct sub-expressions of ``expr``, last first; none for a
    leaf."""
    reversed_children = _CHILDREN_REVERSED.get(expr.__class__)
    return () if reversed_children is None else reversed_children(expr)


def walk_expr(expr: IRExpr):
    """Yield ``expr`` and all sub-expressions, preorder.

    A generator, not a list: several callers stop at the first match.
    A node's children are read when the walk resumes after yielding it,
    as the recursive walk read them."""
    stack = [expr]
    pop = stack.pop
    push = stack.extend
    children_reversed = _CHILDREN_REVERSED.get
    while stack:
        node = pop()
        yield node
        children = children_reversed(node.__class__)
        if children is not None:
            push(children(node))


def walk_stmts(stmts):
    """Yield every statement in a body, recursively."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, SIf):
            yield from walk_stmts(stmt.then)
            yield from walk_stmts(stmt.other)
        elif isinstance(stmt, SWhile):
            yield from walk_stmts(stmt.body)
        elif isinstance(stmt, SFor):
            yield from walk_stmts(stmt.body)


def stmt_exprs(stmt: IRStmt):
    """The direct expressions of one statement (not recursive into
    nested statements)."""
    if isinstance(stmt, SLet):
        return [stmt.init]
    if isinstance(stmt, SAssignLocal):
        return [stmt.value]
    if isinstance(stmt, SArrayStore):
        return [stmt.array, stmt.index, stmt.value]
    if isinstance(stmt, SFieldStore):
        return [stmt.receiver, stmt.value]
    if isinstance(stmt, SStaticStore):
        return [stmt.value]
    if isinstance(stmt, SIf):
        return [stmt.cond]
    if isinstance(stmt, SWhile):
        return [stmt.cond]
    if isinstance(stmt, SFor):
        return [stmt.start, stmt.limit, stmt.step]
    if isinstance(stmt, SReturn):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, SExpr):
        return [stmt.expr]
    if isinstance(stmt, SGraphStart):
        return [stmt.graph]
    return []
