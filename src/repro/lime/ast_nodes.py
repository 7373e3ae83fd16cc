"""Abstract syntax tree for the Lime subset.

Nodes are plain dataclasses. The type checker annotates expression nodes
in place by assigning their ``type`` attribute (initially ``None``), and
resolves names by filling ``resolution``-style fields; the AST therefore
doubles as the typed tree consumed by the IR lowerer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SourcePosition

# ---------------------------------------------------------------------------
# Type syntax (what the programmer wrote; resolved to semantic types later)
# ---------------------------------------------------------------------------


@dataclass
class TypeSyntax:
    """A written type: base name plus array suffixes.

    ``array_dims`` is a list of ``"value"`` / ``"mutable"`` entries from
    outermost to innermost suffix, so ``bit[[]]`` has ``["value"]`` and
    ``int[][]`` has ``["mutable", "mutable"]``.
    """

    name: str
    array_dims: list
    position: SourcePosition

    def __str__(self) -> str:
        suffix = "".join(
            "[[]]" if d == "value" else "[]" for d in self.array_dims
        )
        return self.name + suffix


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    position: SourcePosition

    def __post_init__(self) -> None:
        # Filled in by the type checker.
        self.type = None


@dataclass
class IntLit(Expr):
    value: int
    is_long: bool = False


@dataclass
class FloatLit(Expr):
    value: float
    is_double: bool = True


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class BitLit(Expr):
    """A bit literal like ``100b``; ``bits`` is LSB-first."""

    bits: tuple


@dataclass
class StringLit(Expr):
    value: str


@dataclass
class Name(Expr):
    """An identifier; resolution is set by the checker to one of
    'local', 'param', 'field', 'static_field', 'class', 'enum_const'."""

    ident: str

    def __post_init__(self) -> None:
        super().__post_init__()
        self.resolution = None
        self.decl = None


@dataclass
class This(Expr):
    pass


@dataclass
class FieldAccess(Expr):
    receiver: Expr
    name: str

    def __post_init__(self) -> None:
        super().__post_init__()
        self.resolution = None  # 'field' | 'length' | 'enum_const' | 'static_field'


@dataclass
class Index(Expr):
    array: Expr
    index: Expr


@dataclass
class Call(Expr):
    """A method call ``receiver.name(args)`` or bare ``name(args)``.

    ``type_args`` carries explicit generic arguments as in
    ``result.<bit>sink()``. The checker sets ``target`` to the resolved
    method (or an intrinsic descriptor).
    """

    receiver: Optional[Expr]
    name: str
    args: list
    type_args: list = field(default_factory=list)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.target = None
        self.intrinsic = None


@dataclass
class New(Expr):
    """``new T(args)`` for classes; ``new T[n]`` / ``new T[[]](src)``
    for arrays (``array_dims`` mirrors TypeSyntax)."""

    type_syntax: TypeSyntax
    args: list
    array_length: Optional[Expr] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self.target = None  # resolved constructor, if a class new


@dataclass
class Unary(Expr):
    op: str  # '-', '!', '~', '++pre', '--pre', '++post', '--post'
    operand: Expr


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass
class Assign(Expr):
    """``target = value`` or compound ``target op= value``; target is a
    Name, Index, or FieldAccess. For a compound assignment the checker
    sets ``op_type``, the promoted type ``op`` computes in (JLS
    §15.26.2: ``E1 op= E2`` is ``(T)(E1 op E2)``)."""

    target: Expr
    op: str  # '=', '+=', '-=', '*=', '/='
    value: Expr

    def __post_init__(self) -> None:
        super().__post_init__()
        self.op_type = None


@dataclass
class Cast(Expr):
    type_syntax: TypeSyntax
    operand: Expr


@dataclass
class MapExpr(Expr):
    """Lime map: ``Receiver @ method(arrays...)`` (Figure 1, line 12)."""

    receiver: Optional[str]
    method: str
    args: list

    def __post_init__(self) -> None:
        super().__post_init__()
        self.target = None


@dataclass
class ReduceExpr(Expr):
    """Lime reduce: ``Receiver ! method(array)`` — the paper mentions
    reduce alongside map (Section 2.2) without showing its syntax; we
    follow the companion Lime papers."""

    receiver: Optional[str]
    method: str
    args: list

    def __post_init__(self) -> None:
        super().__post_init__()
        self.target = None


@dataclass
class TaskExpr(Expr):
    """``task m`` / ``task C.m``: a dataflow actor that repeatedly
    applies the named method (Section 2.2)."""

    receiver: Optional[str]
    method: str

    def __post_init__(self) -> None:
        super().__post_init__()
        self.target = None


@dataclass
class ConnectExpr(Expr):
    """``left => right``: values flow from left's output to right's
    input."""

    left: Expr
    right: Expr


@dataclass
class RelocExpr(Expr):
    """Relocation brackets ``([ e ])`` marking a co-executable region
    (Section 2.3)."""

    inner: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    position: SourcePosition


@dataclass
class Block(Stmt):
    statements: list


@dataclass
class VarDecl(Stmt):
    """One declared variable; ``type_syntax is None`` for ``var``."""

    type_syntax: Optional[TypeSyntax]
    name: str
    init: Optional[Expr]

    def __post_init__(self) -> None:
        self.declared_type = None  # semantic type, set by the checker


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    other: Optional[Stmt]


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class For(Stmt):
    init: Optional[Stmt]  # VarDecl or ExprStmt
    cond: Optional[Expr]
    update: Optional[Expr]
    body: Stmt


@dataclass
class Return(Stmt):
    value: Optional[Expr]


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param:
    type_syntax: TypeSyntax
    name: str
    position: SourcePosition

    def __post_init__(self) -> None:
        self.type = None


@dataclass
class MethodDecl:
    """A method, operator method (``public bit ~ this {...}``), or
    constructor (``name`` equals the class name, ``return_type`` None).
    """

    modifiers: list
    return_type: Optional[TypeSyntax]
    name: str
    params: list
    body: Optional[Block]
    position: SourcePosition
    is_operator: bool = False

    def __post_init__(self) -> None:
        # Semantic facts, filled by the checker.
        self.owner = None
        self.is_local_effective = False
        self.is_pure = False
        self.signature = None

    @property
    def is_static(self) -> bool:
        return "static" in self.modifiers

    @property
    def is_constructor(self) -> bool:
        return self.return_type is None and not self.is_operator


@dataclass
class FieldDecl:
    modifiers: list
    type_syntax: TypeSyntax
    name: str
    init: Optional[Expr]
    position: SourcePosition

    def __post_init__(self) -> None:
        self.owner = None
        self.type = None

    @property
    def is_static(self) -> bool:
        return "static" in self.modifiers

    @property
    def is_final(self) -> bool:
        return "final" in self.modifiers


@dataclass
class ClassDecl:
    """A class or value enum declaration."""

    modifiers: list
    name: str
    is_enum: bool
    enum_constants: list
    fields: list
    methods: list
    position: SourcePosition

    @property
    def is_value(self) -> bool:
        return "value" in self.modifiers


@dataclass
class Program:
    classes: list
    source: str = ""
