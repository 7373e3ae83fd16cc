"""Semantic types for Lime.

The key property the type system enforces for heterogeneity is the
*value* distinction: value types are recursively immutable, and only
values may flow between tasks (Section 2.2). ``TaskType`` describes the
streaming interface of task expressions and connected task graphs.
"""

from __future__ import annotations

from typing import Optional

from repro.values.base import (
    KIND_BIT,
    KIND_BOOLEAN,
    KIND_DOUBLE,
    KIND_FLOAT,
    KIND_INT,
    KIND_LONG,
    Kind,
    array_kind,
    enum_kind,
)


class Type:
    """Base class for semantic types."""

    @property
    def is_value_type(self) -> bool:
        return False

    def kind(self) -> Kind:
        """The runtime data-layout kind, where one exists."""
        raise ValueError(f"{self} has no runtime kind")


class PrimType(Type):
    """int/long/float/double/boolean/bit/void. All primitives except
    void are values."""

    _interned: "dict[str, PrimType]" = {}
    _KINDS = {
        "int": KIND_INT,
        "long": KIND_LONG,
        "float": KIND_FLOAT,
        "double": KIND_DOUBLE,
        "boolean": KIND_BOOLEAN,
        "bit": KIND_BIT,
    }

    def __new__(cls, name: str) -> "PrimType":
        cached = cls._interned.get(name)
        if cached is not None:
            return cached
        if name not in ("int", "long", "float", "double", "boolean", "bit", "void"):
            raise ValueError(f"unknown primitive type {name!r}")
        obj = super().__new__(cls)
        obj.name = name
        cls._interned[name] = obj
        return obj

    def __reduce__(self):
        return (PrimType, (self.name,))

    @property
    def is_value_type(self) -> bool:
        return self.name != "void"

    @property
    def is_numeric(self) -> bool:
        return self.name in ("int", "long", "float", "double")

    def kind(self) -> Kind:
        if self.name == "void":
            raise ValueError("void has no runtime kind")
        return self._KINDS[self.name]

    def __repr__(self) -> str:
        return self.name

    __str__ = __repr__


INT = PrimType("int")
LONG = PrimType("long")
FLOAT = PrimType("float")
DOUBLE = PrimType("double")
BOOLEAN = PrimType("boolean")
BIT = PrimType("bit")
VOID = PrimType("void")


class StringType(Type):
    """Host-only strings: usable in global methods for I/O, never a
    value, never able to cross a task boundary."""

    _instance: "StringType | None" = None

    def __new__(cls) -> "StringType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __reduce__(self):
        return (StringType, ())

    def __repr__(self) -> str:
        return "String"

    __str__ = __repr__


STRING = StringType()


class ArrayType(Type):
    """``T[[]]`` when ``is_value`` else ``T[]``."""

    def __init__(self, element: Type, is_value: bool):
        self.element = element
        self._is_value = is_value

    @property
    def is_value_type(self) -> bool:
        # A value array of values is itself a value.
        return self._is_value and self.element.is_value_type

    @property
    def is_value_array(self) -> bool:
        return self._is_value

    def kind(self) -> Kind:
        return array_kind(self.element.kind())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrayType):
            return NotImplemented
        return (
            self.element == other.element
            and self._is_value == other._is_value
        )

    def __hash__(self) -> int:
        return hash(("array", self.element, self._is_value))

    def __repr__(self) -> str:
        return f"{self.element}{'[[]]' if self._is_value else '[]'}"

    __str__ = __repr__


class ClassType(Type):
    """A user class or value enum."""

    def __init__(self, name: str, is_value: bool, is_enum: bool, enum_size: int = 0):
        self.name = name
        self._is_value = is_value
        self.is_enum = is_enum
        self.enum_size = enum_size

    @property
    def is_value_type(self) -> bool:
        return self._is_value

    def kind(self) -> Kind:
        if self.is_enum:
            return enum_kind(self.name, self.enum_size)
        raise ValueError(
            f"class {self.name} values have no wire kind (not an enum)"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassType):
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(("class", self.name))

    def __repr__(self) -> str:
        return self.name

    __str__ = __repr__


class TaskType(Type):
    """The streaming interface of a task expression or task graph.

    ``input``/``output`` are the element types flowing in and out;
    ``None`` marks a closed end (a source has no input; a sink no
    output). A fully closed graph (both None) can be started/finished.
    """

    def __init__(self, input: Optional[Type], output: Optional[Type]):
        self.input = input
        self.output = output

    @property
    def is_closed(self) -> bool:
        return self.input is None and self.output is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskType):
            return NotImplemented
        return self.input == other.input and self.output == other.output

    def __hash__(self) -> int:
        return hash(("task", self.input, self.output))

    def __repr__(self) -> str:
        fmt = lambda t: "·" if t is None else str(t)  # noqa: E731
        return f"task({fmt(self.input)} -> {fmt(self.output)})"

    __str__ = __repr__


# ---------------------------------------------------------------------------
# Conversions and promotions (a pragmatic subset of Java's rules)
# ---------------------------------------------------------------------------

_WIDENING = {
    "int": {"long", "float", "double"},
    "long": {"float", "double"},
    "float": {"double"},
}

_NUMERIC_RANK = {"int": 0, "long": 1, "float": 2, "double": 3}


def assignable(target: Type, source: Type) -> bool:
    """Can a value of ``source`` be assigned to a ``target`` slot?"""
    if target == source:
        return True
    if isinstance(target, PrimType) and isinstance(source, PrimType):
        return target.name in _WIDENING.get(source.name, set())
    if isinstance(target, ArrayType) and isinstance(source, ArrayType):
        # Array types are invariant, but element types must match exactly
        # and value-ness must match (no implicit freeze/thaw).
        return target == source
    return False


def binary_numeric_result(left: Type, right: Type) -> Optional[PrimType]:
    """Java-style binary numeric promotion; None if not both numeric."""
    if not (isinstance(left, PrimType) and isinstance(right, PrimType)):
        return None
    if not (left.is_numeric and right.is_numeric):
        return None
    rank = max(_NUMERIC_RANK[left.name], _NUMERIC_RANK[right.name])
    for name, r in _NUMERIC_RANK.items():
        if r == rank:
            return PrimType(name)
    raise AssertionError("unreachable")


def castable(target: Type, source: Type) -> bool:
    """Explicit cast legality: any numeric <-> numeric; identity."""
    if target == source:
        return True
    if isinstance(target, PrimType) and isinstance(source, PrimType):
        if target.is_numeric and source.is_numeric:
            return True
        # bit <-> int casts are allowed for FPGA-style code.
        if {target.name, source.name} == {"bit", "int"}:
            return True
    return False


def type_from_kind_name(name: str) -> Optional[PrimType]:
    """Primitive type for a written primitive name, if any."""
    try:
        return PrimType(name)
    except ValueError:
        return None
