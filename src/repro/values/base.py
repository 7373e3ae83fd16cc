"""Runtime representation of Lime *kinds* and value semantics.

Lime's type system distinguishes *value* types — recursively immutable —
from ordinary (mutable) types. At run time the reproduction represents:

* ``int``, ``long`` as Python :class:`int` (range-checked when an array
  is built and at an entry),
* ``float``, ``double`` as Python :class:`float`,
* ``boolean`` as Python :class:`bool`,
* ``bit`` as :class:`repro.values.bits.Bit`,
* user value enums as :class:`repro.values.enums.EnumValue`,
* value arrays ``T[[]]`` as :class:`repro.values.arrays.ValueArray`,
* ordinary arrays ``T[]`` as :class:`repro.values.arrays.MutableArray`.

A *kind* is the runtime type descriptor used by the marshaling layer and
device backends. Kinds are deliberately simpler than the static types in
:mod:`repro.lime.types`: they only describe data layout.
"""

from __future__ import annotations

from dataclasses import dataclass

# Scalar kind names. These are the only strings accepted as the ``name``
# of a scalar Kind; anything else is an enum or array kind.
INT = "int"
LONG = "long"
FLOAT = "float"
DOUBLE = "double"
BOOLEAN = "boolean"
BIT = "bit"

SCALAR_KINDS = (INT, LONG, FLOAT, DOUBLE, BOOLEAN, BIT)

# Width in bits of each scalar kind on the wire (Figure 3's byte-stream
# format densely packs these).
SCALAR_BITS = {
    INT: 32,
    LONG: 64,
    FLOAT: 32,
    DOUBLE: 64,
    BOOLEAN: 8,
    BIT: 1,
}

INT_MIN, INT_MAX = -(2**31), 2**31 - 1
LONG_MIN, LONG_MAX = -(2**63), 2**63 - 1
#: The values an ``int`` or ``long`` holds.
INTEGRAL_RANGES = {INT: (INT_MIN, INT_MAX), LONG: (LONG_MIN, LONG_MAX)}


@dataclass(frozen=True)
class Kind:
    """A runtime data-layout descriptor.

    ``name`` is one of the scalar kind names, ``"enum"``, or ``"array"``.
    For enums, ``enum_name`` holds the declaring type's name and
    ``enum_size`` the number of constants. For arrays, ``element``
    holds the element kind (arrays of arrays are supported).
    """

    name: str
    enum_name: str | None = None
    enum_size: int = 0
    element: "Kind | None" = None

    def __post_init__(self) -> None:
        if self.name == "enum" and not self.enum_name:
            raise ValueError("enum kind requires enum_name")
        if self.name == "array" and self.element is None:
            raise ValueError("array kind requires an element kind")
        if (
            self.name not in SCALAR_KINDS
            and self.name not in ("enum", "array")
        ):
            raise ValueError(f"unknown kind name: {self.name!r}")

    @property
    def is_scalar(self) -> bool:
        return self.name in SCALAR_KINDS

    @property
    def is_array(self) -> bool:
        return self.name == "array"

    @property
    def is_enum(self) -> bool:
        return self.name == "enum"

    def wire_bits(self) -> int:
        """Bits needed for one element of this kind on the wire."""
        if self.is_scalar:
            return SCALAR_BITS[self.name]
        if self.is_enum:
            # Enums travel as one byte per constant ordinal; Lime enums
            # in practice are tiny (bit has 2 constants).
            return 8
        raise ValueError(f"{self} has no fixed wire width")

    def __str__(self) -> str:
        if self.is_enum:
            return f"enum {self.enum_name}"
        if self.is_array:
            return f"{self.element}[[]]"
        return self.name


# Convenience singletons for the scalar kinds.
KIND_INT = Kind(INT)
KIND_LONG = Kind(LONG)
KIND_FLOAT = Kind(FLOAT)
KIND_DOUBLE = Kind(DOUBLE)
KIND_BOOLEAN = Kind(BOOLEAN)
KIND_BIT = Kind(BIT)


def array_kind(element: Kind) -> Kind:
    """Kind describing a value array with the given element kind."""
    return Kind("array", element=element)


def enum_kind(enum_name: str, enum_size: int) -> Kind:
    """Kind describing a user value enum."""
    return Kind("enum", enum_name=enum_name, enum_size=enum_size)


def kind_of(value: object) -> Kind:
    """Infer the runtime kind of a Python-level Lime value.

    Booleans must be tested before ints because ``bool`` subclasses
    ``int`` in Python.
    """
    from repro.values.arrays import MutableArray, ValueArray
    from repro.values.bits import Bit
    from repro.values.enums import EnumValue

    if isinstance(value, Bit):
        return KIND_BIT
    if isinstance(value, bool):
        return KIND_BOOLEAN
    if isinstance(value, int):
        return KIND_INT if INT_MIN <= value <= INT_MAX else KIND_LONG
    if isinstance(value, float):
        return KIND_DOUBLE
    if isinstance(value, EnumValue):
        return enum_kind(value.enum_name, value.enum_size)
    if isinstance(value, (ValueArray, MutableArray)):
        return array_kind(value.element_kind)
    raise ValueError(f"not a Lime runtime value: {value!r}")


def is_value(obj: object) -> bool:
    """True if ``obj`` is a legal Lime *value* (recursively immutable).

    Mutable arrays are not values; everything else we model is.
    """
    from repro.values.arrays import MutableArray, ValueArray
    from repro.values.bits import Bit
    from repro.values.enums import EnumValue

    if isinstance(obj, (bool, int, float, Bit, EnumValue)):
        return True
    if isinstance(obj, ValueArray):
        # ValueArray construction already freezes elements recursively,
        # but re-check to keep the predicate trustworthy on its own.
        return all(is_value(element) for element in obj)
    if isinstance(obj, MutableArray):
        return False
    return False


def default_value(kind: Kind) -> object:
    """The Lime default (zero) value for a kind, used by ``new T[n]``."""
    from repro.values.bits import Bit
    from repro.values.enums import EnumValue

    if kind.name in (INT, LONG):
        return 0
    if kind.name in (FLOAT, DOUBLE):
        return 0.0
    if kind.name == BOOLEAN:
        return False
    if kind.name == BIT:
        return Bit.ZERO
    if kind.is_enum:
        return EnumValue(kind.enum_name, 0, kind.enum_size)
    if kind.is_array:
        from repro.values.arrays import ValueArray

        return ValueArray(kind.element, ())
    raise ValueError(f"no default for kind {kind}")
