"""Runtime representation of user-declared Lime value enums.

Unlike Java enums, Lime value enums are immutable (Figure 1, lines 1–6).
The compiler represents each constant as an :class:`EnumValue` carrying
its declaring enum's name, its ordinal, and the enum's size — enough for
marshaling without a global registry, while :class:`EnumDescriptor`
gives the runtime access to constant names for printing.
"""

from __future__ import annotations

from repro.errors import ValueSemanticsError


class EnumValue:
    """One constant of a value enum; immutable and interned per (name, ordinal)."""

    __slots__ = ("_enum_name", "_ordinal", "_enum_size")
    _interned: "dict[tuple[str, int, int], EnumValue]" = {}

    def __new__(cls, enum_name: str, ordinal: int, enum_size: int) -> "EnumValue":
        key = (enum_name, ordinal, enum_size)
        cached = cls._interned.get(key)
        if cached is not None:
            return cached
        if not 0 <= ordinal < enum_size:
            raise ValueSemanticsError(
                f"ordinal {ordinal} out of range for enum {enum_name}"
                f" of size {enum_size}"
            )
        obj = super().__new__(cls)
        object.__setattr__(obj, "_enum_name", enum_name)
        object.__setattr__(obj, "_ordinal", ordinal)
        object.__setattr__(obj, "_enum_size", enum_size)
        cls._interned[key] = obj
        return obj

    def __setattr__(self, name: str, value: object) -> None:
        raise ValueSemanticsError("enum values are immutable")

    def __reduce__(self):
        return (EnumValue, (self._enum_name, self._ordinal, self._enum_size))

    @property
    def enum_name(self) -> str:
        return self._enum_name

    @property
    def ordinal(self) -> int:
        return self._ordinal

    @property
    def enum_size(self) -> int:
        return self._enum_size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EnumValue):
            return NotImplemented
        return (
            self._enum_name == other._enum_name
            and self._ordinal == other._ordinal
        )

    def __hash__(self) -> int:
        return hash((self._enum_name, self._ordinal))

    def __repr__(self) -> str:
        return f"{self._enum_name}#{self._ordinal}"


class EnumDescriptor:
    """Compile-time/runtime metadata for one value enum declaration."""

    def __init__(self, name: str, constants: "list[str]"):
        if len(set(constants)) != len(constants):
            raise ValueSemanticsError(f"duplicate constants in enum {name}")
        self.name = name
        self.constants = list(constants)

    @property
    def size(self) -> int:
        return len(self.constants)

    def value_of(self, constant: str) -> EnumValue:
        try:
            ordinal = self.constants.index(constant)
        except ValueError:
            raise ValueSemanticsError(
                f"enum {self.name} has no constant {constant!r}"
            ) from None
        return EnumValue(self.name, ordinal, self.size)

    def __repr__(self) -> str:
        return f"EnumDescriptor({self.name}, {self.constants})"
