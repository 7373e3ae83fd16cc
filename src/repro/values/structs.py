"""Runtime instances of user-declared Lime classes.

Instances of *value classes* are recursively immutable once their
constructor completes; instances of ordinary classes stay mutable.
Struct values never cross the device boundary in this reproduction
(backends exclude tasks with struct-typed I/O), so they have no wire
format — they live purely on the CPU/bytecode side.
"""

from __future__ import annotations

from repro.errors import ValueSemanticsError


class StructValue:
    """One object instance: a class name plus named fields.

    The bytecode interpreter constructs the instance unfrozen, runs the
    constructor body, then calls :meth:`freeze` for value classes.
    """

    __slots__ = ("class_name", "_fields", "_frozen", "_is_value_class")

    def __init__(self, class_name: str, field_names, is_value_class: bool):
        self.class_name = class_name
        self._fields = {name: None for name in field_names}
        self._frozen = False
        self._is_value_class = is_value_class

    @property
    def is_value_class(self) -> bool:
        return self._is_value_class

    def get(self, name: str) -> object:
        if name not in self._fields:
            raise ValueSemanticsError(
                f"{self.class_name} has no field {name!r}"
            )
        return self._fields[name]

    def set(self, name: str, value: object) -> None:
        if self._frozen:
            raise ValueSemanticsError(
                f"cannot mutate frozen value instance of {self.class_name}"
            )
        if name not in self._fields:
            raise ValueSemanticsError(
                f"{self.class_name} has no field {name!r}"
            )
        self._fields[name] = value

    def freeze(self) -> "StructValue":
        """Make the instance immutable (end of a value-class constructor)."""
        self._frozen = True
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructValue):
            return NotImplemented
        return (
            self.class_name == other.class_name
            and self._fields == other._fields
        )

    def __hash__(self) -> int:
        if not self._frozen:
            raise ValueSemanticsError("mutable struct is not hashable")
        return hash((self.class_name, tuple(sorted(self._fields.items(), key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._fields.items())
        return f"{self.class_name}({inner})"
