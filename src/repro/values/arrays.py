"""Lime arrays: immutable value arrays ``T[[]]`` and ordinary ``T[]``.

Only *values* may flow between tasks (Section 2.2), so the marshaling
layer and the task connect operator accept :class:`ValueArray` but never
:class:`MutableArray`. ``new bit[[]](result)`` in Figure 1 corresponds
to :meth:`ValueArray.from_mutable`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import ValueSemanticsError
from repro.values.base import INTEGRAL_RANGES, Kind, default_value
from repro.values.bits import Bit, format_bit_literal


def _coerce_element(kind: Kind, element: object) -> object:
    """Normalize a Python object to the canonical runtime form of ``kind``.

    This keeps arrays homogeneous: ints stay ints in their kind's range,
    floats become floats even when written as int literals, bits accept
    0/1, and nested value arrays are passed through after a type check.
    """
    if kind.name in ("int", "long"):
        if isinstance(element, bool) or not isinstance(element, int):
            raise ValueSemanticsError(
                f"expected {kind} element, got {element!r}"
            )
        low, high = INTEGRAL_RANGES[kind.name]
        if not low <= element <= high:
            raise ValueSemanticsError(
                f"{kind} element {element!r} out of range"
            )
        return element
    if kind.name in ("float", "double"):
        if isinstance(element, bool) or not isinstance(
            element, (int, float)
        ):
            raise ValueSemanticsError(
                f"expected {kind} element, got {element!r}"
            )
        return float(element)
    if kind.name == "boolean":
        if not isinstance(element, bool):
            raise ValueSemanticsError(
                f"expected boolean element, got {element!r}"
            )
        return element
    if kind.name == "bit":
        if isinstance(element, Bit):
            return element
        if element in (0, 1):
            return Bit(int(element))
        raise ValueSemanticsError(f"expected bit element, got {element!r}")
    if kind.is_enum:
        from repro.values.enums import EnumValue

        if (
            isinstance(element, EnumValue)
            and element.enum_name == kind.enum_name
            and element.enum_size == kind.enum_size
        ):
            return element
        raise ValueSemanticsError(
            f"expected {kind} element, got {element!r}"
        )
    if kind.is_array:
        if isinstance(element, ValueArray) and element.element_kind == kind.element:
            return element
        if isinstance(element, MutableArray) and element.element_kind == kind.element:
            return element.freeze()
        raise ValueSemanticsError(
            f"expected {kind} element, got {element!r}"
        )
    raise ValueSemanticsError(f"unsupported element kind {kind}")


# The element classes a scalar kind keeps as they are: for these
# _coerce_element returns the element itself (``float(x) is x`` for an
# exact float).
_CANONICAL = {
    "int": {int},
    "long": {int},
    "float": {float},
    "double": {float},
    "boolean": {bool},
    "bit": {Bit},
}


def _coerce_all(kind: Kind, items: Iterable[object]) -> tuple:
    """``_coerce_element`` over ``items``, in one pass over the element
    classes (and, for ``int``/``long``, one ``min`` and ``max``) when
    they are all canonical for ``kind``; otherwise element by element,
    so an error names the first offending element."""
    items = tuple(items)
    canonical = _CANONICAL.get(kind.name)
    if canonical is not None and canonical.issuperset(map(type, items)):
        bounds = INTEGRAL_RANGES.get(kind.name)
        if bounds is None or not items or (
            bounds[0] <= min(items) and max(items) <= bounds[1]
        ):
            return items
    return tuple(_coerce_element(kind, x) for x in items)


class ValueArray(Sequence):
    """An immutable, homogeneous Lime value array (``T[[]]``).

    Instances are deeply immutable: elements are themselves values
    (nested mutable arrays are frozen on construction). Equality and
    hashing are structural, so value arrays can be dictionary keys —
    which the artifact store exploits.
    """

    __slots__ = ("_kind", "_items")

    def __init__(self, element_kind: Kind, items: Iterable[object]):
        object.__setattr__(self, "_kind", element_kind)
        object.__setattr__(self, "_items", _coerce_all(element_kind, items))

    def __setattr__(self, name: str, value: object) -> None:
        raise ValueSemanticsError("value arrays are immutable")

    @property
    def element_kind(self) -> Kind:
        return self._kind

    @property
    def length(self) -> int:
        """Lime's ``.length`` property."""
        return len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[object]:
        return iter(self._items)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return ValueArray(self._kind, self._items[index])
        return self._items[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueArray):
            return NotImplemented
        return self._kind == other._kind and self._items == other._items

    def __hash__(self) -> int:
        return hash((self._kind, self._items))

    def __repr__(self) -> str:
        if self._kind.name == "bit":
            return format_bit_literal(self._items)
        inner = ", ".join(repr(x) for x in self._items)
        return f"{self._kind}[[{inner}]]"

    def map(self, fn: Callable[[object], object], result_kind: Kind) -> "ValueArray":
        """Elementwise application — host-side semantics of Lime ``@``."""
        return ValueArray(result_kind, (fn(x) for x in self._items))

    def reduce(self, fn: Callable[[object, object], object]) -> object:
        """Left fold without initial element — semantics of Lime ``!``.

        Reducing an empty array is an error, matching Lime's requirement
        that reduce operands be non-empty.
        """
        if not self._items:
            raise ValueSemanticsError("reduce of empty value array")
        acc = self._items[0]
        for x in self._items[1:]:
            acc = fn(acc, x)
        return acc

    def thaw(self) -> "MutableArray":
        """A fresh mutable copy (``T[]``) with the same contents."""
        return MutableArray(self._kind, list(self._items))

    @classmethod
    def from_mutable(cls, array: "MutableArray") -> "ValueArray":
        """Lime's ``new T[[]](mutableArray)`` conversion (Figure 1, line 21)."""
        return cls(array.element_kind, array.snapshot())

    @classmethod
    def of_bits(cls, bits: Iterable[object]) -> "ValueArray":
        from repro.values.base import KIND_BIT

        return cls(KIND_BIT, bits)


class MutableArray:
    """An ordinary Lime array ``T[]`` — mutable, not a value.

    ``new bit[n]`` produces a MutableArray of default-valued elements.
    Mutable arrays never cross the task boundary; the sink task writes
    into one on the host side (Figure 1, lines 16–19).
    """

    __slots__ = ("_kind", "_items")

    def __init__(self, element_kind: Kind, items: Iterable[object]):
        self._kind = element_kind
        self._items = list(_coerce_all(element_kind, items))

    @classmethod
    def allocate(cls, element_kind: Kind, length: int) -> "MutableArray":
        """``new T[length]`` — default-initialized."""
        if length < 0:
            raise ValueSemanticsError("negative array length")
        fill = default_value(element_kind)
        return cls(element_kind, [fill] * length)

    @property
    def element_kind(self) -> Kind:
        return self._kind

    @property
    def length(self) -> int:
        return len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[object]:
        return iter(self._items)

    def __getitem__(self, index: int) -> object:
        return self._items[index]

    def __setitem__(self, index: int, value: object) -> None:
        self._items[index] = _coerce_element(self._kind, value)

    def snapshot(self) -> tuple:
        """An immutable copy of the current contents."""
        return tuple(self._items)

    def freeze(self) -> ValueArray:
        """Convert to a value array (deep copy of contents)."""
        return ValueArray(self._kind, self._items)

    def __repr__(self) -> str:
        inner = ", ".join(repr(x) for x in self._items)
        return f"{self._kind}[{inner}]"


def same_value(a: object, b: object) -> bool:
    """Whether ``a`` and ``b`` are the same Lime value, bit for bit: a
    NaN is the same as a NaN, ``-0.0`` differs from ``0.0``, and arrays
    and lists are the same when their classes, element kinds and
    elements are. The one "same value" of shadow probes, the CLI's
    fault check, the service driver and fault injection."""
    if a.__class__ is float or b.__class__ is float:
        if a != a:
            return b != b
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, (ValueArray, MutableArray, list, tuple)):
        if a.__class__ is not b.__class__ or len(a) != len(b):
            return False
        if getattr(a, "element_kind", None) != getattr(
            b, "element_kind", None
        ):
            return False
        return all(map(same_value, a, b))
    try:
        return bool(a == b)
    except Exception:
        return a is b
