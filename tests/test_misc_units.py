"""Small-unit coverage: struct values, source positions, kinds."""

import pytest

from repro.errors import SourcePosition, ValueSemanticsError
from repro.values import Kind, array_kind, default_value, enum_kind, is_value
from repro.values.base import KIND_BIT, KIND_INT
from repro.values.structs import StructValue


class TestStructValue:
    def test_field_roundtrip(self):
        s = StructValue("P", ["x", "y"], False)
        s.set("x", 1)
        assert s.get("x") == 1
        assert s.get("y") is None

    def test_unknown_field(self):
        s = StructValue("P", ["x"], False)
        with pytest.raises(ValueSemanticsError):
            s.get("z")
        with pytest.raises(ValueSemanticsError):
            s.set("z", 1)

    def test_freeze_blocks_mutation(self):
        s = StructValue("P", ["x"], True)
        s.set("x", 1)
        s.freeze()
        with pytest.raises(ValueSemanticsError):
            s.set("x", 2)

    def test_equality_structural(self):
        a = StructValue("P", ["x"], True)
        a.set("x", 5)
        b = StructValue("P", ["x"], True)
        b.set("x", 5)
        assert a == b
        b.set("x", 6)
        assert a != b

    def test_hash_requires_frozen(self):
        s = StructValue("P", ["x"], True)
        with pytest.raises(ValueSemanticsError):
            hash(s)
        s.freeze()
        assert isinstance(hash(s), int)

    def test_repr(self):
        s = StructValue("P", ["x"], False)
        s.set("x", 3)
        assert repr(s) == "P(x=3)"


class TestSourcePosition:
    def test_equality_and_hash(self):
        a = SourcePosition(1, 2, "f")
        b = SourcePosition(1, 2, "f")
        c = SourcePosition(1, 3, "f")
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_repr(self):
        assert repr(SourcePosition(3, 7, "x.lime")) == "x.lime:3:7"


class TestKinds:
    def test_kind_str(self):
        assert str(KIND_INT) == "int"
        assert str(array_kind(KIND_BIT)) == "bit[[]]"
        assert str(enum_kind("color", 3)) == "enum color"

    def test_invalid_kinds_rejected(self):
        with pytest.raises(ValueError):
            Kind("widget")
        with pytest.raises(ValueError):
            Kind("enum")  # needs a name
        with pytest.raises(ValueError):
            Kind("array")  # needs an element

    def test_wire_bits(self):
        assert KIND_INT.wire_bits() == 32
        assert KIND_BIT.wire_bits() == 1
        assert enum_kind("e", 2).wire_bits() == 8
        with pytest.raises(ValueError):
            array_kind(KIND_INT).wire_bits()

    def test_default_values(self):
        from repro.values import Bit

        assert default_value(KIND_INT) == 0
        assert default_value(KIND_BIT) is Bit.ZERO
        assert list(default_value(array_kind(KIND_INT))) == []

    def test_is_value_predicate(self):
        from repro.values import MutableArray, ValueArray

        assert is_value(1)
        assert is_value(ValueArray(KIND_INT, [1]))
        assert not is_value(MutableArray(KIND_INT, [1]))
        assert not is_value(object())


class TestClinitSemantics:
    def test_cross_class_static_dependency(self):
        # Static initializers run in class-declaration order; a static
        # referring to a later class's static sees its default.
        from repro.backends.bytecode.compiler import compile_module
        from repro.backends.bytecode.interpreter import Interpreter
        from repro.ir.builder import build_ir
        from repro.lime.typecheck import analyze

        source = """
        class A { static int x = 10; }
        class B { static int y = A.x + 1; }
        class T { static int m() { return B.y; } }
        """
        module = build_ir(analyze(source))
        interp = Interpreter(compile_module(module))
        assert interp.call("T.m", []) == 11
