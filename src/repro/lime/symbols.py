"""Symbol tables produced by semantic analysis.

The checker builds one :class:`ClassInfo` per declared class (plus the
built-in ``bit`` enum), resolving member signatures to semantic types,
and records per-method :class:`MethodFacts` that the backends use for
eligibility decisions (Section 3: each device compiler "examines the
tasks … and decides whether the code that comprises the tasks is
suitable for the device").
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from repro.lime import ast_nodes as ast
from repro.lime import types as ty
from repro.values.enums import EnumDescriptor


@dataclass
class FieldInfo:
    name: str
    type: ty.Type
    is_static: bool
    is_final: bool
    owner: "ClassInfo"
    decl: Optional[ast.FieldDecl]


@dataclass
class MethodInfo:
    name: str
    param_types: list
    return_type: ty.Type
    is_static: bool
    is_local: bool       # effective locality (declared, or implied by value class)
    is_operator: bool
    owner: "ClassInfo"
    decl: Optional[ast.MethodDecl]
    is_constructor: bool = False
    is_pure: bool = False        # computed by the purity fixpoint
    is_intrinsic: bool = False
    intrinsic_name: str = ""

    @property
    def qualified_name(self) -> str:
        return f"{self.owner.name}.{self.name}"

    @property
    def takes_only_values(self) -> bool:
        return all(p.is_value_type for p in self.param_types)

    def __repr__(self) -> str:
        params = ", ".join(str(p) for p in self.param_types)
        return f"{self.return_type} {self.qualified_name}({params})"


@dataclass
class MethodFacts:
    """Observed behaviours of one method body, for backend eligibility."""

    calls: set = dataclass_field(default_factory=set)  # qualified names
    intrinsic_calls: set = dataclass_field(default_factory=set)
    uses_strings: bool = False
    does_io: bool = False
    has_while: bool = False
    has_for: bool = False
    builds_tasks: bool = False
    accesses_static_mutable: bool = False
    accesses_instance_fields: bool = False
    allocates_arrays: bool = False
    uses_double: bool = False
    reads_params_only: bool = True


class ClassInfo:
    """Resolved view of one class/enum declaration."""

    def __init__(self, decl: Optional[ast.ClassDecl], name: str,
                 is_value: bool, is_enum: bool):
        self.decl = decl
        self.name = name
        self.is_value = is_value
        self.is_enum = is_enum
        self.fields: dict[str, FieldInfo] = {}
        self.methods: dict[str, MethodInfo] = {}
        self.constructors: list[MethodInfo] = []
        self.enum_descriptor: Optional[EnumDescriptor] = None
        if is_enum and decl is not None:
            self.enum_descriptor = EnumDescriptor(name, decl.enum_constants)

    @property
    def type(self) -> ty.ClassType:
        size = self.enum_descriptor.size if self.enum_descriptor else 0
        return ty.ClassType(self.name, self.is_value, self.is_enum, size)

    def find_method(self, name: str) -> Optional[MethodInfo]:
        return self.methods.get(name)

    def find_field(self, name: str) -> Optional[FieldInfo]:
        return self.fields.get(name)

    def __repr__(self) -> str:
        flavor = "enum" if self.is_enum else "class"
        value = "value " if self.is_value else ""
        return f"<{value}{flavor} {self.name}>"


def make_builtin_bit_class() -> ClassInfo:
    """The built-in ``bit`` value enum from Figure 1.

    ``bit`` behaves exactly like the paper's user-declared enum: two
    constants (zero, one) and a pure ``~`` operator method, but it is
    wired into the compiler because bit data is first class in Lime.
    """
    info = ClassInfo(None, "bit", is_value=True, is_enum=True)
    info.enum_descriptor = EnumDescriptor("bit", ["zero", "one"])
    flip = MethodInfo(
        name="~",
        param_types=[],
        return_type=ty.BIT,
        is_static=False,
        is_local=True,
        is_operator=True,
        owner=info,
        decl=None,
        is_pure=True,
        is_intrinsic=True,
        intrinsic_name="bit.~",
    )
    info.methods["~"] = flip
    return info


# Math intrinsics: name -> (param kinds, result rule). All are pure and
# local; 'numeric' means the result follows the promoted argument type.
MATH_INTRINSICS = {
    "sqrt": (1, "double"),
    "exp": (1, "double"),
    "log": (1, "double"),
    "sin": (1, "double"),
    "cos": (1, "double"),
    "tan": (1, "double"),
    "pow": (2, "double"),
    "abs": (1, "numeric"),
    "min": (2, "numeric"),
    "max": (2, "numeric"),
    "floor": (1, "double"),
    "ceil": (1, "double"),
}


class CheckedProgram:
    """The result of semantic analysis: the annotated AST plus tables."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.classes: dict[str, ClassInfo] = {}
        self.method_facts: dict[str, MethodFacts] = {}

    def method(self, qualified: str) -> Optional[MethodInfo]:
        class_name, _, method_name = qualified.partition(".")
        info = self.classes.get(class_name)
        return info.find_method(method_name) if info else None

    def facts(self, qualified: str) -> MethodFacts:
        return self.method_facts.setdefault(qualified, MethodFacts())

    def all_methods(self):
        for cls in self.classes.values():
            for method in cls.methods.values():
                yield method
            yield from cls.constructors
