"""The stack bytecode ISA emitted by the CPU backend.

This stands in for the JVM bytecode of the paper: the frontend
"generates Java bytecode for executing the entire program in a Java
virtual machine" (Section 3). Instructions are ``(opcode, operand)``
tuples for interpreter speed; ``CYCLE_COST`` gives each opcode's cost in
abstract CPU cycles, which the CPU device model scales into time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# --- opcodes ---------------------------------------------------------------

CONST = "CONST"        # operand: value           push constant
LOAD = "LOAD"          # operand: slot            push local
STORE = "STORE"        # operand: slot            pop into local
POP = "POP"
DUP = "DUP"

BINOP = "BINOP"        # operand: (op, typename)
UNOP = "UNOP"          # operand: (op, typename)
CAST = "CAST"          # operand: typename

ALOAD = "ALOAD"        # pop index, array; push element
ASTORE = "ASTORE"      # pop value, index, array
LEN = "LEN"            # pop array; push length
NEWARRAY = "NEWARRAY"  # operand: element Kind; pop length; push array
FREEZE = "FREEZE"      # pop mutable array; push value array

GETFIELD = "GETFIELD"    # operand: field name; pop obj; push value
PUTFIELD = "PUTFIELD"    # operand: field name; pop value, obj
GETSTATIC = "GETSTATIC"  # operand: (class, field)
PUTSTATIC = "PUTSTATIC"  # operand: (class, field); pop value
NEWOBJ = "NEWOBJ"        # operand: class name; push unfrozen struct
FREEZEOBJ = "FREEZEOBJ"  # pop struct; push frozen struct

CALL = "CALL"            # operand: (qualified, nargs, returns_value)
INTRINSIC = "INTRINSIC"  # operand: (name, nargs, result typename)
RET = "RET"              # return void
RETV = "RETV"            # pop return value

JMP = "JMP"            # operand: target pc
JZ = "JZ"              # operand: target pc; pop cond, jump if falsy
JNZ = "JNZ"            # operand: target pc; pop cond, jump if truthy

MAP = "MAP"            # operand: (method, nargs, elem Kind); pop arrays
REDUCE = "REDUCE"      # operand: method; pop array

MKSOURCE = "MKSOURCE"  # operand: (rate, task_id); pop array; push task
MKSINK = "MKSINK"      # operand: task_id; pop array; push task
MKTASK = "MKTASK"      # operand: (method, task_id, arity, relocatable)
CONNECT = "CONNECT"    # pop right, left; push connected graph
GRAPH_START = "GRAPH_START"  # operand: (blocking, graph_id); pop graph

# Cycle cost per opcode, modeling an interpreted/JIT-warm JVM on a
# conventional core. Arithmetic is cheap, memory ops carry bounds
# checks, calls carry frame overhead. The division/math costs matter
# for the compute-bound GPU speedup shapes.
CYCLE_COST = {
    CONST: 1,
    LOAD: 1,
    STORE: 1,
    POP: 1,
    DUP: 1,
    BINOP: 1,
    UNOP: 1,
    CAST: 1,
    ALOAD: 3,
    ASTORE: 3,
    LEN: 1,
    NEWARRAY: 10,
    FREEZE: 5,
    GETFIELD: 2,
    PUTFIELD: 2,
    GETSTATIC: 2,
    PUTSTATIC: 2,
    NEWOBJ: 12,
    FREEZEOBJ: 1,
    CALL: 3,  # dispatch only; frame setup is charged per invocation
    INTRINSIC: 2,
    RET: 2,
    RETV: 2,
    JMP: 1,
    JZ: 1,
    JNZ: 1,
    MAP: 8,
    REDUCE: 8,
    MKSOURCE: 20,
    MKSINK: 20,
    MKTASK: 20,
    CONNECT: 10,
    GRAPH_START: 50,
}

# Extra cycles for specific binary operators (beyond the base BINOP).
BINOP_EXTRA = {
    ("/", "int"): 20,
    ("/", "long"): 30,
    ("/", "float"): 10,
    ("/", "double"): 15,
    ("%", "int"): 20,
    ("%", "long"): 30,
    ("%", "double"): 20,
    ("*", "double"): 2,
    ("*", "float"): 1,
}

# Cycle cost of math intrinsics on the CPU.
INTRINSIC_COST = {
    "Math.sqrt": 25,
    "Math.exp": 40,
    "Math.log": 40,
    "Math.sin": 40,
    "Math.cos": 40,
    "Math.tan": 50,
    "Math.pow": 60,
    "Math.abs": 2,
    "Math.min": 2,
    "Math.max": 2,
    "Math.floor": 4,
    "Math.ceil": 4,
    "bit.~": 1,
    "println": 200,
    "print": 200,
}


@dataclass
class CompiledFunction:
    """One function compiled to bytecode.

    ``signature`` is the type checker's verdict, as the JVM's method
    descriptor is: the parameter type names, then the result type name
    (``"void"`` when no value is returned), e.g. ``("float[[]]",
    "int", "float")``. Plain strings, so a loaded artifact unpickles no
    class per function."""

    qualified_name: str
    code: list                    # [(opcode, operand), ...]
    signature: tuple              # (*parameter typenames, result typename)
    num_locals: int               # includes params
    is_constructor: bool = False
    class_name: str = ""

    @property
    def num_params(self) -> int:
        return len(self.signature) - 1

    def disassemble(self) -> str:
        lines = [f".method {self.qualified_name} "
                 f"(params={self.num_params}, locals={self.num_locals})"]
        for pc, (op, operand) in enumerate(self.code):
            suffix = "" if operand is None else f" {operand!r}"
            lines.append(f"  {pc:4d}: {op}{suffix}")
        return "\n".join(lines)

    def staged_source(self) -> str:
        """The Python function the interpreter actually runs for this
        bytecode (see :mod:`repro.backends.bytecode.staging`): generated
        afresh on every call, for reading next to :meth:`disassemble`."""
        from repro.backends.bytecode.staging import staged_source

        return staged_source(self)


@dataclass
class ClassMeta:
    """Runtime metadata for one class: fields and enum constants."""

    name: str
    is_value: bool
    is_enum: bool
    enum_constants: list
    field_names: list
    static_defaults: dict = field(default_factory=dict)


@dataclass
class BytecodeProgram:
    """The whole-program CPU artifact payload."""

    functions: dict               # qualified -> CompiledFunction
    classes: dict                 # name -> ClassMeta
    clinit_order: list = field(default_factory=list)  # class-init functions

    def function(self, qualified: str) -> CompiledFunction:
        return self.functions[qualified]

    def staged_launch_source(self, kind: str, methods) -> str:
        """The loop ``Interpreter.launch`` runs for a ``map``,
        ``filter`` or ``reduce`` launch of the chain ``methods`` (see
        :mod:`repro.backends.bytecode.staging`), for reading next to
        each function's :meth:`CompiledFunction.staged_source`."""
        from repro.backends.bytecode.staging import launch_source

        return launch_source(
            kind, [self.functions[m] for m in methods], self
        )

    def disassemble(self) -> str:
        return "\n\n".join(
            f.disassemble() for f in self.functions.values()
        )
