"""The stager: one ``CompiledFunction`` -> one Python function.

The bytecode is the always-available artifact, so its executor is the
wall-clock floor under CPU runs, the GPU simulator, shadow probes and
every differential suite. Instead of dispatching on each instruction at
run time, :func:`stage` translates a function once — on its first
``Interpreter.call`` — into Python source and ``exec``s it. Everything
static in the program is resolved at stage time; only the dynamic
residue runs:

* **static**: the opcode, the operand, the operator's type (one
  expression template per ``(op, typename)`` from
  :mod:`repro.ir.ops`), the operand stack (it becomes nested
  expressions and named temporaries) and the cycle cost
  (``CYCLE_COST + BINOP_EXTRA + INTRINSIC_COST`` summed per
  straight-line run);
* **dynamic**: values, branches, array lengths (the data-dependent
  cycle term of ``NEWARRAY``/``FREEZE``) and the bounds, length and
  divide-by-zero checks.

Shape of the generated function (``CompiledFunction.staged_source()``
prints it)::

    def _staged(interp, args, k0=...):       # k*: non-literal constants
        l0, l1 = args                        # l*: local slots
        c = 0                                # unflushed cycles
        pc = 0
        while True:                          # one arm per block
            if pc < 9: ...

A *block* starts at pc 0 and at every jump target and runs until a
``JMP``/``RET``/``RETV`` or the next block; a conditional jump inside it
is a side exit. Values left on the operand stack across a block
boundary travel in ``s0, s1, ...`` (by stack position); ``t*`` are
single-assignment temporaries within a block.

Invariants (the differential suite ``tests/test_staging_differential.py``
holds them against the instruction-at-a-time loop kept in
``tests/oracle_interpreter.py``):

* **Flush points.** ``c`` reaches ``interp.cycles`` exactly where the
  loop flushed its local count: before ``CALL``, ``MAP``, ``REDUCE``
  and ``GRAPH_START`` hand control to other code (each including its
  own cost) and at ``RET``/``RETV``/falling off the end. Hence
  ``interp.cycles``, ``method_stats`` and per-work-item cycle counts
  are bit-exact, and an operation that raises loses precisely the
  cycles accumulated since the last flush.
* **Program order for anything observable.** An operation that can
  raise, reads mutable state or has a side effect is emitted as a
  statement where the program put it. Only pure, total expressions over
  locals, temporaries and constants are deferred to their use, and one
  that reads local ``k`` is evaluated before a ``STORE k``.
* The staged function is memoised per program *object*, off to the side
  (:func:`staged_functions`): it is never pickled, never part of an
  artifact payload or cache key, and costs one translation per process
  per function actually called.
"""

from __future__ import annotations

import linecache
import math
import weakref

from repro.backends.bytecode import isa
from repro.errors import DeviceError
from repro.ir import ops
from repro.values import MutableArray, ValueArray
from repro.values.structs import StructValue

_JUMPS = (isa.JMP, isa.JZ, isa.JNZ)
_RETURNS = (isa.RET, isa.RETV)


# --- run-time support called from staged code ------------------------------


def _out_of_bounds(index, array):
    raise DeviceError(
        f"array index {index} out of bounds (length {len(array)})"
    )


def _check_map_lengths(map_args, broadcast):
    mapped = [len(a) for a, b in zip(map_args, broadcast) if not b]
    if len(set(mapped)) != 1:
        raise DeviceError(
            "mapped arguments must have equal lengths, got "
            + ", ".join(str(n) for n in mapped)
        )


def _unknown_intrinsic(name):
    kind = "math intrinsic" if name.startswith("Math.") else "intrinsic"
    raise DeviceError(f"unknown {kind} {name!r}")


# Pure intrinsic -> the global name staged code calls it by.
_INTRINSIC_NAMES = {
    name: "_" + "".join(ch if ch.isalnum() else "_" for ch in name)
    for name in ops.INTRINSICS
}

#: The one globals dict every staged function runs in.
_GLOBALS = {
    **ops.NAMESPACE,
    **{_INTRINSIC_NAMES[name]: fn for name, fn in ops.INTRINSICS.items()},
    "MutableArray": MutableArray,
    "StructValue": StructValue,
    "ValueArray": ValueArray,
    "_check_map_lengths": _check_map_lengths,
    "_out_of_bounds": _out_of_bounds,
    "_unknown_intrinsic": _unknown_intrinsic,
}

# Instructions that can change what a deferred expression would see (or
# hand control to code that can).
_EFFECTS = frozenset((
    isa.ASTORE, isa.PUTFIELD, isa.PUTSTATIC, isa.FREEZEOBJ, isa.CALL,
    isa.MAP, isa.REDUCE, isa.MKSOURCE, isa.MKSINK, isa.MKTASK, isa.CONNECT,
    isa.GRAPH_START,
))


# --- translation ------------------------------------------------------------

# An expression nested deeper than this is named before it grows further
# (the tokenizer allows 200 levels of parentheses; a template adds ~3).
_MAX_NESTING = 12


class _Value:
    """One operand-stack entry: Python source that yields it.

    ``atom`` entries are a bare name or literal and may be used any
    number of times; the others are pure, total expressions evaluated
    exactly once, at their use. ``reads`` holds the local slots the
    text reads, ``nesting`` how many templates deep it is."""

    __slots__ = ("text", "atom", "reads", "nesting")

    def __init__(self, text, atom=True, reads=frozenset(), nesting=0):
        self.text = text
        self.atom = atom
        self.reads = reads
        self.nesting = nesting


def _literal(value):
    """Source text for a constant that has an exact literal, else None."""
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, int):
        return repr(value) if value >= 0 else f"({value!r})"
    if isinstance(value, float) and math.isfinite(value):
        text = repr(value)
        return f"({text})" if text.startswith("-") else text
    if isinstance(value, tuple):
        items = [_literal(item) for item in value]
        if None not in items:
            return "(" + "".join(item + ", " for item in items) + ")"
    return None


class _Stager:
    """Translates one function; ``source()`` is the generated text and
    ``consts`` the values its ``k*`` default arguments bind."""

    def __init__(self, function: isa.CompiledFunction):
        self.function = function
        self.code = function.code
        self.leaders = {0} | {
            operand for op, operand in self.code if op in _JUMPS
        }
        self.consts: list = []
        self.blocks: dict = {}      # leader -> [(indent, text | goto)]
        self.entry_depth = {0: 0}
        self.temps = 0
        self.binds_call = False
        # Per-block state.
        self.lines: list = []
        self.stack: list = []
        self.pending = 0            # static cycles not yet added to ``c``

    # -- emission helpers ---------------------------------------------------

    def emit(self, text, indent=0):
        self.lines.append((indent, text))

    def const(self, value) -> str:
        text = _literal(value)
        if text is None:
            text = f"k{len(self.consts)}"
            self.consts.append(value)
        return text

    def temp(self, text: str) -> _Value:
        """Evaluate ``text`` here, into a fresh single-assignment name."""
        name = f"t{self.temps}"
        self.temps += 1
        self.emit(f"{name} = {text}")
        return _Value(name)

    def push(self, value: _Value):
        self.stack.append(value)

    def push_pure(self, text: str, *operands: _Value):
        """Defer a pure, total expression over ``operands`` to its use."""
        nesting = 1 + max((v.nesting for v in operands), default=0)
        if nesting > _MAX_NESTING:
            self.push(self.temp(text))
            return
        reads = frozenset().union(*(v.reads for v in operands))
        self.push(_Value(text, False, reads, nesting))

    def pop(self) -> _Value:
        return self.stack.pop()

    def spill(self, reading=None):
        """Evaluate the deferred expressions on the stack now (only
        those reading local ``reading``, if given)."""
        for i, value in enumerate(self.stack):
            if value.atom if reading is None else reading not in value.reads:
                continue
            self.stack[i] = self.temp(value.text)

    def pop_atom(self) -> str:
        """Pop an operand whose text is used more than once."""
        value = self.stack.pop()
        return value.text if value.atom else self.temp(value.text).text

    def pop_args(self, count: int) -> str:
        if not count:
            return "[]"
        values = self.stack[-count:]
        del self.stack[-count:]
        return "[" + ", ".join(v.text for v in values) + "]"

    def flush(self, returning=False):
        """Hand the unflushed cycles to ``interp.cycles``."""
        extra = f" + {self.pending}" if self.pending else ""
        self.emit(f"interp.cycles += c{extra}")
        self.pending = 0
        if not returning:
            self.emit("c = 0")

    def transfer(self, target: int, indent=0):
        """Leave the block for ``target``: operand stack into ``s*``,
        pending cycles into ``c``, then jump."""
        depth = len(self.stack)
        known = self.entry_depth.setdefault(target, depth)
        if known != depth:
            raise DeviceError(
                f"{self.function.qualified_name}: operand stack depth "
                f"{depth} != {known} at pc {target}"
            )
        moves = [
            (f"s{i}", value.text)
            for i, value in enumerate(self.stack)
            if value.text != f"s{i}"
        ]
        if moves:
            self.emit(
                ", ".join(name for name, _ in moves)
                + " = "
                + ", ".join(text for _, text in moves),
                indent,
            )
        if self.pending:
            self.emit(f"c += {self.pending}", indent)
        self.lines.append((indent, ("goto", target)))

    # -- one block ----------------------------------------------------------

    def translate_block(self, leader: int):
        self.lines = []
        self.stack = [_Value(f"s{i}") for i in range(self.entry_depth[leader])]
        self.pending = 0
        pc = leader
        n = len(self.code)
        while True:
            if pc >= n:
                # Fell off the end of a void function body.
                self.flush(returning=True)
                self.emit("return None")
                break
            op, operand = self.code[pc]
            pc += 1
            self.pending += isa.CYCLE_COST.get(op, 0)
            if op == isa.JMP:
                self.transfer(operand)
                break
            if op in _RETURNS:
                value = self.pop().text if op == isa.RETV else "None"
                self.flush(returning=True)
                self.emit(f"return {value}")
                break
            self.instruction(op, operand)
            if pc in self.leaders:
                self.transfer(pc)
                break
        self.blocks[leader] = self.lines

    def instruction(self, op, operand):
        emit, push, pop = self.emit, self.push, self.pop
        if op in _EFFECTS:
            self.spill()
        if op == isa.LOAD:
            push(_Value(f"l{operand}", True, frozenset((operand,))))
        elif op == isa.CONST:
            push(_Value(self.const(operand)))
        elif op == isa.STORE:
            value = pop()
            self.spill(reading=operand)
            emit(f"l{operand} = {value.text}")
        elif op == isa.BINOP:
            right = pop()
            left = pop()
            bop, typename = operand
            self.pending += isa.BINOP_EXTRA.get(operand, 0)
            text = ops.binary_expr(bop, typename, left.text, right.text)
            if ops.binary_can_raise(bop, typename):
                push(self.temp(text))
            else:
                self.push_pure(text, left, right)
        elif op == isa.UNOP:
            value = pop()
            uop, typename = operand
            self.push_pure(ops.unary_expr(uop, typename, value.text), value)
        elif op == isa.CAST:
            value = pop()
            self.push_pure(ops.cast_expr(operand, value.text), value)
        elif op in (isa.JZ, isa.JNZ):
            cond = pop().text
            emit(f"if not {cond}:" if op == isa.JZ else f"if {cond}:")
            self.transfer(operand, indent=1)
        elif op == isa.ALOAD:
            index = self.pop_atom()
            array = self.pop_atom()
            emit(f"if not 0 <= {index} < len({array}):")
            emit(f"_out_of_bounds({index}, {array})", 1)
            push(self.temp(f"{array}[{index}]"))
        elif op == isa.ASTORE:
            value = pop().text
            index = self.pop_atom()
            array = self.pop_atom()
            emit(f"if not 0 <= {index} < len({array}):")
            emit(f"_out_of_bounds({index}, {array})", 1)
            emit(f"{array}[{index}] = {value}")
        elif op == isa.LEN:
            value = pop()
            self.push_pure(f"len({value.text})", value)
        elif op == isa.NEWARRAY:
            length = self.pop_atom()
            emit(f"if {length} > 0:")
            emit(f"c += {length}", 1)
            push(self.temp(
                f"MutableArray.allocate({self.const(operand)}, {length})"
            ))
        elif op == isa.FREEZE:
            array = self.pop_atom()
            emit(f"c += len({array})")
            push(self.temp(f"{array}.freeze()"))
        elif op == isa.POP:
            pop()
        elif op == isa.DUP:
            top = self.stack[-1]
            if not top.atom:
                top = self.stack[-1] = self.temp(top.text)
            push(top)
        elif op == isa.CALL:
            callee, nargs, returns = operand
            call_args = self.pop_args(nargs)
            self.flush()
            self.binds_call = True
            text = f"call({callee!r}, {call_args})"
            if returns:
                push(self.temp(text))
            else:
                emit(text)
        elif op == isa.INTRINSIC:
            self.intrinsic(*operand)
        elif op == isa.GETFIELD:
            push(self.temp(f"{pop().text}.get({operand!r})"))
        elif op == isa.PUTFIELD:
            value = pop().text
            emit(f"{pop().text}.set({operand!r}, {value})")
        elif op == isa.GETSTATIC:
            push(self.temp(f"interp.statics.get({self.const(operand)})"))
        elif op == isa.PUTSTATIC:
            emit(f"interp.statics[{self.const(operand)}] = {pop().text}")
        elif op == isa.NEWOBJ:
            emit(f"_m = interp.program.classes[{operand!r}]")
            push(self.temp(
                f"StructValue({operand!r}, _m.field_names, _m.is_value)"
            ))
        elif op == isa.FREEZEOBJ:
            push(self.temp(f"{pop().text}.freeze()"))
        elif op == isa.MAP:
            method, nargs, elem_kind, broadcast = operand
            map_args = self.temp(self.pop_args(nargs)).text
            broadcast = self.const(tuple(broadcast))
            emit(f"_check_map_lengths({map_args}, {broadcast})")
            self.flush()
            push(self.temp(
                f"ValueArray({self.const(elem_kind)}, "
                f"interp.services.execute_map("
                f"{method!r}, {map_args}, {broadcast}, interp))"
            ))
        elif op == isa.REDUCE:
            array = pop().text
            self.flush()
            push(self.temp(
                f"interp.services.execute_reduce({operand!r}, {array}, interp)"
            ))
        elif op == isa.MKSOURCE:
            rate, task_id = operand
            push(self.temp(
                f"interp.services.make_source({pop().text}, "
                f"{self.const(rate)}, {self.const(task_id)})"
            ))
        elif op == isa.MKSINK:
            push(self.temp(
                f"interp.services.make_sink({pop().text}, "
                f"{self.const(operand)})"
            ))
        elif op == isa.MKTASK:
            method, task_id, arity, relocatable, has_instance = operand
            instance = pop().text if has_instance else "None"
            push(self.temp(
                f"interp.services.make_task({method!r}, "
                f"{self.const(task_id)}, {arity!r}, {relocatable!r}, "
                f"{instance})"
            ))
        elif op == isa.CONNECT:
            right = pop().text
            left = pop().text
            push(self.temp(f"interp.services.connect({left}, {right})"))
        elif op == isa.GRAPH_START:
            blocking, graph_id = operand
            graph = pop().text
            self.flush()
            emit(
                f"interp.services.graph_start({graph}, {blocking!r}, "
                f"{self.const(graph_id)}, interp)"
            )
        else:
            raise DeviceError(f"unknown opcode {op!r}")

    def intrinsic(self, name: str, nargs: int, returns: bool):
        self.pending += isa.INTRINSIC_COST.get(name, 5)
        values = self.stack[len(self.stack) - nargs:]
        del self.stack[len(self.stack) - nargs:]
        if name in ("println", "print"):
            end = ' + "\\n"' if name == "println" else ""
            self.emit(
                f"interp.stdout.append(to_display({values[0].text}){end})"
            )
            if returns:
                self.push(_Value("None"))
        elif name in _INTRINSIC_NAMES:
            # Pure and total: evaluated only if, and where, it is used.
            if returns:
                call = ", ".join(v.text for v in values)
                self.push_pure(f"{_INTRINSIC_NAMES[name]}({call})", *values)
        else:
            self.emit(f"_unknown_intrinsic({name!r})")
            if returns:
                self.push(_Value("None"))

    # -- the whole function -------------------------------------------------

    def source(self) -> str:
        work = [0]
        while work:
            leader = work.pop()
            if leader in self.blocks:
                continue
            known = set(self.entry_depth)
            self.translate_block(leader)
            work.extend(set(self.entry_depth) - known)
        function = self.function
        consts = "".join(
            f", k{i}=_k[{i}]" for i in range(len(self.consts))
        )
        out = [f"def _staged(interp, args{consts}):"]
        params = function.num_params
        if params:
            names = "".join(f"l{i}, " for i in range(params))
            out.append(f"    {names}= args")
        if function.num_locals > params:
            names = " = ".join(
                f"l{i}" for i in range(params, function.num_locals)
            )
            out.append(f"    {names} = None")
        if self.binds_call:
            out.append("    call = interp.call")
        out.append("    c = 0")
        jumps = any(
            isinstance(text, tuple)
            for lines in self.blocks.values() for _, text in lines
        )
        if not jumps:
            self.render_block(0, 1, out)
        else:
            out.append("    pc = 0")
            out.append("    while True:")
            self.render_tree(sorted(self.blocks), 2, out)
        return "\n".join(out) + "\n"

    def render_tree(self, leaders: list, indent: int, out: list):
        """Binary search on ``pc`` down to one block per leaf."""
        if len(leaders) == 1:
            self.render_block(leaders[0], indent, out)
            return
        middle = len(leaders) // 2
        pad = "    " * indent
        out.append(f"{pad}if pc < {leaders[middle]}:")
        self.render_tree(leaders[:middle], indent + 1, out)
        out.append(f"{pad}else:")
        self.render_tree(leaders[middle:], indent + 1, out)

    def render_block(self, leader: int, indent: int, out: list):
        out.append(f"{'    ' * indent}# pc {leader}")
        for extra, text in self.blocks[leader]:
            pad = "    " * (indent + extra)
            if isinstance(text, tuple):  # ("goto", target)
                out.append(f"{pad}pc = {text[1]}")
                out.append(f"{pad}continue")
            else:
                out.append(pad + text)


def staged_source(function: isa.CompiledFunction) -> str:
    """The Python text :func:`stage` compiles for ``function``."""
    return _Stager(function).source()


def stage(function: isa.CompiledFunction):
    """Translate ``function`` into ``staged(interp, args) -> value``.

    The source is registered with :mod:`linecache` under
    ``<staged Qualified.name>`` so a traceback through staged code
    shows the generated line (the most recently staged function of a
    name wins); nothing else keeps the text."""
    stager = _Stager(function)
    source = stager.source()
    filename = f"<staged {function.qualified_name}>"
    namespace = {"_k": stager.consts}
    exec(compile(source, filename, "exec"), _GLOBALS, namespace)
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename,
    )
    return namespace["_staged"]


# id(program) -> {qualified name: (staged function, num_params)}
_STAGED: dict = {}


def staged_functions(program: isa.BytecodeProgram) -> dict:
    """The memo of staged functions for this program *object*.

    Kept beside the program, not on it: a pickled, cached or copied
    program carries no staged code and restages on first call. The
    entry dies with the program. (Two threads racing here, or to stage
    one function, each do the work and one result is kept: staging is
    deterministic, so either is right.)"""
    key = id(program)
    memo = _STAGED.get(key)
    if memo is None:
        memo = _STAGED[key] = {}
        weakref.finalize(program, _STAGED.pop, key, None)
    return memo
