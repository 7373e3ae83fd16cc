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
        _f = float32_cell()                  # if it rounds to binary32
        l0, l1, = args                       # l*: local slots
        try:                                 # a*: array storage of a
            a1 = l1._items                   # parameter never stored
        except AttributeError:
            a1 = l1
        c = 0                                # unflushed cycles
        pc = 0
        while True:                          # one arm per block
            if pc < 9: ...

A ``float`` result is rounded where it is computed, by the statements
``_f[0] = <double value>`` and ``tN = _f[0]`` (the rule and why the
cell is private to a call or a launch: :data:`repro.ir.ops.FLOAT32_CELL`).
``ALOAD`` and ``LEN`` read the storage (``_items``) of a
``ValueArray``/``MutableArray`` directly: through ``aN``, resolved once
per call, when the array is parameter N and N is never ``STORE``d (only
those two classes have ``_items``, and neither rebinds it); otherwise
``ALOAD`` resolves it in place. Anything else is indexed or measured as
it is, so a non-array fails as before.

A function is translated once (:class:`Translation`) and rendered as
often as it is printed: the translation marks every name it invents
with a NUL, and rendering replaces the mark with a prefix — none for
:func:`stage`, ``m0_``, ``m1_``, ... in a *launch*. A launch — every
work-item of a map or filter batch through a method chain, or a
reduce's fold — is one generated loop per launch shape
(:func:`stage_launch`) with each method's body inlined in it, its
``return X`` turned into ``v = X`` (a reduce: ``acc = X``) plus a
``break`` out of its ``pc`` loop. A work-item makes no Python call into
staged code and copies no binary32 cell (one per launch: a launch runs
on one thread); the bookkeeping of its N calls is done once (see
``Interpreter.launch`` and :func:`launch_source`).

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
* A function's translation, its staged function and the launches that
  inline it are memoised per program *object*, off to the side
  (:func:`staging_memo`): never pickled, never part of an artifact
  payload or cache key, one translation per process per function
  actually called, which every launch of it renders again.
"""

from __future__ import annotations

import linecache
import math
import weakref
from typing import NamedTuple

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
    "float32_cell": ops.float32_cell,
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


class Translation:
    """One function translated, once per program object: its blocks,
    ``consts`` (what the ``k*`` names bind) and what its prologue needs.
    Each name it invents (``l*``, ``t*``, ``s*``, ``a*``, ``k*``, ``c``,
    ``pc``) carries a NUL mark, which no ``repr()`` emits; :meth:`body`
    renders it under a name prefix. Nothing writes it after this."""

    def __init__(self, function: isa.CompiledFunction):
        self.function = function
        self.code = function.code
        self.leaders = {0} | {
            operand for op, operand in self.code if op in _JUMPS
        }
        stored = {operand for op, operand in self.code if op == isa.STORE}
        # Parameter slots never stored: their array storage can be
        # resolved once per call (``a*``); ``resolved`` are those an
        # ALOAD or LEN reads.
        self.fixed = set(range(function.num_params)) - stored
        self.resolved: set = set()
        self.consts: list = []
        self.blocks: dict = {}      # leader -> [(indent, text | marker)]
        self.entry_depth = {0: 0}
        self.temps = 0
        self.binds_call = False
        self.rounds = False         # uses the binary32 cell ``_f``
        # Per-block state.
        self.lines: list = []
        self.stack: list = []
        self.pending = 0            # static cycles not yet added to ``c``
        work = [0]
        while work:
            leader = work.pop()
            if leader in self.blocks:
                continue
            known = set(self.entry_depth)
            self.translate_block(leader)
            work.extend(set(self.entry_depth) - known)
        self.loops = any(
            text[0] == "goto"
            for lines in self.blocks.values() for _, text in lines
            if isinstance(text, tuple)
        )

    # -- emission helpers ---------------------------------------------------

    def emit(self, text, indent=0):
        self.lines.append((indent, text))

    def const(self, value) -> str:
        text = _literal(value)
        if text is None:
            text = f"\0k{len(self.consts)}"
            self.consts.append(value)
        return text

    def temp(self, text: str) -> _Value:
        """Evaluate ``text`` here, into a fresh single-assignment name."""
        name = f"\0t{self.temps}"
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

    def push_parts(self, parts, *operands: _Value):
        """Push a pure, total ``(text, float32)`` from :mod:`repro.ir.ops`:
        deferred, unless it is a ``float`` result — that is rounded here,
        through the call's binary32 cell."""
        text, float32 = parts
        if not float32:
            self.push_pure(text, *operands)
            return
        self.rounds = True
        self.emit(f"_f[0] = {text}")
        self.push(self.temp("_f[0]"))

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

    def storage(self, value: _Value):
        """``aN`` if ``value`` is parameter N and N is never stored (its
        array storage is resolved once per call), else None."""
        if value.atom and value.reads:     # a LOAD
            (slot,) = value.reads
            if slot in self.fixed:
                self.resolved.add(slot)
                return f"\0a{slot}"
        return None

    def flush(self, returning=False):
        """Hand the unflushed cycles to ``interp.cycles``."""
        extra = f" + {self.pending}" if self.pending else ""
        self.emit(f"interp.cycles += \0c{extra}")
        self.pending = 0
        if not returning:
            self.emit("\0c = 0")

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
            (f"\0s{i}", value.text)
            for i, value in enumerate(self.stack)
            if value.text != f"\0s{i}"
        ]
        if moves:
            self.emit(
                ", ".join(name for name, _ in moves)
                + " = "
                + ", ".join(text for _, text in moves),
                indent,
            )
        if self.pending:
            self.emit(f"\0c += {self.pending}", indent)
        self.lines.append((indent, ("goto", target)))

    # -- one block ----------------------------------------------------------

    def translate_block(self, leader: int):
        self.lines = []
        self.stack = [
            _Value(f"\0s{i}") for i in range(self.entry_depth[leader])
        ]
        self.pending = 0
        pc = leader
        n = len(self.code)
        while True:
            if pc >= n:
                # Fell off the end of a void function body.
                self.flush(returning=True)
                self.lines.append((0, ("return", "None")))
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
                self.lines.append((0, ("return", value)))
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
            push(_Value(f"\0l{operand}", True, frozenset((operand,))))
        elif op == isa.CONST:
            push(_Value(self.const(operand)))
        elif op == isa.STORE:
            value = pop()
            self.spill(reading=operand)
            emit(f"\0l{operand} = {value.text}")
        elif op == isa.BINOP:
            right = pop()
            left = pop()
            bop, typename = operand
            self.pending += isa.BINOP_EXTRA.get(operand, 0)
            parts = ops.binary_parts(bop, typename, left.text, right.text)
            if ops.binary_can_raise(bop, typename):
                push(self.temp(parts[0]))
            else:
                self.push_parts(parts, left, right)
        elif op == isa.UNOP:
            value = pop()
            uop, typename = operand
            self.push_parts(ops.unary_parts(uop, typename, value.text), value)
        elif op == isa.CAST:
            value = pop()
            self.push_parts(ops.cast_parts(operand, value.text), value)
        elif op in (isa.JZ, isa.JNZ):
            cond = pop().text
            emit(f"if not {cond}:" if op == isa.JZ else f"if {cond}:")
            self.transfer(operand, indent=1)
        elif op == isa.ALOAD:
            index = self.pop_atom()
            storage = self.storage(self.stack[-1])
            array = self.pop_atom()
            if storage is None:
                storage = "_a"
                emit("try:")
                emit(f"_a = {array}._items", 1)
                emit("except AttributeError:")
                emit(f"_a = {array}", 1)
            emit(f"if not 0 <= {index} < len({storage}):")
            emit(f"_out_of_bounds({index}, {array})", 1)
            push(self.temp(f"{storage}[{index}]"))
        elif op == isa.ASTORE:
            value = pop().text
            index = self.pop_atom()
            array = self.pop_atom()
            emit(f"if not 0 <= {index} < len({array}):")
            emit(f"_out_of_bounds({index}, {array})", 1)
            emit(f"{array}[{index}] = {value}")
        elif op == isa.LEN:
            # A statement: len() of a non-array raises.
            value = pop()
            push(self.temp(f"len({self.storage(value) or value.text})"))
        elif op == isa.NEWARRAY:
            length = self.pop_atom()
            emit(f"if {length} > 0:")
            emit(f"\0c += {length}", 1)
            push(self.temp(
                f"MutableArray.allocate({self.const(operand)}, {length})"
            ))
        elif op == isa.FREEZE:
            array = self.pop_atom()
            emit(f"\0c += len({array})")
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

    # -- rendering ----------------------------------------------------------

    def body(self, prefix: str, params, indent: int, result=None) -> list:
        """The function's statements, at ``indent``, with ``prefix`` on
        every name it invented.

        ``params`` binds the parameter slots: the text of an argument
        sequence to unpack, or a list of one text per parameter. With
        ``result`` a return assigns its value to that name (and leaves
        the ``pc`` loop) instead of returning it: the body inlined into
        a launch."""
        p, pad = prefix, "    " * indent
        function = self.function
        slots = [f"{p}l{i}" for i in range(function.num_params)]
        out = []
        if isinstance(params, str):
            if slots:
                out.append(f"{pad}{''.join(s + ', ' for s in slots)}= {params}")
        else:
            out.append(f"{pad}{', '.join(slots)} = {', '.join(params)}")
        if function.num_locals > function.num_params:
            names = " = ".join(
                f"{p}l{i}"
                for i in range(function.num_params, function.num_locals)
            )
            out.append(f"{pad}{names} = None")
        for slot in sorted(self.resolved):
            out += [
                f"{pad}try:",
                f"{pad}    {p}a{slot} = {p}l{slot}._items",
                f"{pad}except AttributeError:",
                f"{pad}    {p}a{slot} = {p}l{slot}",
            ]
        out.append(f"{pad}{p}c = 0")
        if not self.loops:
            self.render_block(p, 0, indent, out, result)
        else:
            out.append(f"{pad}{p}pc = 0")
            out.append(f"{pad}while True:")
            self.render_tree(p, sorted(self.blocks), indent + 1, out, result)
        return out

    def render_tree(self, p: str, leaders: list, indent: int, out, result):
        """Binary search on ``pc`` down to one block per leaf."""
        if len(leaders) == 1:
            self.render_block(p, leaders[0], indent, out, result)
            return
        middle = len(leaders) // 2
        pad = "    " * indent
        out.append(f"{pad}if {p}pc < {leaders[middle]}:")
        self.render_tree(p, leaders[:middle], indent + 1, out, result)
        out.append(f"{pad}else:")
        self.render_tree(p, leaders[middle:], indent + 1, out, result)

    def render_block(self, p: str, leader: int, indent: int, out, result):
        out.append(f"{'    ' * indent}# pc {leader}")
        for extra, text in self.blocks[leader]:
            pad = "    " * (indent + extra)
            if not isinstance(text, tuple):
                out.append(pad + text.replace("\0", p))
            elif text[0] == "goto":
                out.append(f"{pad}{p}pc = {text[1]}")
                out.append(f"{pad}continue")
            elif result is None:
                out.append(f"{pad}return " + text[1].replace("\0", p))
            else:
                out.append(f"{pad}{result} = " + text[1].replace("\0", p))
                if self.loops:
                    out.append(f"{pad}break")


def _head(named) -> tuple:
    """``(defaults, consts, shared)`` of a generated function over the
    ``(prefix, translation)`` pairs ``named``: the ``k*`` default
    arguments binding ``_k``, the list they index, and the statements
    binding what every body shares — ``call`` and the binary32 cell
    ``_f``."""
    defaults, consts = [], []
    for prefix, translation in named:
        for i, value in enumerate(translation.consts):
            defaults.append(f", {prefix}k{i}=_k[{len(consts)}]")
            consts.append(value)
    shared = []
    if any(translation.binds_call for _, translation in named):
        shared.append("    call = interp.call")
    if any(translation.rounds for _, translation in named):
        shared.append("    _f = float32_cell()")
    return "".join(defaults), consts, shared


def _function_text(translation: Translation) -> tuple:
    defaults, consts, shared = _head([("", translation)])
    out = [f"def _staged(interp, args{defaults}):", *shared]
    out += translation.body("", "args", 1)
    return "\n".join(out) + "\n", consts


def staged_source(function: isa.CompiledFunction) -> str:
    """The Python text :func:`stage` compiles for ``function``."""
    return _function_text(Translation(function))[0]


def stage(translation: Translation):
    """The translated function as ``staged(interp, args) -> value``.

    The source is registered with :mod:`linecache` under
    ``<staged Qualified.name>`` so a traceback through staged code
    shows the generated line (the most recently staged function of a
    name wins); nothing else keeps the text."""
    source, consts = _function_text(translation)
    filename = f"<staged {translation.function.qualified_name}>"
    return _compile(source, filename, consts)["_staged"]


def _compile(source: str, filename: str, consts: list) -> dict:
    namespace = {"_k": consts}
    exec(compile(source, filename, "exec"), _GLOBALS, namespace)
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename,
    )
    return namespace


# --- launches ---------------------------------------------------------------

#: Per-invocation frame cost, charged by ``Interpreter.call`` and, for
#: every work-item it runs, by a staged launch.
FRAME_CYCLES = 12


def _launch_text(kind: str, translations) -> tuple:
    frame = FRAME_CYCLES
    named = [(f"m{m}_", t) for m, t in enumerate(translations)]
    methods = [t.function.qualified_name for t in translations]
    defaults, consts, shared = _head(named)
    if kind == "reduce":
        out = [
            f"def _launch(interp, acc, items{defaults}):",
            "    stats = interp.method_stats",
            "    start = interp.cycles",
            "    k = 0",
            *shared,
            "    try:",
            "        for item in items:",
            "            k += 1",
            f"            interp.cycles += {frame}",
            f"            # {methods[0]}",
            *translations[0].body("m0_", ["acc", "item"], 3, "acc"),
            "    finally:",
            f"        st = stats[{methods[0]!r}]",
            "        st[0] += k",
            f"        st[1] += interp.cycles - start - {frame} * k",
            "    return acc",
        ]
        return "\n".join(out) + "\n", consts
    last = len(methods) - 1
    sums = [f"s{m}" for m in range(last)]
    out = [
        f"def _launch(interp, items, out, record{defaults}):",
        "    stats = interp.method_stats",
        "    append = out.append",
        "    start = interp.cycles",
        "    k = 0",
    ]
    if last:
        out.append(f"    j = {last}")
        out.append(f"    {' = '.join(sums)} = 0")
    out += shared
    out += [
        "    try:",
        "        for args in items:",
        "            k += 1",
        "            i = interp.cycles",
    ]
    for m, (prefix, translation) in enumerate(named):
        since, params = ("i", "args") if m == 0 else ("e", ["v"])
        if last:
            out.append(f"            interp.cycles = b = {since} + {frame}")
            out.append(f"            j = {m}")
        else:
            out.append(f"            interp.cycles = i + {frame}")
        out.append(f"            # {methods[m]}")
        out += translation.body(prefix, params, 3, "v")
        if m < last:
            out.append("            e = interp.cycles")
            out.append(f"            s{m} += e - b")
    out += [
        "            append(v)",
        "            if record is not None:",
        "                record(interp.cycles - i)",
    ]
    if last:
        out.append("    except BaseException:")
        for m in range(last):
            out.append(f"        {'el' if m else ''}if j == {m}:")
            out.append(f"            s{m} += interp.cycles - b")
        out.append("        raise")
    out.append("    finally:")
    calls = ["k"] + [f"n{m}" for m in range(1, last + 1)]
    for m in range(1, last + 1):
        out.append(f"        n{m} = k - (j < {m})")
    for m, name in enumerate(methods):
        out.append(f"        st = stats[{name!r}]")
        out.append(f"        st[0] += {calls[m]}")
        if m < last:
            out.append(f"        st[1] += s{m}")
    frames = " + ".join(calls)
    frames = f"({frames})" if last else frames
    rest = "".join(f" - {s}" for s in sums)
    out.append(
        f"        st[1] += interp.cycles - start - {frame} * {frames}{rest}"
    )
    return "\n".join(out) + "\n", consts


def launch_source(kind: str, functions) -> str:
    """The Python text :func:`stage_launch` compiles for a launch of
    ``functions`` (``CompiledFunction``s, translated afresh).

    ``kind`` ``"map"`` or ``"filter"``: ``_launch(interp, items, out,
    record)`` runs each argument tuple of ``items`` through the chain
    ``functions`` (each later one given the previous one's value),
    appends the last value to ``out`` and, unless ``record`` is None,
    records the work-item's cycles. ``"reduce"``: ``_launch(interp,
    acc, items)`` folds ``items`` into ``acc`` with ``functions[0]``.

    Each method's body is inlined in the work-item loop, rendered under
    the name prefix ``m0_``, ``m1_``, ...; its ``return X`` becomes
    ``v = X`` (a reduce: ``acc = X``) plus a ``break`` out of its ``pc``
    loop. Each work-item is charged its frames (``FRAME_CYCLES``) as
    ``Interpreter.call`` charges them; the ``method_stats`` entries are
    settled once, in a ``finally``, from counts and cycle sums kept in
    locals. Of a chain, only the methods before the last keep their own
    sums ``s*`` (the last one's is what remains of the total) and only
    they need ``j``, the method in flight, to settle a raise in their
    body: each method up to ``j`` ran ``k`` times, each after it
    ``k - 1``. The caller holds ``interp._depth`` one deeper for the
    whole loop."""
    return _launch_text(kind, [Translation(f) for f in functions])[0]


def stage_launch(kind: str, translations):
    """Compile the launch of the methods ``translations`` (the text
    :func:`launch_source` prints), registered with :mod:`linecache` as
    ``<staged launch Q1|Q2>`` or ``<staged launch reduce Q>``."""
    source, consts = _launch_text(kind, translations)
    methods = "|".join(t.function.qualified_name for t in translations)
    name = f"reduce {methods}" if kind == "reduce" else methods
    return _compile(source, f"<staged launch {name}>", consts)["_launch"]


class StagingMemo(NamedTuple):
    functions: dict     # qualified -> (staged, num_params, translation)
    launches: dict      # (kind, methods) -> staged launch


_MEMOS: dict = {}       # id(program) -> StagingMemo


def staging_memo(program: isa.BytecodeProgram) -> StagingMemo:
    """What is staged for this program *object*, made on first use.

    Kept beside the program, not on it: a pickled, cached or copied
    program carries no staged code and restages on first call. The
    entry dies with the program. It is made with ``setdefault``, so two
    interpreters created at once share it. (Two threads racing to stage
    one function or launch shape each do the work and one result is
    kept: staging is deterministic, so either is right.)"""
    key = id(program)
    memo = _MEMOS.get(key)
    if memo is None:
        fresh = StagingMemo({}, {})
        memo = _MEMOS.setdefault(key, fresh)
        if memo is fresh:
            weakref.finalize(program, _MEMOS.pop, key, None)
    return memo
