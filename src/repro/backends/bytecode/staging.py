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
            a1 = l1._items                   # parameter never stored,
        except AttributeError:               # n*: its length
            a1 = l1
        n1 = len(a1)
        c = 0                                # unflushed cycles
        # pc 0
        ...
        while True:                          # one per natural loop
            # pc 4
            if not (l2 < n1):
                c += 5
                break
            ...

The blocks are written as structured code (:mod:`.structure`): a
natural loop is a ``while True:``, a branch an ``if``/``else``, a jump
out of a loop ``break`` and back to its header ``continue``; there is
no ``pc`` variable and no dispatch on one, and a graph that is not
reducible is refused at staging (:class:`~repro.errors.DeviceError`).

A ``float`` result is rounded where it is computed, by the statements
``_f[0] = <double value>`` and ``tN = _f[0]`` (the rule and why the
cell is private to a call or a launch: :data:`repro.ir.ops.FLOAT32_CELL`).
``ALOAD`` and ``LEN`` read the storage (``_items``) of a
``ValueArray``/``MutableArray`` directly: through ``aN`` when the array
is parameter N and N is never ``STORE``d (only those two classes have
``_items``, and neither rebinds it, nor changes its length), where its
length ``nN`` is read once too — per call, or in a launch once for all
the work-items that pass the same array. ``LEN`` of it is ``nN``, and
every bounds check on it compares with ``nN``. A parameter that is not
a sized value fails there, with the ``TypeError`` ``len()`` raises.
Any other array operand is resolved and measured at its ``ALOAD``.

Staged code does only the program's arithmetic (the forms are
:mod:`repro.ir.ops`' staged fast paths):

* **One wrap per integer expression.** An ``int``/``long`` tree of
  ``+ - * << & | ^`` and unary ``- ~`` is computed unwrapped and
  wrapped once, at its root, wherever anything else reads it: a
  two's-complement wrap commutes with each of them. A tree whose
  magnitude bound would pass ``_MAX_BITS`` is wrapped part way.
* **No helper on the fast path.** Float ``/`` tests its divisor
  inline, integer ``/`` and ``%`` by a variable are a zero test where
  the program divides (its edge arm raises the helper's
  ``DeviceError``) and a truncating expression, by a nonzero constant
  an expression, and ``Math.sqrt/exp/log/sin/cos/tan`` the C function
  under a domain test; a cast, ``-`` or ``Math.abs`` whose result is
  exact already skips ``float()`` and the binary32 cell.
* **One charge per straight run.** A constant charge moves forward
  past lines that cannot raise, read a count or hand control on
  (:class:`Quiet`) and merges with the next: a function's first
  charge is ``c``'s initial value, a work-item's frame joins its first
  charge.
* **Counting loops** (:mod:`.loops`). Where a counting loop's header
  test ``l < nN`` or ``l < literal`` proves ``0 <= l < bound``, the
  increment ``l = l + 1`` is not wrapped, ``a[l]`` of the array whose
  length is the bound is not bounds-checked, and any other ``x[l]`` is
  checked only against its length.

A function is translated once (:class:`Translation`) and rendered as
often as it is printed: the translation marks every name it invents
with a NUL, and rendering replaces the mark with a prefix — none for
:func:`stage`, ``m0_``, ``m1_``, ... in a *launch*. A launch — every
work-item of a map or filter batch through a method chain, or a
reduce's fold — is one generated loop per launch shape
(:func:`stage_launch`) with each method's body inlined in it, its
``return X`` turned into ``v = X`` (a reduce: ``acc = X``), and with
each callee inlined in turn (prefix ``m0_i0_``, ...) unless it is
recursive or hands control to code the launch does not hold. A
work-item makes no Python call into staged code and copies no binary32
cell (one per launch: a launch runs on one thread); the bookkeeping of
its N calls is done once, and the cycle count is the launch's local
``cy`` (see ``Interpreter.launch`` and :func:`launch_source`).

A *block* starts at pc 0 and at every jump target and runs until a
``JMP``/``RET``/``RETV`` or the next block; a conditional jump inside it
is a side exit. Values left on the operand stack across a block
boundary travel in ``s0, s1, ...`` (by stack position); ``t*`` are
single-assignment temporaries within a block.

Invariants (the differential suite ``tests/test_staging_differential.py``
holds them against the instruction-at-a-time loop kept in
``tests/oracle_interpreter.py``):

* **Flush points.** ``c`` reaches the cycle count exactly where the
  loop flushed its local count: before ``CALL``, ``MAP``, ``REDUCE``
  and ``GRAPH_START`` hand control to other code (each including its
  own cost) and at ``RET``/``RETV``/falling off the end. Each block
  keeps its pre-summed charge on the same edges. Hence
  ``interp.cycles``, ``method_stats`` and per-work-item cycle counts
  are bit-exact, and an operation that raises loses precisely the
  cycles accumulated since the last flush.
* **Program order for anything observable.** An operation that can
  raise, reads mutable state or has a side effect is emitted as a
  statement where the program put it. Only pure, total expressions over
  locals, temporaries and constants are deferred to their use, and one
  that reads local ``k`` is evaluated before a ``STORE k``. A template
  may name an atom operand more than once but evaluates each non-atom
  operand exactly once (:meth:`Translation.atom` names one first).
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
from repro.backends.bytecode.loops import counting_loops
from repro.backends.bytecode.structure import Graph, Node, Quiet, structured
from repro.errors import DeviceError
from repro.ir import ops
from repro.values import MutableArray, ValueArray
from repro.values.structs import StructValue

_JUMPS = (isa.JMP, isa.JZ, isa.JNZ)
_RETURNS = (isa.RET, isa.RETV)
_INT_HALF = 1 << 31
# What a cast's result is known to be (see ``_Value.kind``).
_CAST_KINDS = {"float": "float", "double": "double", "int": "int"}


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


def _overflow():
    raise DeviceError("stack overflow (recursion too deep)")


def _settle(stats, name, calls, cycles):
    """Add a launch's tally of an inlined callee to ``method_stats``."""
    entry = stats.get(name)
    if entry is None:
        stats[name] = [calls, cycles]
    else:
        entry[0] += calls
        entry[1] += cycles


#: What a launch's cached argument ``pN`` holds before its first item.
_UNSET = object()


def _unknown_intrinsic(name):
    kind = "math intrinsic" if name.startswith("Math.") else "intrinsic"
    raise DeviceError(f"unknown {kind} {name!r}")


#: The one globals dict every staged function runs in.
_GLOBALS = {
    **ops.NAMESPACE,
    "MutableArray": MutableArray,
    "StructValue": StructValue,
    "ValueArray": ValueArray,
    "float32_cell": ops.float32_cell,
    "_check_map_lengths": _check_map_lengths,
    "_out_of_bounds": _out_of_bounds,
    "_overflow": _overflow,
    "_settle": _settle,
    "_UNSET": _UNSET,
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
# An unwrapped integer tree is wrapped before its magnitude bound passes
# this many bits (a product of products grows fast).
_MAX_BITS = 256


class _Value:
    """One operand-stack entry: Python source that yields it.

    ``atom`` entries are a bare name or literal and may be used any
    number of times; the others are pure, total expressions evaluated
    exactly once, at their use. ``reads`` holds the local slots the
    text reads, ``nesting`` how many templates deep it is; ``value`` is
    the constant an ``int`` or ``float`` literal stands for. ``kind``
    is what the text is known to yield: ``"int"`` (an int in the
    ``int`` range), ``"float"`` (a binary32 value), ``"double"`` (a
    Python float) or None. An ``int``/``long`` ring tree
    (:data:`repro.ir.ops.RING`) that may have left its range carries
    ``raw``, its unwrapped text (``text`` is ``raw`` wrapped), ``ring``,
    its typename, and ``bits``, a bound on its magnitude."""

    __slots__ = ("text", "atom", "reads", "nesting", "value", "kind",
                 "raw", "ring", "bits")

    def __init__(self, text, atom=True, reads=frozenset(), nesting=0,
                 value=None, kind=None, raw=None, ring=None, bits=0):
        self.text = text
        self.atom = atom
        self.reads = reads
        self.nesting = nesting
        self.value = value
        self.kind = kind
        self.raw = raw
        self.ring = ring
        self.bits = bits


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
    """One function translated, once per program object: its nodes (the
    block graph, split at each side exit), ``consts`` (what the ``k*``
    names bind) and what its prologue needs. Each name it invents
    (``l*``, ``t*``, ``s*``, ``a*``, ``n*``, ``p*``, ``x*``, ``k*``,
    ``c``) carries a NUL mark, which no ``repr()`` emits; rendering
    (:meth:`body`) puts a name prefix there. The structured form of each
    of its two renderings — a function of its own, or a body inlined
    into a launch — is made on first use and kept."""

    def __init__(self, function: isa.CompiledFunction):
        self.function = function
        self.code = function.code
        self.leaders = {0} | {
            operand for op, operand in self.code if op in _JUMPS
        }
        stored = {operand for op, operand in self.code if op == isa.STORE}
        # Parameter slots never stored: their array storage and length
        # can be resolved once (``a*``, ``n*``); ``resolved`` are those
        # an ALOAD, ASTORE or LEN reads.
        self.fixed = set(range(function.num_params)) - stored
        self.resolved: set = set()
        # What counting loops' guards prove (:mod:`.loops`).
        self.facts = counting_loops(self.code, function.num_params)
        self.at = 0                 # pc of the instruction translated
        self.consts: list = []
        self.nodes: dict = {}       # pc -> Node
        self.entry_depth = {0: 0}
        self.temps = 0
        self.sites = 0              # CALL instructions translated
        self.calls: list = []       # (callee, nargs) per CALL
        self.leaves = False         # a MAP, REDUCE or GRAPH_START
        self.counts = False         # some run adds to ``c``
        self.rounds = False         # uses the binary32 cell ``_f``
        # Per-node state.
        self.lines: list = []
        self.stack: list = []
        self.pending = 0            # static cycles not yet added to ``c``
        work = [0]
        while work:
            leader = work.pop()
            if leader in self.nodes:
                continue
            known = set(self.entry_depth)
            self.translate_block(leader)
            work.extend(set(self.entry_depth) - known)
        self.graph = Graph(self.nodes, function.qualified_name)
        self.shapes: dict = {}

    # -- emission helpers ---------------------------------------------------

    def emit(self, text, indent=0, quiet=False):
        self.lines.append((indent, Quiet(text) if quiet else text))

    def add_cycles(self, amount, indent=0):
        self.counts = True
        self.emit(f"\0c += {amount}", indent)

    def const(self, value) -> str:
        text = _literal(value)
        if text is None:
            text = f"\0k{len(self.consts)}"
            self.consts.append(value)
        return text

    def temp_name(self) -> str:
        name = f"\0t{self.temps}"
        self.temps += 1
        return name

    def temp(self, text: str, quiet=False, kind=None) -> _Value:
        """Evaluate ``text`` here, into a fresh single-assignment name
        (``quiet``: a pure, total text)."""
        name = self.temp_name()
        self.emit(f"{name} = {text}", quiet=quiet)
        return _Value(name, kind=kind)

    def atom(self, value: _Value) -> _Value:
        """``value`` as an atom: its text may then be used repeatedly."""
        return value if value.atom else self.temp(
            value.text, True, value.kind
        )

    def push(self, value: _Value):
        self.stack.append(value)

    def push_pure(self, text: str, *operands: _Value, kind=None, raw=None,
                  ring=None, bits=0):
        """Defer a pure, total expression over ``operands`` to its use
        (the other arguments: :class:`_Value`'s)."""
        nesting = 1 + max((v.nesting for v in operands), default=0)
        if nesting > _MAX_NESTING:
            self.push(self.temp(text, True, kind))
            return
        reads = frozenset().union(*(v.reads for v in operands))
        self.push(_Value(text, False, reads, nesting, None, kind, raw, ring,
                         bits))

    def push_parts(self, parts, *operands: _Value, kind=None):
        """Push a pure, total ``(text, float32)`` from :mod:`repro.ir.ops`:
        deferred, unless it is a ``float`` result — that is rounded here,
        through the call's binary32 cell."""
        text, float32 = parts
        if not float32:
            self.push_pure(text, *operands, kind=kind)
            return
        self.rounds = True
        self.emit(f"_f[0] = {text}", quiet=True)
        self.push(self.temp("_f[0]", True, "float"))

    def push_integer(self, raw: str, widens: bool, typename: str, bits,
                     *operands: _Value):
        """Push the ``int``/``long`` value of ``raw``: the text itself
        if it stays in range, else ``raw`` wrapped, with ``raw`` kept for
        a ring operator that reads it (one wrap per tree)."""
        kind = "int" if typename == "int" else None
        if not widens:
            self.push_pure(raw, *operands, kind=kind)
        else:
            self.push_pure(ops.wrap(raw, typename), *operands, kind=kind,
                           raw=raw, ring=typename, bits=bits)

    def pop(self) -> _Value:
        return self.stack.pop()

    def spill(self, reading=None):
        """Evaluate the deferred expressions on the stack now (only
        those reading local ``reading``, if given)."""
        for i, value in enumerate(self.stack):
            if value.atom if reading is None else reading not in value.reads:
                continue
            self.stack[i] = self.temp(value.text, True, value.kind)

    def pop_atom(self) -> str:
        """Pop an operand whose text is used more than once."""
        return self.atom(self.stack.pop()).text

    def pop_values(self, count: int) -> list:
        values = self.stack[len(self.stack) - count:]
        del self.stack[len(self.stack) - count:]
        return [v.text for v in values]

    def storage(self, value: _Value):
        """Parameter N if ``value`` is it and N is never stored (its
        array storage ``aN`` and length ``nN`` are resolved once), else
        None."""
        if value.atom and value.reads:     # a LOAD
            (slot,) = value.reads
            if slot in self.fixed:
                self.resolved.add(slot)
                return slot
        return None

    def flush(self, returning=False):
        """Hand the unflushed cycles to the cycle count (a marker: the
        count is ``interp.cycles`` in a function, a local in a launch)."""
        self.emit(("flush", self.pending, returning))
        self.pending = 0

    def transfer(self, target: int) -> tuple:
        """The edge leaving for ``target``: operand stack into ``s*``,
        pending cycles into ``c``."""
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
        lines = []
        if moves:
            lines.append((0, Quiet(
                ", ".join(name for name, _ in moves)
                + " = " + ", ".join(text for _, text in moves)
            )))
        if self.pending:
            self.counts = True
            lines.append((0, Quiet(f"\0c += {self.pending}")))
        return lines, target

    # -- one block ----------------------------------------------------------

    def close(self, start: int, term):
        self.nodes[start] = Node(self.lines, term, start in self.leaders)
        self.lines = []

    def translate_block(self, leader: int):
        self.lines = []
        self.stack = [
            _Value(f"\0s{i}") for i in range(self.entry_depth[leader])
        ]
        self.pending = 0
        start = pc = leader
        n = len(self.code)
        while True:
            if pc >= n:
                # Fell off the end of a void function body.
                self.flush(returning=True)
                self.close(start, ("return", "None"))
                return
            op, operand = self.code[pc]
            self.at = pc
            pc += 1
            self.pending += isa.CYCLE_COST.get(op, 0)
            if op == isa.JMP:
                self.close(start, ("goto", self.transfer(operand)))
                return
            if op in _RETURNS:
                value = self.pop().text if op == isa.RETV else "None"
                self.flush(returning=True)
                self.close(start, ("return", value))
                return
            if op in (isa.JZ, isa.JNZ):
                # A side exit: the rest of the block is a node of its own
                # (its pc is no jump target), reached only from here.
                cond = self.pop().text
                taken = self.transfer(operand)
                rest = self.transfer(pc) if pc in self.leaders else ([], pc)
                self.close(start, (
                    "if", cond, *((rest, taken) if op == isa.JZ
                                  else (taken, rest))
                ))
                if pc in self.leaders:
                    return
                start = pc
                continue
            self.instruction(op, operand)
            if pc in self.leaders:
                self.close(start, ("goto", self.transfer(pc)))
                return

    def instruction(self, op, operand):
        emit, push, pop = self.emit, self.push, self.pop
        if op in _EFFECTS:
            self.spill()
        if op == isa.LOAD:
            push(_Value(f"\0l{operand}", True, frozenset((operand,))))
        elif op == isa.CONST:
            number = operand if operand.__class__ in (int, float) else None
            kind = "double" if operand.__class__ is float else (
                "int" if number is not None and -_INT_HALF <= number
                < _INT_HALF else None
            )
            push(_Value(self.const(operand), value=number, kind=kind))
        elif op == isa.STORE:
            value = pop()
            self.spill(reading=operand)
            emit(f"\0l{operand} = {value.text}", quiet=True)
        elif op == isa.BINOP:
            right = pop()
            left = pop()
            bop, typename = operand
            self.pending += isa.BINOP_EXTRA.get(operand, 0)
            if typename in ("int", "long") and bop in ops.RING:
                self.ring(bop, typename, left, right)
            elif typename in ("int", "long") and bop in ("/", "%"):
                self.divide(bop, typename, left, right)
            elif typename in ("int", "long") and bop == ">>":
                raw, widens = ops.ring_parts(bop, typename, left.text,
                                             right.text)
                self.push_integer(raw, widens, typename, 0, left, right)
            elif bop == "/" and typename in ("float", "double"):
                divisor = right.value
                if not divisor:         # the text names the dividend twice
                    left = self.atom(left)
                right = self.atom(right)
                text = ops.float_division_parts(left.text, right.text, divisor)
                self.push_parts((text, typename == "float"), left, right,
                                kind="double")
            else:
                self.push_parts(ops.binary_parts(
                    bop, typename, left.text, right.text
                ), left, right)
        elif op == isa.UNOP:
            value = pop()
            uop, typename = operand
            if typename in ("int", "long") and uop in ops.RING_UNARY:
                self.ring(uop, typename, value)
                return
            text, float32 = ops.unary_parts(uop, typename, value.text)
            if float32 and value.kind == "float" and ops.keeps_binary32(uop):
                self.push_pure(text, value, kind="float")
            else:
                self.push_parts((text, float32), value)
        elif op == isa.CAST:
            value = pop()
            parts = ops.staged_cast_parts(operand, value.text, value.kind)
            kind = _CAST_KINDS.get(operand)
            if parts == (value.text, False):
                # The identity: the operand itself, of the cast's type.
                push(_Value(value.text, value.atom, value.reads,
                            value.nesting, value.value, kind))
            else:
                self.push_parts(parts, value, kind=kind)
        elif op == isa.ALOAD:
            bound = self.bound(self.stack[-1])
            index = self.pop_atom()
            slot = self.storage(self.stack[-1])
            array = self.pop_atom()
            if slot is None:
                storage, length = "_a", "len(_a)"
                emit("try:")
                emit(f"_a = {array}._items", 1)
                emit("except AttributeError:")
                emit(f"_a = {array}", 1)
            else:
                storage, length = f"\0a{slot}", f"\0n{slot}"
            self.check(index, length, array, bound, slot)
            push(self.temp(f"{storage}[{index}]"))
        elif op == isa.ASTORE:
            value = pop().text
            bound = self.bound(self.stack[-1])
            index = self.pop_atom()
            slot = self.storage(self.stack[-1])
            array = self.pop_atom()
            length = f"len({array})" if slot is None else f"\0n{slot}"
            self.check(index, length, array, bound, slot)
            emit(f"{array}[{index}] = {value}")
        elif op == isa.LEN:
            value = pop()
            slot = self.storage(value)
            if slot is None:
                # A statement: len() of a non-array raises.
                push(self.temp(f"len({value.text})"))
            else:
                push(_Value(f"\0n{slot}"))
        elif op == isa.NEWARRAY:
            length = self.pop_atom()
            emit(f"if {length} > 0:")
            self.add_cycles(length, 1)
            push(self.temp(
                f"MutableArray.allocate({self.const(operand)}, {length})"
            ))
        elif op == isa.FREEZE:
            array = self.pop_atom()
            self.add_cycles(f"len({array})")
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
            args = self.pop_values(nargs)
            self.flush()
            target = self.temp_name() if returns else None
            emit(("call", self.sites, callee, args, target))
            self.sites += 1
            self.calls.append((callee, nargs))
            if returns:
                push(_Value(target))
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
            map_args = self.temp(
                "[" + ", ".join(self.pop_values(nargs)) + "]"
            ).text
            broadcast = self.const(tuple(broadcast))
            emit(f"_check_map_lengths({map_args}, {broadcast})")
            self.flush()
            self.leave(push, (
                f"ValueArray({self.const(elem_kind)}, "
                f"interp.services.execute_map("
                f"{method!r}, {map_args}, {broadcast}, interp))"
            ))
        elif op == isa.REDUCE:
            array = pop().text
            self.flush()
            self.leave(push, (
                f"interp.services.execute_reduce({operand!r}, {array}, "
                f"interp)"
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
            self.leave(None, (
                f"interp.services.graph_start({graph}, {blocking!r}, "
                f"{self.const(graph_id)}, interp)"
            ))
        else:
            raise DeviceError(f"unknown opcode {op!r}")

    def ring(self, op, typename, *operands: _Value):
        """An ``int``/``long`` operator of :data:`repro.ir.ops.RING` or
        :data:`~repro.ir.ops.RING_UNARY`: its operands enter unwrapped
        where they are trees of the same type that left the range, and
        the result is wrapped only where anything else reads it. A
        counting loop's increment needs no wrap."""
        width = ops.WIDTH[typename]
        texts, bits = [], []
        for value in operands:
            if value.raw is not None and value.ring == typename:
                texts.append(value.raw)
                bits.append(value.bits)
            else:
                texts.append(value.text)
                bits.append(width)
        bound = ops.ring_bits(op, typename, *bits)
        if bound > _MAX_BITS:
            texts = [value.text for value in operands]
            bits = [width] * len(operands)
            bound = ops.ring_bits(op, typename, *bits)
        raw, widens = ops.ring_parts(op, typename, *texts)
        widens = widens or any(b != width for b in bits)
        if self.at in self.facts.unwrapped:
            widens = False
        self.push_integer(raw, widens, typename, bound, *operands)

    def divide(self, op, typename, left: _Value, right: _Value):
        """Integer ``/`` or ``%``: by a nonzero constant a total
        expression; by anything else a zero test where the program
        divides (the helper raises on its edge arm) and then a total
        expression over the two operands, named."""
        width = ops.WIDTH[typename]
        if right.value.__class__ is int and right.value:
            raw, widens = ops.constant_division_parts(
                op, left.text, right.value
            )
            self.push_integer(raw, widens, typename, width, left)
            return
        left, right = self.atom(left), self.atom(right)
        self.emit(ops.division_check(op, left.text, right.text))
        raw, widens = ops.division_parts(op, left.text, right.text)
        self.push_integer(raw, widens, typename, width, left, right)

    def bound(self, index: _Value):
        """What a counting loop's guard proves about ``index`` here: its
        bound if it is the loop's counter (:mod:`.loops`), else None."""
        if not index.atom or len(index.reads) != 1:
            return None
        (slot,) = index.reads
        return self.facts.bounds.get(self.at, {}).get(slot)

    def check(self, index, length, array, bound, slot):
        """The bounds check of ``array[index]``, less what ``bound``
        proves: none against the length that is the bound, only the
        upper half against any other."""
        if bound == ("len", slot):
            return
        low = "" if bound is not None else "0 <= "
        self.emit(f"if not {low}{index} < {length}:")
        self.emit(f"_out_of_bounds({index}, {array})", 1)

    def leave(self, push, text: str):
        """A statement that hands control to other code (a marker: a
        launch syncs its cycle count around it); ``push`` its value."""
        self.leaves = True
        if push is None:
            self.emit(("leave", text))
            return
        name = self.temp_name()
        self.emit(("leave", f"{name} = {text}"))
        push(_Value(name))

    def intrinsic(self, name: str, nargs: int, typename: str):
        self.pending += isa.INTRINSIC_COST.get(name, 5)
        values = self.stack[len(self.stack) - nargs:]
        del self.stack[len(self.stack) - nargs:]
        returns = typename != "void"
        if name in ("println", "print"):
            end = ' + "\\n"' if name == "println" else ""
            self.emit(
                f"interp.stdout.append(to_display({values[0].text}){end})"
            )
            if returns:
                self.push(_Value("None"))
            return
        if returns and ops.domain_parts(name, "x") is not None:
            # The C function under a domain test: total, and deferred.
            arg = self.atom(values[0])
            self.push_pure(ops.domain_parts(name, arg.text), arg,
                           kind="double")
            return
        if returns and typename in ("int", "long") and name in (
            "Math.abs", "Math.min", "Math.max"
        ):
            raw, widens = ops.integral_parts(name, [v.text for v in values])
            self.push_integer(raw, widens, typename, ops.WIDTH[typename] + 1,
                              *values)
            return
        parts = ops.intrinsic_parts(name, typename, [v.text for v in values])
        if parts is None:
            self.emit(f"_unknown_intrinsic({name!r})")
            if returns:
                self.push(_Value("None"))
        elif returns:
            # Pure and total: evaluated only if, and where, it is used.
            if parts[1] and values[0].kind == "float" \
                    and ops.keeps_binary32(name):
                self.push_pure(parts[0], *values, kind="float")
            else:
                self.push_parts(parts, *values)

    # -- the structured form ------------------------------------------------

    def shape(self, inline: bool) -> list:
        """The function as ``[(indent, text | marker)]``: ``while True:``
        per natural loop, ``if``/``else`` per branch. ``inline``: a
        return assigns the body's result (a ``("result", X)`` marker)
        and leaves for the end of the body."""
        shape = self.shapes.get(inline)
        if shape is None:
            shape = self.shapes[inline] = structured(self.graph, inline)
        return shape

    # -- rendering ----------------------------------------------------------

    def body(self, prefix: str, params, indent: int, result=None,
             render=None) -> list:
        """The function's statements, at ``indent``, with ``prefix`` on
        every name it invented.

        ``params`` binds the parameter slots: the text of an argument
        sequence to unpack, or a list of one text per parameter. With
        ``result`` a return assigns its value to that name instead of
        returning it: the body inlined into a launch, whose
        :class:`_Render` (``render``) it reports its needs to and which
        may inline its callees."""
        if render is None:
            render = _Render(launch=result is not None)
        return render.body(self, prefix, params, indent, result)


# --- rendering ----------------------------------------------------------------


def _charge(item):
    """N if ``item`` is the line ``c += N`` (a constant charge)."""
    if isinstance(item, str) and item.startswith("\0c += "):
        amount = item[len("\0c += "):]
        if amount.isdigit():
            return int(amount)
    return None


def _is_quiet(item) -> bool:
    """Whether a charge to the cycle count may move past ``item``: a
    comment, a constant charge to ``c`` or a :class:`Quiet` line."""
    return isinstance(item, str) and (
        isinstance(item, Quiet) or item.startswith("#")
        or _charge(item) is not None
    )


def _first_charge(shape):
    """The index of the first top-level constant charge to ``c`` in
    ``shape`` if only straight-line statements come before it."""
    for i, (extra, item) in enumerate(shape):
        if extra or not isinstance(item, str) or item.endswith(":") \
                or item in ("break", "continue") \
                or item.startswith("return"):
            return None
        if _charge(item) is not None:
            return i
    return None


def _single_result(shape) -> bool:
    """Whether ``shape``'s one ``result`` marker is its last item, at
    the top level: the value may go straight where the body's goes."""
    results = [
        i for i, (_, item) in enumerate(shape)
        if isinstance(item, tuple) and item[0] == "result"
    ]
    return results == [len(shape) - 1] and shape[-1][0] == 0


class _Render:
    """One generated function being written: the bodies it holds, under
    their prefixes, and what its head must bind for them.

    ``launch``: the cycle count is the launch's local ``cy``; a statement
    that hands control to other code writes it to ``interp.cycles``
    first and reads it back after. With a ``lookup`` (qualified name ->
    ``Translation`` or None) a ``CALL`` of a callee that is not
    recursive and never hands control on is inlined too."""

    def __init__(self, launch=False, lookup=None):
        self.launch = launch
        self.lookup = lookup
        self.named: list = []       # (prefix, translation): its k* names
        self.binds_call = False
        self.rounds = False
        self.prologue: list = []    # launch-level statements
        self.callees: dict = {}     # qualified -> accumulator name
        self.levels: set = set()    # inline depths below a kernel
        self.stack: list = []       # qualified names being rendered
        self.closed: dict = {}      # qualified -> may be inlined
        self.sank = False           # the last body passed its value on

    def body(self, translation, prefix, params, indent, result, carry=0,
             sink=None):
        p, pad = prefix, "    " * indent
        function = translation.function
        self.named.append((p, translation))
        self.rounds = self.rounds or translation.rounds
        slots = [f"{p}l{i}" for i in range(function.num_params)]
        out = []
        if isinstance(params, str):
            if slots:
                out.append(f"{pad}{''.join(s + ', ' for s in slots)}= {params}")
        elif slots and params is not None:
            out.append(f"{pad}{', '.join(slots)} = {', '.join(params)}")
        if function.num_locals > function.num_params:
            names = " = ".join(
                f"{p}l{i}"
                for i in range(function.num_params, function.num_locals)
            )
            out.append(f"{pad}{names} = None")
        for slot in sorted(translation.resolved):
            resolve = [
                "try:",
                f"    {p}a{slot} = {p}l{slot}._items",
                "except AttributeError:",
                f"    {p}a{slot} = {p}l{slot}",
                f"{p}n{slot} = len({p}a{slot})",
            ]
            if self.launch:
                # Once per launch for an argument every item shares.
                self.prologue.append(f"{p}p{slot} = _UNSET")
                resolve = [
                    f"if {p}l{slot} is not {p}p{slot}:",
                    *("    " + line for line in resolve),
                    f"    {p}p{slot} = {p}l{slot}",
                ]
            if carry:
                out.append(f"{pad}cy += {carry}")
                carry = 0
            out += [pad + line for line in resolve]
        shape = translation.shape(result is not None)
        if translation.counts:
            # The first charge to ``c``, if no statement comes before it
            # at this level but straight-line ones, is its initial value.
            first = _first_charge(shape)
            start = 0 if first is None else _charge(shape[first][1])
            shape = shape if first is None else (
                shape[:first] + shape[first + 1:]
            )
            out.append(f"{pad}{p}c = {start}")
        if sink is not None and not _single_result(shape):
            sink = None
        self.stack.append(function.qualified_name)
        for extra, item in shape:
            if carry and not (extra == 0 and _is_quiet(item)):
                if extra == 0 and item[0] == "flush":
                    # The frame merges with the first charge to the count.
                    item = ("flush", item[1] + carry, item[2])
                else:
                    out.append(f"{pad}cy += {carry}")
                carry = 0
            self.item(translation, p, indent + extra, item, result, out,
                      sink)
        self.stack.pop()
        if carry:
            out.append(f"{pad}cy += {carry}")
        self.sank = sink is not None
        return out

    def item(self, translation, p, indent, item, result, out, sink=None):
        pad = "    " * indent
        if isinstance(item, str):
            out.append(pad + item.replace("\0", p))
            return
        kind = item[0]
        if kind == "result":
            text = item[1].replace("\0", p)
            out.append(f"{pad}{sink}({text})" if sink is not None
                       else f"{pad}{result} = {text}")
        elif kind == "flush":
            _, pending, returning = item
            count = "cy" if self.launch else "interp.cycles"
            if translation.counts:
                extra = f" + {pending}" if pending else ""
                out.append(f"{pad}{count} += {p}c{extra}")
                if not returning:
                    out.append(f"{pad}{p}c = 0")
            elif pending:
                out.append(f"{pad}{count} += {pending}")
        elif kind == "leave":
            self.leave(item[1].replace("\0", p), pad, out)
        else:
            _, site, callee, args, target = item
            args = [arg.replace("\0", p) for arg in args]
            target = target and target.replace("\0", p)
            callee_translation = self.inlinable(callee, len(args))
            if callee_translation is not None:
                self.inline(callee_translation, f"{p}i{site}_", args,
                            target or "_", indent, out)
                return
            self.binds_call = True
            text = f"call({callee!r}, [{', '.join(args)}])"
            self.leave(text if target is None else f"{target} = {text}",
                       pad, out)

    def leave(self, text, pad, out):
        if not self.launch:
            out.append(pad + text)
            return
        out += [
            f"{pad}interp.cycles = cy",
            f"{pad}try:",
            f"{pad}    {text}",
            f"{pad}finally:",
            f"{pad}    cy = interp.cycles",
        ]

    # -- inlined callees ----------------------------------------------------

    def callee(self, qualified, nargs):
        """The translation of ``qualified`` if it takes ``nargs``
        arguments, else None."""
        translation = self.lookup(qualified)
        if translation is None or translation.function.num_params != nargs:
            return None
        return translation

    def inlinable(self, qualified, nargs):
        """The callee's translation if a launch inlines this call."""
        if self.lookup is None:
            return None
        translation = self.callee(qualified, nargs)
        if translation is None or not self.is_closed(translation, set()):
            return None
        return translation

    def is_closed(self, translation, visiting) -> bool:
        """Not recursive, and nothing in it hands control to code the
        launch does not hold (a call left a call, MAP, REDUCE or
        GRAPH_START): it runs at one depth, on the launch's count."""
        qualified = translation.function.qualified_name
        known = self.closed.get(qualified)
        if known is not None:
            return known
        if qualified in visiting:
            return False
        visiting.add(qualified)
        closed = not translation.leaves and all(
            (callee := self.callee(name, nargs)) is not None
            and self.is_closed(callee, visiting)
            for name, nargs in translation.calls
        )
        visiting.discard(qualified)
        self.closed[qualified] = closed
        return closed

    def inline(self, translation, prefix, args, target, indent, out):
        """A callee's body in place of ``Interpreter.call``: its depth
        test (made once per launch: ``oN``), frame and ``method_stats``
        entry, kept in the launch's locals ``qN*``."""
        pad = "    " * indent
        level = len(self.stack)
        self.levels.add(level)
        name = translation.function.qualified_name
        q = self.callees.get(name)
        if q is None:
            q = self.callees[name] = f"q{len(self.callees)}"
            self.prologue.append(f"{q}_n = {q}_s = 0")
            self.prologue.append(f"{q}_b = None")
        out += [
            f"{pad}if o{level}:",
            f"{pad}    _overflow()",
            f"{pad}cy += {FRAME_CYCLES}",
            f"{pad}{q}_n += 1",
            f"{pad}{q}_b = cy",
            f"{pad}# {name}",
        ]
        out += self.body(translation, prefix, args, indent, target)
        out += [
            f"{pad}{q}_s += cy - {q}_b",
            f"{pad}{q}_b = None",
        ]

    # -- the generated function's head and tail -----------------------------

    def head(self) -> tuple:
        """``(defaults, consts, shared)``: the ``k*`` default arguments
        binding ``_k``, the list they index, and the statements binding
        what the bodies share — ``call``, the binary32 cell ``_f`` and,
        in a launch, the depth flags, callee tallies and resolved
        arguments."""
        defaults, consts = [], []
        for prefix, translation in self.named:
            for i, value in enumerate(translation.consts):
                defaults.append(f", {prefix}k{i}=_k[{len(consts)}]")
                consts.append(value)
        shared = []
        if self.binds_call:
            shared.append("    call = interp.call")
        if self.rounds:
            shared.append("    _f = float32_cell()")
        if self.levels:
            shared.append("    deep = interp.max_call_depth - interp._depth")
            shared += [f"    o{n} = {n} > deep" for n in sorted(self.levels)]
        shared += ["    " + line for line in self.prologue]
        return "".join(defaults), consts, shared

    def settle(self) -> list:
        """The ``finally`` lines that add each inlined callee's tally."""
        out = []
        for name, q in self.callees.items():
            out += [
                f"        if {q}_b is not None:",
                f"            {q}_s += cy - {q}_b",
                f"        if {q}_n:",
                f"            _settle(stats, {name!r}, {q}_n, {q}_s)",
            ]
        return out


def _function_text(translation: Translation) -> tuple:
    render = _Render()
    body = render.body(translation, "", "args", 1, None)
    defaults, consts, shared = render.head()
    out = [f"def _staged(interp, args{defaults}):", *shared, *body]
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
#: every work-item it runs and every callee it inlines, by a launch.
FRAME_CYCLES = 12


def _launch_text(kind: str, translations, lookup=None) -> tuple:
    frame = FRAME_CYCLES
    render = _Render(launch=True, lookup=lookup)
    methods = [t.function.qualified_name for t in translations]
    if kind == "reduce":
        loop = [
            "        for item in items:",
            "            k += 1",
            f"            # {methods[0]}",
            *render.body(translations[0], "m0_", ["acc", "item"], 3, "acc",
                         carry=frame),
        ]
        defaults, consts, shared = render.head()
        out = [
            f"def _launch(interp, acc, items{defaults}):",
            "    stats = interp.method_stats",
            "    cy = start = interp.cycles",
            "    k = 0",
            *shared,
            "    try:",
            *loop,
            "    finally:",
            "        interp.cycles = cy",
            f"        st = stats[{methods[0]!r}]",
            "        st[0] += k",
            f"        st[1] += cy - start - {frame} * k",
            *render.settle(),
            "    return acc",
        ]
        return "\n".join(out) + "\n", consts
    last = len(methods) - 1
    sums = [f"s{m}" for m in range(last)]
    # Work-item i's arguments unpack in the loop's target.
    arity = translations[0].function.num_params
    target = "".join(f"m0_l{n}, " for n in range(arity)).strip() or "args"
    loop = [
        f"        for {target} in items:",
        "            k += 1",
        "            i = cy",
    ]
    for m, translation in enumerate(translations):
        since = "i" if m == 0 else "e"
        params = (None if arity else "args") if m == 0 else ["v"]
        carry = 0
        if last:
            loop.append(f"            cy = b = {since} + {frame}")
            loop.append(f"            j = {m}")
        else:
            carry = frame
        loop.append(f"            # {methods[m]}")
        loop += render.body(translation, f"m{m}_", params, 3, "v",
                            carry=carry,
                            sink="append" if m == last else None)
        if m < last:
            loop.append("            e = cy")
            loop.append(f"            s{m} += e - b")
    if not render.sank:
        loop.append("            append(v)")
    loop += [
        "            if record is not None:",
        "                record(cy - i)",
    ]
    defaults, consts, shared = render.head()
    out = [
        f"def _launch(interp, items, out, record{defaults}):",
        "    stats = interp.method_stats",
        "    append = out.append",
        "    cy = start = interp.cycles",
        "    k = 0",
    ]
    if last:
        out.append(f"    j = {last}")
        out.append(f"    {' = '.join(sums)} = 0")
    out += shared
    out += ["    try:", *loop]
    if last:
        out.append("    except BaseException:")
        for m in range(last):
            out.append(f"        {'el' if m else ''}if j == {m}:")
            out.append(f"            s{m} += cy - b")
        out.append("        raise")
    out += ["    finally:", "        interp.cycles = cy"]
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
    out.append(f"        st[1] += cy - start - {frame} * {frames}{rest}")
    out += render.settle()
    return "\n".join(out) + "\n", consts


def launch_source(kind: str, functions, program=None) -> str:
    """The Python text :func:`stage_launch` compiles for a launch of
    ``functions`` (``CompiledFunction``s, translated afresh; their
    callees looked up in ``program``, if given).

    ``kind`` ``"map"`` or ``"filter"``: ``_launch(interp, items, out,
    record)`` runs each argument tuple of ``items`` through the chain
    ``functions`` (each later one given the previous one's value),
    appends the last value to ``out`` and, unless ``record`` is None,
    records the work-item's cycles. ``"reduce"``: ``_launch(interp,
    acc, items)`` folds ``items`` into ``acc`` with ``functions[0]``.

    Each method's body is inlined in the work-item loop, rendered under
    the name prefix ``m0_``, ``m1_``, ...; its ``return X`` becomes
    ``v = X`` (a reduce: ``acc = X``). A callee that is not recursive
    and hands control to no other code is inlined in turn, under its
    caller's prefix plus ``i<site>_``. The cycle count is the local
    ``cy``: it is written to ``interp.cycles`` before a statement that
    hands control on (and read back after) and in the ``finally``. Each
    work-item is charged its frames (``FRAME_CYCLES``) as
    ``Interpreter.call`` charges them; the ``method_stats`` entries are
    settled once, in the ``finally``, from counts and cycle sums kept in
    locals. Of a chain, only the methods before the last keep their own
    sums ``s*`` (the last one's is what remains of the total) and only
    they need ``j``, the method in flight, to settle a raise in their
    body: each method up to ``j`` ran ``k`` times, each after it
    ``k - 1``. An inlined callee's calls and cycles are ``qN_n`` and
    ``qN_s``; ``qN_b``, the count when it was entered, is None unless
    it is in flight. The
    caller holds ``interp._depth`` one deeper for the whole loop."""
    lookup = None
    if program is not None:
        translations: dict = {}

        def lookup(qualified):
            if qualified not in translations:
                function = program.functions.get(qualified)
                try:
                    translations[qualified] = (
                        None if function is None else Translation(function)
                    )
                except DeviceError:
                    translations[qualified] = None
            return translations[qualified]

    return _launch_text(
        kind, [Translation(f) for f in functions], lookup
    )[0]


def stage_launch(kind: str, translations, lookup=None):
    """Compile the launch of the methods ``translations`` (the text
    :func:`launch_source` prints), registered with :mod:`linecache` as
    ``<staged launch Q1|Q2>`` or ``<staged launch reduce Q>``;
    ``lookup`` gives a callee's translation (or None)."""
    source, consts = _launch_text(kind, translations, lookup)
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
