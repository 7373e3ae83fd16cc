"""The bytecode interpreter — our stand-in for the JVM.

Executes :class:`BytecodeProgram` artifacts with full Lime semantics and
accumulates an abstract cycle count per the ISA cost model; the CPU
device model (:mod:`repro.devices.cpu`) converts cycles into time.

Task-graph opcodes delegate to a :class:`Services` object. The Liquid
Metal runtime passes itself as the services implementation, which is how
"the generated bytecode that instantiates a task also provides the
runtime with the unique identifiers … generated by the backend
compilers" (Section 4.1).
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional

from repro.backends.bytecode import isa
from repro.backends.bytecode.staging import (
    FRAME_CYCLES,
    Translation,
    stage,
    stage_launch,
    staging_memo,
)
from repro.errors import DeviceError, RuntimeGraphError


class Services:
    """Hooks the interpreter calls for data-parallel and task operations."""

    def execute_map(
        self,
        method: str,
        args: list,
        broadcast: tuple,
        interp: "Interpreter",
    ):
        """Default: interpret the method per element on the CPU.

        ``args[i]`` is a value array to map over when ``broadcast[i]``
        is False, or a whole value passed unchanged to every work item
        when True."""
        mapped = [a for a, b in zip(args, broadcast) if not b]
        n = len(mapped[0])
        columns = [
            repeat(arg, n) if is_broadcast else arg
            for arg, is_broadcast in zip(args, broadcast)
        ]
        return interp.launch("map", [method], zip(*columns))

    def execute_reduce(self, method: str, array, interp: "Interpreter"):
        return interp.launch("reduce", [method], array)

    # Task-graph hooks: only available when a runtime is attached.

    def make_source(self, array, rate, task_id):
        raise RuntimeGraphError("no runtime attached for task graphs")

    def make_sink(self, array, task_id):
        raise RuntimeGraphError("no runtime attached for task graphs")

    def make_task(self, method, task_id, arity, relocatable, instance=None):
        raise RuntimeGraphError("no runtime attached for task graphs")

    def connect(self, left, right):
        raise RuntimeGraphError("no runtime attached for task graphs")

    def graph_start(self, graph, blocking, graph_id, interp):
        raise RuntimeGraphError("no runtime attached for task graphs")


_NO_ITEM = object()


class Interpreter:
    """Stack-machine executor with cycle accounting."""

    def __init__(
        self,
        program: isa.BytecodeProgram,
        services: Optional[Services] = None,
        max_call_depth: int = 400,
    ):
        self.program = program
        self.services = services or Services()
        self.cycles = 0
        self.stdout: list[str] = []
        self.statics: dict = {}
        self.max_call_depth = max_call_depth
        self._depth = 0
        self._initialized = False
        # Inclusive per-method profile: qualified -> [calls, cycles].
        # Cheap enough to keep always-on; the CLI's --profile and the
        # runtime introspection hooks (Section 7 future work) read it.
        self.method_stats: dict = {}
        # Shared with every other interpreter of this program object.
        self._staged, self._launches = staging_memo(program)

    # ------------------------------------------------------------------

    def initialize(self) -> None:
        """Run static initializers (<clinit>) once, in program order."""
        if self._initialized:
            return
        self._initialized = True
        for meta in self.program.classes.values():
            for field_name, default in meta.static_defaults.items():
                self.statics[(meta.name, field_name)] = default
        for clinit in self.program.clinit_order:
            self.call(clinit, [])

    def call(self, qualified: str, args):
        """Invoke a compiled function; returns its value (or None).

        The function runs as the Python function the stager generated
        for it (:mod:`repro.backends.bytecode.staging`), translated on
        its first call and shared by every interpreter of this program
        object. ``args`` is any sequence and is left untouched."""
        if not self._initialized:
            self.initialize()
        entry = self._staged.get(qualified)
        if entry is None:
            entry = self._stage(qualified)
        staged, num_params, _ = entry
        if len(args) != num_params:
            raise DeviceError(
                f"{qualified} expects {num_params} arguments, "
                f"got {len(args)}"
            )
        self._depth += 1
        if self._depth > self.max_call_depth:
            self._depth -= 1
            raise DeviceError("stack overflow (recursion too deep)")
        # Frame setup/teardown cost charged per invocation so that both
        # CALL-opcode calls and runtime-driven calls (map/reduce/filter
        # work-items) pay the JVM's method-dispatch overhead.
        self.cycles += FRAME_CYCLES
        before = self.cycles
        try:
            return staged(self, args)
        finally:
            self._depth -= 1
            stats = self.method_stats.get(qualified)
            if stats is None:
                self.method_stats[qualified] = [1, self.cycles - before]
            else:
                stats[0] += 1
                stats[1] += self.cycles - before

    def launch(self, kind: str, methods, items, per_item=None):
        """Run one data-parallel launch and return its result.

        ``"map"``: each item of ``items`` is the argument tuple of one
        work-item, run through the method chain ``methods`` (each later
        method gets the previous one's value); returns the list of
        values. ``"filter"``: the same with each item the one argument.
        ``"reduce"``: left-folds ``items`` (at least one) with the one
        method of ``methods``; returns the fold's value. ``per_item``,
        if given, receives each map/filter work-item's cycles, frames
        included.

        A launch leaves exactly what one :meth:`call` per method per
        item leaves — ``cycles``, ``method_stats``, ``_depth`` and, if
        an item raises, the same exception with the same state — but
        pays that bookkeeping once. Work-item 0 (a reduce's first fold
        step) goes through :meth:`call`: that stages the chain and
        raises every error that does not depend on the item (unknown
        function, staging failure, arity, call depth) exactly where N
        calls raise it. The rest run in the loop :func:`stage_launch`
        generated for this program object and launch shape from the
        translations those calls made, with the methods' bodies
        inlined: no call into staged code per item."""
        rest = iter(items)
        if kind == "reduce":
            (method,) = methods
            acc = next(rest, _NO_ITEM)
            if acc is _NO_ITEM:
                raise DeviceError("reduce of empty array")
            item = next(rest, _NO_ITEM)
            if item is _NO_ITEM:
                return acc
            acc = self.call(method, (acc, item))
            return self._run_launch("reduce", methods, acc, rest)
        if kind == "filter":
            rest = zip(rest)
        elif kind != "map":
            raise DeviceError(f"unknown launch kind {kind!r}")
        args = next(rest, _NO_ITEM)
        if args is _NO_ITEM:
            return []
        before = self.cycles
        for method in methods:
            args = (self.call(method, args),)
        if per_item is not None:
            per_item.append(self.cycles - before)
        out = [args[0]]
        record = None if per_item is None else per_item.append
        self._run_launch("map", methods, rest, out, record)
        return out

    def _run_launch(self, kind: str, methods, *args):
        key = (kind, tuple(methods))
        staged = self._launches.get(key)
        if staged is None:
            # Work-item 0's calls translated every method.
            translations = [self._staged[m][2] for m in methods]
            staged = self._launches[key] = stage_launch(
                kind, translations, self._callee
            )
        self._depth += 1
        try:
            return staged(self, *args)
        finally:
            self._depth -= 1

    def _callee(self, qualified: str):
        """The translation a launch inlines for a ``CALL`` of
        ``qualified``, staged now if no call has been made yet; None if
        there is no such function or it does not stage (the call then
        stays a call and raises where it always did)."""
        entry = self._staged.get(qualified)
        if entry is None:
            try:
                entry = self._stage(qualified)
            except DeviceError:
                return None
        return entry[2]

    def _stage(self, qualified: str):
        function = self.program.functions.get(qualified)
        if function is None:
            raise DeviceError(f"no such function {qualified!r}")
        translation = Translation(function)
        entry = self._staged[qualified] = (
            stage(translation), function.num_params, translation,
        )
        return entry

    @property
    def output(self) -> str:
        """Everything println/print produced so far."""
        return "".join(self.stdout)

