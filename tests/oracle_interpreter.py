"""The instruction-at-a-time bytecode loop: the differential oracle.

Until the stager (``repro.backends.bytecode.staging``) replaced it, this
was ``Interpreter.call``/``_run``/``_intrinsic`` in
``src/repro/backends/bytecode/interpreter.py``. It lives on here, moved
verbatim, as the reference the staged functions are held against
(``tests/test_staging_differential.py``): same values, same stdout, same
``cycles`` and ``method_stats`` — including what is lost when an
operation raises between two flush points.

It evaluates operators through ``ops.apply_*``, i.e. through the same
semantics table the stager splices; what it checks independently is
everything the stager adds: the symbolic operand stack, block
discovery, control flow and the per-block cycle sums.
"""

from repro.backends.bytecode import isa
from repro.backends.bytecode.interpreter import _FRAME_CYCLES, Interpreter
from repro.ir.ops import (
    apply_binary,
    apply_cast,
    apply_math,
    apply_unary,
)
from repro.errors import DeviceError
from repro.values import MutableArray, ValueArray
from repro.values.structs import StructValue


class OracleInterpreter(Interpreter):
    """``Interpreter`` with the pre-staging execution engine."""

    def call(self, qualified: str, args: list):
        """Invoke a compiled function; returns its value (or None)."""
        self.initialize()
        function = self.program.functions.get(qualified)
        if function is None:
            raise DeviceError(f"no such function {qualified!r}")
        if len(args) != function.num_params:
            raise DeviceError(
                f"{qualified} expects {function.num_params} arguments, "
                f"got {len(args)}"
            )
        self._depth += 1
        if self._depth > self.max_call_depth:
            self._depth -= 1
            raise DeviceError("stack overflow (recursion too deep)")
        # Frame setup/teardown cost charged per invocation so that both
        # CALL-opcode calls and runtime-driven calls (map/reduce/filter
        # firings) pay the JVM's method-dispatch overhead.
        self.cycles += _FRAME_CYCLES
        before = self.cycles
        try:
            return self._run(function, args)
        finally:
            self._depth -= 1
            stats = self.method_stats.get(qualified)
            if stats is None:
                self.method_stats[qualified] = [1, self.cycles - before]
            else:
                stats[0] += 1
                stats[1] += self.cycles - before

    # ------------------------------------------------------------------

    def _run(self, function: isa.CompiledFunction, args: list):
        code = function.code
        locals_ = list(args) + [None] * (
            function.num_locals - function.num_params
        )
        stack: list = []
        pc = 0
        cost = isa.CYCLE_COST
        cycles = 0
        n = len(code)
        while pc < n:
            op, operand = code[pc]
            pc += 1
            cycles += cost[op]
            if op == isa.LOAD:
                stack.append(locals_[operand])
            elif op == isa.CONST:
                stack.append(operand)
            elif op == isa.STORE:
                locals_[operand] = stack.pop()
            elif op == isa.BINOP:
                right = stack.pop()
                left = stack.pop()
                bop, typename = operand
                extra = isa.BINOP_EXTRA.get((bop, typename))
                if extra:
                    cycles += extra
                stack.append(apply_binary(bop, left, right, typename))
            elif op == isa.UNOP:
                uop, typename = operand
                stack.append(apply_unary(uop, stack.pop(), typename))
            elif op == isa.CAST:
                stack.append(apply_cast(stack.pop(), operand))
            elif op == isa.JMP:
                pc = operand
            elif op == isa.JZ:
                if not stack.pop():
                    pc = operand
            elif op == isa.JNZ:
                if stack.pop():
                    pc = operand
            elif op == isa.ALOAD:
                index = stack.pop()
                array = stack.pop()
                if not 0 <= index < len(array):
                    raise DeviceError(
                        f"array index {index} out of bounds "
                        f"(length {len(array)})"
                    )
                stack.append(array[index])
            elif op == isa.ASTORE:
                value = stack.pop()
                index = stack.pop()
                array = stack.pop()
                if not 0 <= index < len(array):
                    raise DeviceError(
                        f"array index {index} out of bounds "
                        f"(length {len(array)})"
                    )
                array[index] = value
            elif op == isa.LEN:
                stack.append(len(stack.pop()))
            elif op == isa.NEWARRAY:
                length = stack.pop()
                cycles += max(length, 0)
                stack.append(MutableArray.allocate(operand, length))
            elif op == isa.FREEZE:
                array = stack.pop()
                cycles += len(array)
                stack.append(array.freeze())
            elif op == isa.POP:
                stack.pop()
            elif op == isa.DUP:
                stack.append(stack[-1])
            elif op == isa.CALL:
                callee, nargs, returns = operand
                call_args = stack[len(stack) - nargs :]
                del stack[len(stack) - nargs :]
                self.cycles += cycles
                cycles = 0
                result = self.call(callee, call_args)
                if returns:
                    stack.append(result)
            elif op == isa.INTRINSIC:
                name, nargs, returns = operand
                call_args = stack[len(stack) - nargs :]
                del stack[len(stack) - nargs :]
                cycles += isa.INTRINSIC_COST.get(name, 5)
                result = self._intrinsic(name, call_args)
                if returns:
                    stack.append(result)
            elif op == isa.RETV:
                self.cycles += cycles
                return stack.pop()
            elif op == isa.RET:
                self.cycles += cycles
                return None
            elif op == isa.GETFIELD:
                stack.append(stack.pop().get(operand))
            elif op == isa.PUTFIELD:
                value = stack.pop()
                obj = stack.pop()
                obj.set(operand, value)
            elif op == isa.GETSTATIC:
                stack.append(self.statics.get(operand))
            elif op == isa.PUTSTATIC:
                self.statics[operand] = stack.pop()
            elif op == isa.NEWOBJ:
                meta = self.program.classes[operand]
                stack.append(
                    StructValue(operand, meta.field_names, meta.is_value)
                )
            elif op == isa.FREEZEOBJ:
                stack.append(stack.pop().freeze())
            elif op == isa.MAP:
                method, nargs, elem_kind, broadcast = operand
                map_args = stack[len(stack) - nargs :]
                del stack[len(stack) - nargs :]
                lengths = {
                    len(a)
                    for a, b in zip(map_args, broadcast)
                    if not b
                }
                if len(lengths) != 1:
                    raise DeviceError(
                        "mapped arguments must have equal lengths, got "
                        + ", ".join(
                            str(len(a))
                            for a, b in zip(map_args, broadcast)
                            if not b
                        )
                    )
                self.cycles += cycles
                cycles = 0
                items = self.services.execute_map(
                    method, map_args, broadcast, self
                )
                stack.append(ValueArray(elem_kind, items))
            elif op == isa.REDUCE:
                array = stack.pop()
                self.cycles += cycles
                cycles = 0
                stack.append(
                    self.services.execute_reduce(operand, array, self)
                )
            elif op == isa.MKSOURCE:
                rate, task_id = operand
                array = stack.pop()
                stack.append(
                    self.services.make_source(array, rate, task_id)
                )
            elif op == isa.MKSINK:
                array = stack.pop()
                stack.append(self.services.make_sink(array, operand))
            elif op == isa.MKTASK:
                method, task_id, arity, relocatable, has_instance = operand
                instance = stack.pop() if has_instance else None
                stack.append(
                    self.services.make_task(
                        method, task_id, arity, relocatable, instance
                    )
                )
            elif op == isa.CONNECT:
                right = stack.pop()
                left = stack.pop()
                stack.append(self.services.connect(left, right))
            elif op == isa.GRAPH_START:
                blocking, graph_id = operand
                graph = stack.pop()
                self.cycles += cycles
                cycles = 0
                self.services.graph_start(graph, blocking, graph_id, self)
            else:
                raise DeviceError(f"unknown opcode {op!r}")
        # Fell off the end of a void function body.
        self.cycles += cycles
        return None

    # ------------------------------------------------------------------

    def _intrinsic(self, name: str, args: list):
        if name in ("println", "print"):
            text = _display(args[0])
            self.stdout.append(text + ("\n" if name == "println" else ""))
            return None
        if name == "bit.~":
            return ~args[0]
        if name.startswith("Math."):
            result_typename = (
                "int"
                if name in ("Math.abs", "Math.min", "Math.max")
                and all(isinstance(a, int) and not isinstance(a, bool) for a in args)
                else "double"
            )
            return apply_math(name, args, result_typename)
        raise DeviceError(f"unknown intrinsic {name!r}")


def _display(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
