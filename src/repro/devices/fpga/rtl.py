"""A small synchronous RTL model: one structural description per
module (:class:`Module`), and the :class:`Netlist` the cycle simulator
runs from it -- combinational logic in topological order, registers
committed on each rising clock edge, like an HDL simulator in two-phase
mode. Right-hand sides are expressions over signal names: a name,
``("~", x)``, ``("&", x, ...)`` or ``("|", x, ...)`` (the one-bit logic
of a handshake), or the opaque leaf ``("datapath", *names)`` that
whoever prints or compiles the module supplies.
"""

from __future__ import annotations

import graphlib
from typing import Callable, NamedTuple, Optional

from repro.errors import SimulationError


class Signal(NamedTuple):
    """One named port, register or wire, carrying an unsigned int of
    ``width`` bits (two's-complement reinterpretation happens in the
    datapath functions)."""

    name: str
    width: int
    kind: str = "wire"  # "input", "output", "reg" or "wire"
    signed: bool = False
    vector: bool = False  # a data word: has a bit range even at one bit
    comment: str = ""  # printed on the line before the declaration


def reads(expr) -> list:
    """The signal names ``expr`` reads."""
    if isinstance(expr, str):
        return [expr]
    return [name for operand in expr[1:] for name in reads(operand)]


class Assign(NamedTuple):
    """Continuous assignment: ``target = expr``."""

    target: str
    expr: object


class Update(NamedTuple):
    """Clocked update: on a rising edge ``target <= expr`` from the
    pre-edge values, when ``enable`` (if given) is high. ``reset`` (if
    given) is its value while ``rst`` is high, and so at the start of a
    simulation."""

    target: str
    expr: object
    enable: object = None
    reset: Optional[int] = None


class Module(NamedTuple):
    """One synchronous module; its clock ``clk`` and reset ``rst`` are
    implicit. ``updates`` holds the clocked updates in blocks of
    consecutive lines of text; an empty block still prints as one
    (empty) line."""

    name: str
    signals: tuple
    assigns: tuple
    updates: tuple

    @property
    def ports(self) -> list:
        return [s for s in self.signals if s.kind in ("input", "output")]


class Netlist:
    """A :class:`Module` compiled for the cycle simulator: every assign
    and every update is one Python function of the signal environment
    (a dict name -> int); ``datapath`` evaluates the datapath leaf.
    Assigns run in topological order; a combinational loop is an error
    naming its cycle."""

    def __init__(self, module: Module, datapath: Optional[Callable] = None):
        self.name = module.name
        self.signals = {signal.name: signal for signal in module.signals}
        updates = [update for block in module.updates for update in block]
        driven = set()
        for drive in [*module.assigns, *updates]:
            signal = self.signals.get(drive.target)
            clocked = isinstance(drive, Update)
            if signal is None:
                problem = "drive of undeclared signal"
            elif drive.target in driven:
                problem = "multiple drivers for"
            elif clocked and signal.kind != "reg":
                problem = "clocked update of non-register"
            elif not clocked and signal.kind == "reg":
                problem = "combinational assign to register"
            else:
                driven.add(drive.target)
                continue
            raise SimulationError(f"{self.name}: {problem} {drive.target!r}")
        producers = {a.target: a for a in module.assigns}
        try:
            order = graphlib.TopologicalSorter(
                {a.target: reads(a.expr) for a in module.assigns}
            ).static_order()
            assigns = [producers[n] for n in order if n in producers]
        except graphlib.CycleError as loop:
            cycle = " -> ".join(loop.args[1])
            raise SimulationError(
                f"combinational loop in {self.name}: {cycle}"
            ) from None
        scope = {"datapath": datapath}

        def compile_(target, expr, enable=None):
            text = _python(expr)
            if enable is not None:
                text += f" if {_python(enable)} else e[{target!r}]"
            fn = eval(f"lambda e: {text}", scope)  # text from the tree
            return target, fn, (1 << self.signals[target].width) - 1

        self._assigns = [compile_(a.target, a.expr) for a in assigns]
        self._updates = [
            compile_(u.target, u.expr, u.enable) for u in updates
        ]
        self._initial = dict.fromkeys(self.signals, 0)
        self._initial.update(
            (u.target, u.reset) for u in updates if u.reset is not None
        )

    def initial_state(self) -> dict:
        """Every signal's value at reset."""
        return dict(self._initial)

    def settle(self, env: dict) -> dict:
        """Evaluate combinational logic given inputs+registers in env."""
        for target, fn, mask in self._assigns:
            env[target] = fn(env) & mask
        return env

    def clock_edge(self, env: dict) -> dict:
        """Compute the post-edge register file from the settled env."""
        updates = {
            target: fn(env) & mask for target, fn, mask in self._updates
        }
        new_env = dict(env)
        new_env.update(updates)
        return new_env


def _python(expr) -> str:
    """``expr`` as Python over the environment ``e``."""
    if isinstance(expr, str):
        return f"e[{expr!r}]"
    op, *operands = expr
    if op == "datapath":
        return f"datapath({', '.join(map(_python, operands))})"
    if op == "~":
        return f"({_python(operands[0])} ^ 1)"
    return f"({f' {op} '.join(_python(operand) for operand in operands)})"
