"""Cycle-accurate simulation of generated FPGA modules.

Drives an elaborated :class:`Netlist` with the stream handshake of the
paper's Figure 4 (signals named after the waveform: ``inReady`` is the
producer-driven input-valid, ``inData`` the input word, ``outReady``
the output-valid, ``outData`` the result). This plays the role of the
Verilog/VHDL simulators (NCSim, ModelSim) the paper co-executes with
(Sections 5 and 7).

The waveform is a debugging view, not part of a run's result, so
:meth:`FPGASimulator.run_stream` records none. Reading
:attr:`FPGARunResult.vcd` replays the same run, through the same loop,
with a :class:`VCDWriter` attached, once per result: the netlist is
never written after it is built, and the result holds its own copy of
the items, so the replay drives exactly the signals the run drove.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

from repro.devices.fpga.rtl import Netlist
from repro.devices.fpga.vcd import VCDWriter
from repro.errors import SimulationError


@dataclass
class FPGARunResult:
    """Outcome of streaming one batch of items through a module."""

    outputs: list
    cycles: int
    clock_hz: float
    #: Re-runs the batch with a waveform attached; read through ``vcd``.
    _replay: Callable[[], VCDWriter] = field(repr=False, compare=False)
    input_count: int
    details: dict = field(default_factory=dict)

    @functools.cached_property
    def vcd(self) -> VCDWriter:
        """Every signal of the run, recorded on first read."""
        return self._replay()

    @property
    def seconds(self) -> float:
        return self.cycles / self.clock_hz

    @property
    def throughput_items_per_cycle(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.input_count / self.cycles

    def __repr__(self) -> str:
        return (
            f"FPGARunResult({len(self.outputs)} outputs in "
            f"{self.cycles} cycles @ {self.clock_hz / 1e6:.0f}MHz)"
        )


class FPGASimulator:
    """Streams items through a netlist using the Figure 4 handshake."""

    def __init__(self, clock_hz: float = 150e6, period_ns: int = 4):
        self.clock_hz = clock_hz
        self.period_ns = period_ns

    def run_stream(
        self,
        netlist: Netlist,
        items: list,
        expected_outputs: int | None = None,
        max_cycles: int = 100_000,
        return_to_zero: bool = False,
    ) -> FPGARunResult:
        """Feed ``items`` (ints) respecting backpressure; collect
        ``expected_outputs`` results (defaults to len(items)).

        With ``return_to_zero`` the driver deasserts ``inReady`` for at
        least one cycle between items, so each item produces a distinct
        inReady pulse — how the Figure 4 waveform was driven (9 inputs,
        9 transitions on inReady)."""
        items = tuple(items)
        expected = (
            len(items) if expected_outputs is None else expected_outputs
        )
        run = (netlist, items, expected, max_cycles, return_to_zero)
        outputs, cycles, enqueue_times = self._simulate(*run)
        return FPGARunResult(
            outputs=outputs,
            cycles=cycles,
            clock_hz=self.clock_hz,
            _replay=functools.partial(self._waveform, *run),
            input_count=len(items),
            details={"enqueue_times": enqueue_times},
        )

    def _waveform(self, netlist: Netlist, *run) -> VCDWriter:
        """The VCD of one run: ``clk``, then every signal in
        declaration order."""
        vcd = VCDWriter(netlist.name)
        vcd.declare("clk", 1)
        for name, signal in netlist.signals.items():
            vcd.declare(name, signal.width)
        self._simulate(netlist, *run, vcd=vcd)
        return vcd

    def _simulate(
        self,
        netlist: Netlist,
        items: tuple,
        expected: int,
        max_cycles: int,
        return_to_zero: bool,
        vcd: VCDWriter | None = None,
    ) -> tuple:
        """Run the handshake to completion, recording into ``vcd`` if
        given; ``(outputs, cycles, enqueue_times)``."""
        env = netlist.initial_state()
        env["inReady"] = 0
        env["inWord"] = 0
        fed = 0  # items[:fed] have been enqueued
        outputs: list[int] = []
        enqueue_times: list[int] = []
        just_enqueued = False
        cycle = 0
        while cycle < max_cycles:
            # Provisional settle with input idle: lets us read the
            # module's acceptance, which by construction depends only on
            # register state.
            env["inReady"] = 0
            env["inWord"] = 0
            settled = netlist.settle(dict(env))
            can_accept = settled.get("inAccept", 1)
            hold_off = return_to_zero and just_enqueued
            just_enqueued = False
            if fed < len(items) and can_accept and not hold_off:
                env["inReady"] = 1
                env["inWord"] = items[fed]
                fed += 1
                settled = netlist.settle(dict(env))
                enqueue_times.append(cycle)
                just_enqueued = True
            if vcd is not None:  # the settled pre-edge state
                time = cycle * self.period_ns
                vcd.record(time, "clk", 1)
                for name in netlist.signals:
                    vcd.record(time, name, settled.get(name, 0))
                vcd.record(time + self.period_ns // 2, "clk", 0)
            if settled.get("outReady"):
                outputs.append(settled.get("outData", 0))
            env = netlist.clock_edge(settled)
            cycle += 1
            if len(outputs) >= expected and fed == len(items):
                break
        else:
            raise SimulationError(
                f"{netlist.name}: simulation did not finish within "
                f"{max_cycles} cycles ({len(outputs)}/{expected} outputs)"
            )
        return outputs, cycle, enqueue_times
