"""Verilog testbench generation.

Section 6 notes that C-to-FPGA tools "often generate a 'testbench' in
addition to the FPGA artifact". The Liquid Metal flow does one better —
it co-executes with the simulator — but a standalone self-checking
testbench is still useful for running the generated module under a
vendor simulator (ModelSim/NCSim, Section 7) without the Python
runtime. The testbench drives the Figure 4 handshake and compares
``outData`` against expected values computed by our own RTL evaluation.
"""

from __future__ import annotations

import itertools
import re

from repro.backends.verilog.codegen import FPGAModuleBundle
from repro.backends.verilog.codegen import bit_range, literal


def generate_testbench(
    bundle: FPGAModuleBundle, inputs: list, clock_period_ns: int = 4
) -> str:
    """A self-checking Verilog testbench for ``bundle`` over raw
    ``inputs`` (unsigned ints, pre-encoded)."""
    out_mask = (1 << bundle.out_width) - 1
    datapath = bundle.compiled_datapath()
    expected = [datapath(x) & out_mask for x in inputs]
    w_in, w_out = bundle.in_width, bundle.out_width
    in_mask = (1 << w_in) - 1
    n = len(inputs)
    half = clock_period_ns // 2
    in_words = [f"{w_in}'d{x & in_mask}" for x in inputs]
    exp_words = [f"{w_out}'d{x}" for x in expected]
    ports = bundle.rtl().ports
    declarations = "\n    ".join(
        f"reg{bit_range(s)} {s.name} = {literal(s, 0)};"
        if s.kind == "input" else f"wire{bit_range(s)} {s.name};"
        for s in ports
    )
    # One line per direction of each stream (the lowercase stem: in, out).
    port_map = ",\n        ".join(
        ", ".join(f".{s.name}({s.name})" for s in group)
        for _, group in itertools.groupby(
            ports, lambda s: (s.kind, re.match("[a-z]*", s.name).group())
        )
    )
    return f"""// self-checking testbench generated by the Liquid Metal FPGA backend
`timescale 1ns/1ps
module tb_{bundle.name};
    reg clk = 1'b0;
    reg rst = 1'b1;
    {declarations}

    {bundle.name} dut (
        .clk(clk), .rst(rst),
        {port_map}
    );

    always #{half} clk = ~clk;

    reg [{w_in - 1}:0] stimulus [0:{n - 1}];
    reg [{w_out - 1}:0] expected [0:{n - 1}];
    integer sent = 0;
    integer received = 0;
    integer errors = 0;

    initial begin
        $dumpfile("tb_{bundle.name}.vcd");
        $dumpvars(0, tb_{bundle.name});
        {_array_init("stimulus", in_words)}
        {_array_init("expected", exp_words)}
        repeat (2) @(posedge clk);
        rst = 1'b0;
    end

    // Drive the Figure 4 handshake with return-to-zero pulses.
    always @(posedge clk) begin
        if (!rst && sent < {n} && inAccept && !inReady) begin
            inReady <= 1'b1;
            inWord <= stimulus[sent];
            sent <= sent + 1;
        end else begin
            inReady <= 1'b0;
        end
    end

    // Self-check every published result.
    always @(posedge clk) begin
        if (outReady) begin
            if (outData !== expected[received]) begin
                $display("FAIL item %0d: got %0d expected %0d",
                         received, outData, expected[received]);
                errors = errors + 1;
            end
            received = received + 1;
            if (received == {n}) begin
                if (errors == 0) $display("PASS: %0d items", {n});
                else $display("FAIL: %0d errors", errors);
                $finish;
            end
        end
    end

    initial begin
        #{clock_period_ns * (8 * n + 64)};
        $display("FAIL: timeout after %0d outputs", received);
        $finish;
    end
endmodule
"""


def _array_init(name: str, words: list) -> str:
    lines = [f"{name}[{i}] = {word};" for i, word in enumerate(words)]
    return "\n        ".join(lines)
