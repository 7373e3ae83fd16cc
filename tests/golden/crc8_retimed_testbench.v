// self-checking testbench generated by the Liquid Metal FPGA backend
`timescale 1ns/1ps
module tb_mod_Crc8_step;
    reg clk = 1'b0;
    reg rst = 1'b1;
    reg inReady = 1'b0;
    reg [31:0] inWord = 32'd0;
    wire inAccept;
    wire outReady;
    wire [31:0] outData;

    mod_Crc8_step dut (
        .clk(clk), .rst(rst),
        .inReady(inReady), .inWord(inWord),
        .inAccept(inAccept),
        .outReady(outReady), .outData(outData)
    );

    always #2 clk = ~clk;

    reg [31:0] stimulus [0:5];
    reg [31:0] expected [0:5];
    integer sent = 0;
    integer received = 0;
    integer errors = 0;

    initial begin
        $dumpfile("tb_mod_Crc8_step.vcd");
        $dumpvars(0, tb_mod_Crc8_step);
        stimulus[0] = 32'd0;
        stimulus[1] = 32'd1;
        stimulus[2] = 32'd85;
        stimulus[3] = 32'd170;
        stimulus[4] = 32'd255;
        stimulus[5] = 32'd42;
        expected[0] = 32'd0;
        expected[1] = 32'd94;
        expected[2] = 32'd228;
        expected[3] = 32'd209;
        expected[4] = 32'd53;
        expected[5] = 32'd93;
        repeat (2) @(posedge clk);
        rst = 1'b0;
    end

    // Drive the Figure 4 handshake with return-to-zero pulses.
    always @(posedge clk) begin
        if (!rst && sent < 6 && inAccept && !inReady) begin
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
            if (received == 6) begin
                if (errors == 0) $display("PASS: %0d items", 6);
                else $display("FAIL: %0d errors", errors);
                $finish;
            end
        end
    end

    initial begin
        #448;
        $display("FAIL: timeout after %0d outputs", received);
        $finish;
    end
endmodule
