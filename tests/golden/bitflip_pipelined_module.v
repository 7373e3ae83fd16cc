// generated by the Liquid Metal FPGA backend
// methods: Bitflip.flip
// initiation interval: 1
// compute stages (retiming): 1
module mod_Bitflip_flip (
    input  wire clk,
    input  wire rst,
    input  wire inReady,
    input  wire [0:0] inWord,
    output wire inAccept,
    output wire outReady,
    output wire [0:0] outData
);
    // 1-deep input FIFO: produces its value on the next rising edge
    reg fifo_valid;
    reg [0:0] inData;
    // read -> compute x1 -> publish stages (one cycle each)
    reg read_valid;
    reg [0:0] read_data;
    reg comp_valid;
    reg [0:0] comp_data;
    reg out_valid;
    reg [0:0] out_data;

    wire can_issue = fifo_valid;
    wire [0:0] datapath = (~read_data);

    assign inAccept = ~fifo_valid | can_issue;
    assign outReady = out_valid;
    assign outData  = out_data;

    always @(posedge clk) begin
        if (rst) begin
            fifo_valid <= 1'b0;
            read_valid <= 1'b0;
            comp_valid <= 1'b0;
            out_valid  <= 1'b0;
        end else begin
            if (inReady) inData <= inWord;
            fifo_valid <= inReady | (fifo_valid & ~can_issue);
            read_valid <= can_issue;
            if (can_issue) read_data <= inData;
            comp_valid <= read_valid;
            if (read_valid) comp_data <= datapath;

            out_valid <= comp_valid;
            if (comp_valid) out_data <= comp_data;
        end
    end
endmodule
