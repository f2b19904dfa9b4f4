#include "netlist/verilog.hpp"

#include "util/strings.hpp"

namespace rap::netlist {
namespace {

const char* kPrimitives = R"(// ---------------------------------------------------------------------
// NCL threshold-gate primitives (hysteresis set/reset behaviour) and the
// Muller C-element used by completion structures. Null Convention Logic
// gates assert when their threshold of inputs is high and deassert only
// when all inputs return to NULL (RTZ 4-phase discipline) [Fant/Brandt].
// ---------------------------------------------------------------------
module th12 (input wire a, input wire b, output wire y);
  assign y = a | b;
endmodule

module th22 (input wire a, input wire b, output reg y);
  always @(a or b) begin
    if (a & b) y <= 1'b1;
    else if (!a & !b) y <= 1'b0;
  end
endmodule

module th33 (input wire a, input wire b, input wire c, output reg y);
  always @(a or b or c) begin
    if (a & b & c) y <= 1'b1;
    else if (!a & !b & !c) y <= 1'b0;
  end
endmodule

module c_element (input wire a, input wire b, output wire y);
  th22 u (.a(a), .b(b), .y(y));
endmodule

// Completion join over N acknowledge wires. TOPOLOGY 0 = balanced tree,
// 1 = daisy chain (the structure measured at +36% latency on silicon).
module ack_join #(parameter N = 2, parameter TOPOLOGY = 0)
                 (input wire [N-1:0] in, output wire out);
  generate
    if (N == 1) begin : g_wire
      assign out = in[0];
    end else begin : g_join
      wire [N-2:0] stage;
      genvar i;
      if (TOPOLOGY == 1) begin : g_daisy
        c_element c0 (.a(in[0]), .b(in[1]), .y(stage[0]));
        for (i = 2; i < N; i = i + 1) begin : g_chain
          c_element ci (.a(stage[i-2]), .b(in[i]), .y(stage[i-1]));
        end
      end else begin : g_tree
        for (i = 0; i < N-1; i = i + 1) begin : g_level
          wire a_in = (2*i   < N) ? in[2*i]   : stage[2*i   - N];
          wire b_in = (2*i+1 < N) ? in[2*i+1] : stage[2*i+1 - N];
          c_element ci (.a(a_in), .b(b_in), .y(stage[i]));
        end
      end
      assign out = stage[N-2];
    end
  endgenerate
endmodule

// ---------------------------------------------------------------------
// Dual-rail 4-phase pipeline components. A channel is 2*W data rails
// (rail pairs {d1,d0} per bit; all-NULL is the spacer) plus one ack.
// ---------------------------------------------------------------------
module ncld_register #(parameter W = 16, parameter N_IN = 1)
                      (input  wire [N_IN*2*W-1:0] in_d,
                       output wire [N_IN-1:0]     in_a,
                       output reg  [2*W-1:0]      out_d,
                       input  wire                out_a);
  // Latch a complete input wave when the consumer has acknowledged the
  // previous one; propagate NULL symmetrically (per-bit TH22 latches
  // with completion detection in the physical mapping).
  wire all_valid, all_null;
  genvar i;
  wire [N_IN*W-1:0] bit_valid;
  generate
    for (i = 0; i < N_IN*W; i = i + 1) begin : g_cd
      assign bit_valid[i] = in_d[2*i] | in_d[2*i+1];
    end
  endgenerate
  assign all_valid = &bit_valid;
  assign all_null  = ~|bit_valid;
  always @(*) begin
    if (all_valid & ~out_a) out_d <= in_d[2*W-1:0];
    else if (all_null & out_a) out_d <= {2*W{1'b0}};
  end
  assign in_a = {N_IN{|out_d}};
endmodule

module ncld_control #(parameter N_IN = 1)
                     (input  wire [N_IN*2-1:0] in_d,
                      output wire [N_IN-1:0]   in_a,
                      output reg  [1:0]        out_d,
                      input  wire              out_a);
  wire valid = |in_d;
  always @(*) begin
    if (valid & ~out_a) out_d <= in_d[1:0];
    else if (~valid & out_a) out_d <= 2'b00;
  end
  assign in_a = {N_IN{|out_d}};
endmodule

// Push register: a False configuration token consumes and destroys the
// incoming data wave (acknowledged upstream, never emitted downstream).
module ncld_push #(parameter W = 16, parameter N_IN = 1)
                  (input  wire [N_IN*2*W-1:0] in_d,
                   output wire [N_IN-1:0]     in_a,
                   input  wire [1:0]          cfg_d,
                   output wire                cfg_a,
                   output reg  [2*W-1:0]      out_d,
                   input  wire                out_a);
  wire cfg_true  = cfg_d[1];
  wire cfg_false = cfg_d[0];
  reg  consumed;
  always @(*) begin
    if (cfg_true & ~out_a) out_d <= in_d[2*W-1:0];
    else if (out_a) out_d <= {2*W{1'b0}};
    if (cfg_false) consumed <= |in_d;
    else consumed <= 1'b0;
  end
  assign in_a = {N_IN{(|out_d) | consumed}};
  assign cfg_a = (|out_d) | consumed;
endmodule

// Pop register: a False configuration token emits an 'empty' wave
// (all-rails-zero encoded as the reserved empty codeword) without
// consuming the data input.
module ncld_pop #(parameter W = 16, parameter N_IN = 1)
                 (input  wire [N_IN*2*W-1:0] in_d,
                  output wire [N_IN-1:0]     in_a,
                  input  wire [1:0]          cfg_d,
                  output wire                cfg_a,
                  output reg  [2*W-1:0]      out_d,
                  input  wire                out_a);
  wire cfg_true  = cfg_d[1];
  wire cfg_false = cfg_d[0];
  localparam [2*W-1:0] EMPTY = { {(2*W-2){1'b0}}, 2'b01 };
  always @(*) begin
    if (cfg_true & ~out_a) out_d <= in_d[2*W-1:0];
    else if (cfg_false & ~out_a) out_d <= EMPTY;
    else if (out_a) out_d <= {2*W{1'b0}};
  end
  assign in_a = {N_IN{cfg_true & (|out_d)}};
  assign cfg_a = |out_d;
endmodule

// Combinational dual-rail function block (comparator / rank-update
// datapath in the OPE mapping); strongly indicating, completion by
// construction.
module ncld_function #(parameter W = 16, parameter N_IN = 1)
                      (input  wire [N_IN*2*W-1:0] in_d,
                       output wire [2*W-1:0]      out_d);
  // Placeholder datapath: the physical mapping substitutes the stage
  // function; behaviourally we pass the first operand through.
  assign out_d = in_d[2*W-1:0];
endmodule
)";

std::string wire_name(const dfs::Graph& g, dfs::NodeId n) {
    return util::identifier(g.node_name(n));
}

}  // namespace

std::string to_verilog(const Netlist& netlist) {
    const dfs::Graph& g = netlist.graph();
    const Library& lib = netlist.library();
    const int w = Library::kDataWidth;
    const int topology = lib.sync() == SyncTopology::DaisyChain ? 1 : 0;

    std::string out;
    out += "// Generated by rap::netlist — DFS model '" + g.name() + "'\n";
    out += util::format(
        "// style: NCL-D dual-rail 4-phase, W=%d, completion: %s\n\n", w,
        std::string(to_string(lib.sync())).c_str());
    out += kPrimitives;

    // ---- top module -----------------------------------------------------
    std::vector<std::string> ports;
    for (const dfs::NodeId n : g.nodes()) {
        if (g.is_logic(n)) continue;
        if (g.preset(n).empty()) {
            ports.push_back("env_" + wire_name(g, n) + "_d");
            ports.push_back("env_" + wire_name(g, n) + "_a");
        }
        if (g.postset(n).empty()) {
            ports.push_back(wire_name(g, n) + "_out_d");
            ports.push_back(wire_name(g, n) + "_out_a");
        }
    }
    out += "module " + util::identifier(g.name()) + " (";
    out += util::join(ports, ", ");
    out += ");\n";

    auto width_of = [&](dfs::NodeId n) {
        return g.kind(n) == dfs::NodeKind::Control ? 2 : 2 * w;
    };

    // Port declarations.
    for (const dfs::NodeId n : g.nodes()) {
        if (g.is_logic(n)) continue;
        const std::string base = wire_name(g, n);
        if (g.preset(n).empty()) {
            out += util::format("  input  wire [%d:0] env_%s_d;\n",
                                width_of(n) - 1, base.c_str());
            out += "  output wire env_" + base + "_a;\n";
        }
        if (g.postset(n).empty()) {
            out += util::format("  output wire [%d:0] %s_out_d;\n",
                                width_of(n) - 1, base.c_str());
            out += "  input  wire " + base + "_out_a;\n";
        }
    }

    // Data wires per node, ack wires per edge.
    for (const dfs::NodeId n : g.nodes()) {
        out += util::format("  wire [%d:0] %s_d;\n", width_of(n) - 1,
                            wire_name(g, n).c_str());
        out += "  wire " + wire_name(g, n) + "_a;\n";
    }
    for (const dfs::NodeId n : g.nodes()) {
        for (const dfs::NodeId succ : g.postset(n)) {
            out += "  wire " + wire_name(g, n) + "_to_" +
                   wire_name(g, succ) + "_a;\n";
        }
    }
    out += "\n";

    // Instances.
    for (const Instance& inst : netlist.instances()) {
        const dfs::NodeId n = inst.node;
        const std::string base = wire_name(g, n);
        const auto& preds = g.preset(n);

        // Control (cfg) channel for push/pop: the control register in the
        // R-preset; data inputs are all other predecessors.
        std::vector<dfs::NodeId> data_preds;
        std::string cfg;
        for (const dfs::NodeId p : preds) {
            if ((g.kind(n) == dfs::NodeKind::Push ||
                 g.kind(n) == dfs::NodeKind::Pop) &&
                g.kind(p) == dfs::NodeKind::Control) {
                cfg = wire_name(g, p);
            } else {
                data_preds.push_back(p);
            }
        }

        std::vector<std::string> in_d, in_a;
        for (auto it = data_preds.rbegin(); it != data_preds.rend(); ++it) {
            in_d.push_back(wire_name(g, *it) + "_d");
            in_a.push_back(wire_name(g, *it) + "_to_" + base + "_a");
        }
        if (in_d.empty() && !g.is_logic(n)) {
            in_d.push_back("env_" + base + "_d");
            in_a.push_back("env_" + base + "_a");
        }

        const int n_in = static_cast<int>(in_d.size());
        out += util::format("  %s #(", inst.spec.type.c_str());
        if (g.kind(n) != dfs::NodeKind::Control) {
            out += util::format(".W(%d), ", w);
        }
        out += util::format(".N_IN(%d)) u_%s (\n", n_in, base.c_str());
        out += "    .in_d({" + util::join(in_d, ", ") + "}),\n";
        if (g.is_logic(n)) {
            out += "    .out_d(" + base + "_d));\n";
            continue;
        }
        out += "    .in_a({" + util::join(in_a, ", ") + "}),\n";
        if (!cfg.empty()) {
            out += "    .cfg_d(" + cfg + "_d),\n";
            out += "    .cfg_a(" + cfg + "_to_" + base + "_a),\n";
        }
        out += "    .out_d(" + base + "_d),\n";
        out += "    .out_a(" + base + "_a));\n";
    }
    out += "\n";

    // Completion through function blocks: a logic node's producers are
    // acknowledged by the completion of the logic node's own consumers
    // (strong indication propagates backwards through the datapath).
    for (const dfs::NodeId n : g.nodes()) {
        if (!g.is_logic(n)) continue;
        for (const dfs::NodeId p : g.preset(n)) {
            out += "  assign " + wire_name(g, p) + "_to_" + wire_name(g, n) +
                   "_a = " + wire_name(g, n) + "_a;\n";
        }
    }

    // Acknowledge joins (completion in the configured topology).
    for (const dfs::NodeId n : g.nodes()) {
        const std::string base = wire_name(g, n);
        const auto& succs = g.postset(n);
        if (succs.empty()) {
            if (!g.is_logic(n)) {
                out += "  assign " + base + "_out_d = " + base + "_d;\n";
                out += "  assign " + base + "_a = " + base + "_out_a;\n";
            }
            continue;
        }
        std::vector<std::string> acks;
        for (auto it = succs.rbegin(); it != succs.rend(); ++it) {
            acks.push_back(base + "_to_" + wire_name(g, *it) + "_a");
        }
        out += util::format(
            "  ack_join #(.N(%d), .TOPOLOGY(%d)) j_%s (.in({%s}), "
            ".out(%s_a));\n",
            static_cast<int>(acks.size()), topology, base.c_str(),
            util::join(acks, ", ").c_str(), base.c_str());
    }
    out += "endmodule\n";
    return out;
}

}  // namespace rap::netlist
