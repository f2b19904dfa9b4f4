// Netlist backend demo: map a verified DFS model onto the NCL-D dual-rail
// component library and export the Verilog for a conventional backend
// flow (Section II-D / III-A). The flow::Design session carries the model
// from verification to mapping without rebuilding anything in between.
// Writes cond_comp.v next to the binary.
//
//   $ ./examples/netlist_export [output.v]

#include <cstdio>
#include <fstream>

#include "rap/rap.hpp"

int main(int argc, char** argv) {
    using namespace rap;

    dfs::Graph g("cond_comp");
    const auto in = g.add_register("in");
    const auto cond = g.add_logic("cond");
    const auto ctrl = g.add_control("ctrl", false, dfs::TokenValue::True);
    const auto filt = g.add_push("filt");
    const auto comp = g.add_register("comp");
    const auto out = g.add_pop("out");
    g.connect(in, cond);
    g.connect(cond, ctrl);
    g.connect(in, filt);
    g.connect(ctrl, filt);
    g.connect(filt, comp);
    g.connect(comp, out);
    g.connect(ctrl, out);

    // The session maps onto the NCL-D library's 16-bit datapath with
    // tree completion, the topology the paper proposes.
    const flow::Design design(std::move(g));

    // Verify before committing to silicon — the paper's ordering.
    if (!design.verify().clean()) {
        std::printf("model failed verification; not exporting\n");
        return 1;
    }

    const auto& mapped = design.netlist();
    const auto stats = mapped.stats();
    std::printf("mapped '%s' onto the NCL-D library:\n",
                design.name().c_str());
    std::printf("  %d instances, %d equivalent gates, %.0f um^2\n",
                stats.instances, stats.total_gates, stats.area_um2);
    std::printf("  registers=%d controls=%d push=%d pop=%d functions=%d\n",
                stats.registers, stats.control_registers, stats.pushes,
                stats.pops, stats.function_blocks);

    std::printf("\nper-node timing annotation (feeds the timed simulator):\n");
    const auto& timing = design.timing();
    for (const auto& inst : mapped.instances()) {
        std::printf("  %-6s %-14s %2d gates deep, %5.0f ps, %6.1f fJ\n",
                    design.graph().node_name(inst.node).c_str(),
                    inst.spec.type.c_str(), inst.spec.crit_path_gates,
                    timing[inst.node.value].delay_s * 1e12,
                    timing[inst.node.value].energy_j * 1e15);
    }

    const std::string path = argc > 1 ? argv[1] : "cond_comp.v";
    const std::string verilog = design.to_verilog();
    std::ofstream(path) << verilog;
    std::printf("\nwrote %zu bytes of Verilog to %s\n", verilog.size(),
                path.c_str());
    std::printf("(library modules: TH gates, C-elements, ack_join "
                "completion, ncld_* components; top module wires the DFS "
                "arcs)\n");
    return 0;
}
