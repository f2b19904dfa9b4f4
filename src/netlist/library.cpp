#include "netlist/library.hpp"

#include <cmath>

namespace rap::netlist {

std::string_view to_string(SyncTopology topology) {
    switch (topology) {
        case SyncTopology::DaisyChain: return "daisy-chain";
        case SyncTopology::Tree: return "tree";
    }
    return "?";
}

int Library::sync_depth(int n) const {
    if (n <= 1) return 1;
    if (sync_ == SyncTopology::DaisyChain) return n;
    return static_cast<int>(std::ceil(std::log2(static_cast<double>(n)))) + 1;
}

int Library::sync_gates(int n) const {
    // n-1 two-input C-elements in either topology (shape differs, count
    // does not).
    return n <= 1 ? 1 : n - 1;
}

ComponentSpec Library::spec_for(const dfs::Graph& graph,
                                dfs::NodeId node) const {
    const int w = kDataWidth;
    // Register-level fan-in/out determines the completion structure the
    // component needs to synchronise with its neighbours.
    const int fan_in =
        std::max<int>(1, static_cast<int>(graph.r_preset(node).size()));
    const int fan_out =
        std::max<int>(1, static_cast<int>(graph.r_postset(node).size()));
    const int join = sync_depth(fan_in);
    const int fork = sync_depth(fan_out);

    ComponentSpec spec;
    switch (graph.kind(node)) {
        case dfs::NodeKind::Register:
            // 2 C-elements per dual-rail bit + per-bit OR completion +
            // completion tree + the join/fork sync for its channels.
            spec.type = "ncld_register";
            spec.width = w;
            spec.gate_count = 3 * w + (w - 1) + sync_gates(fan_in) +
                              sync_gates(fan_out);
            spec.crit_path_gates = 2 +
                                   static_cast<int>(std::ceil(
                                       std::log2(static_cast<double>(w)))) +
                                   join + fork;
            spec.switched_gates = 2 * w + w / 2;
            break;
        case dfs::NodeKind::Control:
            // 1-bit dual-rail latch with completion.
            spec.type = "ncld_control";
            spec.width = 1;
            spec.gate_count = 8 + sync_gates(fan_in) + sync_gates(fan_out);
            spec.crit_path_gates = 2 + join + fork;
            spec.switched_gates = 2;
            break;
        case dfs::NodeKind::Push:
            // Register + per-bit guard (token destruction) + control latch.
            spec.type = "ncld_push";
            spec.width = w;
            spec.gate_count = 3 * w + (w - 1) + 2 * w + 6 +
                              sync_gates(fan_in) + sync_gates(fan_out);
            spec.crit_path_gates = 3 +
                                   static_cast<int>(std::ceil(
                                       std::log2(static_cast<double>(w)))) +
                                   join + fork;
            spec.switched_gates = 2 * w + w / 2 + 2;
            break;
        case dfs::NodeKind::Pop:
            // Register + empty-token generator + control latch.
            spec.type = "ncld_pop";
            spec.width = w;
            spec.gate_count = 3 * w + (w - 1) + w + 8 + sync_gates(fan_in) +
                              sync_gates(fan_out);
            spec.crit_path_gates = 3 +
                                   static_cast<int>(std::ceil(
                                       std::log2(static_cast<double>(w)))) +
                                   join + fork;
            spec.switched_gates = 2 * w + w / 2 + 2;
            break;
        case dfs::NodeKind::Logic: {
            // Dual-rail function block. Sized as the OPE datapath mix of
            // comparator + rank-increment (adder) logic: deeper than a
            // register, dominating the stage critical path.
            spec.type = "ncld_function";
            spec.width = w;
            const int inputs =
                std::max<int>(1, static_cast<int>(graph.preset(node).size()));
            spec.gate_count = 6 * w * inputs;
            spec.crit_path_gates =
                2 * static_cast<int>(std::ceil(
                        std::log2(static_cast<double>(w)))) +
                4 + sync_depth(inputs);
            spec.switched_gates = 3 * w * inputs;
            break;
        }
    }
    return spec;
}

}  // namespace rap::netlist
