#include "netlist/netlist.hpp"

namespace rap::netlist {

Netlist::Netlist(const dfs::Graph& graph, Library library)
    : graph_(&graph), library_(library) {
    graph.ensure_valid();
    instances_.reserve(graph.node_count());
    for (const dfs::NodeId n : graph.nodes()) {
        instances_.push_back({n, library_.spec_for(graph, n)});
    }
}

NetlistStats Netlist::stats() const {
    NetlistStats s;
    for (const Instance& inst : instances_) {
        ++s.instances;
        s.total_gates += inst.spec.gate_count;
        switch (graph_->kind(inst.node)) {
            case dfs::NodeKind::Register: ++s.registers; break;
            case dfs::NodeKind::Control: ++s.control_registers; break;
            case dfs::NodeKind::Push: ++s.pushes; break;
            case dfs::NodeKind::Pop: ++s.pops; break;
            case dfs::NodeKind::Logic: ++s.function_blocks; break;
        }
    }
    s.area_um2 = s.total_gates * Library::kAreaPerGateUm2;
    return s;
}

asim::TimingMap Netlist::timing() const {
    asim::TimingMap map(graph_->node_count());
    for (const Instance& inst : instances_) {
        map[inst.node.value] = {library_.delay_of(inst.spec),
                                library_.energy_of(inst.spec)};
    }
    return map;
}

double Netlist::total_gates() const {
    double gates = 0;
    for (const Instance& inst : instances_) gates += inst.spec.gate_count;
    return gates;
}

}  // namespace rap::netlist
