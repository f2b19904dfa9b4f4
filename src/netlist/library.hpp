#pragma once

#include <string>

#include "dfs/model.hpp"

namespace rap::netlist {

/// Completion-detection topology for wide joins/forks (the chip's global
/// channels). The fabricated reconfigurable core used a daisy-chain
/// C-element structure — the source of its 36% performance overhead; the
/// static core (and the paper's proposed fix) uses a tree.
enum class SyncTopology { DaisyChain, Tree };

std::string_view to_string(SyncTopology topology);

/// Physical characterisation of one mapped component in the NCL-D
/// dual-rail, 4-phase style [16]. Numbers are in "equivalent 2-input
/// gates"; timing/energy derive from them via the library's technology
/// constants.
struct ComponentSpec {
    std::string type;          ///< Verilog module name
    int width = 1;             ///< datapath bits
    int gate_count = 0;        ///< total equivalent gates (area)
    int crit_path_gates = 0;   ///< gate levels per handshake phase
    int switched_gates = 0;    ///< average gates toggling per phase
};

/// The pre-built component library of Section III-A ("comparator, adder,
/// and a set of registers" in NCL-D style). spec_for() maps a DFS node to
/// its implementation, sizing completion logic by the node's register
/// fan-in/fan-out and the chosen sync topology.
class Library {
public:
    /// Dual-rail datapath width of every data component.
    static constexpr int kDataWidth = 16;
    /// Delay of one 2-input gate level at the nominal 1.2V [s] (90nm).
    static constexpr double kGateDelayS = 35e-12;
    /// Switching energy of one gate toggle at the nominal 1.2V [J].
    static constexpr double kEnergyPerGateJ = 2e-15;
    /// Area of one equivalent gate [um^2] (90nm std-cell average).
    static constexpr double kAreaPerGateUm2 = 5.0;

    explicit Library(SyncTopology sync = SyncTopology::Tree)
        : sync_(sync) {}

    SyncTopology sync() const noexcept { return sync_; }

    /// Depth (gate levels) of a completion structure joining `n` inputs.
    int sync_depth(int n) const;

    /// Gate count of a completion structure joining `n` inputs.
    int sync_gates(int n) const;

    ComponentSpec spec_for(const dfs::Graph& graph, dfs::NodeId node) const;

    double delay_of(const ComponentSpec& spec) const {
        return spec.crit_path_gates * kGateDelayS;
    }
    double energy_of(const ComponentSpec& spec) const {
        return spec.switched_gates * kEnergyPerGateJ;
    }

private:
    SyncTopology sync_;
};

}  // namespace rap::netlist
