#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dfs/model.hpp"

namespace rap::perf {

/// One simple cycle of the dataflow graph with its token-game throughput
/// bound. A cycle with r registers and k tokens advances a token only
/// into two consecutive empty registers (M↑ needs the R-postset clear),
/// so the sustainable rate is limited by both tokens and bubble *pairs*:
///
///   bound = min(k, floor((r - k) / 2)) / r          (0 => the cycle is dead)
///
/// This is the DFS analogue of the classic token/bubble-limited
/// throughput of asynchronous rings; logic nodes add latency but hold no
/// tokens, which the `latency_weight` field captures for tie-breaking.
struct Cycle {
    std::vector<dfs::NodeId> nodes;  ///< in traversal order
    std::size_t registers = 0;
    std::size_t logics = 0;
    std::size_t tokens = 0;
    double throughput_bound = 0.0;

    std::string describe(const dfs::Graph& graph) const;
};

/// The Fig. 5 report: every enumerated cycle, sorted slowest-first, plus
/// the bottleneck (slowest) cycle's registers for highlighting.
struct CycleReport {
    std::vector<Cycle> cycles;  ///< sorted by ascending throughput bound
    /// The search stopped early: it found 20,000 cycles, or it walked
    /// 2^20 search steps. The cycles found so far are still reported.
    bool truncated = false;

    const Cycle* bottleneck() const {
        return cycles.empty() ? nullptr : &cycles.front();
    }
    /// Nodes of the slowest cycle (what the Workcraft GUI highlights).
    std::vector<dfs::NodeId> bottleneck_nodes() const;
    /// The model-wide throughput bound (the slowest cycle's bound;
    /// +inf-free: returns 0 when a dead cycle exists, 1 when acyclic).
    double throughput_bound() const;
};

/// Enumerates simple cycles of at most 64 nodes (a depth-first search
/// from each root) and computes their throughput bounds from the initial
/// marking. The search is bounded: it stops with `truncated` set after
/// 20,000 cycles or 2^20 search steps (one step enters one node), so no
/// input runs it for long.
CycleReport analyse_cycles(const dfs::Graph& graph);

}  // namespace rap::perf
