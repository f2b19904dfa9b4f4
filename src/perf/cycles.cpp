#include "perf/cycles.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/strings.hpp"

namespace rap::perf {

std::string Cycle::describe(const dfs::Graph& graph) const {
    std::vector<std::string> names;
    names.reserve(nodes.size());
    for (const dfs::NodeId n : nodes) names.push_back(graph.node_name(n));
    return util::format("[%zu regs, %zu tokens, bound %.4f] ", registers,
                        tokens, throughput_bound) +
           util::join(names, " -> ");
}

std::vector<dfs::NodeId> CycleReport::bottleneck_nodes() const {
    const Cycle* slowest = bottleneck();
    return slowest ? slowest->nodes : std::vector<dfs::NodeId>{};
}

double CycleReport::throughput_bound() const {
    return cycles.empty() ? 1.0 : cycles.front().throughput_bound;
}

namespace {

/// Longest cycle enumerated, in nodes; a longer one is not reported.
constexpr std::size_t kMaxCycleLength = 64;
/// Cycles reported before the search stops.
constexpr std::size_t kMaxCycles = 20'000;
/// Search steps (nodes entered) before the search stops: 200 times the
/// 5,216 the 18-stage, depth-18 OPE model takes.
constexpr std::size_t kMaxSteps = std::size_t{1} << 20;

/// Simple cycle enumeration by plain backtracking: a recursive DFS from
/// each root with only an on-path mark and no blocked set, so it may walk
/// every simple path from every root. Two caps bound it: the cycles
/// found and the search steps taken.
class CycleFinder {
public:
    explicit CycleFinder(const dfs::Graph& graph) : graph_(graph) {}

    CycleReport run() {
        const auto all = graph_.nodes();
        path_.reserve(kMaxCycleLength + 1);
        on_path_.assign(graph_.node_count(), 0);
        for (const dfs::NodeId root : all) {
            if (report_.truncated) break;
            root_ = root;
            dfs(root);
        }
        std::sort(report_.cycles.begin(), report_.cycles.end(),
                  [](const Cycle& a, const Cycle& b) {
                      if (a.throughput_bound != b.throughput_bound) {
                          return a.throughput_bound < b.throughput_bound;
                      }
                      // Slower (longer) cycles first on ties.
                      return a.nodes.size() > b.nodes.size();
                  });
        return std::move(report_);
    }

private:
    void dfs(dfs::NodeId v) {
        if (report_.truncated) return;
        if (++steps_ > kMaxSteps) {
            report_.truncated = true;
            return;
        }
        path_.push_back(v);
        on_path_[v.value] = 1;
        for (const dfs::NodeId next : graph_.postset(v)) {
            // Only consider cycles whose smallest node id is the root:
            // each simple cycle is then found exactly once.
            if (next < root_) continue;
            if (next == root_) {
                record_cycle();
                if (report_.truncated) break;
                continue;
            }
            if (on_path_[next.value] ||
                path_.size() >= kMaxCycleLength) {
                continue;
            }
            dfs(next);
        }
        on_path_[v.value] = 0;
        path_.pop_back();
    }

    void record_cycle() {
        if (report_.cycles.size() >= kMaxCycles) {
            report_.truncated = true;
            return;
        }
        Cycle cycle;
        cycle.nodes = path_;
        for (const dfs::NodeId n : path_) {
            if (graph_.is_logic(n)) {
                ++cycle.logics;
            } else {
                ++cycle.registers;
                if (graph_.initial(n).marked) ++cycle.tokens;
            }
        }
        if (cycle.registers > 0) {
            const double bubbles_pairs = static_cast<double>(
                (cycle.registers - cycle.tokens) / 2);
            cycle.throughput_bound =
                std::min(static_cast<double>(cycle.tokens), bubbles_pairs) /
                static_cast<double>(cycle.registers);
        }
        report_.cycles.push_back(std::move(cycle));
    }

    const dfs::Graph& graph_;
    CycleReport report_;
    std::size_t steps_ = 0;
    dfs::NodeId root_;
    std::vector<dfs::NodeId> path_;
    std::vector<char> on_path_;
};

}  // namespace

CycleReport analyse_cycles(const dfs::Graph& graph) {
    return CycleFinder(graph).run();
}

}  // namespace rap::perf
