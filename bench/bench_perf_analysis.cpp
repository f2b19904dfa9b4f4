// E4 — Fig. 5: performance analysis of a reconfigurable pipeline in the
// Workcraft plugin: "reports the throughput of the slowest cycles and
// highlights the bottleneck nodes in each cycle". We run the cycle
// analyser on the reconfigurable OPE model, list the slowest cycles, and
// cross-check with the measured (timed-simulation) throughput, including
// the token/buffering experiment the tool supports (adding registers to
// balance a slow loop).

#include <cstdio>

#include "bench_util.hpp"
#include "ope/dfs_models.hpp"
#include "perf/cycles.hpp"
#include "perf/throughput.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace rap;

std::string cycle_names(const dfs::Graph& g,
                        const std::vector<dfs::NodeId>& nodes,
                        std::size_t max_names) {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < nodes.size() && i < max_names; ++i) {
        names.push_back(g.node_name(nodes[i]));
    }
    std::string text = util::join(names, " -> ");
    if (nodes.size() > max_names) text += " -> ...";
    return text;
}

}  // namespace

int main() {
    bench::Stopwatch watch;
    bench::print_header("E4 / Fig. 5",
                        "cycle throughput analysis of the OPE pipeline");

    const auto p = ope::build_reconfigurable_ope_dfs(6, 6);
    const auto report = perf::analyse_cycles(p.graph);

    std::printf("model: %s — %zu nodes, %zu edges; %zu simple cycles%s\n\n",
                p.graph.name().c_str(), p.graph.node_count(),
                p.graph.edge_count(), report.cycles.size(),
                report.truncated ? " (capped)" : "");

    util::Table slowest({"#", "regs", "tokens", "bound", "cycle"});
    for (std::size_t i = 0; i < report.cycles.size() && i < 8; ++i) {
        const auto& c = report.cycles[i];
        slowest.add_row({std::to_string(i + 1), std::to_string(c.registers),
                         std::to_string(c.tokens),
                         util::Table::num(c.throughput_bound, 4),
                         cycle_names(p.graph, c.nodes, 6)});
    }
    std::printf("slowest cycles (the tool's report, slowest first):\n%s\n",
                slowest.to_ascii().c_str());

    std::printf("bottleneck nodes (highlighted in the GUI): %s\n\n",
                cycle_names(p.graph, report.bottleneck_nodes(), 10).c_str());

    // Balancing experiment — the tool's "add registers to buffer the
    // flow of tokens" knob. The analytic bound is in tokens per register
    // cycle (an upper bound ignoring the two-phase handshake); the
    // measured rate is wall-clock under unit event delays. Note the
    // 4-register loop *beats* the minimal 3-register one: the extra
    // buffer lets the return-to-zero phase pipeline — exactly the kind
    // of insight the Fig. 5 analysis surfaces.
    util::Table balance(
        {"control-loop registers", "tokens", "analytic bound [tok/cycle]",
         "measured [tok/s, unit delays]"});
    for (const int regs : {3, 4, 6, 9}) {
        dfs::Graph ring("ring");
        std::vector<dfs::NodeId> nodes;
        for (int i = 0; i < regs; ++i) {
            nodes.push_back(ring.add_control(
                "c" + std::to_string(i), i == 0, dfs::TokenValue::True));
        }
        for (int i = 0; i < regs; ++i) {
            ring.connect(nodes[i], nodes[(i + 1) % regs]);
        }
        const auto rep = perf::analyse_cycles(ring);
        perf::ThroughputOptions topt;
        topt.tokens = 120;
        const auto measured =
            perf::measure_throughput(ring, nodes[0], topt);
        balance.add_row({std::to_string(regs), "1",
                         util::Table::num(rep.throughput_bound(), 4),
                         util::Table::num(measured.tokens_per_s, 4)});
    }
    std::printf("loop balancing (longer loop, same one token):\n%s\n",
                balance.to_ascii().c_str());

    // Whole-pipeline measured throughput per depth.
    util::Table depths({"depth", "measured items/s (unit delays)"});
    for (const int depth : {3, 4, 5, 6}) {
        auto model = ope::build_reconfigurable_ope_dfs(6, depth);
        perf::ThroughputOptions topt;
        topt.tokens = 150;
        const auto r = perf::measure_throughput(model.graph, model.out, topt);
        depths.add_row({std::to_string(depth),
                        util::Table::num(r.tokens_per_s, 4)});
    }
    std::printf("measured pipeline throughput vs configured depth:\n%s\n",
                depths.to_ascii().c_str());
    bench::print_footer(watch);
    return 0;
}
