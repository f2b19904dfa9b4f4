// DFS model explorer: load a .dfs text file (or fall back to a built-in
// demo), open it as a flow::Design session, then validate, verify,
// analyse and simulate it — the batch equivalent of opening a model in
// the Workcraft GUI.
//
//   $ ./examples/dfs_explorer [model.dfs]
//
// A file that cannot be read or parsed is refused with its message on
// stderr and exit status 2.

#include <cstdio>
#include <stdexcept>

#include "rap/rap.hpp"

namespace {

const char* kDemoModel = R"(# conditional-comp demo (Fig. 1b of the paper)
dfs demo
register in
logic cond
control ctrl
push filt
register comp
pop out
edge in cond
edge cond ctrl
edge in filt
edge ctrl filt
edge filt comp
edge comp out
edge ctrl out
)";

}  // namespace

int main(int argc, char** argv) {
    using namespace rap;

    dfs::Graph graph;
    try {
        graph = argc > 1 ? dfs::load_file(argv[1])
                         : dfs::from_text(kDemoModel);
    } catch (const std::exception& e) {
        // std::invalid_argument (malformed text) or std::runtime_error
        // (I/O), as dfs/serialize.hpp documents.
        std::fprintf(stderr, "dfs_explorer: %s\n", e.what());
        return 2;
    }
    std::printf("loaded model '%s': %zu nodes, %zu edges\n",
                graph.name().c_str(), graph.node_count(),
                graph.edge_count());

    const auto issues = graph.validate();
    if (!issues.empty()) {
        std::printf("structural problems:\n");
        for (const auto& issue : issues) {
            std::printf("  - %s\n", issue.c_str());
        }
        return 1;
    }
    std::printf("structure: ok\n\n");

    const flow::Design design(std::move(graph));

    // Formal verification on the session's cached Petri-net artifact.
    const auto report = design.verify();
    std::printf("verification:\n%s\n\n", report.to_string().c_str());

    // Cycle/bottleneck analysis (the Fig. 5 panel).
    const auto cycles = perf::analyse_cycles(design.graph());
    std::printf("cycles: %zu%s; model throughput bound %.4f\n",
                cycles.cycles.size(), cycles.truncated ? " (capped)" : "",
                cycles.throughput_bound());
    if (const auto* bottleneck = cycles.bottleneck()) {
        std::printf("slowest cycle: %s\n\n",
                    bottleneck->describe(design.graph()).c_str());
    } else {
        std::printf("acyclic model\n\n");
    }

    // A short random simulation with per-node token counts.
    auto sim = design.simulator(7);
    auto state = design.initial_state();
    const auto stats = sim.run(state, 5000);
    std::printf("simulated %llu events%s\n",
                static_cast<unsigned long long>(stats.steps),
                stats.deadlocked ? " — DEADLOCKED" : "");
    std::printf("tokens passed per register:\n");
    for (const auto n : design.graph().registers()) {
        std::printf("  %-16s %llu\n", design.graph().node_name(n).c_str(),
                    static_cast<unsigned long long>(stats.marks_at(n)));
    }
    std::printf("\nfinal state: %s\n", state.describe(design.graph()).c_str());
    return report.clean() && !stats.deadlocked ? 0 : 1;
}
