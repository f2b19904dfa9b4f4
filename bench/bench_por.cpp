// Partial-order reduction ratios: full vs reduced exhaustive passes on
// the paper-style fixtures (token rings, wagging, static and
// reconfigurable OPE, the deadlocking gap misconfiguration). For each
// fixture the harness runs a deadlock-detection pass — the pass class
// the reduction helps most (no visibility proviso) and the one the
// verification flow leans on — both unreduced and with
// ReachabilityOptions::por, and reports the state-count and
// transition-work ratios. The same passes, with the 100x floor on the
// best OPE ratio, are tier-1 assertions
// (PorReduction.DeadlockPassShrinksTheOpeModels in tests/por_test.cpp).
//
// Exit is non-zero on any verdict disagreement between the full and
// reduced passes, so the harness doubles as an end-to-end differential
// smoke.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "dfs/model.hpp"
#include "dfs/translate.hpp"
#include "ope/dfs_models.hpp"
#include "petri/predicate.hpp"
#include "petri/reachability.hpp"
#include "pipeline/builder.hpp"
#include "pipeline/wagging.hpp"
#include "util/table.hpp"

namespace {

using namespace rap;

struct Fixture {
    std::string name;
    petri::Net net;
    bool ope = false;  ///< counts toward the best OPE ratio
};

petri::Net ring_net(int depth) {
    dfs::Graph g("ring_d" + std::to_string(depth));
    std::vector<dfs::NodeId> regs;
    const int n = depth + 2;
    for (int i = 0; i < n; ++i) {
        regs.push_back(g.add_control("c" + std::to_string(i), i == 0,
                                     dfs::TokenValue::True));
    }
    for (int i = 0; i < n; ++i) g.connect(regs[i], regs[(i + 1) % n]);
    return dfs::to_petri(g).net;
}

petri::Net wagging_net() {
    dfs::Graph g("wagging");
    const auto in = g.add_register("in");
    pipeline::add_wagging_stage(g, "w", in);
    return dfs::to_petri(g).net;
}

petri::Net gap_net() {
    auto p = ope::build_reconfigurable_ope_dfs(3, 3);
    pipeline::reset_ring(p.graph, p.stages[1].global_ring,
                         dfs::TokenValue::False);
    return dfs::to_petri(p.graph).net;
}

std::vector<Fixture> fixtures() {
    std::vector<Fixture> fs;
    fs.push_back({"ring_d4", ring_net(4), false});
    fs.push_back({"wagging", wagging_net(), false});
    fs.push_back({"ope_static_s2",
                  dfs::to_petri(ope::build_static_ope_dfs(2).graph).net,
                  true});
    fs.push_back(
        {"ope_s3_d3",
         dfs::to_petri(ope::build_reconfigurable_ope_dfs(3, 3).graph).net,
         true});
    fs.push_back({"ope_gap", gap_net(), true});
    return fs;
}

std::vector<petri::Marking> sorted(std::vector<petri::Marking> ms) {
    std::sort(ms.begin(), ms.end());
    return ms;
}

struct Pass {
    petri::MultiResult result;
    double seconds = 0.0;
};

/// One exhaustive deadlock-detection pass (goal + full collection).
Pass run_pass(const petri::CompiledNet& compiled, bool por) {
    petri::ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.por = por;
    petri::ReachabilityExplorer explorer(compiled, options);
    const petri::Predicate dead = petri::Predicate::deadlock();
    petri::MultiQuery query;
    query.goals = {&dead};
    query.collect_deadlocks = true;
    explorer.run_query(query);  // warm-up
    bench::Stopwatch watch;
    Pass pass;
    pass.result = explorer.run_query(query);
    pass.seconds = watch.elapsed_s();
    return pass;
}

}  // namespace

int main() {
    bench::Stopwatch watch;
    bench::print_header("partial-order reduction ratios",
                        "full vs stubborn-set deadlock passes");

    bool ok = true;
    double best_ope_ratio = 0.0;
    util::Table table({"fixture", "full states", "reduced states",
                       "state ratio", "work ratio", "full [ms]",
                       "reduced [ms]"});
    for (const Fixture& fixture : fixtures()) {
        const petri::CompiledNet compiled(fixture.net);
        const Pass full = run_pass(compiled, /*por=*/false);
        const Pass red = run_pass(compiled, /*por=*/true);

        // Differential smoke: verdict + deadlock sets.
        if (full.result.truncated || red.result.truncated ||
            red.result.goals[0].has_value() !=
                full.result.goals[0].has_value() ||
            sorted(red.result.deadlocks) != sorted(full.result.deadlocks)) {
            std::printf("VERDICT MISMATCH on %s\n", fixture.name.c_str());
            ok = false;
        }

        const double state_ratio =
            static_cast<double>(full.result.states_explored) /
            static_cast<double>(red.result.states_explored);
        const double work_ratio =
            red.result.por.expanded_transitions == 0
                ? 1.0
                : static_cast<double>(red.result.por.enabled_transitions) /
                      static_cast<double>(
                          red.result.por.expanded_transitions);
        if (fixture.ope) best_ope_ratio = std::max(best_ope_ratio,
                                                   state_ratio);
        table.add_row({fixture.name,
                       std::to_string(full.result.states_explored),
                       std::to_string(red.result.states_explored),
                       util::Table::num(state_ratio, 2) + "x",
                       util::Table::num(work_ratio, 2) + "x",
                       util::Table::num(full.seconds * 1e3, 1),
                       util::Table::num(red.seconds * 1e3, 1)});
    }
    std::printf("%s\n", table.to_ascii().c_str());
    std::printf("best OPE state-count reduction: %.2fx "
                "(floor 100x: PorReduction.DeadlockPassShrinksTheOpeModels)"
                "\n\n",
                best_ope_ratio);

    bench::print_footer(watch);
    return ok ? 0 : 1;
}
