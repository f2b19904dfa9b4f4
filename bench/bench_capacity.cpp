// Capacity-tier harness: bytes/state of the marking store (the id-less
// robin-hood table over a record arena) on the fixtures the capacity
// story rests on — the reconfigurable OPE model plus the deep token
// ring. The byte counts come from the engine's own StoreStats (table +
// arena geometry), so they are deterministic and machine-independent.
// Their bytes/state ceilings are tier-1 assertions
// (MemoryDiet.BytesPerStateStayUnderTheCapacityCeilings in
// tests/reachability_test.cpp); the soak test holds the 19M-state
// s4/d4 model's.
//
// Exit is non-zero if any fixture truncates.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dfs/model.hpp"
#include "dfs/translate.hpp"
#include "ope/dfs_models.hpp"
#include "petri/reachability.hpp"
#include "util/table.hpp"

namespace {

using namespace rap;

struct Row {
    std::string name;
    std::size_t states = 0;
    std::size_t bytes = 0;  ///< table + arena
    double seconds = 0.0;
    bool truncated = false;

    double bytes_per_state() const {
        return static_cast<double>(bytes) / static_cast<double>(states);
    }
};

/// One fixture's exhaustive pass.
Row measure(const std::string& name, const petri::CompiledNet& compiled,
            std::size_t max_states) {
    petri::ReachabilityOptions options;
    options.max_states = max_states;
    options.stop_at_first_match = false;
    bench::Stopwatch watch;
    petri::ReachabilityExplorer explorer(compiled, options);
    const petri::MultiResult result = explorer.run_query({});
    Row row;
    row.name = name;
    row.seconds = watch.elapsed_s();
    row.states = result.states_explored;
    row.bytes =
        result.memory.store.table_bytes + result.memory.store.arena_bytes;
    row.truncated = result.truncated;
    return row;
}

/// Deep token ring (24 registers, 3 tokens): ~269k states of a narrow
/// marking — the small-record end of the capacity spectrum, where table
/// overhead dominates.
petri::Net deep_ring_net() {
    dfs::Graph g("deepring");
    std::vector<dfs::NodeId> regs;
    const int n = 24;
    for (int i = 0; i < n; ++i) {
        regs.push_back(g.add_control("c" + std::to_string(i), i % 8 == 0,
                                     dfs::TokenValue::True));
    }
    for (int i = 0; i < n; ++i) g.connect(regs[i], regs[(i + 1) % n]);
    return dfs::to_petri(g).net;
}

}  // namespace

int main() {
    bench::Stopwatch watch;
    bench::print_header("marking-store capacity tier",
                        "bytes/state of the interning store");

    const std::size_t cap = 2'000'000;
    const auto p = ope::build_reconfigurable_ope_dfs(3, 3);
    const auto tr = dfs::to_petri(p.graph);
    const petri::CompiledNet compiled(tr.net);
    const petri::Net ring = deep_ring_net();
    const petri::CompiledNet ring_compiled(ring);

    std::vector<Row> rows;
    rows.push_back(measure("ope_s3_d3/seq", compiled, cap));
    rows.push_back(measure("deepring/seq", ring_compiled, cap));
    bool ok = true;

    util::Table table({"fixture", "states", "B/state", "time [s]"});
    for (const Row& row : rows) {
        table.add_row({row.name, std::to_string(row.states),
                       util::Table::num(row.bytes_per_state(), 1),
                       util::Table::num(row.seconds, 2)});
        if (row.truncated) {
            std::printf("TRUNCATED: %s hit the %zu-state cap\n",
                        row.name.c_str(), cap);
            ok = false;
        }
    }
    std::printf("%s\n(ceilings: MemoryDiet."
                "BytesPerStateStayUnderTheCapacityCeilings)\n\n",
                table.to_ascii().c_str());

    bench::print_footer(watch);
    return ok ? 0 : 1;
}
