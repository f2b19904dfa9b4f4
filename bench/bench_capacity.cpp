// Capacity-tier harness: bytes/state of the marking store (the id-less
// robin-hood table over a record arena) on the fixtures the capacity
// story rests on — the reconfigurable OPE model plus the deep token
// ring. The byte counts come from the engine's own StoreStats (table +
// arena geometry), so they are deterministic and machine-independent:
// bench/compare.py --capacity gates per-row bytes/state ceilings on
// them.
//
// --json PATH   machine-readable summary for the compare.py gate
// --stages N    OPE fixture size (default 3 = s3/d3 tier-1 scale;
//               the nightly soak passes 4 = the 19M-state s4/d4 pin,
//               OPE row only, to keep the runtime bounded)
//
// Exit is non-zero if any fixture truncates.

#include <cstdio>
#include <cstring>
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
    std::size_t edges = 0;
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
    const petri::ReachabilityResult result = explorer.explore_all();
    Row row;
    row.name = name;
    row.seconds = watch.elapsed_s();
    row.states = result.states_explored;
    row.edges = result.edges_explored;
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

int main(int argc, char** argv) {
    const char* json_path = nullptr;
    int stages = 3;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
        if (std::strcmp(argv[i], "--stages") == 0) {
            stages = std::atoi(argv[i + 1]);
        }
    }
    bench::Stopwatch watch;
    bench::print_header("marking-store capacity tier",
                        "bytes/state of the interning store");

    const bool soak_pin = stages >= 4;
    const std::size_t cap = soak_pin ? 25'000'000 : 2'000'000;
    const auto p = ope::build_reconfigurable_ope_dfs(stages, stages);
    const auto tr = dfs::to_petri(p.graph);
    const petri::CompiledNet compiled(tr.net);
    char ope_label[32];
    std::snprintf(ope_label, sizeof(ope_label), "ope_s%d_d%d", stages,
                  stages);

    std::vector<Row> rows;
    rows.push_back(measure(std::string(ope_label) + "/seq", compiled, cap));
    bool ok = true;
    if (!soak_pin) {
        // Tier-1 scale: add the narrow-marking ring. The soak pin skips
        // it to keep the runtime bounded.
        const petri::Net ring = deep_ring_net();
        const petri::CompiledNet ring_compiled(ring);
        rows.push_back(measure("deepring/seq", ring_compiled, cap));
    }

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
    std::printf("%s\n(gate: per-fixture B/state ceilings via compare.py "
                "--capacity)\n\n",
                table.to_ascii().c_str());

    if (json_path != nullptr) {
        if (FILE* f = std::fopen(json_path, "w")) {
            std::fprintf(f, "{\n  \"rows\": [\n");
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const Row& row = rows[i];
                std::fprintf(f,
                             "    {\"name\": \"%s\", \"states\": %zu, "
                             "\"edges\": %zu, "
                             "\"bytes_per_state\": %.3f}%s\n",
                             row.name.c_str(), row.states, row.edges,
                             row.bytes_per_state(),
                             i + 1 < rows.size() ? "," : "");
            }
            std::fprintf(f,
                         "  ],\n"
                         "  \"ok\": %s\n"
                         "}\n",
                         ok ? "true" : "false");
            std::fclose(f);
        } else {
            std::printf("cannot write %s\n", json_path);
            ok = false;
        }
    }

    bench::print_footer(watch);
    return ok ? 0 : 1;
}
