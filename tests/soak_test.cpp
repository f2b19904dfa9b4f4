// Soak target for the deep OPE configurations — the ~19M-state 4-stage
// reconfigurable pipeline the ROADMAP names as the explicit-state
// ceiling. Registered under the ctest label `soak` and gated on
// RAP_SOAK=1 so tier-1 `ctest -j` runs skip it in milliseconds while the
// nightly/manual CI job (`RAP_SOAK=1 ctest -L soak`) exercises the full
// exploration: exact state count, clean verdicts, the memory diet's
// >= 35% record-byte reduction against the pre-diet layout, and the
// marking store's bytes/state ceiling at this scale.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "dfs/translate.hpp"
#include "ope/dfs_models.hpp"
#include "petri/compiled.hpp"
#include "petri/predicate.hpp"
#include "petri/reachability.hpp"

namespace rap::petri {
namespace {

/// Reachable markings of build_reconfigurable_ope_dfs(4, 4), pinned here:
/// every nightly pass explores them all from the initial marking and must
/// reproduce them exactly, a scale the tier-1 fixtures cannot afford.
constexpr std::size_t kFourStageOpeStates = 19'095'912;
constexpr std::size_t kFourStageOpeEdges = 137'589'840;

TEST(Soak, FourStageOpeExploresNineteenMillionStates) {
    if (std::getenv("RAP_SOAK") == nullptr) {
        GTEST_SKIP() << "set RAP_SOAK=1 to run the 19M-state soak "
                        "(nightly/manual CI, ctest -L soak)";
    }

    const auto p = ope::build_reconfigurable_ope_dfs(4, 4);
    const auto tr = dfs::to_petri(p.graph);
    const CompiledNet compiled(tr.net);

    ReachabilityOptions options;
    options.max_states = 25'000'000;
    options.stop_at_first_match = false;
    ReachabilityExplorer explorer(compiled, options);

    // Deadlock goal + collection keeps goal evaluation and deadlock
    // collection on the hot path at full scale (a bare explore would
    // skip both).
    const Predicate dead = Predicate::deadlock();
    MultiQuery query;
    query.goals = {&dead};
    query.collect_deadlocks = true;
    const auto result = explorer.run_query(query);

    EXPECT_FALSE(result.truncated);
    EXPECT_EQ(result.states_explored, kFourStageOpeStates);
    EXPECT_EQ(result.edges_explored, kFourStageOpeEdges);
    EXPECT_FALSE(result.goals[0].has_value()) << "4-stage OPE deadlocked";
    EXPECT_TRUE(result.deadlocks.empty());

    // Memory diet acceptance: records carry marking + 1 witness meta
    // word; the pre-diet layout kept the enabled bitset in every record
    // too. Resident record bytes must be >= 35% below that layout.
    const std::size_t record_words = compiled.marking_words() + 1;
    const std::size_t pre_diet_bytes =
        result.memory.store.records *
        (record_words + compiled.enabled_words()) * sizeof(std::uint64_t);
    EXPECT_EQ(result.memory.store.records, kFourStageOpeStates);
    EXPECT_LE(result.memory.store.arena_bytes, (pre_diet_bytes * 65) / 100)
        << "memory diet regressed below the 35% reduction target";
    std::printf(
        "soak: %zu states, %zu edges; record bytes %zu (pre-diet layout "
        "%zu, -%.1f%%), resident %zu, peak %zu\n",
        result.states_explored, result.edges_explored,
        result.memory.store.arena_bytes, pre_diet_bytes,
        100.0 * (1.0 - static_cast<double>(result.memory.store.arena_bytes) /
                           static_cast<double>(pre_diet_bytes)),
        result.memory.resident_bytes, result.memory.peak_bytes);

    // Capacity ceiling at the 19M-state scale (46.1 B/state measured),
    // ~15% head-room like the tier-1 ceilings in reachability_test.
    const double store_bytes_per_state =
        static_cast<double>(result.memory.store.table_bytes +
                            result.memory.store.arena_bytes) /
        static_cast<double>(result.states_explored);
    EXPECT_LE(store_bytes_per_state, 53.0)
        << "marking store grew past its bytes/state ceiling";
    std::printf("soak: marking store %.1f B/state\n", store_bytes_per_state);

    // The same pass under partial-order reduction: verdicts must hold at
    // full scale, and the reduced state count is recorded next to the
    // 19M-state pin so nightly logs track the reduction as the stubborn
    // heuristic evolves (no pinned count — the ratio floor lives in
    // PorReduction.DeadlockPassShrinksTheOpeModels).
    options.por = true;
    ReachabilityExplorer reduced_explorer(compiled, options);
    const auto reduced = reduced_explorer.run_query(query);
    EXPECT_FALSE(reduced.truncated);
    EXPECT_FALSE(reduced.goals[0].has_value());
    EXPECT_TRUE(reduced.deadlocks.empty());
    EXPECT_TRUE(reduced.por.active);
    EXPECT_LE(reduced.states_explored, kFourStageOpeStates);
    std::printf(
        "soak (por): %zu states (%.2fx reduction), %zu edges, %zu of %zu "
        "transition firings ignored\n",
        reduced.states_explored,
        static_cast<double>(kFourStageOpeStates) /
            static_cast<double>(reduced.states_explored),
        reduced.edges_explored, reduced.por.ignored(),
        reduced.por.enabled_transitions);
}

}  // namespace
}  // namespace rap::petri
