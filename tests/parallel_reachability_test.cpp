// Differential harness for the parallel-frontier reachability engine:
// every fixture model runs through the sequential ReachabilityExplorer
// and the ParallelReachabilityExplorer at several thread counts, and the
// answers must agree exactly — states/edges explored, deadlock sets,
// persistence-violation sets, goal verdicts, witness lengths — plus a
// repeated-run determinism check, the parallel truncation contract, the
// concurrent interning table's own invariants, and the facade adoption
// (verify::Verifier / flow::Design behind VerifyOptions::threads).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dfs/model.hpp"
#include "flow/design.hpp"
#include "ope/dfs_models.hpp"
#include "petri/parallel.hpp"
#include "petri/predicate.hpp"
#include "petri/reachability.hpp"
#include "petri_fixtures.hpp"
#include "pipeline/builder.hpp"
#include "util/rng.hpp"
#include "util/steal_deque.hpp"

namespace rap::petri {
namespace {

using namespace testfx;  // model zoo + differential plumbing

constexpr std::size_t kThreadCounts[] = {2, 4, 8};

// ------------------------------------------------------ differential --

void expect_equivalent(const Net& net, const MultiResult& seq,
                       const MultiResult& par, const std::string& context) {
    EXPECT_EQ(par.states_explored, seq.states_explored) << context;
    EXPECT_EQ(par.edges_explored, seq.edges_explored) << context;
    EXPECT_FALSE(par.truncated) << context;
    EXPECT_FALSE(seq.truncated) << context;

    EXPECT_EQ(sorted(par.deadlocks), sorted(seq.deadlocks)) << context;
    EXPECT_EQ(violation_set(par.persistence_violations),
              violation_set(seq.persistence_violations))
        << context;

    ASSERT_EQ(par.goals.size(), seq.goals.size()) << context;
    for (std::size_t g = 0; g < seq.goals.size(); ++g) {
        const auto& sg = seq.goals[g];
        const auto& pg = par.goals[g];
        ASSERT_EQ(pg.found(), sg.found()) << context << " goal " << g;
        if (!sg.found()) continue;
        // BFS-shortest witnesses: equal depth, though the parallel
        // engine may pick a different (canonical) marking of that depth.
        ASSERT_TRUE(sg.witness_trace.has_value()) << context;
        ASSERT_TRUE(pg.witness_trace.has_value()) << context;
        EXPECT_EQ(pg.witness_trace->firings.size(),
                  sg.witness_trace->firings.size())
            << context << " goal " << g;
        expect_replays(net, *pg.witness_trace, *pg.witness,
                       context + " goal " + std::to_string(g));
    }
}

// -------------------------------------------------------- differential --

TEST(ParallelReachability, DifferentialAgainstSequentialOnEveryFixture) {
    for (const Fixture& fixture : all_fixtures()) {
        const CompiledNet compiled(fixture.net);
        const QueryBundle bundle(fixture.net);

        ReachabilityOptions seq_options;
        seq_options.stop_at_first_match = false;
        ReachabilityExplorer seq(compiled, seq_options);
        const auto reference = seq.run_query(bundle.query);

        for (const std::size_t threads : kThreadCounts) {
            ReachabilityOptions options;
            options.stop_at_first_match = false;
            options.threads = threads;
            ParallelReachabilityExplorer par(compiled, options);
            const auto result = par.run_query(bundle.query);
            expect_equivalent(fixture.net, reference, result,
                              fixture.name + " @" +
                                  std::to_string(threads) + "t");
        }
    }
}

TEST(CompactStore, DifferentialZooAcrossThreadCounts) {
    // Both engines, on the one (compact) store layout, against the naive
    // oracle: the interpreted Net semantics with nothing shared with
    // either engine. The zoo and the 24 fuzz seeds at 1 (sequential) and
    // 2/4/8 threads must reproduce its states, edges and deadlock set
    // exactly; each naive answer is computed once per fixture.
    std::vector<Fixture> fixtures = all_fixtures();
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        fixtures.push_back(fuzz_fixture(seed));
    }
    MultiQuery query;
    query.collect_deadlocks = true;
    for (const Fixture& fixture : fixtures) {
        const NaiveAnswer naive = naive_explore(fixture.net);
        const CompiledNet compiled(fixture.net);
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{2}, std::size_t{4},
              std::size_t{8}}) {
            const std::string context =
                fixture.name + " @" + std::to_string(threads) + "t";
            ReachabilityOptions options;
            options.stop_at_first_match = false;
            options.threads = threads;
            const MultiResult result =
                threads == 1
                    ? ReachabilityExplorer(compiled, options).run_query(query)
                    : ParallelReachabilityExplorer(compiled, options)
                          .run_query(query);
            EXPECT_FALSE(result.truncated) << context;
            EXPECT_EQ(result.states_explored, naive.states) << context;
            EXPECT_EQ(result.edges_explored, naive.edges) << context;
            EXPECT_EQ(sorted(result.deadlocks), naive.deadlocks) << context;
            EXPECT_EQ(result.memory.records, naive.states) << context;
        }
    }
}

TEST(PersistenceOracle, ViolationSetsMatchTheNaiveOracleAcrossThreadCounts) {
    // Both engines report violations through the shared persistence scan
    // (CompiledNet::disables against the head's enabled set), so comparing
    // them with each other cannot catch a fault in that scan. The naive
    // oracle fires every enabled pair under the interpreted Net semantics
    // instead. Full passes (no POR), every violation kept, the zoo and
    // the 24 fuzz seeds at 1 (sequential) and 2/4/8 threads.
    std::vector<Fixture> fixtures = all_fixtures();
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        fixtures.push_back(fuzz_fixture(seed));
    }
    MultiQuery query;
    query.check_persistence = true;
    ASSERT_EQ(query.persistence_max_violations, SIZE_MAX);
    std::size_t total = 0;
    for (const Fixture& fixture : fixtures) {
        const NaiveAnswer naive = naive_explore(fixture.net, true);
        total += naive.violations.size();
        const CompiledNet compiled(fixture.net);
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{2}, std::size_t{4},
              std::size_t{8}}) {
            const std::string context =
                fixture.name + " @" + std::to_string(threads) + "t";
            ReachabilityOptions options;
            options.stop_at_first_match = false;
            options.threads = threads;
            const MultiResult result =
                threads == 1
                    ? ReachabilityExplorer(compiled, options).run_query(query)
                    : ParallelReachabilityExplorer(compiled, options)
                          .run_query(query);
            EXPECT_FALSE(result.truncated) << context;
            EXPECT_EQ(result.states_explored, naive.states) << context;
            EXPECT_EQ(violation_set(result.persistence_violations),
                      naive.violations)
                << context;
        }
    }
    EXPECT_GT(total, 0u) << "no fixture has a violation to compare";
}

TEST(ParallelReachability, RandomizedDifferentialFuzzer) {
    // >= 20 seeded random models across three topology classes (rings
    // with bridges, fork/join blocks, bridged meshes), each cross-checked
    // sequential vs 2/4/8 threads on every counter and set the
    // differential contract covers. On mismatch the context names the
    // seed and topology to replay.
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const Fixture fixture = fuzz_fixture(seed);
        SCOPED_TRACE("fuzz seed=" + std::to_string(seed) + " model=" +
                     fixture.name);
        const CompiledNet compiled(fixture.net);
        const QueryBundle bundle(fixture.net);

        ReachabilityOptions seq_options;
        seq_options.stop_at_first_match = false;
        ReachabilityExplorer seq(compiled, seq_options);
        const auto reference = seq.run_query(bundle.query);
        ASSERT_FALSE(reference.truncated) << fixture.name;

        for (const std::size_t threads : kThreadCounts) {
            ReachabilityOptions options;
            options.stop_at_first_match = false;
            options.threads = threads;
            ParallelReachabilityExplorer par(compiled, options);
            const auto result = par.run_query(bundle.query);
            expect_equivalent(fixture.net, reference, result,
                              "fuzz seed=" + std::to_string(seed) +
                                  " model=" + fixture.name + " @" +
                                  std::to_string(threads) + "t");
        }
    }
}

TEST(ParallelReachability, WorkStealingMatchesSequentialOnNarrowLayers) {
    // The steal-heavy workload: deep rings whose BFS layers stay narrow,
    // where deque scheduling actually redistributes work. The stealing
    // scheduler must produce the canonical results at every thread
    // count.
    for (const Fixture& fixture :
         {deep_ring_fixture(16, 8), deep_ring_fixture(16, 4)}) {
        const CompiledNet compiled(fixture.net);
        const QueryBundle bundle(fixture.net);

        ReachabilityOptions seq_options;
        seq_options.stop_at_first_match = false;
        ReachabilityExplorer seq(compiled, seq_options);
        const auto reference = seq.run_query(bundle.query);

        for (const std::size_t threads : kThreadCounts) {
            ReachabilityOptions options;
            options.stop_at_first_match = false;
            options.threads = threads;
            ParallelReachabilityExplorer par(compiled, options);
            const auto result = par.run_query(bundle.query);
            expect_equivalent(fixture.net, reference, result,
                              fixture.name + " @" +
                                  std::to_string(threads) + "t");
        }
    }
}

TEST(ParallelReachability, FinderSurfaceMatchesSequential) {
    // The convenience entry points (find / find_all / find_deadlocks /
    // explore_all / count_states) answer like the sequential engine's.
    const Fixture fixture = gap_fixture();
    const Net& net = fixture.net;
    const CompiledNet compiled(net);

    ReachabilityExplorer seq(compiled);
    ReachabilityOptions options;
    options.threads = 4;
    ParallelReachabilityExplorer par(compiled, options);

    EXPECT_EQ(par.count_states(), seq.count_states());

    const auto seq_dead = seq.find_deadlocks();
    const auto par_dead = par.find_deadlocks();
    EXPECT_EQ(par_dead.states_explored, seq_dead.states_explored);
    EXPECT_EQ(sorted(par_dead.deadlocks), sorted(seq_dead.deadlocks));
    ASSERT_TRUE(par_dead.found());
    EXPECT_EQ(par_dead.witness_trace->firings.size(),
              seq_dead.witness_trace->firings.size());

    // Early-stop single-goal search: same verdict and witness depth (the
    // parallel engine finishes the resolving layer, so state counters may
    // legitimately exceed the sequential mid-layer stop).
    const auto goal = Predicate::deadlock();
    const auto seq_hit = ReachabilityExplorer(compiled).find(goal);
    const auto par_hit =
        ParallelReachabilityExplorer(compiled, options).find(goal);
    ASSERT_TRUE(seq_hit.found());
    ASSERT_TRUE(par_hit.found());
    EXPECT_EQ(par_hit.witness_trace->firings.size(),
              seq_hit.witness_trace->firings.size());
}

TEST(ParallelReachability, SingleThreadIsTheSequentialCodePath) {
    // threads == 1 must reproduce the sequential engine bit for bit,
    // including its discovery-order witness (not the canonical one).
    const Fixture fixture = gap_fixture();
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    ReachabilityOptions options;
    options.stop_at_first_match = false;
    ReachabilityExplorer seq(compiled, options);
    const auto reference = seq.run_query(bundle.query);

    options.threads = 1;
    ParallelReachabilityExplorer par(compiled, options);
    const auto result = par.run_query(bundle.query);

    EXPECT_EQ(result.states_explored, reference.states_explored);
    EXPECT_EQ(result.edges_explored, reference.edges_explored);
    ASSERT_EQ(result.goals.size(), reference.goals.size());
    for (std::size_t g = 0; g < reference.goals.size(); ++g) {
        ASSERT_EQ(result.goals[g].found(), reference.goals[g].found());
        if (!reference.goals[g].found()) continue;
        EXPECT_EQ(result.goals[g].witness, reference.goals[g].witness);
        EXPECT_EQ(result.goals[g].witness_trace->firings,
                  reference.goals[g].witness_trace->firings);
    }
}

// --------------------------------------------------------- determinism --

TEST(ParallelReachability, RepeatedRunsAreDeterministic) {
    // Ten runs per thread count: verdicts, counters, deadlock sets and
    // full witness traces must be identical run over run (the canonical
    // witness selection makes them identical across thread counts too).
    const Fixture fixture = gap_fixture();
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    std::optional<MultiResult> baseline;
    for (const std::size_t threads : kThreadCounts) {
        ReachabilityOptions options;
        options.stop_at_first_match = false;
        options.threads = threads;
        for (int run = 0; run < 10; ++run) {
            ParallelReachabilityExplorer par(compiled, options);
            const auto result = par.run_query(bundle.query);
            if (!baseline) {
                baseline = result;
                ASSERT_TRUE(result.goals[0].found());
                continue;
            }
            const std::string context = "run " + std::to_string(run) +
                                        " @" + std::to_string(threads) +
                                        "t";
            EXPECT_EQ(result.states_explored, baseline->states_explored)
                << context;
            EXPECT_EQ(result.edges_explored, baseline->edges_explored)
                << context;
            EXPECT_EQ(sorted(result.deadlocks), sorted(baseline->deadlocks))
                << context;
            ASSERT_EQ(result.goals.size(), baseline->goals.size());
            for (std::size_t g = 0; g < result.goals.size(); ++g) {
                ASSERT_EQ(result.goals[g].found(),
                          baseline->goals[g].found())
                    << context;
                if (!baseline->goals[g].found()) continue;
                EXPECT_EQ(result.goals[g].witness,
                          baseline->goals[g].witness)
                    << context;
                EXPECT_EQ(result.goals[g].witness_trace->firings,
                          baseline->goals[g].witness_trace->firings)
                    << context;
            }
        }
    }
}

// ---------------------------------------------------------- truncation --

TEST(ParallelReachability, TruncationContract) {
    // With max_states below the true count the pass must stop truncated.
    // Contract: never above max_states, and — because ids are allocated
    // densely below the cap — exactly max_states, at every thread count
    // (threads == 1 inherits the sequential engine's exact guarantee).
    const Fixture fixture = ope_fixture(3, 3);  // 191k true states
    const CompiledNet compiled(fixture.net);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
        ReachabilityOptions options;
        options.max_states = 4096;
        options.threads = threads;
        ParallelReachabilityExplorer par(compiled, options);
        const auto result = par.explore_all();
        EXPECT_TRUE(result.truncated) << threads;
        EXPECT_EQ(result.states_explored, 4096u) << threads;
    }
}

TEST(ParallelReachability, NoTruncationAtExactFit) {
    const Fixture fixture = gap_fixture();
    const CompiledNet compiled(fixture.net);
    const std::size_t exact =
        ParallelReachabilityExplorer(compiled).count_states();
    ReachabilityOptions options;
    options.max_states = exact;
    options.threads = 4;
    ParallelReachabilityExplorer par(compiled, options);
    const auto result = par.explore_all();
    EXPECT_FALSE(result.truncated);
    EXPECT_EQ(result.states_explored, exact);
}

// ------------------------------------------------------- stop hook ------

TEST(StopHook, FiresWithinEdgeBoundOnReducedPasses) {
    // Regression: the stop hook used to be polled on interned *states*
    // only (every 2048 in the sequential engine, per layer in the
    // parallel one), so a heavily POR-reduced pass — few fresh states,
    // many edges — could run far past its deadline. Both engines now
    // also poll every 256 expanded edges; with a hook that trips right
    // after its first call the pass must stop within a small edge
    // budget, nowhere near the fixture's full reduced exploration.
    const Fixture fixture = ope_fixture(3, 3);
    const CompiledNet compiled(fixture.net);
    MultiQuery query;
    query.collect_deadlocks = true;

    // Sequential engine: polls at head & 2047 == 0 states AND every 256
    // edges, so after the hook trips at most 256 edges can pass.
    {
        std::atomic<std::size_t> calls{0};
        ReachabilityOptions options;
        options.stop_at_first_match = false;
        options.por = true;
        options.stop = [&calls] {
            return calls.fetch_add(1, std::memory_order_relaxed) >= 1;
        };
        ReachabilityExplorer seq(compiled, options);
        const auto result = seq.run_query(query);
        EXPECT_TRUE(result.truncated);
        EXPECT_LE(result.edges_explored, 512u)
            << "sequential edge poll missed its bound";
    }

    // Parallel engine: per-layer serial poll plus a per-worker poll
    // every 256 edges, so the bound scales with the worker count.
    for (const std::size_t threads : kThreadCounts) {
        std::atomic<std::size_t> calls{0};
        ReachabilityOptions options;
        options.stop_at_first_match = false;
        options.por = true;
        options.threads = threads;
        options.stop = [&calls] {
            return calls.fetch_add(1, std::memory_order_relaxed) >= 1;
        };
        ParallelReachabilityExplorer par(compiled, options);
        const auto result = par.run_query(query);
        EXPECT_TRUE(result.truncated) << threads;
        EXPECT_LE(result.edges_explored, 512u * threads + 512u)
            << "parallel edge poll missed its bound @" << threads << "t";
    }
}

// ----------------------------------------------------- memory contract --

/// Full results of two passes must be indistinguishable: counters, sets,
/// witness markings AND traces (both configurations pick the canonical
/// witness, so full equality is the contract, not just equal depths).
void expect_identical(const MultiResult& a, const MultiResult& b,
                      const std::string& context) {
    EXPECT_EQ(a.states_explored, b.states_explored) << context;
    EXPECT_EQ(a.edges_explored, b.edges_explored) << context;
    EXPECT_EQ(a.truncated, b.truncated) << context;
    EXPECT_EQ(sorted(a.deadlocks), sorted(b.deadlocks)) << context;
    EXPECT_EQ(violation_set(a.persistence_violations),
              violation_set(b.persistence_violations))
        << context;
    ASSERT_EQ(a.goals.size(), b.goals.size()) << context;
    for (std::size_t g = 0; g < a.goals.size(); ++g) {
        ASSERT_EQ(a.goals[g].found(), b.goals[g].found())
            << context << " goal " << g;
        if (!a.goals[g].found()) continue;
        EXPECT_EQ(a.goals[g].witness, b.goals[g].witness)
            << context << " goal " << g;
        EXPECT_EQ(a.goals[g].witness_trace->firings,
                  b.goals[g].witness_trace->firings)
            << context << " goal " << g;
    }
    ASSERT_EQ(a.persistence_violations.size(),
              b.persistence_violations.size())
        << context;
    for (std::size_t v = 0; v < a.persistence_violations.size(); ++v) {
        EXPECT_EQ(a.persistence_violations[v].trace_to_marking.firings,
                  b.persistence_violations[v].trace_to_marking.firings)
            << context << " violation " << v;
    }
}

TEST(MemoryDiet, CacheDropsEnabledShareAndKeepsResultsBitIdentical) {
    // The frontier-only enabled-set cache: records carry the marking and
    // the two witness meta words only — the enabled bitsets live in
    // per-layer row arenas that are recycled as the frontier moves — and
    // every thread count still reproduces the same canonical result bit
    // for bit.
    const Fixture fixture = ope_fixture(3, 3);
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    std::optional<MultiResult> baseline;
    for (const std::size_t threads : kThreadCounts) {
        ReachabilityOptions options;
        options.stop_at_first_match = false;
        options.threads = threads;
        auto result =
            ParallelReachabilityExplorer(compiled, options).run_query(
                bundle.query);
        if (!baseline) {
            baseline = std::move(result);
            continue;
        }
        expect_identical(*baseline, result,
                         "ope_s3_d3 @" + std::to_string(threads) + "t");
    }

    // Record bytes are (marking + 2 meta words) per state. Block
    // granularity makes the measured count approximate; 5% covers it at
    // 191k states. Keeping the rows in the records instead would add
    // enabled_words() words to every one of them.
    const std::size_t mwords = compiled.marking_words();
    const std::size_t twords = compiled.enabled_words();
    const MemoryStats& memory = baseline->memory;
    const std::size_t states = baseline->states_explored;
    EXPECT_EQ(memory.records, states);
    const double expected_records =
        static_cast<double>(states * (mwords + 2) * sizeof(std::uint64_t));
    EXPECT_NEAR(static_cast<double>(memory.record_bytes) / expected_records,
                1.0, 0.05)
        << "records must not carry enabled words";
    const std::size_t in_record_rows =
        states * (mwords + 2 + twords) * sizeof(std::uint64_t) +
        memory.store.table_bytes;
    EXPECT_LT(memory.resident_bytes, in_record_rows);
    EXPECT_GE(memory.peak_bytes, memory.resident_bytes);

    // The sequential engine's variant of the cache (block release behind
    // the implicit frontier) obeys the same result contract.
    ReachabilityOptions seq_options;
    seq_options.stop_at_first_match = false;
    const auto seq =
        ReachabilityExplorer(compiled, seq_options).run_query(bundle.query);
    expect_equivalent(fixture.net, seq, *baseline, "ope_s3_d3 sequential");
    EXPECT_LT(seq.memory.resident_bytes,
              states * (mwords + 1 + twords) * sizeof(std::uint64_t) +
                  seq.memory.store.table_bytes);
    EXPECT_GE(seq.memory.peak_bytes, seq.memory.resident_bytes);
}

TEST(MemoryDiet, EvictionPathStressUnderEveryScheduler) {
    // Many-layer model at every worker count: the arena recycling
    // (parallel) and block release (sequential) paths the ASan job must
    // walk. Witness traces are materialised to force reconstruction
    // after eviction.
    const Fixture fixture = gap_fixture();
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    ReachabilityOptions seq_options;
    seq_options.stop_at_first_match = false;
    ReachabilityExplorer seq(compiled, seq_options);
    const auto reference = seq.run_query(bundle.query);

    for (const std::size_t threads : kThreadCounts) {
        ReachabilityOptions options;
        options.stop_at_first_match = false;
        options.threads = threads;
        ParallelReachabilityExplorer par(compiled, options);
        const auto result = par.run_query(bundle.query);
        expect_equivalent(fixture.net, reference, result,
                          "gap eviction @" + std::to_string(threads) + "t");
    }
}

TEST(MemoryDiet, ReducedParallelPassMatchesSequentialStats) {
    // A reduced pass that never widens (no persistence check, no proviso
    // — deadlock collection only). The contract: answers and reduction
    // statistics equal the sequential engine's, while the per-worker row
    // arenas show up in the resident accounting.
    const Fixture fixture = ope_fixture(3, 3);
    const CompiledNet compiled(fixture.net);
    MultiQuery query;
    query.collect_deadlocks = true;

    ReachabilityOptions seq_options;
    seq_options.stop_at_first_match = false;
    seq_options.por = true;
    ReachabilityExplorer seq(compiled, seq_options);
    const auto reference = seq.run_query(query);
    ASSERT_TRUE(reference.por.active);
    ASSERT_GT(reference.por.ignored(), 0u) << "fixture must actually reduce";

    ReachabilityOptions options = seq_options;
    options.threads = 4;
    const auto reduced =
        ParallelReachabilityExplorer(compiled, options).run_query(query);
    EXPECT_EQ(reduced.states_explored, reference.states_explored);
    EXPECT_EQ(reduced.edges_explored, reference.edges_explored);
    EXPECT_EQ(sorted(reduced.deadlocks), sorted(reference.deadlocks));

    // Both engines take the same reduction choice per state, so they
    // agree on every reduction statistic, not just the verdicts.
    EXPECT_TRUE(reduced.por.active);
    EXPECT_EQ(reduced.por.expansions, reference.por.expansions);
    EXPECT_EQ(reduced.por.reduced_expansions,
              reference.por.reduced_expansions);
    EXPECT_EQ(reduced.por.proviso_expansions,
              reference.por.proviso_expansions);
    EXPECT_EQ(reduced.por.enabled_transitions,
              reference.por.enabled_transitions);
    EXPECT_EQ(reduced.por.expanded_transitions,
              reference.por.expanded_transitions);

    // Every record is accounted, and the per-worker enabled-row arenas
    // are part of the resident bytes on top of records + table.
    EXPECT_EQ(reduced.memory.records, reduced.states_explored);
    EXPECT_GT(reduced.memory.resident_bytes,
              reduced.memory.record_bytes +
                  reduced.memory.store.table_bytes)
        << "enabled-row arenas must be part of the resident accounting";
    EXPECT_GE(reduced.memory.peak_bytes, reduced.memory.resident_bytes);
}

// ----------------------------------------------------- canonical witness --

/// Naive canonical BFS tree over the interpreted Net semantics: for each
/// reachable marking its depth and the smallest (parent marking words,
/// transition) pair among its previous-layer predecessors — the tree the
/// parallel engine's canonical-min witness links must reproduce.
class NaiveCanonicalTree {
public:
    explicit NaiveCanonicalTree(const Net& net) {
        std::vector<Marking> layer{net.initial_marking()};
        nodes_.emplace(layer.front(), Node{});
        for (std::size_t depth = 1; !layer.empty(); ++depth) {
            std::vector<Marking> next;
            for (const Marking& parent : layer) {
                for (const TransitionId t : net.enabled_transitions(parent)) {
                    Marking child = parent;
                    net.fire(child, t);
                    auto it = nodes_.find(child);
                    if (it == nodes_.end()) {
                        nodes_.emplace(child, Node{depth, parent, t});
                        next.push_back(std::move(child));
                    } else if (it->second.depth == depth &&
                               edge_less(parent, t, *it->second.parent,
                                         it->second.via)) {
                        it->second.parent = parent;
                        it->second.via = t;
                    }
                }
            }
            layer = std::move(next);
        }
    }

    /// The canonical firing sequence from the initial marking to `m`.
    std::vector<TransitionId> trace(const Marking& m) const {
        std::vector<TransitionId> firings;
        const Node* node = &nodes_.at(m);
        while (node->parent) {
            firings.push_back(node->via);
            node = &nodes_.at(*node->parent);
        }
        std::reverse(firings.begin(), firings.end());
        return firings;
    }

    /// Lexicographically smallest marking of the shallowest layer that
    /// satisfies `goal` (the parallel engine's canonical witness).
    std::optional<Marking> canonical_hit(const Net& net,
                                         const Predicate& goal) const {
        std::optional<Marking> best;
        std::size_t best_depth = 0;
        for (const auto& [m, node] : nodes_) {
            if (!goal(net, m)) continue;
            if (!best || node.depth < best_depth ||
                (node.depth == best_depth && words_less(m, *best))) {
                best = m;
                best_depth = node.depth;
            }
        }
        return best;
    }

private:
    struct Node {
        std::size_t depth = 0;
        std::optional<Marking> parent;  ///< nullopt at the root
        TransitionId via{0};
    };

    static bool words_less(const Marking& a, const Marking& b) {
        return std::lexicographical_compare(
            a.word_data(), a.word_data() + a.word_count(), b.word_data(),
            b.word_data() + b.word_count());
    }
    static bool edge_less(const Marking& pa, TransitionId ta,
                          const Marking& pb, TransitionId tb) {
        if (pa == pb) return ta.value < tb.value;
        return words_less(pa, pb);
    }

    std::unordered_map<Marking, Node, util::BitVecHash> nodes_;
};

TEST(CanonicalWitness, TracesMatchTheNaiveCanonicalBfsTree) {
    // Goal witnesses and persistence-violation traces of the parallel
    // engine against an independent naive canonical tree, at 2/4/8
    // threads: the witness marking is the canonical hit and every trace
    // walks the canonical-min parent links.
    for (const Fixture& fixture :
         {gap_fixture(), ring_fixture(4), fuzz_fixture(1), fuzz_fixture(2),
          fuzz_fixture(3), fuzz_fixture(7), fuzz_fixture(8)}) {
        const NaiveCanonicalTree tree(fixture.net);
        const CompiledNet compiled(fixture.net);
        const QueryBundle bundle(fixture.net);
        const Predicate* goals[] = {&bundle.dead, &bundle.marked};
        for (const std::size_t threads : kThreadCounts) {
            const std::string context =
                fixture.name + " @" + std::to_string(threads) + "t";
            ReachabilityOptions options;
            options.stop_at_first_match = false;
            options.threads = threads;
            const auto result =
                ParallelReachabilityExplorer(compiled, options).run_query(
                    bundle.query);
            ASSERT_EQ(result.goals.size(), 2u) << context;
            for (std::size_t g = 0; g < 2; ++g) {
                const auto hit = tree.canonical_hit(fixture.net, *goals[g]);
                ASSERT_EQ(result.goals[g].found(), hit.has_value())
                    << context << " goal " << g;
                if (!hit) continue;
                EXPECT_EQ(*result.goals[g].witness, *hit)
                    << context << " goal " << g;
                EXPECT_EQ(result.goals[g].witness_trace->firings,
                          tree.trace(*hit))
                    << context << " goal " << g;
            }
            for (const PersistenceViolation& v :
                 result.persistence_violations) {
                EXPECT_EQ(v.trace_to_marking.firings, tree.trace(v.marking))
                    << context << " violation at "
                    << fixture.net.describe_marking(v.marking);
            }
        }
    }
}

// ------------------------------------------- concurrent interning table --

TEST(ConcurrentMarkingStore, InternsDedupesAndEnforcesCapacity) {
    ConcurrentMarkingStore store(2, 1);
    store.reserve(2);
    const std::uint64_t a[2] = {1, 2};
    const std::uint64_t b[2] = {3, 4};
    const auto ra = store.intern(a, 2);
    EXPECT_TRUE(ra.inserted);
    EXPECT_EQ(ra.id, 0u);
    const auto ra2 = store.intern(a, 2);
    EXPECT_FALSE(ra2.inserted);
    EXPECT_EQ(ra2.id, 0u);
    const auto rb = store.intern(b, 2);
    EXPECT_TRUE(rb.inserted);
    EXPECT_EQ(rb.id, 1u);
    const std::uint64_t c[2] = {5, 6};
    const auto rc = store.intern(c, 2);  // over capacity
    EXPECT_FALSE(rc.inserted);
    EXPECT_EQ(rc.id, ConcurrentMarkingStore::kNone);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store[1][0], 3u);
    // Meta words start zeroed and belong to the caller.
    EXPECT_EQ(store.meta_offset(), 2u);
    EXPECT_EQ(store[0][store.meta_offset()], 0u);
    store.record_mut(0)[store.meta_offset()] = 77;
    EXPECT_EQ(store[0][store.meta_offset()], 77u);
}

TEST(ConcurrentMarkingStore, ConcurrentInterningIsConsistent) {
    // All workers intern overlapping slices of the same key universe;
    // every key must get exactly one dense id, agreed on by all workers.
    constexpr std::size_t kKeys = 20000;
    constexpr std::size_t kWorkers = 8;
    ConcurrentMarkingStore store(1, 0);
    store.reserve(kKeys);

    std::vector<std::vector<std::uint32_t>> ids(
        kWorkers, std::vector<std::uint32_t>(kKeys));
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < kWorkers; ++w) {
        pool.emplace_back([&store, &ids, w]() {
            // Distinct per-worker visit order so claims genuinely race.
            // (No gtest assertions in here: kNone sentinels are checked
            // on the main thread after the join.)
            util::Rng rng(0x9000 + w);
            std::vector<std::uint64_t> keys(kKeys);
            for (std::size_t i = 0; i < kKeys; ++i) keys[i] = i;
            for (std::size_t i = kKeys; i > 1; --i) {
                std::swap(keys[i - 1], keys[rng.below(i)]);
            }
            for (const std::uint64_t key : keys) {
                ids[w][key] = store.intern(&key, kKeys).id;
            }
        });
    }
    for (auto& t : pool) t.join();

    EXPECT_EQ(store.size(), kKeys);
    for (std::size_t key = 0; key < kKeys; ++key) {
        ASSERT_NE(ids[0][key], ConcurrentMarkingStore::kNone) << key;
    }
    for (std::size_t w = 1; w < kWorkers; ++w) {
        ASSERT_EQ(ids[w], ids[0]) << "worker " << w;
    }
    for (std::size_t key = 0; key < kKeys; ++key) {
        EXPECT_EQ(store[ids[0][key]][0], key);
    }
}

// ------------------------------------------------- work-stealing deque --

TEST(StealDeque, OwnerAndThievesClaimEveryTaskExactlyOnce) {
    // Steal-heavy hammering: one owner pops while 7 thieves strip the
    // deque from the other end; every task must be claimed exactly once.
    // This is the stress profile of a narrow BFS layer, and the TSan CI
    // job runs it to keep the deque's memory ordering honest.
    constexpr std::size_t kTasks = 100000;
    constexpr std::size_t kThieves = 7;
    util::StealDeque deque;
    deque.reset_and_reserve(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) deque.push(i);

    std::vector<std::atomic<std::uint32_t>> claimed(kTasks);
    std::atomic<bool> go{false};
    std::atomic<std::size_t> total{0};
    auto thief = [&deque, &claimed, &go, &total]() {
        while (!go.load(std::memory_order_acquire)) {}
        std::uint64_t task;
        std::size_t mine = 0;
        for (;;) {
            if (deque.steal(task)) {
                claimed[task].fetch_add(1, std::memory_order_relaxed);
                ++mine;
            } else if (deque.empty()) {
                break;
            }
        }
        total.fetch_add(mine, std::memory_order_relaxed);
    };
    std::vector<std::thread> pool;
    for (std::size_t k = 0; k < kThieves; ++k) pool.emplace_back(thief);
    go.store(true, std::memory_order_release);
    {
        std::uint64_t task;
        std::size_t mine = 0;
        while (deque.pop(task)) {
            claimed[task].fetch_add(1, std::memory_order_relaxed);
            ++mine;
        }
        // The owner's pop can fail while thieves still drain; sweep like
        // the engine does until the deque reads empty.
        for (;;) {
            if (deque.steal(task)) {
                claimed[task].fetch_add(1, std::memory_order_relaxed);
                ++mine;
            } else if (deque.empty()) {
                break;
            }
        }
        total.fetch_add(mine, std::memory_order_relaxed);
    }
    for (auto& t : pool) t.join();

    EXPECT_EQ(total.load(), kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
        ASSERT_EQ(claimed[i].load(), 1u) << "task " << i;
    }
}

// ------------------------------------------------------ facade adoption --

TEST(ParallelVerify, VerifierThreadsKnobKeepsReportsEquivalent) {
    auto p = ope::build_reconfigurable_ope_dfs(3, 3);
    pipeline::reset_ring(p.graph, p.stages[1].global_ring,
                         dfs::TokenValue::False);

    verify::VerifyOptions sequential;
    sequential.threads = 1;
    const verify::Verifier seq(p.graph, sequential);
    const auto seq_report = seq.verify_all();

    for (const std::size_t threads : kThreadCounts) {
        verify::VerifyOptions options;
        options.threads = threads;
        const verify::Verifier par(p.graph, options);
        const auto par_report = par.verify_all();
        ASSERT_EQ(par_report.findings.size(), seq_report.findings.size());
        for (std::size_t i = 0; i < seq_report.findings.size(); ++i) {
            const auto& sf = seq_report.findings[i];
            const auto& pf = par_report.findings[i];
            EXPECT_EQ(pf.property, sf.property);
            EXPECT_EQ(pf.violated, sf.violated) << i;
            EXPECT_EQ(pf.truncated, sf.truncated) << i;
            EXPECT_EQ(pf.states_explored, sf.states_explored) << i;
            EXPECT_EQ(pf.trace.size(), sf.trace.size()) << i;
        }
        EXPECT_EQ(par.explorations_run(), 1u);
    }
}

TEST(ParallelVerify, DesignAdoptsThreadsThroughOptions) {
    flow::DesignOptions options;
    options.verify.threads = 2;
    flow::Design design(ope::build_reconfigurable_ope_dfs(3, 3), options);
    const auto report = design.verify();
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(design.verifier().explorations_run(), 1u);

    flow::DesignOptions sequential_options;
    sequential_options.verify.threads = 1;  // pin: default 0 = all cores
    flow::Design sequential(ope::build_reconfigurable_ope_dfs(3, 3),
                            sequential_options);
    const auto seq_report = sequential.verify();
    ASSERT_EQ(report.findings.size(), seq_report.findings.size());
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
        EXPECT_EQ(report.findings[i].violated,
                  seq_report.findings[i].violated);
        EXPECT_EQ(report.findings[i].states_explored,
                  seq_report.findings[i].states_explored);
    }
}

TEST(ParallelVerify, MemoryStatsSurfaceThroughVerifierAndDesign) {
    // memory_stats() rides the facades: std::nullopt before any
    // exploration, then populated by verify() with the engine's
    // footprint.
    flow::DesignOptions options;
    options.verify.threads = 2;
    flow::Design design(ope::build_reconfigurable_ope_dfs(3, 3), options);
    EXPECT_FALSE(design.memory_stats().has_value());
    const auto report = design.verify();
    ASSERT_TRUE(report.clean());
    ASSERT_TRUE(design.memory_stats().has_value());
    const auto stats = *design.memory_stats();
    EXPECT_EQ(stats.records, report.findings[0].states_explored);
    EXPECT_GT(stats.record_bytes, 0u);
    EXPECT_GT(stats.resident_bytes, stats.record_bytes);
    EXPECT_GE(stats.peak_bytes, stats.resident_bytes);

    // The enabled bitsets never live in the records (the memory diet):
    // record bytes stay below what in-record rows would need.
    const CompiledNet& compiled = design.compiled_net();
    EXPECT_LT(stats.record_bytes,
              stats.records *
                  (compiled.marking_words() + 2 + compiled.enabled_words()) *
                  sizeof(std::uint64_t));
}

}  // namespace
}  // namespace rap::petri
