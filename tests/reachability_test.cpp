// Tests for the compiled reachability engine: CompiledNet agreement with
// the interpreted Net semantics (full and delta builds), the single-pass
// multi-goal API, truncation semantics, witness determinism, the
// first-match witness guarantee, the naive-oracle differentials over the
// fixture zoo, the stop hook's edge bound, the memory accounting
// surfaced through verify::Verifier / flow::Design, and the marking
// store's bytes/state ceilings.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dfs_helpers.hpp"
#include "flow/design.hpp"
#include "ope/dfs_models.hpp"
#include "petri/compiled.hpp"
#include "petri/net.hpp"
#include "petri/predicate.hpp"
#include "petri/reachability.hpp"
#include "petri_fixtures.hpp"

namespace rap::petri {
namespace {

// An explorer built from a Net points at the CompiledNet it owns, so a
// copy or a move would leave it pointing into the source.
static_assert(!std::is_copy_constructible_v<ReachabilityExplorer>);
static_assert(!std::is_move_constructible_v<ReachabilityExplorer>);

/// p0 -> t0 -> p1 -> t1 -> p0 : a two-place ring with one token.
Net make_ring() {
    Net net("ring");
    const auto p0 = net.add_place("p0", true);
    const auto p1 = net.add_place("p1", false);
    const auto t0 = net.add_transition("t0");
    const auto t1 = net.add_transition("t1");
    net.add_input_arc(p0, t0);
    net.add_output_arc(t0, p1);
    net.add_input_arc(p1, t1);
    net.add_output_arc(t1, p0);
    return net;
}

/// `n` independent two-place toggles: 2^n reachable states.
Net make_toggles(int n) {
    Net net("toggles");
    for (int i = 0; i < n; ++i) {
        const auto p0 = net.add_place("b" + std::to_string(i) + "_0", true);
        const auto p1 = net.add_place("b" + std::to_string(i) + "_1", false);
        const auto up = net.add_transition("u" + std::to_string(i));
        const auto dn = net.add_transition("d" + std::to_string(i));
        net.add_input_arc(p0, up);
        net.add_output_arc(up, p1);
        net.add_input_arc(p1, dn);
        net.add_output_arc(dn, p0);
    }
    return net;
}

/// A net exercising read arcs, contact-freeness and shared places: the
/// compiled term arrays must reproduce every enabling nuance.
Net make_mixed() {
    Net net("mixed");
    const auto guard = net.add_place("guard", true);
    const auto src = net.add_place("src", true);
    const auto mid = net.add_place("mid", false);
    const auto dst = net.add_place("dst", false);
    const auto t_move = net.add_transition("move");
    net.add_input_arc(src, t_move);
    net.add_output_arc(t_move, mid);
    net.add_read_arc(guard, t_move);
    const auto t_fwd = net.add_transition("fwd");
    net.add_input_arc(mid, t_fwd);
    net.add_output_arc(t_fwd, dst);
    const auto t_drop = net.add_transition("drop");
    net.add_input_arc(guard, t_drop);
    net.add_output_arc(t_drop, dst);
    const auto t_self = net.add_transition("self");
    net.add_input_arc(dst, t_self);
    net.add_output_arc(t_self, dst);
    return net;
}

// ------------------------------------------------------- CompiledNet --

TEST(CompiledNet, AgreesWithNetOnEveryReachableMarking) {
    for (const Net& net : {make_ring(), make_toggles(4), make_mixed()}) {
        const CompiledNet compiled(net);
        // Walk the full reachable set with the *interpreted* semantics
        // and cross-check enabledness and firing word-for-word.
        std::unordered_map<Marking, std::size_t, util::BitVecHash> seen;
        std::deque<Marking> frontier;
        const Marking m0 = net.initial_marking();
        seen.emplace(m0, 0);
        frontier.push_back(m0);
        while (!frontier.empty()) {
            const Marking current = frontier.front();
            frontier.pop_front();
            for (std::uint32_t ti = 0; ti < net.transition_count(); ++ti) {
                const TransitionId t{ti};
                ASSERT_EQ(compiled.is_enabled(current.word_data(), t),
                          net.is_enabled(current, t))
                    << net.name() << " " << net.transition_name(t) << " at "
                    << net.describe_marking(current);
                if (!net.is_enabled(current, t)) continue;
                Marking via_net = current;
                net.fire(via_net, t);
                Marking via_compiled = current;
                compiled.fire(via_compiled.word_data(), t);
                ASSERT_EQ(via_net, via_compiled);
                if (seen.emplace(via_net, seen.size()).second) {
                    frontier.push_back(via_net);
                }
            }
        }
    }
}

/// BFS over `net` under the interpreted semantics, stopping discovery
/// at `limit` states: after every firing, the parent's enabled set
/// updated by update_enabled must equal the full scan of the child.
void expect_incremental_matches_full_scan(const Net& net,
                                          std::size_t limit) {
    const CompiledNet compiled(net);
    const std::size_t words = compiled.enabled_words();
    std::unordered_set<Marking, util::BitVecHash> seen;
    std::deque<Marking> frontier{net.initial_marking()};
    seen.insert(frontier.front());
    std::vector<std::uint64_t> parent_enabled(words);
    std::vector<std::uint64_t> incremental(words);
    std::vector<std::uint64_t> full(words);
    while (!frontier.empty()) {
        const Marking current = std::move(frontier.front());
        frontier.pop_front();
        compiled.enabled_set(current.word_data(), parent_enabled.data());
        for (std::uint32_t ti = 0; ti < net.transition_count(); ++ti) {
            const TransitionId t{ti};
            if (!net.is_enabled(current, t)) continue;
            Marking next = current;
            net.fire(next, t);
            incremental = parent_enabled;
            compiled.update_enabled(next.word_data(), t, incremental.data());
            compiled.enabled_set(next.word_data(), full.data());
            ASSERT_EQ(incremental, full)
                << net.name() << ": after " << net.transition_name(t)
                << " at " << net.describe_marking(current);
            if (seen.size() < limit && seen.insert(next).second) {
                frontier.push_back(std::move(next));
            }
        }
    }
}

TEST(CompiledNet, IncrementalEnabledSetMatchesFullScan) {
    // Every state of the zoo (the OPE s3/d3 model in full, wagging's
    // first 60,000 states) and of the 24 fuzz seeds, plus the small
    // nets above: update_enabled must agree with a full scan after every
    // firing, both on the bits it re-tests and on the ones it clears
    // because the firing must have disabled them.
    std::vector<testfx::Fixture> fixtures = testfx::all_fixtures();
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        fixtures.push_back(testfx::fuzz_fixture(seed));
    }
    fixtures.push_back({"ring", make_ring()});
    fixtures.push_back({"toggles", make_toggles(4)});
    fixtures.push_back({"mixed", make_mixed()});
    for (const testfx::Fixture& fixture : fixtures) {
        const std::size_t limit =
            fixture.name == "wagging" ? 60'000 : SIZE_MAX;
        expect_incremental_matches_full_scan(fixture.net, limit);
        if (HasFatalFailure()) return;
    }
}

TEST(CompiledNet, DisablesRowsMatchFiringOnEveryReachableMarking) {
    // disables(t) is structural; at every reachable marking, for t != u
    // both enabled, u's bit must say whether firing t (interpreted
    // semantics) leaves u disabled. No row holds its own transition.
    std::vector<Net> nets = {make_ring(), make_toggles(4), make_mixed(),
                             testfx::gap_fixture().net};
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        nets.push_back(testfx::random_fixture(seed).net);
    }
    for (const Net& net : nets) {
        const CompiledNet compiled(net);
        auto bit = [&](TransitionId t, TransitionId u) {
            return (compiled.disables(t)[u.value / 64] >> (u.value % 64)) & 1;
        };
        for (std::uint32_t ti = 0; ti < net.transition_count(); ++ti) {
            EXPECT_EQ(bit(TransitionId{ti}, TransitionId{ti}), 0u)
                << net.name();
        }
        std::unordered_map<Marking, std::size_t, util::BitVecHash> seen;
        std::deque<Marking> frontier{net.initial_marking()};
        seen.emplace(frontier.front(), 0);
        while (!frontier.empty()) {
            const Marking current = frontier.front();
            frontier.pop_front();
            const auto enabled = net.enabled_transitions(current);
            for (const TransitionId t : enabled) {
                Marking next = current;
                net.fire(next, t);
                for (const TransitionId u : enabled) {
                    if (u == t) continue;
                    ASSERT_EQ(bit(t, u) == 1, !net.is_enabled(next, u))
                        << net.name() << ": " << net.transition_name(t)
                        << " / " << net.transition_name(u) << " at "
                        << net.describe_marking(current);
                }
                if (seen.emplace(next, seen.size()).second) {
                    frontier.push_back(next);
                }
            }
        }
    }
}

TEST(CompiledNet, StateCountsMatchNaiveExploration) {
    for (const Net& net : {make_ring(), make_toggles(6), make_mixed()}) {
        ReachabilityExplorer explorer(net);
        EXPECT_EQ(explorer.run_query({}).states_explored,
                  testfx::naive_explore(net).states)
            << net.name();
    }
}

/// Same structure at every depth: the model name is depth-independent
/// and ope_style_stages only flips the configuration tokens, so the nets
/// of one `stages` value differ in initial marking alone — the delta
/// compilation precondition a reconfigurable chip satisfies by
/// construction.
Net depth_net(int stages, int depth) {
    auto p = pipeline::build_pipeline(
        "inc_s" + std::to_string(stages),
        dfs::testing::ope_style_stages(stages, depth));
    return dfs::to_petri(p.graph).net;
}

TEST(Incremental, DeltaCompiledNetMatchesFullBuild) {
    const Net parent_net = depth_net(3, 3);
    const Net child_net = depth_net(3, 2);
    ASSERT_EQ(CompiledNet::digest_structure(parent_net),
              CompiledNet::digest_structure(child_net))
        << "reconfiguration must be a marking-only change";

    const CompiledNet parent(parent_net);
    const CompiledNet full(child_net);
    const CompiledNet delta(child_net, parent);
    EXPECT_EQ(delta.marking_words(), full.marking_words());
    EXPECT_EQ(delta.enabled_words(), full.enabled_words());
    testfx::expect_same_indexes(delta, full, "marking-only delta");

    const testfx::QueryBundle bundle(child_net);
    ReachabilityOptions options;
    options.stop_at_first_match = false;
    const auto reference =
        ReachabilityExplorer(full, options).run_query(bundle.query);
    const auto result =
        ReachabilityExplorer(delta, options).run_query(bundle.query);
    testfx::expect_identical_passes(child_net, reference, result,
                                    "delta vs full");

    // A parent of a different structure falls back to a full rebuild.
    const Net other = depth_net(2, 2);
    const CompiledNet unrelated(other);
    const CompiledNet fallback(child_net, unrelated);
    const auto fb_result =
        ReachabilityExplorer(fallback, options).run_query(bundle.query);
    testfx::expect_identical_passes(
        child_net, reference, fb_result,
        "unrelated parent falls back to full build");
}

/// A four-place ring, a separate toggle pair, and one bridge transition
/// whose arcs are the only difference between the two variants: equal
/// place and transition counts, but not the same arcs.
Net bridged_ring(bool moved) {
    Net net(moved ? "bridged_moved" : "bridged");
    std::vector<PlaceId> ring;
    for (int i = 0; i < 4; ++i) {
        ring.push_back(net.add_place("p" + std::to_string(i), i == 0));
    }
    const auto q0 = net.add_place("q0", true);
    const auto q1 = net.add_place("q1", false);
    const auto x0 = net.add_place("x0", true);
    const auto x1 = net.add_place("x1", false);
    for (int i = 0; i < 4; ++i) {
        const auto t = net.add_transition("t" + std::to_string(i));
        net.add_input_arc(ring[i], t);
        net.add_output_arc(t, ring[(i + 1) % 4]);
    }
    const auto up = net.add_transition("up");
    net.add_input_arc(x0, up);
    net.add_output_arc(up, x1);
    const auto down = net.add_transition("down");
    net.add_input_arc(x1, down);
    net.add_output_arc(down, x0);
    const auto bridge = net.add_transition("bridge");
    if (moved) {
        net.add_input_arc(q0, bridge);
        net.add_output_arc(bridge, ring[2]);
        net.add_read_arc(ring[1], bridge);
    } else {
        net.add_input_arc(ring[0], bridge);
        net.add_output_arc(bridge, q1);
    }
    return net;
}

TEST(Incremental, DeltaCompiledNetRebuildsChangedRowsExactly) {
    // A parent with the same counts but other arcs cannot lend its
    // tables: the delta constructor falls back to a full build, so every
    // affected and disables row, and the pass, equal CompiledNet(net)'s.
    for (const bool moved : {false, true}) {
        const Net parent_net = bridged_ring(!moved);
        const Net child_net = bridged_ring(moved);
        ASSERT_EQ(parent_net.place_count(), child_net.place_count());
        ASSERT_EQ(parent_net.transition_count(), child_net.transition_count());
        ASSERT_NE(CompiledNet::digest_structure(parent_net),
                  CompiledNet::digest_structure(child_net));
        const CompiledNet parent(parent_net);
        const CompiledNet delta(child_net, parent);
        const CompiledNet full(child_net);
        EXPECT_EQ(&delta.net(), &child_net);
        testfx::expect_same_indexes(delta, full, child_net.name());

        ReachabilityOptions options;
        options.stop_at_first_match = false;
        const testfx::QueryBundle bundle(child_net);
        testfx::expect_identical_passes(
            child_net,
            ReachabilityExplorer(full, options).run_query(bundle.query),
            ReachabilityExplorer(delta, options).run_query(bundle.query),
            child_net.name() + " delta vs full");
    }
}

// ------------------------------------------------------ MarkingStore --

TEST(MarkingStore, InternsDedupesAndEnforcesCapacity) {
    MarkingStore store(2);
    const std::uint64_t a[2] = {1, 2};
    const std::uint64_t b[2] = {3, 4};
    const auto ra = store.intern(a, store.hash(a), 2);
    EXPECT_TRUE(ra.inserted);
    EXPECT_EQ(ra.id, 0u);
    const auto ra2 = store.intern(a, store.hash(a), 2);
    EXPECT_FALSE(ra2.inserted);
    EXPECT_EQ(ra2.id, 0u);
    const auto rb = store.intern(b, store.hash(b), 2);
    EXPECT_TRUE(rb.inserted);
    EXPECT_EQ(rb.id, 1u);
    const std::uint64_t c[2] = {5, 6};
    const auto rc = store.intern(c, store.hash(c), 2);  // over capacity
    EXPECT_FALSE(rc.inserted);
    EXPECT_EQ(rc.id, MarkingStore::kNone);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store[1][0], 3u);
}

TEST(MarkingStore, SurvivesGrowthRehash) {
    // 600K keys take the 4096-slot table through eight doublings. Every
    // key keeps its dense id across all of them, and the geometry is
    // the documented one: the smallest power of two that keeps the
    // records under the 7/8 load ceiling.
    constexpr std::uint64_t kKeys = 600'000;
    MarkingStore store(1);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
        const auto r = store.intern(&i, store.hash(&i), SIZE_MAX);
        ASSERT_TRUE(r.inserted);
        ASSERT_EQ(r.id, i);
    }
    for (std::uint64_t i = 0; i < kKeys; ++i) {
        const auto r = store.intern(&i, store.hash(&i), SIZE_MAX);
        ASSERT_FALSE(r.inserted);
        ASSERT_EQ(r.id, i);
        ASSERT_EQ(store[r.id][0], i);
    }
    std::size_t slots = 4096;
    while (kKeys * 8 >= slots * 7) slots *= 2;
    EXPECT_EQ(slots, std::size_t{1} << 20);
    EXPECT_EQ(store.stats().slots, slots);
    EXPECT_EQ(store.stats().records, kKeys);
}

TEST(MarkingStore, MetaWordsLiveInTheRecord) {
    // Records carry caller-owned meta words after the marking payload:
    // zeroed on intern, untouched by dedup hits, stable across table
    // growth (the arena never moves records). The reachability engines
    // keep predecessor links here, so trace rebuilding must not depend on
    // any side array staying aligned with insertion order.
    MarkingStore store(1, /*meta_words=*/2);
    ASSERT_EQ(store.meta_words(), 2u);
    for (std::uint64_t i = 0; i < 3000; ++i) {
        const auto r = store.intern(&i, store.hash(&i), SIZE_MAX);
        ASSERT_TRUE(r.inserted);
        EXPECT_EQ(store.meta(r.id)[0], 0u);
        store.meta(r.id)[0] = i * 2 + 1;
        store.meta(r.id)[1] = ~i;
    }
    for (std::uint64_t i = 0; i < 3000; ++i) {
        // dedup after rehashes
        const auto r = store.intern(&i, store.hash(&i), SIZE_MAX);
        ASSERT_FALSE(r.inserted);
        EXPECT_EQ(store[r.id][0], i);              // payload intact
        EXPECT_EQ(store.meta(r.id)[0], i * 2 + 1);  // meta intact
        EXPECT_EQ(store.meta(r.id)[1], ~i);
    }
}

// -------------------------------------------------------- truncation --

TEST(Reachability, TruncationMidExpansionReportsExactStateCount) {
    // 2^12 states, capped at 100: the cap lands mid-expansion of some
    // frontier state. The engine must report truncated with
    // states_explored == max_states exactly (discovered states, no
    // overshoot, no undershoot).
    const Net net = make_toggles(12);
    ReachabilityOptions options;
    options.max_states = 100;
    ReachabilityExplorer explorer(net, options);
    const auto result = explorer.run_query({});
    EXPECT_TRUE(result.truncated);
    EXPECT_EQ(result.states_explored, 100u);
}

TEST(Reachability, TruncationConsistentAcrossQueryShapes) {
    const Net net = make_toggles(12);
    ReachabilityOptions options;
    options.max_states = 64;
    const auto dead = Predicate::deadlock();
    // An unreachable goal: all toggles simultaneously "up" is reachable,
    // so use an impossible conjunction.
    const auto never =
        Predicate::marked(net, "b0_0") && Predicate::marked(net, "b0_1");
    // A plain count, deadlock collection, one unreachable goal.
    const MultiQuery shapes[] = {
        {},
        {.goals = {&dead}, .collect_deadlocks = true},
        {.goals = {&never}},
    };
    for (std::size_t shape = 0; shape < std::size(shapes); ++shape) {
        ReachabilityExplorer explorer(net, options);
        const auto result = explorer.run_query(shapes[shape]);
        EXPECT_TRUE(result.truncated) << shape;
        EXPECT_EQ(result.states_explored, 64u) << shape;
        for (const auto& witness : result.goals) {
            EXPECT_FALSE(witness.has_value()) << shape;
        }
    }
}

TEST(Reachability, NoTruncationAtExactFit) {
    const Net net = make_toggles(5);  // exactly 32 states
    ReachabilityOptions options;
    options.max_states = 32;
    ReachabilityExplorer explorer(net, options);
    const auto result = explorer.run_query({});
    EXPECT_FALSE(result.truncated);
    EXPECT_EQ(result.states_explored, 32u);
}

// ------------------------------------------------------- multi-goal --

TEST(Reachability, FindAllAnswersEveryGoalInOnePass) {
    const Net net = make_mixed();
    const auto g_dst = Predicate::marked(net, "dst");
    const auto g_mid = Predicate::marked(net, "mid");
    const auto g_dead = Predicate::deadlock();
    const auto g_never =
        Predicate::marked(net, "src") && Predicate::marked(net, "mid");

    ReachabilityExplorer explorer(net);
    const auto multi =
        explorer.run_query({.goals = {&g_dst, &g_mid, &g_dead, &g_never}});
    const auto& results = multi.goals;
    ASSERT_EQ(results.size(), 4u);

    EXPECT_TRUE(results[0].has_value());
    EXPECT_TRUE(results[1].has_value());
    // The self-loop on dst keeps every dst-holding state live, and the
    // remaining states always offer move/fwd/drop: no deadlock.
    EXPECT_FALSE(results[2].has_value());
    EXPECT_FALSE(results[3].has_value());  // move consumes src before mid

    // Witnesses are BFS-shortest per goal.
    EXPECT_EQ(results[1]->trace.to_string(net), "move");

    // One pass answered them all, to the end.
    EXPECT_FALSE(multi.truncated);
}

TEST(Reachability, FindAllMatchesIndividualFinds) {
    const Net net = make_toggles(5);
    const auto g1 = Predicate::marked(net, "b3_1");
    const auto g2 = Predicate::marked(net, "b0_1") &&
                    Predicate::marked(net, "b4_1");

    ReachabilityExplorer multi(net);
    const auto together = multi.run_query({.goals = {&g1, &g2}}).goals;

    ReachabilityExplorer single(net);
    const auto alone1 = single.run_query({.goals = {&g1}}).goals[0];
    const auto alone2 = single.run_query({.goals = {&g2}}).goals[0];

    ASSERT_TRUE(together[0].has_value());
    ASSERT_TRUE(together[1].has_value());
    ASSERT_TRUE(alone1.has_value());
    ASSERT_TRUE(alone2.has_value());
    EXPECT_EQ(together[0]->trace.firings.size(),
              alone1->trace.firings.size());
    EXPECT_EQ(together[1]->trace.firings.size(),
              alone2->trace.firings.size());
    EXPECT_EQ(together[0]->marking, alone1->marking);
}

TEST(Reachability, RunQueryCombinesGoalsDeadlocksAndPersistence) {
    // Choice net: firing either competitor disables the other, and the
    // sink state is a deadlock.
    Net net("choice");
    const auto a = net.add_place("a", true);
    const auto b = net.add_place("b", false);
    const auto c = net.add_place("c", false);
    const auto t1 = net.add_transition("t1");
    const auto t2 = net.add_transition("t2");
    net.add_input_arc(a, t1);
    net.add_output_arc(t1, b);
    net.add_input_arc(a, t2);
    net.add_output_arc(t2, c);

    const auto goal = Predicate::marked(net, "c");
    MultiQuery query;
    query.goals = {&goal};
    query.collect_deadlocks = true;
    query.check_persistence = true;

    ReachabilityExplorer explorer(net);
    const auto multi = explorer.run_query(query);
    EXPECT_EQ(multi.states_explored, 3u);
    ASSERT_EQ(multi.goals.size(), 1u);
    EXPECT_TRUE(multi.goals[0].has_value());
    EXPECT_EQ(multi.deadlocks.size(), 2u);  // {b} and {c}
    ASSERT_FALSE(multi.persistence_violations.empty());
    EXPECT_NE(multi.persistence_violations[0].fired,
              multi.persistence_violations[0].disabled);
}

// ------------------------------------------------- first-match witness --

TEST(Reachability, ExhaustiveSearchKeepsFirstWitness) {
    // dst is first reachable via the one-step "drop" firing; deeper
    // matches (via move -> fwd) must NOT overwrite the witness when the
    // exploration continues past the first match.
    const Net net = make_mixed();
    ReachabilityOptions options;
    options.stop_at_first_match = false;
    ReachabilityExplorer explorer(net, options);
    const auto goal = Predicate::marked(net, "dst");
    const auto result = explorer.run_query({.goals = {&goal}});
    const auto& witness = result.goals[0];
    ASSERT_TRUE(witness.has_value());
    EXPECT_EQ(witness->trace.firings.size(), 1u);
    EXPECT_EQ(witness->trace.to_string(net), "drop");
    // The pass itself ran to exhaustion.
    EXPECT_EQ(result.states_explored, testfx::naive_explore(net).states);
}

// ------------------------------------------------------- determinism --

TEST(Reachability, TracesDeterministicAcrossRuns) {
    const Net net = make_toggles(6);
    const auto goal = Predicate::marked(net, "b2_1") &&
                      Predicate::marked(net, "b5_1");
    std::vector<TransitionId> first_firings;
    std::size_t first_states = 0;
    for (int run = 0; run < 3; ++run) {
        ReachabilityExplorer explorer(net);
        const auto result = explorer.run_query({.goals = {&goal}});
        ASSERT_TRUE(result.goals[0].has_value());
        if (run == 0) {
            first_firings = result.goals[0]->trace.firings;
            first_states = result.states_explored;
        } else {
            EXPECT_EQ(result.goals[0]->trace.firings, first_firings);
            EXPECT_EQ(result.states_explored, first_states);
        }
    }
}

TEST(Reachability, WitnessTracesReplayFromPredecessorRecords) {
    // Regression for the in-record predecessor links: every reported
    // witness trace must replay firing-by-firing from the initial
    // marking and land exactly on its witness. A predecessor link that
    // silently depended on store insertion order (the old side-array
    // scheme) breaks this the moment records are visited out of order.
    for (const Net& net : {make_ring(), make_toggles(6), make_mixed()}) {
        ReachabilityOptions options;
        options.stop_at_first_match = false;  // witnesses kept, pass runs on
        ReachabilityExplorer explorer(net, options);
        for (std::uint32_t pi = 0; pi < net.place_count(); ++pi) {
            const auto goal =
                Predicate::marked(net, net.place_name(PlaceId{pi}));
            const auto witness =
                explorer.run_query({.goals = {&goal}}).goals[0];
            if (!witness) continue;
            Marking m = net.initial_marking();
            for (const TransitionId t : witness->trace.firings) {
                ASSERT_TRUE(net.is_enabled(m, t))
                    << net.name() << ": trace fires disabled "
                    << net.transition_name(t);
                net.fire(m, t);
            }
            EXPECT_EQ(m, witness->marking)
                << net.name() << " goal " << net.place_name(PlaceId{pi});
        }
    }
}

TEST(Reachability, ExplorerInstanceIsReusable) {
    const Net net = make_ring();
    ReachabilityExplorer explorer(net);
    EXPECT_EQ(explorer.run_query({}).states_explored, 2u);
    const auto goal = Predicate::marked(net, "p1");
    EXPECT_TRUE(explorer.run_query({.goals = {&goal}}).goals[0].has_value());
    EXPECT_EQ(explorer.run_query({}).states_explored, 2u);
}

// --------------------------------------------------- memory accounting --

/// `n` toggles plus `dead` permanently disabled transitions. The dead
/// transitions all consume one never-marked place, so they never fire and
/// change nothing about the reachable set — but they widen every
/// enabled-set row, making the frontier cache's transient rows the
/// dominant memory term instead of the interned store.
Net make_wide_toggles(int n, int dead) {
    Net net = make_toggles(n);
    const auto never = net.add_place("never", false);
    for (int i = 0; i < dead; ++i) {
        const auto t = net.add_transition("dead" + std::to_string(i));
        net.add_input_arc(never, t);
    }
    return net;
}

TEST(Reachability, PeakMemoryCapturesMidPassFrontierSpike) {
    // Regression: the sequential engine used to sample peak memory only
    // at frontier-release boundaries, so enabled-row blocks allocated
    // and given back *between* two boundaries never showed up in
    // peak_bytes and the reported peak collapsed to the end-of-pass
    // resident footprint. 15 toggles give 2^15 states in a binomial
    // layer profile whose widest live window holds ~12k rows; 4066 dead
    // transitions fatten each row to 64 words, so the transient rows
    // dwarf both the interned store and the single row block still
    // resident after the last layer drains. A correct sampler must
    // therefore report a peak strictly above the final resident bytes.
    const Net net = make_wide_toggles(15, 4066);
    const CompiledNet compiled(net);
    ReachabilityOptions options;
    options.max_states = std::size_t{1} << 16;
    ReachabilityExplorer explorer(compiled, options);
    const auto result = explorer.run_query({});
    ASSERT_EQ(result.states_explored, std::size_t{1} << 15);
    ASSERT_FALSE(result.truncated);
    EXPECT_GT(result.memory.peak_bytes, result.memory.resident_bytes);

    // Keeping every row resident would add one enabled-set row per state
    // on top of the final footprint, which bounds the peak from above:
    // the spike the sampler reports is a genuine intermediate, not the
    // whole undieted cache.
    const std::size_t every_row = result.states_explored *
                                  compiled.enabled_words() *
                                  sizeof(std::uint64_t);
    EXPECT_LT(result.memory.peak_bytes,
              result.memory.resident_bytes + every_row);
}

TEST(Reachability, AbortedPassReportsItsWholeFootprint) {
    // A goal that throws on its 5,000th evaluation kills the pass at its
    // 5,000th state (each newly interned state is evaluated once), with
    // enabled-set rows live beside the store. The footprint
    // ExplorationAborted carries must count them, and the peak sampled
    // so far, not the store alone.
    const testfx::Fixture fixture = testfx::ope_fixture(3, 3);
    std::size_t evaluations = 0;
    const Predicate doomed = Predicate::custom(
        "throws on its 5,000th evaluation",
        [&evaluations](const Net&, const Marking&) -> bool {
            if (++evaluations == 5000) {
                throw std::runtime_error("goal evaluation 5000 failed");
            }
            return false;
        });
    ReachabilityExplorer explorer(fixture.net);
    try {
        explorer.run_query({.goals = {&doomed}});
        FAIL() << "the pass survived its throwing goal";
    } catch (const ExplorationAborted& e) {
        EXPECT_STREQ(e.what(), "goal evaluation 5000 failed");
        const MemoryStats& memory = e.memory;
        EXPECT_EQ(memory.store.records, 5000u);
        EXPECT_GT(memory.resident_bytes,
                  memory.store.arena_bytes + memory.store.table_bytes);
        EXPECT_GE(memory.peak_bytes, memory.resident_bytes);
    }
}

// ------------------------------------------------ naive-oracle zoo --

/// The fixture zoo plus the 24 seeded fuzz topologies.
std::vector<testfx::Fixture> zoo_and_fuzz_fixtures() {
    std::vector<testfx::Fixture> fixtures = testfx::all_fixtures();
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        fixtures.push_back(testfx::fuzz_fixture(seed));
    }
    return fixtures;
}

TEST(CompactStore, DifferentialZooAgainstTheNaiveOracle) {
    // The engine on its compact store layout against the naive oracle:
    // the interpreted Net semantics with nothing shared with the engine.
    // The zoo and the 24 fuzz seeds must reproduce its states, edges and
    // deadlock set exactly.
    MultiQuery query;
    query.collect_deadlocks = true;
    for (const testfx::Fixture& fixture : zoo_and_fuzz_fixtures()) {
        const testfx::NaiveAnswer naive = testfx::naive_explore(fixture.net);
        const CompiledNet compiled(fixture.net);
        ReachabilityOptions options;
        options.stop_at_first_match = false;
        const MultiResult result =
            ReachabilityExplorer(compiled, options).run_query(query);
        EXPECT_FALSE(result.truncated) << fixture.name;
        EXPECT_EQ(result.states_explored, naive.states) << fixture.name;
        EXPECT_EQ(result.edges_explored, naive.edges) << fixture.name;
        EXPECT_EQ(testfx::sorted(result.deadlocks), naive.deadlocks)
            << fixture.name;
        EXPECT_EQ(result.memory.store.records, naive.states) << fixture.name;
    }
}

TEST(PersistenceOracle, ViolationSetsMatchTheNaiveOracle) {
    // The engine reports violations through its persistence scan
    // (CompiledNet::disables against the head's enabled set). The naive
    // oracle fires every enabled pair under the interpreted Net semantics
    // instead. Full passes (no POR), every violation kept, the zoo and
    // the 24 fuzz seeds.
    MultiQuery query;
    query.check_persistence = true;
    ASSERT_EQ(query.persistence_max_violations, SIZE_MAX);
    std::size_t total = 0;
    for (const testfx::Fixture& fixture : zoo_and_fuzz_fixtures()) {
        const testfx::NaiveAnswer naive =
            testfx::naive_explore(fixture.net, true);
        total += naive.violations.size();
        const CompiledNet compiled(fixture.net);
        ReachabilityOptions options;
        options.stop_at_first_match = false;
        const MultiResult result =
            ReachabilityExplorer(compiled, options).run_query(query);
        EXPECT_FALSE(result.truncated) << fixture.name;
        EXPECT_EQ(result.states_explored, naive.states) << fixture.name;
        EXPECT_EQ(testfx::violation_set(result.persistence_violations),
                  naive.violations)
            << fixture.name;
    }
    EXPECT_GT(total, 0u) << "no fixture has a violation to compare";
}

TEST(PersistenceOracle, FirstViolationStopMatchesTheExhaustivePass) {
    // The one stop rule: under stop_at_first_match, a pass asking for one
    // violation ends once it is in. It must be exactly the exhaustive
    // pass's first violation, and a reduced pass must agree on the
    // verdict.
    MultiQuery every;
    every.check_persistence = true;
    MultiQuery first = every;
    first.persistence_max_violations = 1;
    std::size_t compared = 0;
    for (const testfx::Fixture& fixture : zoo_and_fuzz_fixtures()) {
        const CompiledNet compiled(fixture.net);
        ReachabilityOptions exhaustive;
        exhaustive.stop_at_first_match = false;
        const MultiResult all =
            ReachabilityExplorer(compiled, exhaustive).run_query(every);
        ASSERT_FALSE(all.truncated) << fixture.name;
        if (all.persistence_violations.empty()) continue;
        ++compared;

        ReachabilityOptions stopping;
        ASSERT_TRUE(stopping.stop_at_first_match);
        const MultiResult stopped =
            ReachabilityExplorer(compiled, stopping).run_query(first);
        EXPECT_FALSE(stopped.truncated) << fixture.name;
        // The violating state enables at least two transitions and is
        // never expanded.
        EXPECT_LT(stopped.edges_explored, all.edges_explored)
            << fixture.name << ": the pass did not stop at its violation";
        ASSERT_EQ(stopped.persistence_violations.size(), 1u) << fixture.name;
        const PersistenceViolation& got = stopped.persistence_violations[0];
        const PersistenceViolation& want = all.persistence_violations[0];
        EXPECT_EQ(got.marking, want.marking) << fixture.name;
        EXPECT_EQ(got.fired, want.fired) << fixture.name;
        EXPECT_EQ(got.disabled, want.disabled) << fixture.name;
        EXPECT_EQ(got.trace_to_marking.firings, want.trace_to_marking.firings)
            << fixture.name;

        stopping.por = true;
        const MultiResult reduced =
            ReachabilityExplorer(compiled, stopping).run_query(first);
        EXPECT_FALSE(reduced.truncated) << fixture.name;
        ASSERT_EQ(reduced.persistence_violations.size(), 1u) << fixture.name;
        const auto keys = testfx::violation_set(all.persistence_violations);
        EXPECT_TRUE(std::binary_search(
            keys.begin(), keys.end(),
            testfx::violation_set(reduced.persistence_violations).front()))
            << fixture.name << ": reduced violation not in the full set";
    }
    EXPECT_GT(compared, 0u) << "no fixture has a violation to compare";
}

// ------------------------------------------------- discovery order --

/// `n` independent binary choices: c<i> starts marked, and a<i> / b<i>
/// move its token to l<i> / r<i>. 3^n states and 2^n deadlocks, and each
/// undecided choice is a pair of mutual persistence violations.
Net make_choices(int n) {
    Net net("choices");
    for (int i = 0; i < n; ++i) {
        const std::string k = std::to_string(i);
        const auto c = net.add_place("c" + k, true);
        const auto l = net.add_place("l" + k, false);
        const auto r = net.add_place("r" + k, false);
        const auto a = net.add_transition("a" + k);
        net.add_input_arc(c, a);
        net.add_output_arc(a, l);
        const auto b = net.add_transition("b" + k);
        net.add_input_arc(c, b);
        net.add_output_arc(b, r);
    }
    return net;
}

void fnv_fold(std::uint64_t& h, std::uint64_t word) {
    h ^= word;
    h *= 1099511628211ULL;
}

TEST(DiscoveryOrder, DeadlockAndViolationListsArePinned) {
    // Deadlocks and violations come out in state-id order, and ids are
    // handed out in interning order, so these two hashes pin the
    // engine's discovery order through its public results. The table
    // grows five times on the way (4096 to 131,072 slots). The values
    // were recorded on the engine that interned one successor at a time.
    const Net net = make_choices(10);
    MultiQuery query;
    query.collect_deadlocks = true;
    query.check_persistence = true;
    ReachabilityOptions options;
    options.stop_at_first_match = false;
    const MultiResult result =
        ReachabilityExplorer(net, options).run_query(query);
    ASSERT_EQ(result.states_explored, 59'049u);
    ASSERT_EQ(result.deadlocks.size(), 1'024u);
    ASSERT_EQ(result.persistence_violations.size(), 393'660u);
    std::uint64_t deadlocks = 1469598103934665603ULL;
    for (const Marking& m : result.deadlocks) {
        for (std::size_t w = 0; w < m.word_count(); ++w) {
            fnv_fold(deadlocks, m.word_data()[w]);
        }
    }
    std::uint64_t violations = 1469598103934665603ULL;
    for (const PersistenceViolation& v : result.persistence_violations) {
        for (std::size_t w = 0; w < v.marking.word_count(); ++w) {
            fnv_fold(violations, v.marking.word_data()[w]);
        }
        fnv_fold(violations, v.fired.value);
        fnv_fold(violations, v.disabled.value);
    }
    EXPECT_EQ(deadlocks, 12303155330813055875ULL);
    EXPECT_EQ(violations, 4729014869784321323ULL);
}

TEST(DiscoveryOrder, DebugLoopWitnessesArePinned) {
    // The two ring bugs of perfbench's debug loop on the s3/d3 OPE: the
    // standard check stops at its first finding, and the whole witness
    // trace (BFS-shortest, first discovered) is pinned name by name.
    auto design = flow::make_design(ope::build_reconfigurable_ope_dfs(3, 3));
    const auto& stages = design->pipeline().stages;
    struct Bug {
        pipeline::ControlRing ring;
        std::size_t states;
        std::vector<std::string> trace;
    };
    const std::vector<Bug> bugs = {
        {stages[1].global_ring, 1'904,
         {"M_in+", "M_s1_local_in+", "M_s1_global_in+", "C_s1_f+",
          "M_s1_local_out+", "C_s1_g+", "M_s1_global_out+",
          "Mf_s2_gctrl_c2+", "Mf_s2_local_in+", "Mf_s2_global_in+",
          "Mf_s2_global_out+", "Mf_s2_gctrl_c1-", "Mf_s2_gctrl_c3+",
          "Mf_s2_gctrl_c2-", "Mt_s3_gctrl_c2+", "Mt_s3_lctrl_c2+",
          "Mt_s3_global_in+", "M_in-", "M_s1_local_in-", "M_s1_global_in-",
          "C_s1_f-", "M_s1_local_out-", "C_s1_g-", "Mf_s2_local_in-",
          "Mf_s2_global_in-"}},
        {stages[2].local_ring, 5'786,
         {"M_in+", "M_s1_local_in+", "M_s1_global_in+", "C_s1_f+",
          "M_s1_local_out+", "C_s1_g+", "M_s1_global_out+",
          "Mt_s2_gctrl_c2+", "Mt_s2_local_in+", "Mt_s2_global_in+",
          "C_s2_f+", "M_s2_local_out+", "C_s2_g+", "Mt_s2_global_out+",
          "Mt_s2_gctrl_c1-", "Mt_s2_gctrl_c3+", "Mt_s2_gctrl_c2-",
          "Mt_s3_gctrl_c2+", "Mf_s3_lctrl_c2+", "Mf_s3_local_in+",
          "Mf_s3_lctrl_c1-", "Mf_s3_lctrl_c3+", "Mf_s3_lctrl_c2-",
          "Mt_s3_global_in+", "M_in-", "M_s1_local_in-", "M_s1_global_in-",
          "C_s1_f-", "M_s1_local_out-", "C_s1_g-", "Mt_s2_local_in-",
          "Mt_s2_global_in-", "C_s2_f-", "M_s2_local_out-", "C_s2_g-",
          "Mf_s3_local_in-", "Mf_s3_lctrl_c1+", "Mf_s3_lctrl_c3-",
          "Mf_s3_lctrl_c2+"}},
    };
    for (const Bug& bug : bugs) {
        design->reset_ring(bug.ring, dfs::TokenValue::False);
        const verify::Report report = design->verify();
        const auto finding =
            std::find_if(report.findings.begin(), report.findings.end(),
                         [](const verify::Finding& f) { return f.violated; });
        ASSERT_NE(finding, report.findings.end());
        EXPECT_EQ(finding->property, verify::Property::Deadlock);
        EXPECT_EQ(finding->states_explored, bug.states);
        EXPECT_EQ(finding->trace, bug.trace);
        design->reset_ring(bug.ring, dfs::TokenValue::True);
    }
}

// ------------------------------------------------------- stop hook ------

TEST(StopHook, FiresWithinEdgeBoundOnReducedPasses) {
    // Regression: the stop hook used to be polled on interned *states*
    // only (every 2048), so a heavily POR-reduced pass — few fresh
    // states, many edges — could run far past a cancel. The engine
    // also polls every 256 expanded edges; with a hook that trips right
    // after its first call the pass must stop within a small edge
    // budget, nowhere near the fixture's full reduced exploration.
    const testfx::Fixture fixture = testfx::ope_fixture(3, 3);
    const CompiledNet compiled(fixture.net);
    MultiQuery query;
    query.collect_deadlocks = true;

    std::atomic<std::size_t> calls{0};
    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.por = true;
    options.stop = [&calls] {
        return calls.fetch_add(1, std::memory_order_relaxed) >= 1;
    };
    ReachabilityExplorer explorer(compiled, options);
    const auto result = explorer.run_query(query);
    EXPECT_TRUE(result.truncated);
    // Polls at head & 2047 == 0 states AND every 256 edges, so after the
    // hook trips at most 256 edges can pass.
    EXPECT_LE(result.edges_explored, 512u) << "edge poll missed its bound";
}

// ----------------------------------------------------- memory contract --

TEST(MemoryDiet, CacheDropsEnabledShareAndKeepsResultsBitIdentical) {
    // The frontier-only enabled-set cache: records carry the marking and
    // the witness meta word only — the enabled bitsets live in a row
    // arena whose blocks are released behind the frontier — and the
    // results stay bit-identical whether the explorer is fresh or reused
    // (a reused explorer re-runs on its cleared store).
    const testfx::Fixture fixture = testfx::ope_fixture(3, 3);
    const CompiledNet compiled(fixture.net);
    const testfx::QueryBundle bundle(fixture.net);

    ReachabilityOptions options;
    options.stop_at_first_match = false;
    ReachabilityExplorer explorer(compiled, options);
    const auto first = explorer.run_query(bundle.query);
    const auto again = explorer.run_query(bundle.query);
    const auto fresh =
        ReachabilityExplorer(compiled, options).run_query(bundle.query);
    testfx::expect_identical_passes(fixture.net, first, again,
                                    "ope_s3_d3 reused explorer");
    testfx::expect_identical_passes(fixture.net, first, fresh,
                                    "ope_s3_d3 fresh explorer");

    // Record bytes are (marking + 1 meta word) per state. Block
    // granularity makes the measured count approximate; 5% covers it at
    // 191k states. Keeping the rows in the records instead would add
    // enabled_words() words to every one of them.
    const std::size_t mwords = compiled.marking_words();
    const std::size_t twords = compiled.enabled_words();
    const MemoryStats& memory = first.memory;
    const std::size_t states = first.states_explored;
    EXPECT_EQ(memory.store.records, states);
    const double expected_records =
        static_cast<double>(states * (mwords + 1) * sizeof(std::uint64_t));
    EXPECT_NEAR(
        static_cast<double>(memory.store.arena_bytes) / expected_records, 1.0,
        0.05)
        << "records must not carry enabled words";
    EXPECT_LT(memory.resident_bytes,
              states * (mwords + 1 + twords) * sizeof(std::uint64_t) +
                  memory.store.table_bytes);
    EXPECT_GE(memory.peak_bytes, memory.resident_bytes);
}

TEST(MemoryDiet, StatsSurfaceThroughVerifierAndDesign) {
    // The engine's footprint rides the facades: verify() puts it in the
    // report it returns.
    flow::Design design(ope::build_reconfigurable_ope_dfs(3, 3));
    const auto report = design.verify();
    ASSERT_TRUE(report.clean());
    const MemoryStats& stats = report.memory;
    EXPECT_EQ(stats.store.records, report.findings[0].states_explored);
    EXPECT_GT(stats.store.arena_bytes, 0u);
    EXPECT_GT(stats.resident_bytes, stats.store.arena_bytes);
    EXPECT_GE(stats.peak_bytes, stats.resident_bytes);

    // The enabled bitsets never live in the records (the memory diet):
    // record bytes stay below what in-record rows would need.
    const CompiledNet& compiled = design.compiled_net();
    EXPECT_LT(stats.store.arena_bytes,
              stats.store.records *
                  (compiled.marking_words() + 1 + compiled.enabled_words()) *
                  sizeof(std::uint64_t));
}

TEST(MemoryDiet, BytesPerStateStayUnderTheCapacityCeilings) {
    // The marking store's bytes per state after an untruncated
    // exhaustive pass. Table and arena geometry depend on the record
    // count alone, so the figure is the same on every build and runner.
    // The ceilings sit ~15% above the measured values: a store that
    // grows its records or its slot head-room fails, allocator rounding
    // does not. The soak test holds the 4-stage model's ceiling.
    //
    // The deep ring is the narrow-marking end of the spectrum, where the
    // table dominates: 24 control registers carrying 3 tokens.
    dfs::Graph ring("deepring");
    std::vector<dfs::NodeId> regs;
    for (int i = 0; i < 24; ++i) {
        regs.push_back(ring.add_control("c" + std::to_string(i), i % 8 == 0,
                                        dfs::TokenValue::True));
    }
    for (int i = 0; i < 24; ++i) ring.connect(regs[i], regs[(i + 1) % 24]);

    struct Case {
        testfx::Fixture fixture;
        double ceiling;  ///< bytes/state
    };
    const Case cases[] = {
        {testfx::ope_fixture(3, 3), 41.0},               // 35.7 measured
        {{"deepring", dfs::to_petri(ring).net}, 56.0},  // 48.7 measured
    };
    for (const auto& [fixture, ceiling] : cases) {
        const CompiledNet compiled(fixture.net);
        const auto result = ReachabilityExplorer(compiled).run_query({});
        ASSERT_FALSE(result.truncated) << fixture.name;
        const StoreStats& store = result.memory.store;
        const double per_state =
            static_cast<double>(store.table_bytes + store.arena_bytes) /
            static_cast<double>(result.states_explored);
        EXPECT_LE(per_state, ceiling) << fixture.name;
    }
}

}  // namespace
}  // namespace rap::petri
