// Shared Petri-net test fixtures and differential-harness plumbing:
// the model zoo (paper-style rings/wagging/OPE plus seeded random
// topologies), the naive BFS oracle, the query/replay helpers used by
// the engine harnesses (reachability_test.cpp, por_test.cpp), and the
// compiled-index comparison the delta-build tests share. Header-only,
// test-only.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dfs/model.hpp"
#include "dfs/translate.hpp"
#include "ope/dfs_models.hpp"
#include "petri/compiled.hpp"
#include "petri/net.hpp"
#include "petri/predicate.hpp"
#include "petri/reachability.hpp"
#include "pipeline/builder.hpp"
#include "pipeline/wagging.hpp"
#include "util/rng.hpp"

namespace rap::petri::testfx {

struct Fixture {
    std::string name;
    Net net;
};

/// A depth-`d` token-ring pipeline: d+2 control registers in a loop with
/// one True token — the smallest live models of the paper's control
/// style, one per depth 1..6.
inline Fixture ring_fixture(int depth) {
    dfs::Graph g("ring_d" + std::to_string(depth));
    std::vector<dfs::NodeId> regs;
    const int n = depth + 2;
    for (int i = 0; i < n; ++i) {
        regs.push_back(g.add_control("c" + std::to_string(i), i == 0,
                                     dfs::TokenValue::True));
    }
    for (int i = 0; i < n; ++i) g.connect(regs[i], regs[(i + 1) % n]);
    return {g.name(), dfs::to_petri(g).net};
}

inline Fixture wagging_fixture() {
    dfs::Graph g("wagging");
    const auto in = g.add_register("in");
    pipeline::add_wagging_stage(g, "w", in);
    return {"wagging", dfs::to_petri(g).net};
}

inline Fixture static_ope_fixture(int stages) {
    auto p = ope::build_static_ope_dfs(stages);
    return {"ope_static_s" + std::to_string(stages),
            dfs::to_petri(p.graph).net};
}

inline Fixture ope_fixture(int stages, int depth) {
    auto p = ope::build_reconfigurable_ope_dfs(stages, depth);
    return {"ope_s" + std::to_string(stages) + "_d" + std::to_string(depth),
            dfs::to_petri(p.graph).net};
}

/// The gap misconfiguration of Section III-A: stage 2 bypassed under an
/// active stage 3 — deadlock reachable, so witness paths get exercised.
inline Fixture gap_fixture() {
    auto p = ope::build_reconfigurable_ope_dfs(3, 3);
    pipeline::reset_ring(p.graph, p.stages[1].global_ring,
                         dfs::TokenValue::False);
    return {"ope_gap", dfs::to_petri(p.graph).net};
}

/// Random nets straight from util::Rng: a few token rings (each live on
/// its own) joined by random bridge transitions that move tokens across
/// rings — real choice structure, so random persistence violations and
/// deadlocks, without degenerating into an instantly-stuck net. Read
/// arcs sprinkle in level-sensitive enabling. Not necessarily live or
/// deadlock-free — the safe-enabling semantics is total either way, and
/// every engine must agree on it exactly.
inline Fixture random_fixture(std::uint64_t seed) {
    util::Rng rng(seed);
    Net net("rand_" + std::to_string(seed));
    std::vector<PlaceId> ps;
    const int rings = 2 + static_cast<int>(rng.below(3));
    for (int r = 0; r < rings; ++r) {
        const int len = 2 + static_cast<int>(rng.below(3));
        std::vector<PlaceId> ring;
        for (int i = 0; i < len; ++i) {
            ring.push_back(net.add_place(
                "r" + std::to_string(r) + "_p" + std::to_string(i),
                i == 0));
        }
        for (int i = 0; i < len; ++i) {
            const auto t = net.add_transition(
                "r" + std::to_string(r) + "_t" + std::to_string(i));
            net.add_input_arc(ring[i], t);
            net.add_output_arc(t, ring[(i + 1) % len]);
        }
        ps.insert(ps.end(), ring.begin(), ring.end());
    }
    const int bridges = 2 + static_cast<int>(rng.below(4));
    for (int b = 0; b < bridges; ++b) {
        const auto t = net.add_transition("b" + std::to_string(b));
        const PlaceId from = ps[rng.below(ps.size())];
        PlaceId to = ps[rng.below(ps.size())];
        while (to == from) to = ps[rng.below(ps.size())];
        net.add_input_arc(from, t);
        net.add_output_arc(t, to);
        if (rng.chance(0.4)) {
            PlaceId guard = ps[rng.below(ps.size())];
            while (guard == from) guard = ps[rng.below(ps.size())];
            net.add_read_arc(guard, t);
        }
    }
    return {net.name(), std::move(net)};
}

/// Fork/join topology: a live backbone ring plus random blocks where one
/// transition forks a token into 2-3 parallel branch chains and a join
/// transition synchronises them back — real concurrency (wide layers)
/// and synchronisation (joins starve until every branch arrives).
inline Fixture fork_join_fixture(std::uint64_t seed) {
    util::Rng rng(seed ^ 0xF04BULL);
    Net net("fuzz_forkjoin_" + std::to_string(seed));
    const int len = 3 + static_cast<int>(rng.below(3));
    std::vector<PlaceId> ring;
    for (int i = 0; i < len; ++i) {
        ring.push_back(net.add_place("r_p" + std::to_string(i), i == 0));
    }
    for (int i = 0; i < len; ++i) {
        const auto t = net.add_transition("r_t" + std::to_string(i));
        net.add_input_arc(ring[i], t);
        net.add_output_arc(t, ring[(i + 1) % len]);
    }
    const int blocks = 1 + static_cast<int>(rng.below(2));
    for (int b = 0; b < blocks; ++b) {
        const std::string tag = "b" + std::to_string(b);
        const auto fork = net.add_transition(tag + "_fork");
        net.add_input_arc(ring[rng.below(ring.size())], fork);
        const auto join = net.add_transition(tag + "_join");
        const int branches = 2 + static_cast<int>(rng.below(2));
        for (int k = 0; k < branches; ++k) {
            const int hops = 1 + static_cast<int>(rng.below(2));
            PlaceId prev = net.add_place(
                tag + "_k" + std::to_string(k) + "_p0", false);
            net.add_output_arc(fork, prev);
            for (int h = 1; h <= hops; ++h) {
                const auto step = net.add_transition(
                    tag + "_k" + std::to_string(k) + "_t" +
                    std::to_string(h));
                const auto next = net.add_place(
                    tag + "_k" + std::to_string(k) + "_p" +
                    std::to_string(h), false);
                net.add_input_arc(prev, step);
                net.add_output_arc(step, next);
                prev = next;
            }
            net.add_input_arc(prev, join);
        }
        net.add_output_arc(join, ring[rng.below(ring.size())]);
    }
    return {net.name(), std::move(net)};
}

/// Bridged mesh topology: a g x g torus of places with a few tokens,
/// transitions shifting a token right/down, read-arc guards sprinkled
/// in, plus long-range bridge transitions — dense duplicate edges (many
/// paths to the same marking), the canonical-min CAS hot case.
inline Fixture mesh_fixture(std::uint64_t seed) {
    util::Rng rng(seed ^ 0x3E5AULL);
    Net net("fuzz_mesh_" + std::to_string(seed));
    const int g = 3 + static_cast<int>(rng.below(2));
    const int tokens = 2 + static_cast<int>(rng.below(2));
    std::vector<PlaceId> cell;
    for (int i = 0; i < g * g; ++i) {
        cell.push_back(
            net.add_place("m_p" + std::to_string(i), i < tokens));
    }
    auto shift = [&](int from, int to, const std::string& name) {
        const auto t = net.add_transition(name);
        net.add_input_arc(cell[from], t);
        net.add_output_arc(t, cell[to]);
        if (rng.chance(0.2)) {
            int guard = static_cast<int>(rng.below(cell.size()));
            while (guard == from) {
                guard = static_cast<int>(rng.below(cell.size()));
            }
            net.add_read_arc(cell[guard], t);
        }
    };
    for (int r = 0; r < g; ++r) {
        for (int c = 0; c < g; ++c) {
            const int i = r * g + c;
            shift(i, r * g + (c + 1) % g, "m_r" + std::to_string(i));
            shift(i, ((r + 1) % g) * g + c, "m_d" + std::to_string(i));
        }
    }
    const int bridges = static_cast<int>(rng.below(3));
    for (int b = 0; b < bridges; ++b) {
        const int from = static_cast<int>(rng.below(cell.size()));
        int to = static_cast<int>(rng.below(cell.size()));
        while (to == from) to = static_cast<int>(rng.below(cell.size()));
        shift(from, to, "m_b" + std::to_string(b));
    }
    return {net.name(), std::move(net)};
}

/// Seeded random model generator cycling through the three topology
/// classes. Every fixture name embeds the seed, so a differential
/// mismatch prints exactly what to replay.
inline Fixture fuzz_fixture(std::uint64_t seed) {
    switch (seed % 3) {
        case 0: return fork_join_fixture(seed);
        case 1: return mesh_fixture(seed);
        default: return random_fixture(seed);
    }
}

inline std::vector<Fixture> all_fixtures() {
    std::vector<Fixture> fixtures;
    for (int d = 1; d <= 6; ++d) fixtures.push_back(ring_fixture(d));
    fixtures.push_back(wagging_fixture());
    fixtures.push_back(static_ope_fixture(2));
    fixtures.push_back(ope_fixture(3, 3));
    fixtures.push_back(gap_fixture());
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        fixtures.push_back(random_fixture(seed));
    }
    return fixtures;
}

// -------------------------------------------------------- naive oracle --

/// A persistence violation as (marking, fired, disabled), the order
/// violation sets are compared in.
using ViolationKey = std::tuple<Marking, std::uint32_t, std::uint32_t>;

/// What an exhaustive full-graph pass must report, computed by the naive
/// oracle below.
struct NaiveAnswer {
    std::size_t states = 0;
    std::size_t edges = 0;  ///< sum of enabled counts over reachable markings
    std::vector<Marking> deadlocks;  ///< sorted
    /// Every (M, t, u) with t != u both enabled at a reachable M and u no
    /// longer enabled once t fired; sorted. Only filled when asked for.
    std::vector<ViolationKey> violations;
};

/// Seed-style naive BFS: the interpreted Net semantics only (full rescan
/// per state, unordered_map interning) — no CompiledNet, no marking
/// store, nothing shared with either engine, so it is an independent
/// reference for both. With `persistence`, each firing is also checked
/// against every other transition enabled before it, by re-testing
/// enabledness after the firing.
inline NaiveAnswer naive_explore(const Net& net, bool persistence = false) {
    NaiveAnswer answer;
    std::unordered_set<Marking, util::BitVecHash> seen;
    seen.max_load_factor(0.5f);  // short chains for the 842k-state zoo
    std::deque<Marking> frontier;
    const Marking m0 = net.initial_marking();
    seen.insert(m0);
    frontier.push_back(m0);
    Marking next = m0;
    while (!frontier.empty()) {
        const Marking current = std::move(frontier.front());
        frontier.pop_front();
        const auto enabled = net.enabled_transitions(current);
        answer.edges += enabled.size();
        if (enabled.empty()) answer.deadlocks.push_back(current);
        for (const TransitionId t : enabled) {
            next = current;
            net.fire(next, t);
            for (const TransitionId u : enabled) {
                if (!persistence || u == t || net.is_enabled(next, u)) {
                    continue;
                }
                answer.violations.emplace_back(current, t.value, u.value);
            }
            if (seen.insert(next).second) frontier.push_back(next);
        }
    }
    answer.states = seen.size();
    std::sort(answer.deadlocks.begin(), answer.deadlocks.end());
    std::sort(answer.violations.begin(), answer.violations.end());
    return answer;
}

// ----------------------------------------------------------- plumbing --

/// Exhaustive multi-property query over `net`: a deadlock goal, a
/// marked-place goal, full deadlock collection and persistence checking.
/// Exhaustive passes are where the differential contracts promise exact
/// equality on verdicts and sets.
struct QueryBundle {
    Predicate dead = Predicate::deadlock();
    Predicate marked;
    MultiQuery query;

    explicit QueryBundle(const Net& net)
        : marked(Predicate::marked(net, net.place_name(PlaceId{0}))) {
        query.goals = {&dead, &marked};
        query.collect_deadlocks = true;
        query.check_persistence = true;
    }
};

inline std::vector<Marking> sorted(std::vector<Marking> markings) {
    std::sort(markings.begin(), markings.end());
    return markings;
}

inline std::vector<ViolationKey> violation_set(
    const std::vector<PersistenceViolation>& violations) {
    std::vector<ViolationKey> keys;
    keys.reserve(violations.size());
    for (const auto& v : violations) {
        keys.emplace_back(v.marking, v.fired.value, v.disabled.value);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

/// Replays `trace` from the initial marking; the result must be `end`.
/// Guards witness reconstruction: a wrong predecessor step produces a
/// disabled firing or lands on the wrong marking.
inline void expect_replays(const Net& net, const Trace& trace,
                           const Marking& end, const std::string& context) {
    Marking m = net.initial_marking();
    for (const TransitionId t : trace.firings) {
        ASSERT_TRUE(net.is_enabled(m, t))
            << context << ": witness trace fires disabled "
            << net.transition_name(t);
        net.fire(m, t);
    }
    EXPECT_EQ(m, end) << context << ": witness trace misses its witness";
}

/// Full bit-equality of two passes: counters, sets, witness markings
/// AND traces, plus every witness replaying onto the net.
inline void expect_identical_passes(const Net& net, const MultiResult& a,
                                    const MultiResult& b,
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
        ASSERT_EQ(a.goals[g].has_value(), b.goals[g].has_value())
            << context << " goal " << g;
        if (!a.goals[g]) continue;
        EXPECT_EQ(a.goals[g]->marking, b.goals[g]->marking)
            << context << " goal " << g;
        EXPECT_EQ(a.goals[g]->trace.firings, b.goals[g]->trace.firings)
            << context << " goal " << g;
        expect_replays(net, b.goals[g]->trace, b.goals[g]->marking,
                       context + " goal " + std::to_string(g));
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

/// Every per-transition index of two compiled nets is equal: the
/// affected lists and the disables rows.
inline void expect_same_indexes(const CompiledNet& a, const CompiledNet& b,
                                const std::string& context) {
    ASSERT_EQ(a.transition_count(), b.transition_count()) << context;
    ASSERT_EQ(a.enabled_words(), b.enabled_words()) << context;
    for (std::uint32_t ti = 0; ti < a.transition_count(); ++ti) {
        const TransitionId t{ti};
        const auto aa = a.affected(t);
        const auto ba = b.affected(t);
        EXPECT_TRUE(std::equal(aa.begin(), aa.end(), ba.begin(), ba.end()))
            << context << ": affected(" << ti << ")";
        EXPECT_TRUE(std::equal(a.disables(t), a.disables(t) + a.enabled_words(),
                               b.disables(t)))
            << context << ": disables(" << ti << ")";
    }
}

}  // namespace rap::petri::testfx
