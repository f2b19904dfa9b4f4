// Randomised property suite: generates structurally valid DFS models and
// checks the load-bearing invariants of the semantics stack on each —
// the DFS token game and its Petri-net translation must be inseparable,
// and the translation must stay 1-safe with one-hot variable encodings.

#include <gtest/gtest.h>

#include <deque>
#include <unordered_set>

#include "dfs/dynamics.hpp"
#include "dfs/model.hpp"
#include "dfs/serialize.hpp"
#include "dfs/translate.hpp"
#include "dfs_helpers.hpp"
#include "petri/reachability.hpp"
#include "util/rng.hpp"

namespace rap::dfs {
namespace {

using testing::random_model;

class RandomModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomModel, StructurallyValid) {
    const Graph g = random_model(GetParam());
    EXPECT_TRUE(g.validate().empty());
}

TEST_P(RandomModel, SerialisationRoundTrips) {
    const Graph g = random_model(GetParam());
    const Graph loaded = from_text(to_text(g));
    EXPECT_EQ(to_text(loaded), to_text(g));
}

TEST_P(RandomModel, LockstepWithTranslation) {
    const Graph g = random_model(GetParam());
    const Dynamics dyn(g);
    const Translation tr = to_petri(g);
    State s = State::initial(g);
    petri::Marking pm = tr.net.initial_marking();
    ASSERT_EQ(pm, tr.encode(g, s));
    util::Rng rng(GetParam() * 977 + 13);
    for (int i = 0; i < 800; ++i) {
        const auto enabled = dyn.enabled_events(s);
        // Deadlock equivalence: the PN must agree exactly.
        if (enabled.empty()) {
            EXPECT_TRUE(tr.net.is_deadlocked(pm));
            break;
        }
        // Enabled-set equivalence, both directions.
        for (const auto& e : enabled) {
            const bool token = g.is_dynamic(e.node) && s.token_true(e.node);
            EXPECT_TRUE(
                tr.net.is_enabled(pm, tr.transition_for(g, e, token)));
        }
        const auto e = enabled[rng.below(enabled.size())];
        const bool token = g.is_dynamic(e.node) && s.token_true(e.node);
        const auto t = tr.transition_for(g, e, token);
        dyn.apply(s, e);
        tr.net.fire(pm, t);
        ASSERT_EQ(pm, tr.encode(g, s)) << "diverged at step " << i;
    }
}

TEST_P(RandomModel, StateSpacesAgree) {
    const Graph g = random_model(GetParam());
    const Dynamics dyn(g);

    std::unordered_set<State, StateHash> seen;
    std::deque<State> frontier;
    const State s0 = State::initial(g);
    seen.insert(s0);
    frontier.push_back(s0);
    bool truncated = false;
    while (!frontier.empty()) {
        if (seen.size() > 60000) {
            truncated = true;
            break;
        }
        const State s = frontier.front();
        frontier.pop_front();
        for (const auto& e : dyn.enabled_events(s)) {
            State next = s;
            dyn.apply(next, e);
            if (seen.insert(next).second) frontier.push_back(next);
        }
    }
    if (truncated) GTEST_SKIP() << "state space above the fuzz cap";

    const Translation tr = to_petri(g);
    petri::ReachabilityExplorer explorer(tr.net);
    EXPECT_EQ(explorer.run_query({}).states_explored, seen.size());
}

TEST_P(RandomModel, TranslationStaysOneHotSafe) {
    const Graph g = random_model(GetParam());
    const Translation tr = to_petri(g);

    petri::ReachabilityOptions options;
    options.max_states = 60000;
    options.stop_at_first_match = true;
    petri::ReachabilityExplorer explorer(tr.net, options);

    // A marking violating any variable's one-hot encoding would mean the
    // translation lost 1-safety.
    auto violates = [&g, &tr](const petri::Net&, const petri::Marking& m) {
        for (const NodeId n : g.nodes()) {
            const auto& slots = tr.places[n.value];
            if (g.is_logic(n)) {
                if (m.get(slots.c0.value) == m.get(slots.c1.value)) {
                    return true;
                }
                continue;
            }
            if (m.get(slots.m0.value) == m.get(slots.m1.value)) return true;
            if (g.is_dynamic(n)) {
                if (m.get(slots.mt0.value) == m.get(slots.mt1.value)) {
                    return true;
                }
                if (m.get(slots.mf0.value) == m.get(slots.mf1.value)) {
                    return true;
                }
                // Mt and Mf are mutually exclusive.
                if (m.get(slots.mt1.value) && m.get(slots.mf1.value)) {
                    return true;
                }
            }
        }
        return false;
    };
    const auto goal = petri::Predicate::custom("one-hot violation", violates);
    const petri::MultiResult result = explorer.run_query({.goals = {&goal}});
    // A truncated pass would leave markings past the cap unchecked.
    EXPECT_FALSE(result.truncated) << result.states_explored << " states";
    const auto& witness = result.goals[0];
    EXPECT_FALSE(witness.has_value())
        << tr.net.describe_marking(witness->marking);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModel,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace rap::dfs
