#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "dfs/dynamics.hpp"
#include "dfs/simulator.hpp"
#include "dfs_helpers.hpp"
#include "dfs_reference.hpp"
#include "ope/dfs_models.hpp"
#include "pipeline/builder.hpp"
#include "pipeline/wagging.hpp"
#include "util/rng.hpp"

namespace rap::dfs {
namespace {

using testing::add_control_ring;
using testing::add_linear_pipeline;
using testing::make_fig1b;

/// Asserts the event is enabled, then applies it.
void step(const Dynamics& dyn, State& s, NodeId n, EventKind k) {
    const Event e{n, k};
    ASSERT_TRUE(dyn.is_enabled(s, e))
        << "event " << to_string(k) << " on node "
        << dyn.graph().node_name(n) << " not enabled at "
        << s.describe(dyn.graph());
    dyn.apply(s, e);
}

// ----------------------------------------------------- basic enabling --

TEST(Dynamics, SourceRegisterSelfMarks) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    const State s = State::initial(m.graph);
    // `in` has no preset: the environment can always supply a token while
    // the R-postset has space.
    EXPECT_TRUE(dyn.is_enabled(s, {m.in, EventKind::Mark}));
    // Nothing else can move yet.
    EXPECT_EQ(dyn.enabled_events(s).size(), 1u);
}

TEST(Dynamics, LogicWaitsForPresetRegisters) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    State s = State::initial(m.graph);
    EXPECT_FALSE(dyn.is_enabled(s, {m.cond, EventKind::LogicEvaluate}));
    step(dyn, s, m.in, EventKind::Mark);
    EXPECT_TRUE(dyn.is_enabled(s, {m.cond, EventKind::LogicEvaluate}));
}

TEST(Dynamics, FreeControlChoiceIsNonDeterministic) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    State s = State::initial(m.graph);
    step(dyn, s, m.in, EventKind::Mark);
    step(dyn, s, m.cond, EventKind::LogicEvaluate);
    // Fig. 4: Mt_ctrl+ and Mf_ctrl+ are simultaneously enabled.
    EXPECT_TRUE(dyn.is_enabled(s, {m.ctrl, EventKind::MarkTrue}));
    EXPECT_TRUE(dyn.is_enabled(s, {m.ctrl, EventKind::MarkFalse}));
}

TEST(Dynamics, PushFollowsControlPolarity) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    State s = State::initial(m.graph);
    step(dyn, s, m.in, EventKind::Mark);
    step(dyn, s, m.cond, EventKind::LogicEvaluate);
    step(dyn, s, m.ctrl, EventKind::MarkTrue);
    EXPECT_TRUE(dyn.is_enabled(s, {m.filt, EventKind::MarkTrue}));
    EXPECT_FALSE(dyn.is_enabled(s, {m.filt, EventKind::MarkFalse}));
}

// ------------------------------------- full True-path (compute) cycle --

TEST(Dynamics, TruePathPropagatesThroughComp) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    State s = State::initial(m.graph);

    step(dyn, s, m.in, EventKind::Mark);
    step(dyn, s, m.cond, EventKind::LogicEvaluate);
    step(dyn, s, m.ctrl, EventKind::MarkTrue);
    step(dyn, s, m.filt, EventKind::MarkTrue);
    // comp accepts the real token from the true-marked push.
    step(dyn, s, m.comp, EventKind::Mark);
    // out (pop, true-controlled) behaves like a static register.
    EXPECT_FALSE(dyn.is_enabled(s, {m.out, EventKind::MarkFalse}));
    step(dyn, s, m.out, EventKind::MarkTrue);

    // Return-to-zero wave.
    step(dyn, s, m.in, EventKind::Unmark);
    step(dyn, s, m.cond, EventKind::LogicReset);
    step(dyn, s, m.ctrl, EventKind::Unmark);
    step(dyn, s, m.filt, EventKind::Unmark);
    step(dyn, s, m.comp, EventKind::Unmark);
    step(dyn, s, m.out, EventKind::Unmark);

    EXPECT_EQ(s, State::initial(m.graph));
}

// ------------------------------------- full False-path (bypass) cycle --

TEST(Dynamics, FalsePathBypassesComp) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    State s = State::initial(m.graph);

    step(dyn, s, m.in, EventKind::Mark);
    step(dyn, s, m.cond, EventKind::LogicEvaluate);
    step(dyn, s, m.ctrl, EventKind::MarkFalse);

    // filt consumes-and-destroys; out self-produces the empty token.
    EXPECT_FALSE(dyn.is_enabled(s, {m.filt, EventKind::MarkTrue}));
    step(dyn, s, m.filt, EventKind::MarkFalse);
    step(dyn, s, m.out, EventKind::MarkFalse);

    // comp never sees the destroyed token.
    EXPECT_FALSE(dyn.is_enabled(s, {m.comp, EventKind::Mark}));

    step(dyn, s, m.in, EventKind::Unmark);
    step(dyn, s, m.cond, EventKind::LogicReset);
    // ctrl unmarks even though its postset pop is Mf-marked: the pop
    // latching a False configuration token acknowledges it.
    step(dyn, s, m.ctrl, EventKind::Unmark);
    step(dyn, s, m.filt, EventKind::Unmark);
    step(dyn, s, m.out, EventKind::Unmark);

    EXPECT_EQ(s, State::initial(m.graph));
    EXPECT_FALSE(s.marked(m.comp));
}

TEST(Dynamics, DestroyedTokenDoesNotReleaseDownstreamWait) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    State s = State::initial(m.graph);
    step(dyn, s, m.in, EventKind::Mark);
    step(dyn, s, m.cond, EventKind::LogicEvaluate);
    step(dyn, s, m.ctrl, EventKind::MarkFalse);
    step(dyn, s, m.filt, EventKind::MarkFalse);
    // The false push unmarks without comp ever marking, but only after
    // its whole R-preset (in and ctrl) has unmarked.
    EXPECT_FALSE(dyn.is_enabled(s, {m.filt, EventKind::Unmark}));
    step(dyn, s, m.out, EventKind::MarkFalse);
    step(dyn, s, m.in, EventKind::Unmark);
    step(dyn, s, m.cond, EventKind::LogicReset);
    EXPECT_FALSE(dyn.is_enabled(s, {m.filt, EventKind::Unmark}));
    step(dyn, s, m.ctrl, EventKind::Unmark);
    EXPECT_TRUE(dyn.is_enabled(s, {m.filt, EventKind::Unmark}));
}

TEST(Dynamics, SpacerDisciplinePreventsOverrun) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    State s = State::initial(m.graph);
    step(dyn, s, m.in, EventKind::Mark);
    step(dyn, s, m.cond, EventKind::LogicEvaluate);
    step(dyn, s, m.ctrl, EventKind::MarkFalse);
    step(dyn, s, m.filt, EventKind::MarkFalse);
    step(dyn, s, m.out, EventKind::MarkFalse);
    step(dyn, s, m.in, EventKind::Unmark);
    // `in` cannot re-mark while ctrl/filt still hold the previous token.
    EXPECT_FALSE(dyn.is_enabled(s, {m.in, EventKind::Mark}));
}

// -------------------------------------------------- 3-register loops --

TEST(Dynamics, ThreeRegisterControlLoopOscillates) {
    Graph g("ring3");
    const auto ring = add_control_ring(g, "loop", TokenValue::True);
    const Dynamics dyn(g);
    State s = State::initial(g);

    // One full oscillation: the token visits every register and the state
    // returns to a rotation; 6 events bring it back to the start.
    step(dyn, s, ring.c2, EventKind::MarkTrue);
    step(dyn, s, ring.c1, EventKind::Unmark);
    step(dyn, s, ring.c3, EventKind::MarkTrue);
    step(dyn, s, ring.c2, EventKind::Unmark);
    step(dyn, s, ring.c1, EventKind::MarkTrue);
    step(dyn, s, ring.c3, EventKind::Unmark);
    EXPECT_EQ(s, State::initial(g));
}

TEST(Dynamics, ControlLoopPreservesTokenPolarity) {
    Graph g("ring3f");
    const auto ring = add_control_ring(g, "loop", TokenValue::False);
    const Dynamics dyn(g);
    State s = State::initial(g);
    // Only the False polarity can propagate.
    EXPECT_FALSE(dyn.is_enabled(s, {ring.c2, EventKind::MarkTrue}));
    step(dyn, s, ring.c2, EventKind::MarkFalse);
    EXPECT_TRUE(s.marked_false(g, ring.c2));
}

TEST(Dynamics, TwoRegisterLoopDeadlocks) {
    Graph g("ring2");
    const auto c1 = g.add_control("c1", true, TokenValue::True);
    const auto c2 = g.add_control("c2", false, TokenValue::True);
    g.connect(c1, c2);
    g.connect(c2, c1);
    const Dynamics dyn(g);
    const State s = State::initial(g);
    // Section III: a token needs at least 3 registers to oscillate —
    // with 2 the R-postset of the empty register is the marked one.
    EXPECT_TRUE(dyn.is_deadlocked(s));
}

TEST(Dynamics, EmptyControlLoopDeadlocks) {
    Graph g("ring3e");
    const auto c1 = g.add_control("c1", false, TokenValue::True);
    const auto c2 = g.add_control("c2", false, TokenValue::True);
    const auto c3 = g.add_control("c3", false, TokenValue::True);
    g.connect(c1, c2);
    g.connect(c2, c3);
    g.connect(c3, c1);
    const Dynamics dyn(g);
    // No token can ever appear: each register needs its control-loop
    // predecessor marked.
    EXPECT_TRUE(dyn.is_deadlocked(State::initial(g)));
}

// -------------------------------------------------- control conflicts --

TEST(Dynamics, MixedControlsDisableNode) {
    Graph g("conflict");
    const auto in = g.add_register("in", true);
    const auto ca = g.add_control("ca", true, TokenValue::True);
    const auto cb = g.add_control("cb", true, TokenValue::False);
    const auto p = g.add_push("p");
    const auto sink = g.add_register("sink");
    g.connect(in, p);
    g.connect(ca, p);
    g.connect(cb, p);
    g.connect(p, sink);
    const Dynamics dyn(g);
    const State s = State::initial(g);
    EXPECT_FALSE(dyn.is_enabled(s, {p, EventKind::MarkTrue}));
    EXPECT_FALSE(dyn.is_enabled(s, {p, EventKind::MarkFalse}));
    const auto conflict = dyn.control_conflict(s);
    ASSERT_TRUE(conflict.has_value());
    EXPECT_EQ(*conflict, p);
}

TEST(Dynamics, NoConflictWhenControlsAgree) {
    Graph g("agree");
    const auto in = g.add_register("in", true);
    const auto ca = g.add_control("ca", true, TokenValue::True);
    const auto cb = g.add_control("cb", true, TokenValue::True);
    const auto p = g.add_push("p");
    const auto sink = g.add_register("sink");
    g.connect(in, p);
    g.connect(ca, p);
    g.connect(cb, p);
    g.connect(p, sink);
    const Dynamics dyn(g);
    const State s = State::initial(g);
    EXPECT_FALSE(dyn.control_conflict(s).has_value());
    EXPECT_TRUE(dyn.is_enabled(s, {p, EventKind::MarkTrue}));
}

// ------------------------------------------------- linear pipelines --

TEST(Dynamics, LinearPipelineStreamsTokens) {
    Graph g("linear");
    const auto regs = add_linear_pipeline(g, "p", 4);
    const Dynamics dyn(g);
    Simulator sim(dyn, 99);
    State s = State::initial(g);
    const auto stats = sim.run(s, 4000);
    EXPECT_FALSE(stats.deadlocked);
    // Every register should have passed a healthy number of tokens, and
    // conservation holds: counts are non-increasing along the pipeline
    // and differ by at most the pipeline occupancy.
    const auto first = stats.marks_at(regs.front());
    const auto last = stats.marks_at(regs.back());
    EXPECT_GT(last, 50u);
    EXPECT_GE(first, last);
    EXPECT_LE(first - last, regs.size());
}

// --------------------------------------------- equations introspection --

TEST(Dynamics, EquationAccessorsMatchEnabling) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    const testing::ReferenceEnabling eq(m.graph);
    State s = State::initial(m.graph);
    EXPECT_TRUE(eq.mark_set(s, m.in));
    EXPECT_TRUE(dyn.is_enabled(s, {m.in, EventKind::Mark}));
    EXPECT_FALSE(eq.eval_set(s, m.cond));
    EXPECT_FALSE(dyn.is_enabled(s, {m.cond, EventKind::LogicEvaluate}));
    step(dyn, s, m.in, EventKind::Mark);
    EXPECT_TRUE(eq.eval_set(s, m.cond));
    EXPECT_TRUE(dyn.is_enabled(s, {m.cond, EventKind::LogicEvaluate}));
    EXPECT_FALSE(eq.eval_reset(s, m.cond));
}

TEST(Dynamics, ControlledPredicates) {
    const auto m = make_fig1b();
    const testing::ReferenceEnabling eq(m.graph);
    State s = State::initial(m.graph);
    // ctrl unmarked: neither polarity is established...
    EXPECT_FALSE(eq.true_controlled(s, m.filt));
    EXPECT_FALSE(eq.false_controlled(s, m.filt));
    // ...but a node with no controls is vacuously true-controlled.
    EXPECT_TRUE(eq.true_controlled(s, m.comp));
    EXPECT_FALSE(eq.false_controlled(s, m.comp));
    s.set_marked(m.ctrl, true, false);
    EXPECT_TRUE(eq.false_controlled(s, m.filt));
}

// ----------------------------------------------------- random walks --

TEST(Dynamics, RandomWalkNeverDeadlocksInFig1b) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    Simulator sim(dyn, 7);
    State s = State::initial(m.graph);
    const auto stats = sim.run(s, 20000);
    EXPECT_FALSE(stats.deadlocked);
    EXPECT_FALSE(stats.conflict.has_value());
    EXPECT_GT(stats.marks_at(m.out), 100u);
}

TEST(Dynamics, TrueBiasControlsBypassFraction) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    Simulator sim(dyn, 11);
    sim.set_true_bias(0.1);  // 90% of items bypass comp
    State s = State::initial(m.graph);
    const auto stats = sim.run(s, 30000);
    const double comp_tokens = static_cast<double>(stats.marks_at(m.comp));
    const double out_tokens = static_cast<double>(stats.marks_at(m.out));
    ASSERT_GT(out_tokens, 100.0);
    EXPECT_LT(comp_tokens / out_tokens, 0.25);
    // And the False fraction at the pop is correspondingly high.
    EXPECT_GT(static_cast<double>(stats.false_marks_at(m.out)) / out_tokens,
              0.75);
}

TEST(Dynamics, TokenConservationBetweenFiltAndOut) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    Simulator sim(dyn, 13);
    State s = State::initial(m.graph);
    const auto stats = sim.run(s, 20000);
    // Every input token results in exactly one output token (real or
    // empty): counts can differ only by in-flight occupancy.
    const auto filt_tokens = stats.marks_at(m.filt);
    const auto out_tokens = stats.marks_at(m.out);
    EXPECT_NEAR(static_cast<double>(filt_tokens),
                static_cast<double>(out_tokens), 3.0);
}

// ------------------------------------------- exhaustive state search --

/// Calls visit(s) on the reachable states in BFS order, at most `cap` of
/// them; returns how many it visited.
template <typename Visit>
std::size_t for_each_reachable(const Dynamics& dyn, std::size_t cap,
                               Visit&& visit) {
    std::unordered_set<State, StateHash> seen;
    std::deque<State> frontier;
    const State s0 = State::initial(dyn.graph());
    seen.insert(s0);
    frontier.push_back(s0);
    std::size_t visited = 0;
    while (!frontier.empty() && visited < cap) {
        const State s = frontier.front();
        frontier.pop_front();
        visit(s);
        ++visited;
        for (const Event& e : dyn.enabled_events(s)) {
            State next = s;
            dyn.apply(next, e);
            if (seen.insert(next).second) frontier.push_back(next);
        }
    }
    return visited;
}

/// Number of reachable states of the DFS state graph (direct semantics).
std::size_t count_reachable_states(const Dynamics& dyn) {
    return for_each_reachable(dyn, SIZE_MAX, [](const State&) {});
}

TEST(Dynamics, Fig1bStateSpaceIsFiniteAndDeadlockFree) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    std::unordered_set<State, StateHash> seen;
    std::deque<State> frontier;
    const State s0 = State::initial(m.graph);
    seen.insert(s0);
    frontier.push_back(s0);
    while (!frontier.empty()) {
        const State s = frontier.front();
        frontier.pop_front();
        const auto enabled = dyn.enabled_events(s);
        EXPECT_FALSE(enabled.empty())
            << "deadlock at " << s.describe(m.graph);
        for (const Event& e : enabled) {
            State next = s;
            dyn.apply(next, e);
            if (seen.insert(next).second) frontier.push_back(next);
        }
    }
    // Sanity bound: small model, small state space.
    EXPECT_GT(seen.size(), 10u);
    EXPECT_LT(seen.size(), 500u);
}

TEST(Dynamics, ControlRingStateCountMatchesRotations) {
    Graph g("ring3");
    add_control_ring(g, "loop", TokenValue::True);
    const Dynamics dyn(g);
    // Token in one of 3 places, or transferring (two adjacent marked):
    // exactly 6 reachable states.
    EXPECT_EQ(count_reachable_states(dyn), 6u);
}

// ------------------------------------------------- the compiled table --

struct TableModel {
    std::string name;
    Graph graph;
    std::size_t cap = SIZE_MAX;  ///< states visited, BFS order
};

/// Fig. 1b, the OPE s3/d3 model and its gap configuration (stage 2's
/// global ring reset to False), the static OPE s3 and a wagging stage,
/// the model with inverting arcs (842,400 states, walked in part).
std::vector<TableModel> table_models() {
    std::vector<TableModel> models;
    models.push_back({"fig1b", make_fig1b().graph});
    models.push_back(
        {"ope_s3_d3", ope::build_reconfigurable_ope_dfs(3, 3).graph});
    pipeline::Pipeline gap = ope::build_reconfigurable_ope_dfs(3, 3);
    pipeline::reset_ring(gap.graph, gap.stages[1].global_ring,
                         TokenValue::False);
    models.push_back({"ope_gap", gap.graph});
    models.push_back({"ope_static_s3", ope::build_static_ope_dfs(3).graph});
    TableModel wagging{"wagging", Graph("wagging"), 60'000};
    pipeline::add_wagging_stage(wagging.graph, "w",
                                wagging.graph.add_register("in"));
    models.push_back(std::move(wagging));
    return models;
}

TEST(Dynamics, CompiledTableMatchesTheEquations) {
    for (const TableModel& model : table_models()) {
        SCOPED_TRACE(model.name);
        const Dynamics dyn(model.graph);
        const testing::ReferenceEnabling reference(model.graph);
        for (NodeId n : model.graph.nodes()) {
            const auto readers = dyn.readers(n);
            EXPECT_TRUE(std::is_sorted(readers.begin(), readers.end()));
            EXPECT_TRUE(
                std::binary_search(readers.begin(), readers.end(), n));
        }

        std::size_t mismatches = 0;
        std::size_t unread_changes = 0;
        std::string first_mismatch;
        std::vector<char> enabled(dyn.event_count());
        const std::size_t states = for_each_reachable(
            dyn, model.cap, [&](const State& s) {
                for (std::uint32_t i = 0; i < dyn.event_count(); ++i) {
                    const Event& e = dyn.event(i);
                    enabled[i] = dyn.is_enabled(s, e);
                    if (enabled[i] == reference(s, e)) continue;
                    if (mismatches++ == 0) {
                        first_mismatch =
                            std::string(to_string(e.kind)) + " on " +
                            model.graph.node_name(e.node) + " at " +
                            s.describe(model.graph);
                    }
                }
                // Firing an event of n may change only readers(n)'s
                // events.
                for (std::uint32_t i = 0; i < dyn.event_count(); ++i) {
                    if (!enabled[i]) continue;
                    State next = s;
                    dyn.apply(next, dyn.event(i));
                    const auto readers = dyn.readers(dyn.event(i).node);
                    for (std::uint32_t j = 0; j < dyn.event_count(); ++j) {
                        if (dyn.is_enabled(next, j) != (enabled[j] != 0) &&
                            !std::binary_search(readers.begin(),
                                                readers.end(),
                                                dyn.event(j).node)) {
                            ++unread_changes;
                        }
                    }
                }
            });
        EXPECT_GT(states, 1u);
        EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;
        EXPECT_EQ(unread_changes, 0u);
    }
}

TEST(Dynamics, KindsANodeNeverEmitsAreNeverEnabled) {
    static constexpr EventKind kAllKinds[] = {
        EventKind::LogicEvaluate, EventKind::LogicReset,
        EventKind::Mark,          EventKind::Unmark,
        EventKind::MarkTrue,      EventKind::MarkFalse};
    // Every (node, kind) pair node_events(node) does not list: an
    // evaluate on a register, a mark on a control, push or pop...
    auto never_emitted = [](const Dynamics& dyn) {
        std::vector<Event> out;
        for (NodeId n : dyn.graph().nodes()) {
            const std::vector<Event> own = dyn.node_events(n);
            for (EventKind k : kAllKinds) {
                const Event e{n, k};
                if (std::find(own.begin(), own.end(), e) == own.end()) {
                    out.push_back(e);
                }
            }
        }
        return out;
    };
    auto count_enabled = [](const Dynamics& dyn, const State& s,
                            const std::vector<Event>& events) {
        std::size_t count = 0;
        for (const Event& e : events) count += dyn.is_enabled(s, e);
        return count;
    };

    // Fig. 1b, every reachable state.
    const auto fig = make_fig1b();
    const Dynamics fig_dyn(fig.graph);
    const std::vector<Event> fig_never = never_emitted(fig_dyn);
    ASSERT_FALSE(fig_never.empty());
    std::size_t enabled = 0;
    const std::size_t states =
        for_each_reachable(fig_dyn, SIZE_MAX, [&](const State& s) {
            enabled += count_enabled(fig_dyn, s, fig_never);
        });
    EXPECT_GT(states, 10u);
    EXPECT_EQ(enabled, 0u);

    // OPE s3/d3, along a seeded walk.
    const pipeline::Pipeline ope = ope::build_reconfigurable_ope_dfs(3, 3);
    const Dynamics ope_dyn(ope.graph);
    const std::vector<Event> ope_never = never_emitted(ope_dyn);
    util::Rng rng(2024);
    State s = State::initial(ope.graph);
    enabled = 0;
    for (int step = 0; step < 20'000; ++step) {
        enabled += count_enabled(ope_dyn, s, ope_never);
        const std::vector<Event> next = ope_dyn.enabled_events(s);
        ASSERT_FALSE(next.empty());
        ope_dyn.apply(s, next[rng.below(next.size())]);
    }
    EXPECT_EQ(enabled, 0u);

    // A node outside the graph is an error, whatever the kind.
    const NodeId outside{static_cast<std::uint32_t>(ope.graph.node_count())};
    for (EventKind k : kAllKinds) {
        EXPECT_THROW(ope_dyn.is_enabled(s, {outside, k}), std::out_of_range);
    }
    EXPECT_THROW(ope_dyn.node_events(outside), std::out_of_range);
}

}  // namespace
}  // namespace rap::dfs
