#include <gtest/gtest.h>

#include "asim/timed_sim.hpp"
#include "dfs/dynamics.hpp"
#include "dfs/simulator.hpp"
#include "dfs/translate.hpp"
#include "dfs_reference.hpp"
#include "flow/design.hpp"
#include "pipeline/wagging.hpp"
#include "verify/verifier.hpp"

namespace rap::pipeline {
namespace {

using dfs::Dynamics;
using dfs::EventKind;
using dfs::State;
using dfs::TokenValue;

// -------------------------------------------------- inverting arcs --

TEST(InvertingArcs, OnlyControlsMayDriveThem) {
    dfs::Graph g("inv");
    const auto r = g.add_register("r");
    const auto c = g.add_control("c", true, TokenValue::True);
    const auto sink = g.add_register("sink");
    EXPECT_THROW(g.connect_inverted(r, sink), std::invalid_argument);
    EXPECT_NO_THROW(g.connect_inverted(c, sink));
    EXPECT_TRUE(g.is_inverted(c, sink));
    EXPECT_FALSE(g.is_inverted(r, sink));
}

TEST(InvertingArcs, PushSeesComplementOfControlToken) {
    dfs::Graph g("inv");
    const auto in = g.add_register("in", true);
    const auto c = g.add_control("c", true, TokenValue::False);
    const auto p = g.add_push("p");
    const auto sink = g.add_register("sink");
    g.connect(in, p);
    g.connect_inverted(c, p);
    g.connect(p, sink);
    const Dynamics dyn(g);
    const dfs::testing::ReferenceEnabling eq(g);
    const State s = State::initial(g);
    // The control holds False, the inverted consumer is true-controlled.
    EXPECT_TRUE(eq.true_controlled(s, p));
    EXPECT_FALSE(eq.false_controlled(s, p));
    EXPECT_TRUE(dyn.is_enabled(s, {p, EventKind::MarkTrue}));
    EXPECT_FALSE(dyn.is_enabled(s, {p, EventKind::MarkFalse}));
}

TEST(InvertingArcs, ComplementaryPairIsAConflictOnAgreement) {
    // One control driving a push normally AND inverted makes the node
    // permanently disabled — the checker must flag it.
    dfs::Graph g("inv_conflict");
    const auto in = g.add_register("in", true);
    const auto c1 = g.add_control("c1", true, TokenValue::True);
    const auto c2 = g.add_control("c2", true, TokenValue::True);
    const auto p = g.add_push("p");
    const auto sink = g.add_register("sink");
    g.connect(in, p);
    g.connect(c1, p);
    g.connect_inverted(c2, p);
    g.connect(p, sink);
    const Dynamics dyn(g);
    const State s = State::initial(g);
    EXPECT_FALSE(dyn.is_enabled(s, {p, EventKind::MarkTrue}));
    EXPECT_FALSE(dyn.is_enabled(s, {p, EventKind::MarkFalse}));
    ASSERT_TRUE(dyn.control_conflict(s).has_value());
    EXPECT_EQ(*dyn.control_conflict(s), p);
    // And via the verifier on the Petri-net side.
    const verify::Verifier verifier(g);
    const auto report = verifier.verify(verify::Spec{}.control_conflict());
    EXPECT_TRUE(report.findings[0].violated);
}

TEST(InvertingArcs, TranslationMatchesDynamics) {
    dfs::Graph g("inv_pn");
    const auto in = g.add_register("in", true);
    const auto c = g.add_control("c", true, TokenValue::False);
    const auto p = g.add_push("p");
    const auto sink = g.add_register("sink");
    g.connect(in, p);
    g.connect_inverted(c, p);
    g.connect(p, sink);
    const auto tr = dfs::to_petri(g);
    const auto m0 = tr.net.initial_marking();
    // The push's Mt+ must read the control's *Mf* place (inverted).
    EXPECT_TRUE(tr.net.is_enabled(m0, *tr.net.find_transition("Mt_p+")));
    EXPECT_FALSE(tr.net.is_enabled(m0, *tr.net.find_transition("Mf_p+")));
}

// ------------------------------------------------ alternating ring --

TEST(AlternatingRing, CarriesOppositeTokens) {
    dfs::Graph g("alt");
    const auto ring = add_alternating_ring(g, "w");
    EXPECT_TRUE(g.initial(ring.regs[0]).marked);
    EXPECT_EQ(g.initial(ring.regs[0]).token, TokenValue::True);
    EXPECT_TRUE(g.initial(ring.regs[3]).marked);
    EXPECT_EQ(g.initial(ring.regs[3]).token, TokenValue::False);
    for (const int i : {1, 2, 4, 5}) {
        EXPECT_FALSE(g.initial(ring.regs[i]).marked);
    }
    // Standalone, the ring oscillates forever preserving both tokens.
    const Dynamics dyn(g);
    dfs::Simulator sim(dyn, 5);
    State s = State::initial(g);
    const auto stats = sim.run(s, 5000);
    EXPECT_FALSE(stats.deadlocked);
    // Head registers alternate True and False markings evenly.
    const auto head_marks = stats.marks_at(ring.head());
    const auto head_false = stats.false_marks_at(ring.head());
    EXPECT_GT(head_marks, 100u);
    EXPECT_NEAR(static_cast<double>(head_false),
                static_cast<double>(head_marks) / 2, 2.0);
}

// ------------------------------------------------------ wagging --

struct WaggingModel {
    dfs::Graph graph{"wagging"};
    dfs::NodeId in;
    WaggingStage stage;
};

WaggingModel make_wagging() {
    WaggingModel m;
    m.in = m.graph.add_register("in");
    m.stage = add_wagging_stage(m.graph, "w", m.in);
    return m;
}

TEST(Wagging, ModelValidates) {
    const auto m = make_wagging();
    EXPECT_TRUE(m.graph.validate().empty()) << m.graph.validate()[0];
}

TEST(Wagging, BranchesAlternateAndMergeKeepsRate) {
    const auto m = make_wagging();
    const Dynamics dyn(m.graph);
    dfs::Simulator sim(dyn, 17);
    State s = State::initial(m.graph);
    const auto stats = sim.run(s, 150000);
    EXPECT_FALSE(stats.deadlocked);
    EXPECT_FALSE(stats.conflict.has_value());

    const auto outputs = stats.marks_at(m.stage.out);
    ASSERT_GT(outputs, 50u);
    // Each branch processes half the items...
    EXPECT_NEAR(static_cast<double>(stats.marks_at(m.stage.reg_a)),
                static_cast<double>(stats.marks_at(m.stage.reg_b)), 2.0);
    // ...and exactly one output per input item emerges.
    EXPECT_NEAR(static_cast<double>(stats.marks_at(m.in)),
                static_cast<double>(outputs), 4.0);
    // Pops alternate real/empty one-for-one.
    EXPECT_NEAR(static_cast<double>(stats.false_marks_at(m.stage.pop_a)),
                static_cast<double>(stats.marks_at(m.stage.pop_a)) / 2,
                2.0);
}

TEST(Wagging, VerifiedDeadlockFree) {
    // Through the design session: one Spec, one exploration, both
    // properties answered off the session's cached compiled artifact.
    auto m = make_wagging();
    flow::DesignOptions options;
    options.verify.max_states = 3'000'000;
    const flow::Design design(std::move(m.graph), options);
    const auto report = design.verify(
        verify::Spec{}.deadlock().control_conflict());
    EXPECT_TRUE(report.clean()) << report.to_string();
    const auto* deadlock = report.find(verify::Property::Deadlock);
    ASSERT_NE(deadlock, nullptr);
    EXPECT_FALSE(deadlock->truncated);
    EXPECT_EQ(design.verifier().explorations_run(), 1u);
}

TEST(Wagging, DoublesThroughputOfSlowFunction) {
    // Baseline: in -> f -> reg with a slow f.
    dfs::Graph base("base");
    const auto bin = base.add_register("in");
    const auto bf = base.add_logic("f");
    const auto breg = base.add_register("reg");
    base.connect(bin, bf);
    base.connect(bf, breg);

    const double slow = 40.0;
    auto run = [&](const dfs::Graph& g, dfs::NodeId observe,
                   const std::vector<dfs::NodeId>& slow_nodes) {
        const Dynamics dyn(g);
        asim::TimingMap timing = asim::uniform_timing(g, 1.0);
        for (const auto n : slow_nodes) timing[n.value].delay_s = slow;
        asim::TimedSimulator sim(dyn, timing,
                                 tech::VoltageSchedule::constant(1.2), 0.0);
        State s = State::initial(g);
        asim::RunLimits limits;
        limits.target_marks = 60;
        limits.observe = observe;
        const auto stats = sim.run(s, limits);
        return static_cast<double>(stats.marks_at(observe)) / stats.time_s;
    };

    const double base_rate = run(base, breg, {bf});

    const auto m = make_wagging();
    const double wagged_rate =
        run(m.graph, m.stage.out, {m.stage.f_a, m.stage.f_b});

    // Brej's wagging promise: close to 2x when the function dominates.
    EXPECT_GT(wagged_rate, base_rate * 1.6);
    EXPECT_LT(wagged_rate, base_rate * 2.2);
}

TEST(Wagging, LockstepWithPetriNet) {
    // The PN translation must track the wagging structure exactly —
    // inverting arcs included.
    const auto m = make_wagging();
    const Dynamics dyn(m.graph);
    const auto tr = dfs::to_petri(m.graph);
    State s = State::initial(m.graph);
    petri::Marking pm = tr.net.initial_marking();
    util::Rng rng(31);
    for (int i = 0; i < 3000; ++i) {
        const auto enabled = dyn.enabled_events(s);
        ASSERT_FALSE(enabled.empty());
        const auto e = enabled[rng.below(enabled.size())];
        const bool token =
            m.graph.is_dynamic(e.node) && s.token_true(e.node);
        const auto t = tr.transition_for(m.graph, e, token);
        ASSERT_TRUE(tr.net.is_enabled(pm, t))
            << tr.net.transition_name(t) << " at " << s.describe(m.graph);
        dyn.apply(s, e);
        tr.net.fire(pm, t);
        ASSERT_EQ(pm, tr.encode(m.graph, s));
    }
}

}  // namespace
}  // namespace rap::pipeline
