#include <gtest/gtest.h>

#include "dfs/dynamics.hpp"
#include "dfs/simulator.hpp"
#include "dfs_helpers.hpp"
#include "flow/design.hpp"
#include "pipeline/builder.hpp"
#include "verify/verifier.hpp"

namespace rap::pipeline {
namespace {

using dfs::Dynamics;
using dfs::Simulator;
using dfs::State;
using dfs::TokenValue;

using dfs::testing::ope_style_stages;

std::vector<StageOptions> static_stages(int n) {
    return std::vector<StageOptions>(static_cast<std::size_t>(n));
}

TEST(ControlRingBuilder, OscillatesAndResets) {
    dfs::Graph g("ring");
    const ControlRing ring = add_control_ring(g, "r", TokenValue::True);
    EXPECT_TRUE(g.initial(ring.head).marked);
    EXPECT_FALSE(g.initial(ring.mid).marked);
    reset_ring(g, ring, TokenValue::False);
    EXPECT_EQ(g.initial(ring.head).token, TokenValue::False);
    EXPECT_TRUE(g.initial(ring.head).marked);
}

TEST(Builder, RejectsEmptyPipeline) {
    EXPECT_THROW(build_pipeline("p", {}), std::invalid_argument);
}

TEST(Builder, StaticPipelineStructure) {
    const Pipeline p = build_pipeline("p", static_stages(3));
    EXPECT_TRUE(p.graph.validate().empty());
    EXPECT_EQ(p.stages.size(), 3u);
    for (const Stage& s : p.stages) {
        EXPECT_FALSE(s.reconfigurable);
        EXPECT_EQ(p.graph.kind(s.local_in), dfs::NodeKind::Register);
        EXPECT_EQ(p.graph.kind(s.global_out), dfs::NodeKind::Register);
    }
    // in + 3*(6 nodes) + agg + out
    EXPECT_EQ(p.graph.node_count(), 1u + 3 * 6 + 2);
    EXPECT_EQ(p.active_depth(), 3);
}

TEST(Builder, ReconfigurableStageStructure) {
    const Pipeline p = build_pipeline("p", ope_style_stages(3, 3));
    EXPECT_TRUE(p.graph.validate().empty());
    const Stage& s2 = p.stages[1];
    EXPECT_TRUE(s2.reconfigurable);
    EXPECT_EQ(s2.rings.size(), 1u);  // reused ring
    EXPECT_EQ(s2.local_ring.head, s2.global_ring.head);
    const Stage& s3 = p.stages[2];
    EXPECT_EQ(s3.rings.size(), 2u);
    EXPECT_NE(s3.local_ring.head, s3.global_ring.head);
    EXPECT_EQ(p.graph.kind(s3.local_in), dfs::NodeKind::Push);
    EXPECT_EQ(p.graph.kind(s3.global_out), dfs::NodeKind::Pop);
    // The ring head controls the push/pop pair.
    EXPECT_EQ(p.graph.control_preset(s3.global_in),
              std::vector<dfs::NodeId>{s3.global_ring.head});
}

TEST(Builder, SetDepthReconfigures) {
    Pipeline p = build_pipeline("p", ope_style_stages(4, 4));
    EXPECT_EQ(p.active_depth(), 4);
    set_depth(p, 2);
    EXPECT_EQ(p.active_depth(), 2);
    const auto& init = p.graph.initial(p.stages[2].global_ring.head);
    EXPECT_EQ(init.token, TokenValue::False);
    set_depth(p, 4);
    EXPECT_EQ(p.active_depth(), 4);
}

TEST(Builder, SetDepthValidation) {
    Pipeline p = build_pipeline("p", ope_style_stages(3, 3));
    EXPECT_THROW(set_depth(p, 0), std::invalid_argument);
    EXPECT_THROW(set_depth(p, 4), std::invalid_argument);
    // Stage 1 is static: cannot be bypassed.
    EXPECT_THROW(set_depth(p, 0), std::invalid_argument);
}

TEST(Pipeline, StaticPipelineStreams) {
    const Pipeline p = build_pipeline("p", static_stages(3));
    const Dynamics dyn(p.graph);
    Simulator sim(dyn, 5);
    State s = State::initial(p.graph);
    const auto stats = sim.run(s, 60000);
    EXPECT_FALSE(stats.deadlocked);
    EXPECT_GT(stats.marks_at(p.out), 20u);
    // Each stage's global_out fires once per output token.
    for (const Stage& stage : p.stages) {
        EXPECT_NEAR(
            static_cast<double>(stats.marks_at(stage.global_out)),
            static_cast<double>(stats.marks_at(p.out)), 3.0);
    }
}

TEST(Pipeline, FullyActiveReconfigurableStreams) {
    const Pipeline p = build_pipeline("p", ope_style_stages(3, 3));
    const Dynamics dyn(p.graph);
    Simulator sim(dyn, 7);
    State s = State::initial(p.graph);
    const auto stats = sim.run(s, 120000);
    EXPECT_FALSE(stats.deadlocked);
    EXPECT_FALSE(stats.conflict.has_value());
    EXPECT_GT(stats.marks_at(p.out), 20u);
    // Active stages pass real tokens: no false marks at their pops.
    for (const Stage& stage : p.stages) {
        if (stage.reconfigurable) {
            EXPECT_EQ(stats.false_marks_at(stage.global_out), 0u);
        }
    }
}

TEST(Pipeline, BypassedStagesEmitEmptyTokens) {
    Pipeline p = build_pipeline("p", ope_style_stages(4, 4));
    set_depth(p, 2);
    const Dynamics dyn(p.graph);
    Simulator sim(dyn, 9);
    State s = State::initial(p.graph);
    const auto stats = sim.run(s, 150000);
    EXPECT_FALSE(stats.deadlocked);
    EXPECT_GT(stats.marks_at(p.out), 10u);
    // Stages 3 and 4 are bypassed: all their global_out tokens are empty,
    // and their f logic never runs (no local tokens reach them as real).
    for (std::size_t i = 2; i < 4; ++i) {
        const Stage& stage = p.stages[i];
        EXPECT_EQ(stats.marks_at(stage.global_out),
                  stats.false_marks_at(stage.global_out));
        EXPECT_EQ(stats.marks_at(stage.local_out), 0u);
    }
    // Active stages still deliver real tokens.
    EXPECT_EQ(stats.false_marks_at(p.stages[1].global_out), 0u);
}

TEST(Pipeline, FirstBypassedStageDestroysLocalTokens) {
    Pipeline p = build_pipeline("p", ope_style_stages(4, 4));
    set_depth(p, 2);
    const Dynamics dyn(p.graph);
    Simulator sim(dyn, 11);
    State s = State::initial(p.graph);
    const auto stats = sim.run(s, 150000);
    // Stage 3 (first bypassed) keeps consuming-and-destroying the local
    // stream from stage 2 so the active prefix never backs up.
    const Stage& s3 = p.stages[2];
    EXPECT_GT(stats.marks_at(s3.local_in), 10u);
    EXPECT_EQ(stats.marks_at(s3.local_in), stats.false_marks_at(s3.local_in));
    // Stage 4's local interface parks (no data ever arrives).
    EXPECT_EQ(stats.marks_at(p.stages[3].local_in), 0u);
}

TEST(Pipeline, OutputRateIndependentOfDepth) {
    // The aggregated output produces exactly one token per input item
    // regardless of configuration (bypassed stages contribute empties).
    for (int depth : {2, 3, 4}) {
        Pipeline p = build_pipeline("p", ope_style_stages(4, 4));
        set_depth(p, depth);
        const Dynamics dyn(p.graph);
        Simulator sim(dyn, 13);
        State s = State::initial(p.graph);
        const auto stats = sim.run(s, 100000);
        EXPECT_FALSE(stats.deadlocked);
        EXPECT_NEAR(static_cast<double>(stats.marks_at(p.in)),
                    static_cast<double>(stats.marks_at(p.out)),
                    6.0)
            << "depth " << depth;
    }
}

TEST(Pipeline, VerifiedDeadlockFreeAtEveryDepth) {
    // One design session, reconfigured between verifications: set_depth
    // invalidates the PN artifact, so each depth is checked against its
    // own initial marking.
    flow::DesignOptions options;
    options.verify.max_states = 3'000'000;
    flow::Design design(build_pipeline("p", ope_style_stages(3, 3)),
                        options);
    for (int depth : {2, 3}) {
        design.set_depth(depth);
        const auto finding =
            design.verify(verify::Spec{}.deadlock()).findings[0];
        EXPECT_FALSE(finding.violated)
            << "depth " << depth << ": " << finding.to_string();
        EXPECT_FALSE(finding.truncated);
    }
}

TEST(Pipeline, GapConfigurationDeadlocks) {
    // Invalid configuration — an active stage after a bypassed one — is
    // exactly the "incorrect initialisation of control registers" class
    // of bugs the paper reports catching by verification.
    flow::Design design(build_pipeline("p", ope_style_stages(3, 3)));
    // stage 3 stays active while stage 2 is bypassed.
    design.reset_ring(design.pipeline().stages[1].global_ring,
                      TokenValue::False);
    const auto finding = design.verify(verify::Spec{}.deadlock()).findings[0];
    EXPECT_TRUE(finding.violated);
    // The witness is reported both as PN firings and translated back to
    // DFS-level events (the paper's debugging vocabulary): token moves of
    // registers and control rings, not raw "Mt_..+" firing names.
    ASSERT_FALSE(finding.dfs_trace.empty());
    ASSERT_EQ(finding.dfs_trace.size(), finding.trace.size());
    bool mentions_dfs_vocabulary = false;
    for (const auto& step : finding.dfs_trace) {
        EXPECT_EQ(step.find("Mt_"), std::string::npos) << step;
        EXPECT_EQ(step.find("Mf_"), std::string::npos) << step;
        if (step.find("control ") != std::string::npos ||
            step.find("register ") != std::string::npos ||
            step.find("push ") != std::string::npos ||
            step.find("pop ") != std::string::npos) {
            mentions_dfs_vocabulary = true;
        }
    }
    EXPECT_TRUE(mentions_dfs_vocabulary);
}

}  // namespace
}  // namespace rap::pipeline
