#include <gtest/gtest.h>

#include "dfs_helpers.hpp"
#include "ope/dfs_models.hpp"
#include "perf/cycles.hpp"
#include "perf/throughput.hpp"
#include "pipeline/builder.hpp"

namespace rap::perf {
namespace {

using dfs::Graph;
using dfs::TokenValue;
using dfs::testing::add_control_ring;
using dfs::testing::add_linear_pipeline;

TEST(Cycles, AcyclicGraphHasNoCycles) {
    Graph g("lin");
    add_linear_pipeline(g, "p", 3);
    const auto report = analyse_cycles(g);
    EXPECT_TRUE(report.cycles.empty());
    EXPECT_EQ(report.throughput_bound(), 1.0);
    EXPECT_EQ(report.bottleneck(), nullptr);
    EXPECT_TRUE(report.bottleneck_nodes().empty());
}

TEST(Cycles, ThreeRingBound) {
    Graph g("ring3");
    add_control_ring(g, "r", TokenValue::True);
    const auto report = analyse_cycles(g);
    ASSERT_EQ(report.cycles.size(), 1u);
    const Cycle& c = report.cycles[0];
    EXPECT_EQ(c.registers, 3u);
    EXPECT_EQ(c.tokens, 1u);
    // min(1, floor(2/2)) / 3 = 1/3.
    EXPECT_NEAR(c.throughput_bound, 1.0 / 3.0, 1e-12);
    EXPECT_FALSE(report.truncated);
}

TEST(Cycles, TwoRingIsDead) {
    Graph g("ring2");
    const auto a = g.add_register("a", true);
    const auto b = g.add_register("b");
    g.connect(a, b);
    g.connect(b, a);
    const auto report = analyse_cycles(g);
    ASSERT_EQ(report.cycles.size(), 1u);
    // One bubble is not enough for a token to advance.
    EXPECT_EQ(report.cycles[0].throughput_bound, 0.0);
    EXPECT_EQ(report.throughput_bound(), 0.0);
}

TEST(Cycles, TokenFreeRingIsDead) {
    Graph g("ring0");
    const auto a = g.add_register("a");
    const auto b = g.add_register("b");
    const auto c = g.add_register("c");
    g.connect(a, b);
    g.connect(b, c);
    g.connect(c, a);
    const auto report = analyse_cycles(g);
    ASSERT_EQ(report.cycles.size(), 1u);
    EXPECT_EQ(report.cycles[0].tokens, 0u);
    EXPECT_EQ(report.cycles[0].throughput_bound, 0.0);
}

TEST(Cycles, BiggerRingsAreSlowerWithOneToken) {
    auto bound_of_ring = [](int n) {
        Graph g("ring");
        std::vector<dfs::NodeId> regs;
        for (int i = 0; i < n; ++i) {
            regs.push_back(
                g.add_register("r" + std::to_string(i), i == 0));
        }
        for (int i = 0; i < n; ++i) g.connect(regs[i], regs[(i + 1) % n]);
        return analyse_cycles(g).throughput_bound();
    };
    EXPECT_GT(bound_of_ring(3), bound_of_ring(5));
    EXPECT_GT(bound_of_ring(5), bound_of_ring(9));
}

TEST(Cycles, MoreTokensHelpUntilCongestion) {
    auto bound_with_tokens = [](int tokens) {
        Graph g("ring");
        const int n = 9;
        std::vector<dfs::NodeId> regs;
        for (int i = 0; i < n; ++i) {
            regs.push_back(
                g.add_register("r" + std::to_string(i), i < tokens));
        }
        for (int i = 0; i < n; ++i) g.connect(regs[i], regs[(i + 1) % n]);
        return analyse_cycles(g).throughput_bound();
    };
    EXPECT_GT(bound_with_tokens(2), bound_with_tokens(1));
    EXPECT_GT(bound_with_tokens(3), bound_with_tokens(2));
    // Congestion: too many tokens starve the bubbles.
    EXPECT_GT(bound_with_tokens(3), bound_with_tokens(7));
    EXPECT_EQ(bound_with_tokens(9), 0.0);
}

TEST(Cycles, LogicNodesCountedButHoldNoTokens) {
    Graph g("mixed");
    const auto a = g.add_register("a", true);
    const auto f = g.add_logic("f");
    const auto b = g.add_register("b");
    g.connect(a, f);
    g.connect(f, b);
    g.connect(b, a);
    const auto report = analyse_cycles(g);
    ASSERT_EQ(report.cycles.size(), 1u);
    EXPECT_EQ(report.cycles[0].registers, 2u);
    EXPECT_EQ(report.cycles[0].logics, 1u);
}

TEST(Cycles, SlowestCycleFirstAndBottleneckIdentified) {
    Graph g("two_rings");
    const auto fast = add_control_ring(g, "fast", TokenValue::True);
    // A slower 6-ring with one token.
    std::vector<dfs::NodeId> regs;
    for (int i = 0; i < 6; ++i) {
        regs.push_back(g.add_register("s" + std::to_string(i), i == 0));
    }
    for (int i = 0; i < 6; ++i) g.connect(regs[i], regs[(i + 1) % 6]);
    (void)fast;
    const auto report = analyse_cycles(g);
    ASSERT_EQ(report.cycles.size(), 2u);
    EXPECT_EQ(report.cycles[0].registers, 6u);  // slowest first
    const auto bottleneck = report.bottleneck_nodes();
    EXPECT_EQ(bottleneck.size(), 6u);
}

TEST(Cycles, CapTruncatesEnumeration) {
    // The complete digraph on 9 registers has over 100,000 simple
    // cycles; the search keeps the first 20,000.
    Graph g("dense");
    std::vector<dfs::NodeId> regs;
    for (int i = 0; i < 9; ++i) {
        regs.push_back(g.add_register("r" + std::to_string(i), i % 2 == 0));
    }
    for (int i = 0; i < 9; ++i) {
        for (int j = 0; j < 9; ++j) {
            if (i != j) g.connect(regs[i], regs[j]);
        }
    }
    const auto report = analyse_cycles(g);
    EXPECT_TRUE(report.truncated);
    EXPECT_EQ(report.cycles.size(), 20'000u);
}

/// `layers` layers of two registers, each feeding both registers of the
/// next layer: acyclic, yet 2^(layers - i) simple paths start in layer i.
Graph ladder(int layers) {
    Graph g("ladder");
    std::vector<dfs::NodeId> prev;
    for (int layer = 0; layer < layers; ++layer) {
        std::vector<dfs::NodeId> next;
        for (int k = 0; k < 2; ++k) {
            next.push_back(g.add_register(
                "r" + std::to_string(layer) + "_" + std::to_string(k)));
            for (const dfs::NodeId from : prev) g.connect(from, next.back());
        }
        prev = next;
    }
    return g;
}

TEST(Cycles, StepCapStopsAnAcyclicLadder) {
    // Backtracking walks every simple path from every root, 2^(L+2) - 4
    // - 2L search steps on an L-layer ladder, whatever the cycle count.
    // 18 layers take 2^20 - 40 steps, within the 2^20 cap; 24 layers
    // would take ~6.7e7, and the cap stops the search instead.
    EXPECT_FALSE(analyse_cycles(ladder(18)).truncated);
    const auto report = analyse_cycles(ladder(24));
    EXPECT_TRUE(report.truncated);
    EXPECT_TRUE(report.cycles.empty());
}

TEST(Cycles, OpeReconfigurableModelAnalysable) {
    const auto p = ope::build_reconfigurable_ope_dfs(4, 4);
    const auto report = analyse_cycles(p.graph);
    ASSERT_FALSE(report.cycles.empty());
    // Every control ring shows up as a 1/3-throughput cycle; nothing is
    // dead in a valid configuration.
    EXPECT_GT(report.throughput_bound(), 0.0);
    EXPECT_LE(report.throughput_bound(), 1.0 / 3.0 + 1e-12);
}

TEST(Cycles, DescribeMentionsRegistersAndBound) {
    Graph g("ring3");
    add_control_ring(g, "r", TokenValue::True);
    const auto report = analyse_cycles(g);
    const std::string text = report.cycles[0].describe(g);
    EXPECT_NE(text.find("3 regs"), std::string::npos);
    EXPECT_NE(text.find("r_c1"), std::string::npos);
}

// ----------------------------------------------------------- throughput --

TEST(Throughput, LinearPipelineMeasurable) {
    Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 3);
    ThroughputOptions options;
    options.tokens = 100;
    const auto result = measure_throughput(g, regs.back(), options);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_GT(result.tokens_per_s, 0.0);
    EXPECT_EQ(result.tokens, 100u);
}

TEST(Throughput, DeadModelReportsDeadlock) {
    Graph g("ring2");
    const auto a = g.add_register("a", true);
    const auto b = g.add_register("b");
    g.connect(a, b);
    g.connect(b, a);
    const auto result = measure_throughput(g, b);
    EXPECT_TRUE(result.deadlocked);
    EXPECT_EQ(result.tokens_per_s, 0.0);
}

TEST(Throughput, SlowerRingMeasuresSlower) {
    auto rate_of_ring = [](int n) {
        Graph g("ring");
        std::vector<dfs::NodeId> regs;
        for (int i = 0; i < n; ++i) {
            regs.push_back(g.add_register("r" + std::to_string(i), i == 0));
        }
        for (int i = 0; i < n; ++i) g.connect(regs[i], regs[(i + 1) % n]);
        ThroughputOptions options;
        options.tokens = 60;
        return measure_throughput(g, regs[0], options).tokens_per_s;
    };
    // With one token the mark wave pipelines: small rings are limited by
    // the 2-events-per-register serialisation (period 6 for the 3-ring),
    // large ones by the revolution length n.
    EXPECT_GE(rate_of_ring(3), rate_of_ring(6) * 0.999);
    EXPECT_GT(rate_of_ring(6), rate_of_ring(12) * 1.5);
}

TEST(Throughput, MeasurementTracksCycleBoundOrdering) {
    // The analytic bound and the measured rate must order rings the same
    // way — the property the Fig. 5 analysis relies on.
    auto both = [](int n, int tokens) {
        Graph g("ring");
        std::vector<dfs::NodeId> regs;
        const int spacing = n / tokens;
        for (int i = 0; i < n; ++i) {
            // Evenly spaced tokens: the placement the bound assumes.
            regs.push_back(g.add_register("r" + std::to_string(i),
                                          i % spacing == 0 &&
                                              i / spacing < tokens));
        }
        for (int i = 0; i < n; ++i) g.connect(regs[i], regs[(i + 1) % n]);
        ThroughputOptions options;
        options.tokens = 60;
        return std::make_pair(
            analyse_cycles(g).throughput_bound(),
            measure_throughput(g, regs[0], options).tokens_per_s);
    };
    const auto [bound_a, rate_a] = both(9, 1);
    const auto [bound_b, rate_b] = both(9, 3);
    EXPECT_LT(bound_a, bound_b);
    EXPECT_LT(rate_a, rate_b);
}

}  // namespace
}  // namespace rap::perf
