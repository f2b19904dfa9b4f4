#include <gtest/gtest.h>

#include <array>

#include "dfs/dynamics.hpp"
#include "dfs/simulator.hpp"
#include "ope/dfs_models.hpp"
#include "ope/encoder.hpp"
#include "util/rng.hpp"
#include "verify/verifier.hpp"

namespace rap::ope {
namespace {

// ----------------------------------------------------- paper examples --

TEST(RankWindow, FootnoteExample) {
    // "ranks of items in the list (2, 0, 1, 7) are (3, 1, 2, 4)"
    const std::array<std::int64_t, 4> list = {2, 0, 1, 7};
    EXPECT_EQ(rank_window(list), (std::vector<int>{3, 1, 2, 4}));
}

TEST(RankWindow, PaperTableWindows) {
    // Section III-A: stream (3,1,4,1,5,9,2,6), N=6.
    const std::array<std::int64_t, 6> w1 = {3, 1, 4, 1, 5, 9};
    const std::array<std::int64_t, 6> w2 = {1, 4, 1, 5, 9, 2};
    const std::array<std::int64_t, 6> w3 = {4, 1, 5, 9, 2, 6};
    EXPECT_EQ(rank_window(w1), (std::vector<int>{3, 1, 4, 2, 5, 6}));
    EXPECT_EQ(rank_window(w2), (std::vector<int>{1, 4, 2, 5, 6, 3}));
    EXPECT_EQ(rank_window(w3), (std::vector<int>{3, 1, 4, 6, 2, 5}));
}

TEST(RankWindow, EdgeCases) {
    EXPECT_EQ(rank_window(std::array<std::int64_t, 1>{42}),
              (std::vector<int>{1}));
    EXPECT_EQ(rank_window(std::array<std::int64_t, 3>{5, 5, 5}),
              (std::vector<int>{1, 2, 3}));  // ties by appearance
    EXPECT_EQ(rank_window(std::array<std::int64_t, 3>{3, 2, 1}),
              (std::vector<int>{3, 2, 1}));
    EXPECT_EQ(rank_window(std::array<std::int64_t, 0>{}),
              (std::vector<int>{}));
}

TEST(RankWindow, NegativeValues) {
    EXPECT_EQ(rank_window(std::array<std::int64_t, 4>{-1, -5, 0, -5}),
              (std::vector<int>{3, 1, 4, 2}));
}

// --------------------------------------------------- ReferenceEncoder --

TEST(ReferenceEncoder, WarmupThenSlides) {
    ReferenceEncoder enc(6);
    const std::array<std::int64_t, 8> stream = {3, 1, 4, 1, 5, 9, 2, 6};
    std::vector<std::vector<int>> outputs;
    for (const auto x : stream) {
        if (auto ranks = enc.push(x)) outputs.push_back(*ranks);
    }
    ASSERT_EQ(outputs.size(), 3u);
    EXPECT_EQ(outputs[0], (std::vector<int>{3, 1, 4, 2, 5, 6}));
    EXPECT_EQ(outputs[1], (std::vector<int>{1, 4, 2, 5, 6, 3}));
    EXPECT_EQ(outputs[2], (std::vector<int>{3, 1, 4, 6, 2, 5}));
}

TEST(ReferenceEncoder, RejectsBadWindow) {
    EXPECT_THROW(ReferenceEncoder(0), std::invalid_argument);
    EXPECT_THROW(ReferenceEncoder(-3), std::invalid_argument);
}

TEST(ReferenceEncoder, ReconfigureClearsState) {
    ReferenceEncoder enc(2);
    enc.push(1);
    enc.reconfigure(3);
    EXPECT_EQ(enc.window_size(), 3);
    EXPECT_FALSE(enc.push(5).has_value());  // warmup restarted
    EXPECT_FALSE(enc.push(6).has_value());
    EXPECT_TRUE(enc.push(7).has_value());
}

// ---------------------------------------------------- PipelineEncoder --

TEST(PipelineEncoder, MatchesPaperTable) {
    PipelineEncoder enc(6);
    const std::array<std::int64_t, 8> stream = {3, 1, 4, 1, 5, 9, 2, 6};
    std::vector<std::vector<int>> outputs;
    for (const auto x : stream) {
        if (auto ranks = enc.push(x)) outputs.push_back(*ranks);
    }
    ASSERT_EQ(outputs.size(), 3u);
    EXPECT_EQ(outputs[0], (std::vector<int>{3, 1, 4, 2, 5, 6}));
    EXPECT_EQ(outputs[1], (std::vector<int>{1, 4, 2, 5, 6, 3}));
    EXPECT_EQ(outputs[2], (std::vector<int>{3, 1, 4, 6, 2, 5}));
}

class EncoderEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EncoderEquivalence, IncrementalMatchesReference) {
    const int window = GetParam();
    ReferenceEncoder ref(window);
    PipelineEncoder pipe(window);
    util::Rng rng(1000 + static_cast<std::uint64_t>(window));
    for (int i = 0; i < 500; ++i) {
        // Small value range provokes plenty of ties.
        const std::int64_t x = rng.range(0, 15);
        const auto a = ref.push(x);
        const auto b = pipe.push(x);
        ASSERT_EQ(a.has_value(), b.has_value()) << "item " << i;
        if (a) {
            EXPECT_EQ(*a, *b) << "item " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Windows, EncoderEquivalence,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 18));

TEST(PipelineEncoder, CompareOpsScaleWithWindow) {
    // Per item in steady state: (N-1) rank adjustments + (N-1) compares.
    PipelineEncoder enc(8);
    for (int i = 0; i < 100; ++i) enc.push(i % 7);
    const auto ops_small = enc.compare_ops();
    PipelineEncoder big(16);
    for (int i = 0; i < 100; ++i) big.push(i % 7);
    EXPECT_GT(big.compare_ops(), ops_small);
}

TEST(PipelineEncoder, ReconfigureMatchesFreshEncoder) {
    PipelineEncoder enc(4);
    for (int i = 0; i < 10; ++i) enc.push(i);
    enc.reconfigure(6);
    PipelineEncoder fresh(6);
    util::Rng rng(77);
    for (int i = 0; i < 200; ++i) {
        const std::int64_t x = rng.range(0, 9);
        EXPECT_EQ(enc.push(x), fresh.push(x));
    }
}

// ----------------------------------------------------------- checksum --

TEST(Checksum, DeterministicAndOrderSensitive) {
    const std::vector<int> a = {1, 2, 3};
    const std::vector<int> b = {3, 2, 1};
    EXPECT_EQ(fold_checksum(0, a), fold_checksum(0, a));
    EXPECT_NE(fold_checksum(0, a), fold_checksum(0, b));
    EXPECT_NE(fold_checksum(0, a), 0u);
}

TEST(Checksum, FoldsAcrossLists) {
    const std::vector<int> a = {1, 2};
    const std::vector<int> b = {5};
    const auto acc = fold_checksum(fold_checksum(0, a), b);
    const std::vector<int> combined = {1, 2, 5};
    EXPECT_EQ(acc, fold_checksum(0, combined));
}

// ----------------------------------------------------------- DFS models --

TEST(OpeDfs, StaticModelValidates) {
    const auto p = build_static_ope_dfs(4);
    EXPECT_TRUE(p.graph.validate().empty());
    EXPECT_EQ(p.stages.size(), 4u);
    EXPECT_EQ(p.active_depth(), 4);
    EXPECT_THROW(build_static_ope_dfs(0), std::invalid_argument);
}

TEST(OpeDfs, ReconfigurableModelShape) {
    const auto p = build_reconfigurable_ope_dfs(5, 4);
    EXPECT_TRUE(p.graph.validate().empty());
    EXPECT_FALSE(p.stages[0].reconfigurable);        // s1 static
    EXPECT_EQ(p.stages[1].rings.size(), 1u);          // s2 optimised
    EXPECT_EQ(p.stages[2].rings.size(), 2u);          // s3 full
    EXPECT_EQ(p.active_depth(), 4);
}

TEST(OpeDfs, DepthBoundsEnforced) {
    EXPECT_THROW(build_reconfigurable_ope_dfs(2, 2), std::invalid_argument);
    EXPECT_THROW(build_reconfigurable_ope_dfs(5, 2), std::invalid_argument);
    EXPECT_THROW(build_reconfigurable_ope_dfs(5, 6), std::invalid_argument);
    EXPECT_NO_THROW(build_reconfigurable_ope_dfs(5, 5));
}

TEST(OpeDfs, ReconfigurableStreamsAtReducedDepth) {
    auto p = build_reconfigurable_ope_dfs(5, 3);
    const dfs::Dynamics dyn(p.graph);
    dfs::Simulator sim(dyn, 3);
    dfs::State s = dfs::State::initial(p.graph);
    const auto stats = sim.run(s, 200000);
    EXPECT_FALSE(stats.deadlocked);
    EXPECT_GT(stats.marks_at(p.out), 10u);
    // Bypassed stages 4,5 produce only empty tokens.
    EXPECT_EQ(stats.marks_at(p.stages[3].global_out),
              stats.false_marks_at(p.stages[3].global_out));
    EXPECT_EQ(stats.marks_at(p.stages[4].global_out),
              stats.false_marks_at(p.stages[4].global_out));
}

TEST(OpeDfs, FullDepthVerifiedDeadlockFree) {
    const auto p = build_reconfigurable_ope_dfs(3, 3);
    verify::VerifyOptions options;
    options.max_states = 3'000'000;
    const verify::Verifier verifier(p.graph, options);
    const auto finding = verifier.verify(verify::Spec{}.deadlock()).findings[0];
    EXPECT_FALSE(finding.violated) << finding.to_string();
    EXPECT_FALSE(finding.truncated);
}

}  // namespace
}  // namespace rap::ope
