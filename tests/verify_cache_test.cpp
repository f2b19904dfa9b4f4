// Tests for the concurrent LRU artifact cache: counter reconciliation
// under a multi-threaded hammer, build coalescing (no double-build when
// callers race on one key), byte-capacity LRU eviction, held entries
// surviving eviction and clear(), delta builds, and the fingerprints
// that key them. Each TEST() runs as its own ctest process, so deltas of
// the global artifact_builds() counter are safe.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "dfs/translate.hpp"
#include "dfs_helpers.hpp"
#include "ope/dfs_models.hpp"
#include "petri/reachability.hpp"
#include "petri_fixtures.hpp"
#include "pipeline/builder.hpp"
#include "rap/verify/cache.hpp"

namespace rap::verify {
namespace {

using dfs::Graph;
using dfs::TokenValue;

/// A small distinct model: a 3-control ring whose name prefix makes the
/// content unique. Same node/arc counts for every id, so every variant
/// has the same approx_bytes() — convenient for capacity math.
///
/// Concurrent tests build their models INSIDE each thread: a Graph's
/// lazy adjacency cache is not thread-safe, so sharing one instance
/// across racing lookups is outside the library contract (the sweep
/// service likewise builds one model per grid point). Identical content
/// still dedups — the cache keys on the content hash, not the object.
Graph make_model(int id) {
    Graph g("cache_model_" + std::to_string(id));
    dfs::testing::add_control_ring(g, "r" + std::to_string(id),
                                   TokenValue::True);
    return g;
}

/// approx_bytes() of one make_model() artifact, for capacity math.
std::size_t model_bytes() {
    ArtifactCache probe;
    return probe.get(make_model(0))->approx_bytes();
}

TEST(ArtifactCache, ConcurrentHammerCountersReconcile) {
    constexpr int kThreads = 8;
    constexpr int kRounds = 25;
    constexpr int kModels = 6;

    ArtifactCache cache;  // default capacity: room for every model
    const std::size_t builds_before = artifact_builds();

    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            std::vector<Graph> models;
            for (int m = 0; m < kModels; ++m)
                models.push_back(make_model(m));
            while (!go.load()) {
            }
            for (int r = 0; r < kRounds; ++r) {
                for (const Graph& g : models) {
                    const auto model = cache.get(g);
                    ASSERT_NE(model, nullptr);
                    ASSERT_GT(model->approx_bytes(), 0u);
                }
            }
        });
    }
    go.store(true);
    for (auto& t : threads) t.join();

    const CacheStats stats = cache.stats();
    // Every lookup is exactly one hit or one miss (waiters on an
    // in-flight build count as hits)...
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<std::size_t>(kThreads) * kRounds * kModels);
    // ...and a miss is exactly one build: build coalescing means the
    // cache compiled each distinct model once, no matter how the 8
    // threads raced.
    EXPECT_EQ(stats.misses, static_cast<std::size_t>(kModels));
    EXPECT_EQ(artifact_builds() - builds_before,
              static_cast<std::size_t>(kModels));
    EXPECT_EQ(stats.entries, static_cast<std::size_t>(kModels));
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.pinned, 0u);
}

TEST(ArtifactCache, RacingMissesOnOneKeyBuildOnce) {
    constexpr int kThreads = 8;

    ArtifactCache cache;
    const std::size_t builds_before = artifact_builds();

    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            const Graph g = make_model(0);
            while (!go.load()) {
            }
            const auto model = cache.get(g);
            ASSERT_NE(model, nullptr);
        });
    }
    go.store(true);
    for (auto& t : threads) t.join();

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, static_cast<std::size_t>(kThreads) - 1);
    EXPECT_EQ(artifact_builds() - builds_before, 1u);
}

TEST(ArtifactCache, EvictsLeastRecentlyUsedUnderCapacity) {
    // Capacity for exactly two of the (equally sized) models.
    const std::size_t bytes = model_bytes();
    ASSERT_GT(bytes, 0u);
    ArtifactCache cache(2 * bytes + bytes / 2);

    const Graph g0 = make_model(0);
    const Graph g1 = make_model(1);
    const Graph g2 = make_model(2);

    cache.get(g0);
    cache.get(g1);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // Third insert overflows the cache: the least recently used (g0)
    // goes, the newcomer and g1 stay resident.
    cache.get(g2);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_LE(cache.stats().bytes, cache.capacity_bytes());

    const std::size_t misses_before = cache.stats().misses;
    cache.get(g1);  // still resident -> hit
    cache.get(g2);  // still resident -> hit
    EXPECT_EQ(cache.stats().misses, misses_before);
    cache.get(g0);  // was evicted -> miss, rebuilt
    EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(ArtifactCache, PinnedEntrySurvivesEvictionPressure) {
    ArtifactCache cache(model_bytes());  // room for exactly one model

    const Graph g0 = make_model(0);
    const Graph g1 = make_model(1);

    // Owning the model is what pins it: a held entry is never evicted.
    std::shared_ptr<const CompiledModel> held = cache.get(g0);
    ASSERT_NE(held, nullptr);
    EXPECT_EQ(cache.stats().pinned, 1u);

    // g1 overflows the cache, but both entries are held — g0 by this
    // test, g1 by its own lookup while it lands — so nothing goes yet.
    cache.get(g1);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // The next lookup reclaims the overshoot: g1 is no longer held.
    const std::size_t misses_before = cache.stats().misses;
    EXPECT_EQ(cache.get(g0), held);  // hit: still resident
    EXPECT_EQ(cache.stats().misses, misses_before);
    {
        const CacheStats stats = cache.stats();
        EXPECT_EQ(stats.entries, 1u);
        EXPECT_EQ(stats.evictions, 1u);
        EXPECT_LE(stats.bytes, cache.capacity_bytes());
    }

    // Once released, g0 is ordinary LRU prey again.
    held.reset();
    EXPECT_EQ(cache.stats().pinned, 0u);
    cache.get(g1);  // insert overflows -> evicts the released g0
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.evictions, 2u);
}

TEST(ArtifactCache, HeldModelsSurviveConcurrentEvictionChurn) {
    // Four holders keep one model each across re-lookups while four
    // churners push other models through a cache with room for two.
    constexpr int kHolders = 4;
    constexpr int kChurners = 4;
    constexpr int kRelookups = 40;
    constexpr int kChurnModels = 24;

    ArtifactCache cache(2 * model_bytes());
    const std::size_t builds_before = artifact_builds();

    std::atomic<bool> go{false};
    std::atomic<int> holders_running{kHolders};
    std::atomic<std::size_t> churn_lookups{0};
    std::vector<std::thread> threads;
    threads.reserve(kHolders + kChurners);
    for (int h = 0; h < kHolders; ++h) {
        threads.emplace_back([&, h] {
            const Graph g = make_model(h);
            while (!go.load()) {
            }
            const auto held = cache.get(g);
            for (int r = 0; r < kRelookups; ++r) {
                // Let some churn land between two re-lookups.
                const std::size_t seen = churn_lookups.load();
                while (churn_lookups.load() == seen) {
                    std::this_thread::yield();
                }
                EXPECT_EQ(cache.get(g).get(), held.get())
                    << "holder " << h << ", re-lookup " << r;
            }
            holders_running.fetch_sub(1);
        });
    }
    for (int c = 0; c < kChurners; ++c) {
        threads.emplace_back([&, c] {
            std::vector<Graph> models;
            for (int m = 0; m < kChurnModels; ++m) {
                models.push_back(make_model(kHolders + m));
            }
            while (!go.load()) {
            }
            for (std::size_t i = 0; holders_running.load() > 0; ++i) {
                cache.get(models[(i + 6 * c) % kChurnModels]);
                churn_lookups.fetch_add(1);
            }
        });
    }
    go.store(true);
    for (auto& t : threads) t.join();

    {
        const CacheStats stats = cache.stats();
        EXPECT_GT(stats.evictions, 0u) << "the churn must evict";
        // No held entry was ever evicted and rebuilt behind a holder's
        // back: every build is one miss, and vice versa.
        EXPECT_EQ(artifact_builds() - builds_before, stats.misses);
    }

    // Everyone has let go: one more lookup brings the cache back under
    // capacity, and nothing stays held.
    cache.get(make_model(0));
    const CacheStats stats = cache.stats();
    EXPECT_LE(stats.bytes, cache.capacity_bytes());
    EXPECT_EQ(stats.pinned, 0u);
}

TEST(ArtifactCache, ClearDropsUnpinnedEntriesWithoutCountingEvictions) {
    ArtifactCache cache;
    cache.get(make_model(0));
    const Graph held_model = make_model(1);
    const std::shared_ptr<const CompiledModel> held = cache.get(held_model);

    cache.clear();
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);  // the held one survives
    EXPECT_EQ(stats.pinned, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.misses, 2u);  // counters survive clear()
    EXPECT_EQ(cache.get(held_model), held);
}

TEST(Incremental, ArtifactCacheServesReconfigurationsAsDeltas) {
    // Two compiles of the same structure under different initial
    // markings: the second is a cache miss (the fingerprint covers the
    // marking) but must be built as parent+delta via the structural
    // index, and answer exactly like a from-scratch compile.
    auto p3 = pipeline::build_pipeline(
        "inc_cache", dfs::testing::ope_style_stages(3, 3));
    auto p2 = pipeline::build_pipeline(
        "inc_cache", dfs::testing::ope_style_stages(3, 2));

    const std::size_t deltas_before = artifact_delta_builds();
    const auto parent = compile_model(p3.graph);
    ASSERT_NE(parent, nullptr);
    const auto child = compile_model(p2.graph);
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(artifact_delta_builds() - deltas_before, 1u)
        << "the reconfigured compile must take the delta path";

    const petri::Net fresh_net = dfs::to_petri(p2.graph).net;
    const petri::CompiledNet fresh(fresh_net);
    const petri::testfx::QueryBundle bundle(fresh_net);
    petri::ReachabilityOptions options;
    options.stop_at_first_match = false;
    const auto reference =
        petri::ReachabilityExplorer(fresh, options).run_query(bundle.query);
    const auto result =
        petri::ReachabilityExplorer(child->compiled(), options)
            .run_query(bundle.query);
    petri::testfx::expect_identical_passes(fresh_net, reference, result,
                                           "cache delta model");
    petri::testfx::expect_same_indexes(child->compiled(), fresh,
                                       "cache delta model");
}

TEST(ModelFingerprint, FullKeyExtendsTheStructuralKey) {
    // A depth change moves only initial markings: the structural key
    // stays and the full key moves. A stage change moves both.
    const auto s4d3 = ope::build_reconfigurable_ope_dfs(4, 3);
    const auto s4d4 = ope::build_reconfigurable_ope_dfs(4, 4);
    const auto s3d3 = ope::build_reconfigurable_ope_dfs(3, 3);

    const std::string structure = model_structure_fingerprint(s4d3.graph);
    const std::string full = model_fingerprint(s4d3.graph);
    EXPECT_EQ(full.compare(0, structure.size(), structure), 0)
        << "the full key starts with the structural key";
    EXPECT_GT(full.size(), structure.size());

    EXPECT_EQ(model_structure_fingerprint(s4d4.graph), structure);
    EXPECT_NE(model_fingerprint(s4d4.graph), full);

    EXPECT_NE(model_structure_fingerprint(s3d3.graph), structure);
    EXPECT_NE(model_fingerprint(s3d3.graph), full);
}

}  // namespace
}  // namespace rap::verify
