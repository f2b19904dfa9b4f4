#pragma once

#include <condition_variable>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "verify/artifacts.hpp"

namespace rap::verify {

/// Cache snapshot, taken by ArtifactCache::stats(). Every lookup is
/// exactly one hit or one miss (waiting on another caller's in-flight
/// build counts as a hit — the waiter does not build), so `hits +
/// misses` reconciles with the total lookup count and `misses` with the
/// number of artifact builds the cache ran.
struct CacheStats {
    std::size_t hits = 0;       ///< lookups served from the cache
    std::size_t misses = 0;     ///< lookups that triggered a build
    std::size_t evictions = 0;  ///< entries dropped by the LRU policy
    std::size_t entries = 0;    ///< cached models right now
    std::size_t bytes = 0;      ///< estimated resident bytes right now
    std::size_t pinned = 0;     ///< held entries right now (see ArtifactCache)
    std::size_t capacity_bytes = 0;
};

/// Concurrent LRU cache of CompiledModel artifacts, keyed by exact model
/// content (verify::model_fingerprint). One mutex guards it all: a
/// lookup takes it about once per verification pass, and a pass runs
/// for milliseconds.
///
/// - **Byte-capacity LRU.** Capacity is bytes (CompiledModel::
///   approx_bytes); every lookup evicts least-recently-used entries
///   that are not held until the cache fits again.
/// - **Build coalescing.** The first caller to miss a key builds the
///   model *outside* the lock; concurrent callers for the same key block
///   until that build lands instead of compiling again — dedup before
///   compile, even when a batch driver's workers race on identical
///   configurations.
/// - **Held entries stay.** An entry is held while it is building, or
///   while anyone besides the cache owns its model (its use count, read
///   under the lock, exceeds the cache's own reference). Eviction and
///   clear() skip held entries, so a session's model is never rebuilt
///   while the session lives. The count can read stale-high when a
///   holder lets go concurrently, never stale-low: a copy only leaves
///   the cache under its lock. Held entries may push the cache past
///   capacity; the first lookup after they are released reclaims the
///   overshoot.
/// - **Delta builds.** A miss whose structural key
///   (model_structure_fingerprint, the full key's prefix) matches a
///   live model is compiled off that model with CompiledModel(graph,
///   parent), which copies its compiled tables.
class ArtifactCache {
public:
    explicit ArtifactCache(std::size_t capacity_bytes = 64 * 1024 * 1024);
    ArtifactCache(const ArtifactCache&) = delete;
    ArtifactCache& operator=(const ArtifactCache&) = delete;

    /// The artifact for `graph`: a cache hit, or exactly one build per
    /// key no matter how many callers miss it concurrently.
    std::shared_ptr<const CompiledModel> get(const dfs::Graph& graph);

    CacheStats stats() const;

    /// Drops every entry that is not held (hit/miss/eviction counters
    /// are kept; the dropped entries do not count as evictions).
    void clear();

    std::size_t capacity_bytes() const noexcept { return capacity_bytes_; }

    /// The process-wide instance behind verify::compile_model and every
    /// flow::Design session.
    static ArtifactCache& process_cache();

private:
    struct Entry {
        std::string key;
        std::shared_ptr<const CompiledModel> model;  ///< null while building
        std::size_t bytes = 0;
    };
    using Slot = std::list<Entry>::iterator;

    static bool held(const Entry& entry) noexcept {
        return entry.model == nullptr || entry.model.use_count() > 1;
    }
    /// Unlinks `slot` without counting an eviction; returns its
    /// successor. Caller holds mutex_.
    Slot drop(Slot slot);
    void evict_overflow();  ///< caller holds mutex_

    const std::size_t capacity_bytes_;
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    /// Most-recently-used first; list iterators stay valid, so a builder
    /// keeps its placeholder's slot across the unlocked build.
    std::list<Entry> lru_;
    std::unordered_map<std::string, Slot> index_;
    std::size_t bytes_ = 0;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
    std::size_t evictions_ = 0;
    /// Structural key -> the latest model of that structure, held weakly:
    /// a delta build wants *a* live parent but must not keep evicted
    /// models alive.
    std::unordered_map<std::string, std::weak_ptr<const CompiledModel>>
        structural_;
};

/// Snapshot of the process-wide artifact cache (the instance behind
/// verify::compile_model and flow::Design): hit/miss/eviction counters,
/// resident bytes and held entries.
CacheStats cache_stats();

}  // namespace rap::verify
