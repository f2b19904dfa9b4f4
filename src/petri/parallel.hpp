#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "petri/compiled.hpp"
#include "petri/net.hpp"
#include "petri/reachability.hpp"

namespace rap::petri {

/// Concurrent interned store of markings: the parallel engine's
/// replacement for the single-threaded MarkingStore. Records (marking
/// payload + caller-owned meta words) live at arena positions derived
/// from their dense id (`record = blocks[id >> shift] + (id & mask) *
/// record_words`), so the id IS the back-reference and no id->record
/// index is needed. One shared open-addressing table holds packed
/// (hash fragment | id) slots claimed by CAS; ids stay dense (discovery
/// order of the whole pass) via a shared counter, so BFS bookkeeping
/// still runs on plain arrays.
///
/// Concurrency contract: `intern` may run from any worker concurrently;
/// everything else (`reserve`, reads of records the caller has not
/// itself published) must be separated from intern calls by an external
/// happens-before edge — the engine's per-layer barrier. Capacity is
/// fixed while workers run: `reserve` must have provisioned at least as
/// many records as the layer can insert (the engine bounds a layer's
/// inserts by the frontier's out-edge count). Blocks are provisioned
/// zeroed by `reserve`; a winning intern writes payload + pre-publication
/// meta into its id's slot and publishes the table entry with release
/// ordering. Probing is linear (robin-hood displacement is not
/// lock-free), so the table grows at a 0.7 load ceiling.
class ConcurrentMarkingStore {
public:
    static constexpr std::uint32_t kNone = UINT32_MAX;

    ConcurrentMarkingStore(std::size_t marking_words,
                           std::size_t meta_words);

    /// Records interned so far, clamped to the construction-independent
    /// `capacity_limit` the callers passed (losers of the capacity race
    /// bump the shared counter past the limit without owning a record).
    std::size_t size() const noexcept;

    const std::uint64_t* operator[](std::uint32_t id) const noexcept {
        return record(id);
    }
    std::uint64_t* record_mut(std::uint32_t id) noexcept {
        return record(id);
    }
    std::size_t meta_offset() const noexcept { return words_; }
    const std::uint64_t* meta(std::uint32_t id) const noexcept {
        return record(id) + words_;
    }

    struct InternResult {
        std::uint32_t id = kNone;  ///< kNone when the limit blocked insert
        bool inserted = false;
    };

    /// Thread-safe lookup-or-insert. `capacity_limit` is the max_states
    /// cap (ids are only ever allocated below it, so when an insert fails
    /// on capacity exactly `capacity_limit` records exist).
    ///
    /// The first `meta_init_words` words of the record's meta area are
    /// copied from `meta_init` BEFORE the id is published, so concurrent
    /// readers of a freshly interned record always see them initialised
    /// (the canonical-min witness link depends on this). Any remaining
    /// meta words start zeroed and belong to the inserting caller until
    /// the next barrier publishes them.
    InternResult intern(const std::uint64_t* words,
                        std::size_t capacity_limit,
                        const std::uint64_t* meta_init = nullptr,
                        std::size_t meta_init_words = 0);

    /// Serial (between-layers): ensures the record blocks and the table
    /// can absorb `needed` records without any mid-layer growth.
    /// Rehashing recomputes record hashes instead of caching one word
    /// per id — O(records) per doubling, in exchange for 8 fewer resident
    /// bytes per record for the whole pass.
    void reserve(std::size_t needed);

    /// Record payload bytes resident in the id-indexed block run.
    std::size_t record_bytes() const noexcept;

    /// Records + interning table + block index. Serial only.
    std::size_t resident_bytes() const noexcept;

    /// Interning-table geometry for rap_store_* metrics. Serial only.
    StoreStats stats() const noexcept;

private:
    std::uint64_t hash(const std::uint64_t* words) const noexcept;

    std::uint64_t* record(std::uint32_t id) const noexcept {
        return blocks_[id >> shift_].get() +
               static_cast<std::size_t>(id & mask_) * record_words_;
    }

    // Slot states: empty, pending (claimed, record not yet published),
    // or final packed (hash fragment << 32 | id). Pending carries the
    // claimant's hash fragment so probes for other fragments skip past
    // without waiting. kCapacityId resolves a claim that lost the
    // capacity race — every prober treats it as "store full".
    static constexpr std::uint64_t kEmptySlot = UINT64_MAX;
    static constexpr std::uint32_t kPendingId = UINT32_MAX - 1;
    static constexpr std::uint32_t kCapacityId = UINT32_MAX - 2;
    static std::uint64_t pack(std::uint64_t h, std::uint32_t id) noexcept {
        return (h & 0xFFFFFFFF00000000ULL) | id;
    }

    std::size_t words_;         ///< marking payload words (hashed, deduped)
    std::size_t record_words_;  ///< payload + meta words per record
    std::atomic<std::uint32_t> count_{0};
    std::size_t table_size_ = 0;  ///< power of two
    std::unique_ptr<std::atomic<std::uint64_t>[]> table_;
    // Id-indexed zero-provisioned blocks, 2^shift_ records each. Only
    // `reserve` (serial) grows this, so worker reads of blocks_ race
    // nothing.
    std::size_t shift_ = 0;
    std::uint32_t mask_ = 0;
    std::size_t reserved_ = 0;  ///< records covered by blocks_
    std::vector<std::unique_ptr<std::uint64_t[]>> blocks_;
};

/// Parallel-frontier breadth-first reachability over 1-safe nets: the
/// layer-synchronous sibling of ReachabilityExplorer, sharding each BFS
/// layer across N worker threads over one shared immutable CompiledNet.
/// Workers intern successors through the ConcurrentMarkingStore, discover
/// the next layer into per-worker lists, and meet at a barrier whose
/// serial completion stitches the frontier, grows the table, and settles
/// per-goal hits — so every answer the sequential engine gives layer by
/// layer is reproduced exactly.
///
/// Result contract relative to ReachabilityExplorer, for identical
/// queries:
///  - states_explored / edges_explored / deadlock sets / persistence
///    violation sets / goal verdicts are identical for exhaustive passes
///    (no early stop, no truncation) — the reachable graph is walked
///    exactly once either way.
///  - witnesses are BFS-shortest: a goal's witness depth (trace length)
///    always equals the sequential engine's. The witness *marking* is the
///    canonical one — lexicographically smallest among the earliest
///    layer's matches — and its trace is rebuilt deterministically, so
///    results are identical across runs and across thread counts (the
///    sequential engine instead keeps its discovery-order first match).
///  - truncation stops with `truncated = true` and states_explored ==
///    max_states exactly (ids are allocated densely below the cap; there
///    is no overshoot slack).
///  - with stop_at_first_match (or persistence_stop_at_first) the pass
///    stops at the end of the layer that resolved it, so states/edges
///    counters may exceed the sequential engine's mid-layer stop. The
///    cooperative stop hook is honoured both at layer granularity and
///    every 256 per-worker edges (so wide or heavily reduced layers
///    cannot postpone a timeout).
///
/// options.threads == 1 delegates to a ReachabilityExplorer — bit-for-bit
/// today's sequential code path; 0 means one worker per hardware thread.
///
/// Goal predicates and the persistence exemption callback are invoked
/// concurrently from worker threads and must be thread-safe for const
/// access (every predicate built from Predicate atoms/connectives is).
class ParallelReachabilityExplorer
    : public ExplorerBase<ParallelReachabilityExplorer> {
public:
    /// Any number of explorers and verifiers can share one CompiledNet
    /// concurrently: it is never written to.
    explicit ParallelReachabilityExplorer(const Net& net,
                                          ReachabilityOptions options = {});
    explicit ParallelReachabilityExplorer(const CompiledNet& compiled,
                                          ReachabilityOptions options = {});

    MultiResult run_query(const MultiQuery& query);

    /// Worker threads a pass will use (options.threads resolved).
    std::size_t threads() const noexcept { return threads_; }

    /// 0 -> hardware_concurrency (at least 1), else the request itself.
    static std::size_t resolve_threads(std::size_t requested) noexcept;

private:
    std::size_t threads_;
};

}  // namespace rap::petri
