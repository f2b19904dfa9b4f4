#include "petri/parallel.hpp"

#include <algorithm>
#include <barrier>
#include <bit>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "petri/checkpoint.hpp"
#include "petri/pass.hpp"
#include "util/arena.hpp"
#include "util/steal_deque.hpp"

namespace rap::petri {

namespace {

using detail::copy_words;
using detail::kNoParent;

/// Deterministic total order on fixed-width word payloads — the
/// canonical tie-break the parallel engine uses wherever the sequential
/// engine would have used discovery order.
bool words_less(const std::uint64_t* a, const std::uint64_t* b,
                std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] != b[i]) return a[i] < b[i];
    }
    return false;
}

void spin_pause(unsigned round) noexcept {
    if (round < 64) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    } else {
        std::this_thread::yield();
    }
}

}  // namespace

// ------------------------------------------- ConcurrentMarkingStore --

ConcurrentMarkingStore::ConcurrentMarkingStore(std::size_t marking_words,
                                               std::size_t meta_words)
    : words_(std::max<std::size_t>(marking_words, 1)),
      record_words_(words_ + meta_words),
      table_size_(std::size_t{1} << 12),
      table_(std::make_unique<std::atomic<std::uint64_t>[]>(table_size_)) {
    for (std::size_t i = 0; i < table_size_; ++i) {
        table_[i].store(kEmptySlot, std::memory_order_relaxed);
    }
    // Power-of-two records per block so the id->record map is a
    // shift+mask; ~128K-word blocks.
    const std::size_t rpb = std::bit_floor(
        std::max<std::size_t>((std::size_t{1} << 14) / record_words_, 1));
    shift_ = static_cast<std::size_t>(std::bit_width(rpb) - 1);
    mask_ = static_cast<std::uint32_t>(rpb - 1);
}

std::size_t ConcurrentMarkingStore::size() const noexcept {
    // Between layers (the only place this is read) capacity losers have
    // repaired the counter, so it equals the number of owned records.
    return count_.load(std::memory_order_acquire);
}

std::uint64_t ConcurrentMarkingStore::hash(const std::uint64_t* words)
    const noexcept {
    return hash_marking_words(words, words_);
}

ConcurrentMarkingStore::InternResult ConcurrentMarkingStore::intern(
    const std::uint64_t* words, std::size_t capacity_limit,
    const std::uint64_t* meta_init, std::size_t meta_init_words) {
    const std::size_t mask = table_size_ - 1;
    const std::uint64_t h = hash(words);
    const std::uint64_t fragment = h & 0xFFFFFFFF00000000ULL;
    std::size_t slot = static_cast<std::size_t>(h) & mask;
    unsigned spins = 0;
    for (;;) {
        std::uint64_t entry = table_[slot].load(std::memory_order_acquire);
        if (entry == kEmptySlot) {
            if (!table_[slot].compare_exchange_weak(
                    entry, pack(h, kPendingId), std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                continue;  // lost the claim; re-examine the same slot
            }
            const std::uint32_t id =
                count_.fetch_add(1, std::memory_order_acq_rel);
            if (id >= capacity_limit) {
                // Repair the counter (so size() == capacity exactly) and
                // resolve the claim: the store is full for everyone.
                count_.fetch_sub(1, std::memory_order_acq_rel);
                table_[slot].store(pack(h, kCapacityId),
                                   std::memory_order_release);
                return {kNone, false};
            }
            // The id doubles as the arena position; the block was
            // zero-provisioned by the last serial reserve, so the meta
            // words beyond meta_init start zeroed.
            std::uint64_t* rec = record(id);
            copy_words(rec, words, words_);
            // Pre-publication meta (the canonical-min witness link and
            // depth): racing readers that learn the id below must never
            // see it uninitialised.
            copy_words(rec + words_, meta_init, meta_init_words);
            table_[slot].store(pack(h, id), std::memory_order_release);
            return {id, true};
        }
        const auto entry_id = static_cast<std::uint32_t>(entry);
        if (entry_id == kCapacityId) return {kNone, false};
        if ((entry & 0xFFFFFFFF00000000ULL) == fragment) {
            if (entry_id == kPendingId) {
                // Same fragment, record mid-publication: it may be our
                // marking, so wait for the claimant to resolve the slot.
                spin_pause(spins++);
                continue;
            }
            if (std::memcmp(record(entry_id), words,
                            words_ * sizeof(std::uint64_t)) == 0) {
                return {entry_id, false};
            }
        }
        slot = (slot + 1) & mask;
    }
}

void ConcurrentMarkingStore::reserve(std::size_t needed) {
    // Zero-provision blocks covering `needed`: make_unique
    // value-initialises, so a winner's record slot starts zeroed.
    const std::size_t rpb = std::size_t{mask_} + 1;
    while (reserved_ < needed) {
        blocks_.push_back(
            std::make_unique<std::uint64_t[]>(rpb * record_words_));
        reserved_ += rpb;
    }
    std::size_t want = table_size_;
    while (needed * 10 >= want * 7) want *= 2;
    if (want == table_size_) return;
    auto table = std::make_unique<std::atomic<std::uint64_t>[]>(want);
    for (std::size_t i = 0; i < want; ++i) {
        table[i].store(kEmptySlot, std::memory_order_relaxed);
    }
    const std::size_t mask = want - 1;
    const std::size_t count = count_.load(std::memory_order_acquire);
    for (std::uint32_t id = 0; id < count; ++id) {
        const std::uint64_t h = hash(record(id));
        std::size_t slot = static_cast<std::size_t>(h) & mask;
        while (table[slot].load(std::memory_order_relaxed) != kEmptySlot) {
            slot = (slot + 1) & mask;
        }
        table[slot].store(pack(h, id), std::memory_order_relaxed);
    }
    table_ = std::move(table);
    table_size_ = want;
}

std::size_t ConcurrentMarkingStore::record_bytes() const noexcept {
    return blocks_.size() * (std::size_t{mask_} + 1) * record_words_ *
           sizeof(std::uint64_t);
}

std::size_t ConcurrentMarkingStore::resident_bytes() const noexcept {
    return record_bytes() + table_size_ * sizeof(std::uint64_t) +
           blocks_.capacity() * sizeof(void*);
}

StoreStats ConcurrentMarkingStore::stats() const noexcept {
    StoreStats s;
    s.records = size();
    s.slots = table_size_;
    s.table_bytes = table_size_ * sizeof(std::uint64_t);
    s.arena_bytes = record_bytes();
    return s;
}

// -------------------------------------- ParallelReachabilityExplorer --

std::size_t ParallelReachabilityExplorer::resolve_threads(
    std::size_t requested) noexcept {
    if (requested != 0) return std::max<std::size_t>(requested, 1);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ParallelReachabilityExplorer::ParallelReachabilityExplorer(
    const Net& net, ReachabilityOptions options)
    : ExplorerBase(net, std::move(options)),
      threads_(resolve_threads(options_.threads)) {}

ParallelReachabilityExplorer::ParallelReachabilityExplorer(
    const CompiledNet& compiled, ReachabilityOptions options)
    : ExplorerBase(compiled, std::move(options)),
      threads_(resolve_threads(options_.threads)) {}

namespace {

using Violation = StoreCheckpoint::Violation;

/// One exploration pass: all shared state of the layer-synchronous BFS.
/// Workers only write their own WorkerCtx mid-layer; everything else
/// mutates in the barrier's serial completion step or before/after the
/// worker phase.
///
/// Memory layout (the diet that reaches the 19M-state OPE models): a
/// record is marking words plus two meta words — the atomic (via << 32 |
/// parent) canonical witness link and the BFS depth. The enabled bitsets
/// live OUTSIDE the records: each worker keeps two ping-pong arenas of
/// rows, one holding the frontier being expanded, one filling with
/// discoveries, and the barrier's serial step recycles the arena of the
/// layer that just finished — so only ~two BFS layers of enabled words
/// are ever resident instead of all of them.
class ParallelPass {
public:
    ParallelPass(const CompiledNet& compiled,
                 const ReachabilityOptions& options, const MultiQuery& query,
                 std::size_t workers)
        : shell_(compiled, options, query),
          workers_(workers),
          stop_(options.stop),
          // The CAS witness link is only worth maintaining when the pass
          // can be asked for a trace; a bare explore/count pays nothing.
          maintain_tree_(!query.goals.empty() || query.check_persistence),
          store_(shell_.mwords, kMetaWords),
          checkpoint_path_(options.checkpoint_path),
          save_every_layers_(options.checkpoint_every != 0
                                 ? options.checkpoint_every
                                 : 1),
          resume_(options.resume.get()),
          ctx_(workers),
          deques_(workers) {
        for (WorkerCtx& ctx : ctx_) {
            shell_.init(ctx);
            ctx.best.assign(query.goals.size(), kNoParent);
            // Small blocks: these hold ~one BFS layer per worker and are
            // recycled every other barrier, so the default block size
            // would pin far more than they ever use.
            ctx.earena.reserve(2);
            ctx.earena.emplace_back(shell_.twords, std::size_t{1} << 12);
            ctx.earena.emplace_back(shell_.twords, std::size_t{1} << 12);
        }
    }

    MultiResult run();

    /// Footprint snapshot for the abort path: whatever was interned and
    /// resident when the pass died. Serial only (workers joined).
    MemoryStats footprint() const {
        return detail::footprint(store_, resident_now(), peak_bytes_);
    }

private:
    /// Per-worker mutable state on top of the shared lane; cache-line
    /// aligned so neighbouring workers' per-edge counter updates do not
    /// false-share.
    struct alignas(64) WorkerCtx : detail::Lane {
        std::vector<std::uint32_t> out;  ///< next-layer discoveries
        /// Enabled-set row of each `out` entry (in the worker's write
        /// arena), stitched into frontier_rows_ at the barrier.
        std::vector<const std::uint64_t*> out_rows;
        std::vector<std::uint32_t> best;  ///< per-goal best hit this layer
        /// Ping-pong enabled-row arenas: [parity] fills with discoveries
        /// while [1 - parity] backs the frontier.
        std::vector<util::WordArena> earena;
        std::size_t out_edges = 0;  ///< enabled-bit sum of discoveries
        std::size_t steals = 0;     ///< chunks taken from other workers
    };

    bool markings_less(std::uint32_t a, std::uint32_t b) const {
        return words_less(store_[a], store_[b], shell_.mwords);
    }

    bool violation_less(const Violation& a, const Violation& b) const {
        if (a.depth != b.depth) return a.depth < b.depth;
        if (a.state != b.state) return markings_less(a.state, b.state);
        if (a.fired != b.fired) return a.fired < b.fired;
        return a.disabled < b.disabled;
    }

    /// Evaluates deadlock collection and pending goals on a freshly
    /// published state, keeping per goal the canonical
    /// (lexicographically smallest) hit of the layer so witnesses do not
    /// depend on worker scheduling.
    void visit(std::uint32_t id, const std::uint64_t* enabled,
               WorkerCtx& ctx) {
        shell_.visit(id, store_[id], enabled, ctx, [&](std::size_t g) {
            if (ctx.best[g] == kNoParent || markings_less(id, ctx.best[g])) {
                ctx.best[g] = id;
            }
        });
    }

    void check_persistence_edges(std::uint32_t head, TransitionId fired,
                                 const std::uint64_t* head_enabled,
                                 WorkerCtx& ctx) {
        shell_.scan_persistence(
            fired, head_enabled, [&](TransitionId t, TransitionId u) {
                ctx.violations.push_back(
                    {head, static_cast<std::uint32_t>(depth_), t.value,
                     u.value});
                return true;
            });
        // Bounded collection: each worker only ever needs its own
        // canonically-smallest K (min-K of a union is the min-K of the
        // parts' min-Ks, whatever the edge partition was).
        const std::size_t max = shell_.query.persistence_max_violations;
        if (max != SIZE_MAX &&
            ctx.violations.size() > std::max<std::size_t>(2 * max, 64)) {
            std::sort(ctx.violations.begin(), ctx.violations.end(),
                      [this](const Violation& a, const Violation& b) {
                          return violation_less(a, b);
                      });
            ctx.violations.resize(max);
        }
    }

    /// Canonical-min maintenance on a same-layer duplicate edge: if the
    /// rediscovered state sits one layer deeper than the expanding
    /// frontier, race the (parent marking, via) pair into its witness
    /// link, keeping the lexicographically smallest. The final value at
    /// the barrier is the min over every fired in-edge — independent of
    /// worker scheduling, so traces stay deterministic across runs and
    /// thread counts.
    void cas_witness_link(std::uint32_t child, std::uint32_t parent,
                          TransitionId via) {
        std::uint64_t* record = store_.record_mut(child);
        // Depth is written before the id is published and never again.
        if (record[shell_.mwords + 1] != depth_ + 1) return;
        std::atomic_ref<std::uint64_t> link(record[shell_.mwords]);
        const std::uint64_t cand =
            (std::uint64_t{via.value} << 32) | parent;
        std::uint64_t cur = link.load(std::memory_order_acquire);
        for (;;) {
            const auto cur_parent = static_cast<std::uint32_t>(cur);
            // Markings are interned: distinct parent ids hold distinct
            // markings, so the order is strict.
            const bool smaller =
                cur_parent == parent
                    ? via.value < static_cast<std::uint32_t>(cur >> 32)
                    : markings_less(parent, cur_parent);
            if (!smaller) return;
            if (link.compare_exchange_weak(cur, cand,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
                return;
            }
        }
    }

    void expand(std::uint32_t head, const std::uint64_t* enabled,
                WorkerCtx& ctx) {
        const std::uint64_t* marking = store_[head];
        const std::size_t twords = shell_.twords;
        auto aborted = [this] {
            return abort_now_.load(std::memory_order_relaxed);
        };

        // Persistence is a property of the FULL graph's edges: under
        // reduction, check every enabled transition's edge up front so
        // the verdict never depends on which edges the stubborn set kept.
        const bool prepass = shell_.por && shell_.query.check_persistence;
        auto scan_edge = [&](TransitionId t) {
            if (aborted()) return false;
            check_persistence_edges(head, t, enabled, ctx);
            return true;
        };
        if (prepass &&
            !detail::for_each_bit(enabled, nullptr, twords, scan_edge)) {
            return;
        }

        // True once some successor of head sits in the next BFS layer:
        // the reduced expansion then provably makes progress and the
        // ignoring proviso holds without widening.
        bool fresh_seen = false;

        auto expand_edge = [&](TransitionId t) -> bool {
            // Per-worker edge-counter stop poll: the serial layer poll
            // alone lets one enormous (or heavily reduced) layer blow
            // straight through a sweep deadline.
            if (stop_ && (ctx.edges & 255u) == 0 && stop_()) {
                truncated_.store(true, std::memory_order_relaxed);
                abort_now_.store(true, std::memory_order_release);
                return false;
            }
            ++ctx.edges;
            shell_.fire_into(ctx, marking, t);

            if (!prepass && shell_.query.check_persistence) {
                check_persistence_edges(head, t, enabled, ctx);
            }

            const std::uint64_t meta_init[kMetaWords] = {
                (std::uint64_t{t.value} << 32) | head, depth_ + 1};
            const auto interned = store_.intern(
                ctx.child.data(), shell_.cap, meta_init, kMetaWords);
            if (interned.id == ConcurrentMarkingStore::kNone) {
                truncated_.store(true, std::memory_order_relaxed);
                abort_now_.store(true, std::memory_order_release);
                return false;
            }
            if (!interned.inserted) {
                if (maintain_tree_) {
                    cas_witness_link(interned.id, head, t);
                }
                // The depth word is written pre-publication and never
                // changes, so this read is race-free. Next-layer
                // duplicates count as progress exactly like the
                // sequential engine's id watermark does.
                if (shell_.por &&
                    store_[interned.id][shell_.mwords + 1] == depth_ + 1) {
                    fresh_seen = true;
                }
                return true;
            }
            fresh_seen = true;

            util::WordArena& arena = ctx.earena[write_parity_];
            std::uint64_t* child_enabled = arena[arena.push(enabled)];
            shell_.compiled.update_enabled(ctx.child.data(), t,
                                           child_enabled);
            ctx.out_edges += detail::popcount_words(child_enabled, twords);
            visit(interned.id, child_enabled, ctx);
            ctx.out.push_back(interned.id);
            ctx.out_rows.push_back(child_enabled);
            return true;
        };

        auto edge = [&](TransitionId t) {
            return !aborted() && expand_edge(t);
        };
        shell_.expand_state(
            marking, enabled, ctx,
            [&](const std::uint64_t* bits, const std::uint64_t* minus) {
                const bool finished =
                    detail::for_each_bit(bits, minus, twords, edge);
                return !finished || fresh_seen;
            });
    }

    void run_chunk(std::uint64_t task, WorkerCtx& ctx) {
        const auto begin = static_cast<std::size_t>(task >> 32);
        const auto end =
            static_cast<std::size_t>(static_cast<std::uint32_t>(task));
        for (std::size_t i = begin; i < end; ++i) {
            if (abort_now_.load(std::memory_order_relaxed)) return;
            expand(frontier_[i], frontier_rows_[i], ctx);
        }
    }

    /// Work-stealing scheduling: drain the own deque, then steal the
    /// oldest chunks of any loaded neighbour. Exiting is exact — chunks
    /// are only pushed by the serial step, so once every deque reads
    /// empty no further intra-layer work can appear.
    void process_layer(std::size_t w) {
        WorkerCtx& ctx = ctx_[w];
        unsigned idle = 0;
        std::uint64_t task;
        for (;;) {
            if (abort_now_.load(std::memory_order_relaxed)) return;
            if (deques_[w].pop(task)) {
                idle = 0;
                run_chunk(task, ctx);
                continue;
            }
            bool ran = false;
            for (std::size_t k = 1; k < workers_; ++k) {
                if (deques_[(w + k) % workers_].steal(task)) {
                    ++ctx.steals;
                    ran = true;
                    run_chunk(task, ctx);
                    break;
                }
            }
            if (ran) {
                idle = 0;
                continue;
            }
            bool all_empty = true;
            for (std::size_t v = 0; v < workers_ && all_empty; ++v) {
                all_empty = deques_[v].empty();
            }
            if (all_empty) return;
            spin_pause(idle++);  // transient: a steal race is resolving
        }
    }

    /// Records the pass's first error and makes every worker stop.
    void fail_with(std::exception_ptr error) noexcept {
        {
            const std::lock_guard<std::mutex> lock(error_mu_);
            if (!error_) error_ = std::move(error);
        }
        abort_now_.store(true, std::memory_order_release);
    }

    void process_layer_guarded(std::size_t w) noexcept {
        try {
            process_layer(w);
        } catch (...) {
            fail_with(std::current_exception());
        }
    }

    /// Fills the per-worker deques with the current frontier, dealt as
    /// contiguous chunks so the no-steal case degenerates to a static
    /// partition.
    void prepare_frontier_schedule() {
        const std::size_t chunk = std::clamp<std::size_t>(
            frontier_.size() / (workers_ * 8), 1, 256);
        const std::size_t tasks =
            (frontier_.size() + chunk - 1) / chunk;
        const std::size_t per_worker = (tasks + workers_ - 1) / workers_;
        for (util::StealDeque& deque : deques_) {
            deque.reset_and_reserve(per_worker);
        }
        std::size_t begin = 0;
        for (std::size_t task = 0; begin < frontier_.size(); ++task) {
            const std::size_t end =
                std::min(begin + chunk, frontier_.size());
            deques_[task / per_worker].push(
                (static_cast<std::uint64_t>(begin) << 32) |
                static_cast<std::uint32_t>(end));
            begin = end;
        }
    }

    /// Bytes resident right now, sampled at layer boundaries for
    /// memory_stats(): records + table, the live enabled-row arenas, and
    /// the frontier bookkeeping.
    std::size_t resident_now() const {
        std::size_t bytes = store_.resident_bytes();
        for (const WorkerCtx& ctx : ctx_) {
            for (const util::WordArena& arena : ctx.earena) {
                bytes += arena.resident_bytes();
            }
            bytes += ctx.out.capacity() * sizeof(std::uint32_t) +
                     ctx.out_rows.capacity() * sizeof(std::uint64_t*);
        }
        bytes += frontier_.capacity() * sizeof(std::uint32_t) +
                 frontier_rows_.capacity() * sizeof(std::uint64_t*);
        return bytes;
    }

    /// Serial (barrier completion): snapshots the pass at the layer
    /// boundary layer_done() just stitched, with the next frontier's ids
    /// as the cursor; resume recomputes the frontier's enabled rows.
    /// Throws on IO failure (caught by the caller and routed through the
    /// pass's error path).
    void save_checkpoint() const {
        StoreCheckpoint ckpt = shell_.capture(
            StoreCheckpoint::Engine::kParallel, kMetaWords, store_, ctx_);
        ckpt.head = ckpt.record_count;
        ckpt.next_layer_begin = ckpt.record_count;
        ckpt.depth = depth_;
        ckpt.frontier = frontier_;
        ckpt.save(checkpoint_path_);
    }

    /// Rebuilds the pass from resume_ — refusing any mismatch: a resume
    /// point must never silently restart or corrupt an exploration — with
    /// every verdict accumulator seeded into worker 0's lane and the
    /// checkpointed frontier as the next layer.
    void restore() {
        const StoreCheckpoint& ckpt = *resume_;
        ckpt.check_resumable(StoreCheckpoint::Engine::kParallel, kMetaWords,
                             shell_.compiled, shell_.cap,
                             shell_.query.goals.size());
        store_.reserve(static_cast<std::size_t>(ckpt.record_count));
        shell_.restore(ckpt, ctx_[0], [&](const std::uint64_t* rec) {
            return store_.intern(rec, shell_.cap, rec + shell_.mwords,
                                 kMetaWords);
        });
        depth_ = static_cast<std::size_t>(ckpt.depth);
        frontier_ = ckpt.frontier;
    }

    /// Serial: computes frontier_'s enabled rows where discovery would
    /// have put them — worker 0's read-parity arena — and returns their
    /// out-edge count.
    std::size_t load_frontier_rows() {
        util::WordArena& arena = ctx_[0].earena[1 - write_parity_];
        std::size_t out_edges = 0;
        frontier_rows_.reserve(frontier_.size());
        for (const std::uint32_t id : frontier_) {
            std::uint64_t* row = arena[arena.push_zero()];
            shell_.compiled.enabled_set(store_[id], row);
            out_edges += detail::popcount_words(row, shell_.twords);
            frontier_rows_.push_back(row);
        }
        return out_edges;
    }

    /// Serial: settles every unmatched goal on the canonical-min of the
    /// workers' best hits since the last settlement.
    void settle_goals() noexcept {
        for (std::size_t g = 0; g < shell_.goal_hit.size(); ++g) {
            if (shell_.goal_hit[g] != kNoParent) continue;
            std::uint32_t best = kNoParent;
            for (WorkerCtx& ctx : ctx_) {
                const std::uint32_t hit = std::exchange(ctx.best[g],
                                                        kNoParent);
                if (hit != kNoParent &&
                    (best == kNoParent || markings_less(hit, best))) {
                    best = hit;
                }
            }
            if (best != kNoParent) {
                shell_.goal_hit[g] = best;
                --shell_.unmatched;
            }
        }
    }

    /// Serial between-layers step, run by the barrier's completion while
    /// every worker is parked: stitches the next frontier, provisions the
    /// store, settles this layer's goal hits, and decides whether the
    /// pass is done.
    void layer_done() noexcept {
        // Witness links live in the records; the expanded layer's id list
        // is dead weight at 19M-state scale.
        frontier_.clear();
        frontier_rows_.clear();
        // Recycle the arena that backed the just-expanded frontier: its
        // rows are never read again, the next layer's discoveries
        // overwrite them in place.
        write_parity_ = 1 - write_parity_;
        for (WorkerCtx& ctx : ctx_) ctx.earena[write_parity_].clear();
        std::size_t out_edges = 0;
        std::size_t violations = 0;
        for (WorkerCtx& ctx : ctx_) {
            frontier_.insert(frontier_.end(), ctx.out.begin(),
                             ctx.out.end());
            frontier_rows_.insert(frontier_rows_.end(),
                                  ctx.out_rows.begin(),
                                  ctx.out_rows.end());
            ctx.out.clear();
            ctx.out_rows.clear();
            out_edges += ctx.out_edges;
            ctx.out_edges = 0;
            violations += ctx.violations.size();
        }
        ++depth_;  // frontier_ now holds states at this BFS depth
        settle_goals();
        peak_bytes_ = std::max(peak_bytes_, resident_now());

        if (stop_ && stop_()) {
            // Cooperative stop (sweep cancellation / timeout), polled
            // once per layer while every worker is parked: end the pass
            // and report it truncated.
            truncated_.store(true, std::memory_order_relaxed);
            done_ = true;
            return;
        }

        if (abort_now_.load(std::memory_order_acquire) ||
            frontier_.empty() ||
            (shell_.can_early_stop && shell_.unmatched == 0) ||
            (shell_.query.persistence_stop_at_first && violations != 0)) {
            done_ = true;
            return;
        }

        if (!checkpoint_path_.empty() &&
            ++layers_since_save_ >= save_every_layers_) {
            layers_since_save_ = 0;
            try {
                save_checkpoint();
            } catch (...) {
                // IO failure must surface as an aborted pass, not a
                // silently skipped resume point: route it through the
                // same error path a worker exception takes.
                fail_with(std::current_exception());
                done_ = true;
                return;
            }
        }

        store_.reserve(std::min(store_.size() + out_edges, shell_.cap));
        prepare_frontier_schedule();
    }

    /// Shared worker-pool loop: runs barrier-synchronized layers until
    /// done_, then assembles (fresh and resumed passes both land here).
    MultiResult run_layers();

    MultiResult assemble();

    /// Meta words per record: the (via << 32 | parent) canonical witness
    /// link and the BFS depth (the freshness test of the reduction's
    /// ignoring proviso, mirroring the sequential engine's id watermark).
    static constexpr std::uint32_t kMetaWords = 2;

    detail::PassShell shell_;
    const std::size_t workers_;
    const std::function<bool()> stop_;  ///< cooperative stop hook
    const bool maintain_tree_;  ///< CAS links worth updating this pass

    ConcurrentMarkingStore store_;
    /// Periodic resume-point persistence (empty = off). Saved in the
    /// barrier's serial step every `save_every_layers_` completed layers,
    /// while every worker is parked — the records are quiescent, so the
    /// snapshot is a consistent layer boundary by construction.
    const std::string checkpoint_path_;
    const std::size_t save_every_layers_;
    const StoreCheckpoint* const resume_;  ///< resume point, or null
    std::size_t layers_since_save_ = 0;
    std::vector<std::uint32_t> frontier_;
    /// Enabled-set row per frontier index, stitched at the barrier.
    std::vector<const std::uint64_t*> frontier_rows_;
    std::size_t depth_ = 0;  ///< BFS depth of the frontier being expanded
    int write_parity_ = 1;   ///< worker arena receiving discoveries
    std::size_t peak_bytes_ = 0;

    std::atomic<bool> abort_now_{false};
    std::atomic<bool> truncated_{false};
    bool done_ = false;

    std::vector<WorkerCtx> ctx_;
    std::vector<util::StealDeque> deques_;
    std::mutex error_mu_;
    std::exception_ptr error_;
};

MultiResult ParallelPass::run() {
    if (resume_ != nullptr) {
        restore();
    } else {
        // Root state, interned serially at depth 0.
        const Marking m0 = shell_.net.initial_marking();
        copy_words(ctx_[0].child.data(), m0.word_data(), m0.word_count());
        store_.reserve(1);
        const std::uint64_t root_meta[kMetaWords] = {kNoParent, 0};
        frontier_.push_back(store_
                                .intern(ctx_[0].child.data(), shell_.cap,
                                        root_meta, kMetaWords)
                                .id);
    }
    const std::size_t out_edges = load_frontier_rows();
    if (resume_ == nullptr) {
        // Root hits settle exactly like a layer boundary's.
        visit(frontier_[0], frontier_rows_[0], ctx_[0]);
        settle_goals();
    }
    if (frontier_.empty() ||
        (shell_.can_early_stop && shell_.unmatched == 0)) {
        return assemble();  // nothing to explore / nothing left to ask
    }
    store_.reserve(std::min(store_.size() + out_edges, shell_.cap));
    prepare_frontier_schedule();
    return run_layers();
}

MultiResult ParallelPass::run_layers() {
    auto completion = [this]() noexcept { layer_done(); };
    std::barrier sync(static_cast<std::ptrdiff_t>(workers_), completion);

    auto worker_main = [this, &sync](std::size_t w) {
        for (;;) {
            process_layer_guarded(w);
            sync.arrive_and_wait();
            if (done_) break;
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers_ - 1);
    for (std::size_t w = 1; w < workers_; ++w) {
        pool.emplace_back(worker_main, w);
    }
    worker_main(0);
    for (std::thread& t : pool) t.join();

    if (error_) std::rethrow_exception(error_);
    return assemble();
}

MultiResult ParallelPass::assemble() {
    // Canonical verdict order, whichever worker found what: deadlocks by
    // marking, violations by (depth, marking, pair), cut to what the
    // query keeps.
    std::vector<std::uint32_t> dead;
    std::vector<Violation> violations;
    for (const WorkerCtx& ctx : ctx_) {
        dead.insert(dead.end(), ctx.deadlocks.begin(), ctx.deadlocks.end());
        violations.insert(violations.end(), ctx.violations.begin(),
                          ctx.violations.end());
    }
    std::sort(dead.begin(), dead.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return markings_less(a, b);
              });
    std::sort(violations.begin(), violations.end(),
              [this](const Violation& a, const Violation& b) {
                  return violation_less(a, b);
              });
    std::size_t keep = shell_.query.persistence_max_violations;
    if (shell_.query.persistence_stop_at_first) {
        keep = std::min<std::size_t>(keep, 1);
    }
    if (violations.size() > keep) violations.resize(keep);
    return shell_.finish(store_, ctx_,
                         truncated_.load(std::memory_order_acquire),
                         footprint(), dead, violations);
}

}  // namespace

MultiResult ParallelReachabilityExplorer::run_query(
    const MultiQuery& query) {
    if (threads_ <= 1) {
        // The contract for threads == 1: bit-for-bit the sequential
        // engine, including its discovery-order witness selection.
        ReachabilityExplorer sequential(*compiled_, options_);
        return sequential.run_query(query);
    }
    ParallelPass pass(*compiled_, options_, query, threads_);
    try {
        return pass.run();
    } catch (const ExplorationAborted&) {
        throw;
    } catch (const std::exception& e) {
        // The pass died mid-exploration (goal predicate threw, checkpoint
        // write failed, resume point rejected): attach the interned
        // footprint so accounting survives the abort.
        throw ExplorationAborted(e.what(), pass.footprint());
    }
}

}  // namespace rap::petri
