#pragma once

// The shell both reachability engines share around their BFS loops:
// query-derived pass constants, the goal ledger, the per-state steps they
// take the same way (discovery-time evaluation, the persistence scan, the
// reduction choice), resume, checkpoint capture and result assembly.
// Internal to reachability.cpp and parallel.cpp; not part of the facade.
//
// Per-engine behaviour enters the per-state steps as template callables,
// so each loop compiles to the same code as a hand-inlined copy.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "petri/checkpoint.hpp"
#include "petri/reachability.hpp"

namespace rap::petri::detail {

constexpr std::size_t kWordBits = util::BitVec::kWordBits;

/// Parent id of the root's witness link, and "unmatched" in the goal
/// ledger (both stores' kNone).
constexpr std::uint32_t kNoParent = UINT32_MAX;

inline void copy_words(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t n) {
    if (n != 0) std::memcpy(dst, src, n * sizeof(std::uint64_t));
}

inline std::size_t popcount_words(const std::uint64_t* bits,
                                  std::size_t n) {
    std::size_t count = 0;
    for (std::size_t w = 0; w < n; ++w) {
        count += static_cast<std::size_t>(std::popcount(bits[w]));
    }
    return count;
}

/// Calls `edge(t)` for every transition of bits & ~minus (minus may be
/// null) in ascending id order while it returns true. Returns false when
/// `edge` cut the walk short.
template <class Edge>
bool for_each_bit(const std::uint64_t* bits, const std::uint64_t* minus,
                  std::size_t words, Edge&& edge) {
    for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t word = bits[w];
        if (minus != nullptr) word &= ~minus[w];
        while (word != 0) {
            const TransitionId t{static_cast<std::uint32_t>(
                w * kWordBits +
                static_cast<std::size_t>(std::countr_zero(word)))};
            word &= word - 1;
            if (!edge(t)) return false;
        }
    }
    return true;
}

/// The footprint results and ExplorationAborted carry: the store's
/// records and table geometry, the bytes resident now, and the peak
/// (never below the resident figure).
template <class Store>
MemoryStats footprint(const Store& store, std::size_t resident,
                      std::size_t peak) {
    MemoryStats stats;
    stats.records = store.size();
    stats.record_bytes = store.record_bytes();
    stats.resident_bytes = resident;
    stats.peak_bytes = std::max(peak, resident);
    stats.store = store.stats();
    return stats;
}

/// One thread's working set: scratch for the per-state steps and its
/// share of the verdict accumulators. The sequential engine runs one
/// lane, the parallel engine one per worker. Verdicts are state ids,
/// materialized only at the end of the pass: witness links in the
/// records are immutable once written, so late materialization is
/// bit-identical — and an id list is exactly what a checkpoint carries.
struct Lane {
    std::vector<std::uint64_t> child;  ///< successor marking scratch
    Marking scratch;                   ///< predicate evaluation view
    PorContext::Scratch por_scratch;   ///< reduce() working set
    std::vector<std::uint64_t> ample;  ///< stubborn-subset bitset
    PorStats por;                      ///< this lane's share
    std::size_t edges = 0;
    std::vector<std::uint32_t> deadlocks;
    std::vector<StoreCheckpoint::Violation> violations;
};

/// Everything one pass derives from (compiled net, options, query), and
/// the steps both engines take the same way.
class PassShell {
public:
    PassShell(const CompiledNet& compiled, const ReachabilityOptions& options,
              const MultiQuery& query)
        : net(compiled.net()),
          compiled(compiled),
          query(query),
          mwords(compiled.marking_words()),
          twords(compiled.enabled_words()),
          cap(std::max<std::size_t>(options.max_states, 1)),
          can_early_stop(options.stop_at_first_match &&
                         !query.collect_deadlocks &&
                         !query.check_persistence && !query.goals.empty()),
          goal_hit(query.goals.size(), kNoParent),
          unmatched(query.goals.size()) {
        if (!options.por) return;
        PorRequest request;
        request.goals = query.goals;
        request.check_persistence = query.check_persistence;
        request.persistence_exempt = query.persistence_exempt;
        por.emplace(compiled, request);
        if (!por->active()) por.reset();
    }

    const Net& net;
    const CompiledNet& compiled;
    const MultiQuery& query;
    const std::size_t mwords;  ///< marking payload words
    const std::size_t twords;  ///< enabled-set words
    const std::size_t cap;     ///< max_states, at least 1
    /// Every goal matched ends the pass: no other question needs the
    /// rest of the graph.
    const bool can_early_stop;
    /// Stubborn-set reduction of this pass (options.por); absent when off
    /// or fallen back to full exploration (a goal with unknown support),
    /// so `if (por)` is the single activity test. Set once, by the
    /// constructor.
    std::optional<PorContext> por;

    /// Per-goal witness state id (kNoParent while unmatched) and the
    /// unmatched count. Mutated only where no lane runs a per-state step
    /// (the parallel engine settles hits at its barrier).
    std::vector<std::uint32_t> goal_hit;
    std::size_t unmatched;

    void init(Lane& lane) const {
        lane.child.assign(std::max<std::size_t>(mwords, 1), 0);
        lane.scratch = Marking(net.place_count());
        if (por) lane.ample.assign(twords, 0);
    }

    /// Fires `t` from `marking` into lane.child.
    void fire_into(Lane& lane, const std::uint64_t* marking,
                   TransitionId t) const {
        copy_words(lane.child.data(), marking, mwords);
        compiled.fire(lane.child.data(), t);
    }

    /// Discovery-time evaluation of a freshly interned state: deadlock
    /// collection and every unmatched goal. `hit(g)` records a match of
    /// goal g — the sequential engine keeps the first, the parallel one
    /// the layer's canonical-min.
    template <class Hit>
    void visit(std::uint32_t id, const std::uint64_t* marking,
               const std::uint64_t* enabled, Lane& lane, Hit&& hit) const {
        const bool dead = std::all_of(enabled, enabled + twords,
                                      [](std::uint64_t w) { return w == 0; });
        if (dead && query.collect_deadlocks) lane.deadlocks.push_back(id);
        if (unmatched == 0) return;
        bool scratch_ready = false;
        for (std::size_t g = 0; g < query.goals.size(); ++g) {
            if (goal_hit[g] != kNoParent) continue;
            const Predicate& goal = *query.goals[g];
            bool match = dead;
            if (goal.kind() != Predicate::Kind::Deadlock) {
                if (!scratch_ready) {
                    copy_words(lane.scratch.word_data(), marking,
                               lane.scratch.word_count());
                    scratch_ready = true;
                }
                match = goal(net, lane.scratch);
            }
            if (match) hit(g);
        }
    }

    /// Persistence along the edge head --t-->: every other transition
    /// enabled at head (`enabled`) whose enabling t withdraws is reported
    /// as `record(t, u)` unless the query exempts the pair. With t and u
    /// both enabled, t disables u exactly when CompiledNet::disables says
    /// so, so the scan needs no successor marking and is one AND per
    /// word. Stops when `record` returns false.
    template <class Record>
    void scan_persistence(TransitionId t, const std::uint64_t* enabled,
                          Record&& record) const {
        const std::uint64_t* disables = compiled.disables(t);
        for (std::size_t w = 0; w < twords; ++w) {
            for (std::uint64_t hit = enabled[w] & disables[w]; hit != 0;
                 hit &= hit - 1) {
                const TransitionId u{static_cast<std::uint32_t>(
                    w * kWordBits +
                    static_cast<std::size_t>(std::countr_zero(hit)))};
                if (query.persistence_exempt &&
                    query.persistence_exempt(net, t, u)) {
                    continue;
                }
                if (!record(t, u)) return;
            }
        }
    }

    /// The reduction choice for one expansion, with its PorStats
    /// accounting. `expand(bits, minus)` fires every transition of
    /// bits & ~minus and returns true when the state needs no proviso
    /// widening (a successor lies in the next BFS layer, or the pass
    /// stopped). The choice depends only on (marking, enabled set), so
    /// both engines explore the identical reduced graph.
    template <class Expand>
    void expand_state(const std::uint64_t* marking,
                      const std::uint64_t* enabled, Lane& lane,
                      Expand&& expand) const {
        if (!por) {
            expand(enabled, nullptr);
            return;
        }
        const std::size_t enabled_count = popcount_words(enabled, twords);
        ++lane.por.expansions;
        lane.por.enabled_transitions += enabled_count;
        if (!por->reduce(marking, enabled, lane.ample.data(),
                         lane.por_scratch)) {
            lane.por.expanded_transitions += enabled_count;
            expand(enabled, nullptr);
            return;
        }
        const std::size_t ample_count =
            popcount_words(lane.ample.data(), twords);
        ++lane.por.reduced_expansions;
        lane.por.expanded_transitions += ample_count;
        if (expand(lane.ample.data(), nullptr) || !por->proviso_needed()) {
            return;
        }
        // Ignoring proviso (BFS-queue flavour): a visibility-sensitive
        // pass may not postpone the ignored transitions forever. No
        // stubborn successor is fresh — none will be expanded in a later
        // layer — so widen this state back to the full enabled set.
        // Deadlock-only passes never need this.
        ++lane.por.proviso_expansions;
        lane.por.expanded_transitions += enabled_count - ample_count;
        expand(enabled, lane.ample.data());
    }

    /// Rebuilds a checkpointed pass that StoreCheckpoint::check_resumable
    /// accepted: re-interns its records in dense id order through
    /// `intern(record)` (returning the store's {id, inserted}; dense ids
    /// make the rebuild independent of the table's probe order), then
    /// seeds the verdict accumulators into `lane` and the goal ledger.
    template <class Intern>
    void restore(const StoreCheckpoint& ckpt, Lane& lane, Intern&& intern) {
        for (std::uint64_t id = 0; id < ckpt.record_count; ++id) {
            const auto interned = intern(ckpt.record(id));
            if (!interned.inserted || interned.id != id) {
                throw std::runtime_error(
                    "resume: checkpoint records are not unique dense-id "
                    "markings — corrupted or foreign checkpoint");
            }
        }
        lane.edges = static_cast<std::size_t>(ckpt.edges_explored);
        lane.por = ckpt.por;
        lane.por.active = false;  // activity is this pass's, not saved
        lane.deadlocks = ckpt.deadlocks;
        lane.violations = ckpt.violations;
        goal_hit = ckpt.goal_hits;
        unmatched = static_cast<std::size_t>(
            std::count(goal_hit.begin(), goal_hit.end(), kNoParent));
    }

    /// Snapshot of the pass at a boundary where no lane runs: the header,
    /// `store`'s records (payload + `meta` meta words) in dense id order,
    /// the goal ledger and every lane's accumulators. Engines add their
    /// cursor. Enabled rows are derived data and stay out.
    template <class Store, class Lanes>
    StoreCheckpoint capture(StoreCheckpoint::Engine kind, std::uint32_t meta,
                            const Store& store, const Lanes& lanes) const {
        StoreCheckpoint ckpt;
        ckpt.engine = kind;
        ckpt.structure_digest = compiled.structure_digest();
        ckpt.marking_words = static_cast<std::uint32_t>(mwords);
        ckpt.meta_words = meta;
        const std::size_t n = store.size();
        const std::size_t stride = mwords + meta;
        ckpt.record_count = n;
        ckpt.records.reserve(n * stride);
        for (std::uint32_t id = 0; id < n; ++id) {
            const std::uint64_t* rec = store[id];
            ckpt.records.insert(ckpt.records.end(), rec, rec + stride);
        }
        ckpt.goal_hits = goal_hit;
        ckpt.por.active = por.has_value();
        for (const Lane& lane : lanes) {
            ckpt.edges_explored += lane.edges;
            ckpt.deadlocks.insert(ckpt.deadlocks.end(),
                                  lane.deadlocks.begin(),
                                  lane.deadlocks.end());
            ckpt.violations.insert(ckpt.violations.end(),
                                   lane.violations.begin(),
                                   lane.violations.end());
            ckpt.por.merge(lane.por);
        }
        return ckpt;
    }

    /// The pass's result: counters summed over `lanes`, the footprint,
    /// and every verdict materialized from its state id — deadlocks and
    /// violations in the order given, one ReachabilityResult per goal
    /// carrying the pass's counters and, when matched, the witness
    /// marking with its trace (a walk over the records' witness links,
    /// meta word 0 = via << 32 | parent).
    template <class Store, class Lanes>
    MultiResult finish(
        const Store& store, const Lanes& lanes, bool truncated,
        const MemoryStats& memory, std::span<const std::uint32_t> deadlocks,
        std::span<const StoreCheckpoint::Violation> violations) const {
        auto marking_of = [&](std::uint32_t id) {
            Marking m(net.place_count());
            copy_words(m.word_data(), store[id], m.word_count());
            return m;
        };
        auto trace_to = [&](std::uint32_t id) {
            Trace trace;
            for (std::uint64_t link = store.meta(id)[0];
                 static_cast<std::uint32_t>(link) != kNoParent;
                 link = store.meta(static_cast<std::uint32_t>(link))[0]) {
                trace.firings.push_back(
                    TransitionId{static_cast<std::uint32_t>(link >> 32)});
            }
            std::reverse(trace.firings.begin(), trace.firings.end());
            return trace;
        };

        MultiResult result;
        result.states_explored = store.size();
        result.truncated = truncated;
        result.memory = memory;
        result.por.active = por.has_value();
        for (const Lane& lane : lanes) {
            result.edges_explored += lane.edges;
            result.por.merge(lane.por);
        }
        result.deadlocks.reserve(deadlocks.size());
        for (const std::uint32_t id : deadlocks) {
            result.deadlocks.push_back(marking_of(id));
        }
        result.persistence_violations.reserve(violations.size());
        for (const StoreCheckpoint::Violation& v : violations) {
            result.persistence_violations.push_back(
                {marking_of(v.state), TransitionId{v.fired},
                 TransitionId{v.disabled}, trace_to(v.state)});
        }
        result.goals.resize(goal_hit.size());
        for (std::size_t g = 0; g < goal_hit.size(); ++g) {
            ReachabilityResult& r = result.goals[g];
            r.states_explored = result.states_explored;
            r.edges_explored = result.edges_explored;
            r.truncated = result.truncated;
            r.memory = result.memory;
            r.por = result.por;
            if (goal_hit[g] != kNoParent) {
                r.witness = marking_of(goal_hit[g]);
                r.witness_trace = trace_to(goal_hit[g]);
            }
        }
        return result;
    }
};

}  // namespace rap::petri::detail
