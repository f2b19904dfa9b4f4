#include "petri/reachability.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "petri/checkpoint.hpp"
#include "util/arena.hpp"
#include "util/strings.hpp"

namespace rap::petri {

namespace {

constexpr std::size_t kWordBits = util::BitVec::kWordBits;

void copy_words(std::uint64_t* dst, const std::uint64_t* src,
                std::size_t n) {
    if (n != 0) std::memcpy(dst, src, n * sizeof(std::uint64_t));
}

/// Predecessor link packed into the record's meta word: parent id in the
/// low half, the transition fired from it in the high half.
std::uint64_t pack_visit(std::uint32_t parent, std::uint32_t via) {
    return (std::uint64_t{via} << 32) | parent;
}

}  // namespace

std::string Trace::to_string(const Net& net) const {
    std::vector<std::string> names;
    names.reserve(firings.size());
    for (TransitionId t : firings) names.push_back(net.transition_name(t));
    return util::join(names, " -> ");
}

std::string PersistenceViolation::to_string(const Net& net) const {
    return util::format("firing '%s' disables '%s' at %s",
                        net.transition_name(fired).c_str(),
                        net.transition_name(disabled).c_str(),
                        net.describe_marking(marking).c_str());
}

ReachabilityExplorer::ReachabilityExplorer(const Net& net,
                                           ReachabilityOptions options)
    : net_(net),
      options_(options),
      owned_(std::in_place, net),
      compiled_(&*owned_),
      store_(compiled_->marking_words(), /*meta_words=*/1) {}

ReachabilityExplorer::ReachabilityExplorer(const CompiledNet& compiled,
                                           ReachabilityOptions options)
    : net_(compiled.net()),
      options_(options),
      compiled_(&compiled),
      store_(compiled.marking_words(), /*meta_words=*/1) {}

ReachabilityResult ReachabilityExplorer::find(const Predicate& goal) {
    MultiQuery query;
    query.goals = {&goal};
    return std::move(run_query(query).goals[0]);
}

std::vector<ReachabilityResult> ReachabilityExplorer::find_all(
    std::span<const Predicate* const> goals) {
    MultiQuery query;
    query.goals.assign(goals.begin(), goals.end());
    return std::move(run_query(query).goals);
}

ReachabilityResult ReachabilityExplorer::find_deadlocks() {
    const Predicate dead = Predicate::deadlock();
    MultiQuery query;
    query.goals = {&dead};
    query.collect_deadlocks = true;
    auto multi = run_query(query);
    ReachabilityResult result = std::move(multi.goals[0]);
    result.deadlocks = std::move(multi.deadlocks);
    return result;
}

ReachabilityResult ReachabilityExplorer::explore_all() {
    const auto multi = run_query(MultiQuery{});
    ReachabilityResult result;
    result.states_explored = multi.states_explored;
    result.edges_explored = multi.edges_explored;
    result.truncated = multi.truncated;
    result.memory = multi.memory;
    result.por = multi.por;
    return result;
}

std::size_t ReachabilityExplorer::count_states() {
    return explore_all().states_explored;
}

MultiResult ReachabilityExplorer::run_query(const MultiQuery& query) {
    try {
        return run_pass(query);
    } catch (const std::exception& e) {
        // The pass died mid-exploration (a goal predicate threw, a
        // checkpoint write failed). The interned footprint is real and
        // still resident — attach it so accounting survives the abort.
        MemoryStats stats;
        stats.records = store_.size();
        stats.record_bytes = store_.record_bytes();
        stats.resident_bytes = store_.resident_bytes();
        stats.peak_bytes = stats.resident_bytes;
        stats.store = store_.stats();
        throw ExplorationAborted(e.what(), stats);
    }
}

MultiResult ReachabilityExplorer::run_pass(const MultiQuery& query) {
    MultiResult result;
    result.goals.resize(query.goals.size());

    const std::size_t mwords = compiled_->marking_words();
    const std::size_t twords = compiled_->enabled_words();
    const std::size_t cap = std::max<std::size_t>(options_.max_states, 1);

    store_.clear();

    // Enabled bitset per state, maintained incrementally: a successor's
    // set is its parent's with only affected(fired) re-tested. Record i
    // belongs to marking id i (both grow in discovery order).
    util::WordArena enabled_store(twords);

    std::vector<std::uint32_t> goal_hit(query.goals.size(), kNoParent);
    std::size_t unmatched = query.goals.size();
    const bool can_early_stop = options_.stop_at_first_match &&
                                !query.collect_deadlocks &&
                                !query.check_persistence &&
                                !query.goals.empty();

    // Verdicts accumulate as state ids and are materialized only at the
    // end of the pass: witness links in the records are immutable once
    // written, so late materialization is bit-identical — and an id list
    // is exactly what a checkpoint can carry.
    std::vector<std::uint32_t> deadlock_ids;
    std::vector<StoreCheckpoint::Violation> violation_ids;

    // Reused scratch buffers — the hot loop performs no heap allocation.
    Marking scratch(net_.place_count());
    const std::size_t scratch_words = scratch.word_count();
    std::vector<std::uint64_t> child(std::max<std::size_t>(mwords, 1), 0);

    // Partial-order reduction context: static dependency/visibility
    // tables for this query's properties. Reset when the pass cannot
    // bound a goal's visible transitions (unknown support) — reduction
    // then silently degrades to full exploration.
    std::optional<PorContext> por;
    PorContext::Scratch por_scratch;
    std::vector<std::uint64_t> ample;
    if (options_.por) {
        PorRequest request;
        request.goals = query.goals;
        request.check_persistence = query.check_persistence;
        request.persistence_exempt = query.persistence_exempt;
        por.emplace(*compiled_, request);
        if (por->active()) {
            ample.resize(twords);
        } else {
            por.reset();
        }
    }
    result.por.active = por.has_value();

    bool stop = false;

    // Discovery-time evaluation: deadlock collection and every pending
    // goal, each recording only its *first* (BFS-shortest) hit.
    auto visit = [&](std::uint32_t id) {
        const std::uint64_t* enabled = enabled_store[id];
        bool dead = true;
        for (std::size_t w = 0; w < twords; ++w) {
            if (enabled[w] != 0) {
                dead = false;
                break;
            }
        }
        if (dead && query.collect_deadlocks) {
            deadlock_ids.push_back(id);
        }
        if (unmatched != 0) {
            bool scratch_ready = false;
            for (std::size_t g = 0; g < query.goals.size(); ++g) {
                if (goal_hit[g] != kNoParent) continue;
                const Predicate& goal = *query.goals[g];
                bool match = false;
                if (goal.kind() == Predicate::Kind::Deadlock) {
                    match = dead;
                } else {
                    if (!scratch_ready) {
                        copy_words(scratch.word_data(), store_[id],
                                   scratch_words);
                        scratch_ready = true;
                    }
                    match = goal(net_, scratch);
                }
                if (match) {
                    goal_hit[g] = id;
                    --unmatched;
                }
            }
        }
        if (can_early_stop && unmatched == 0) stop = true;
    };

    const Marking m0 = net_.initial_marking();
    std::uint32_t start_head = 0;
    std::uint32_t next_layer_begin = 1;
    if (options_.resume == nullptr) {
        copy_words(child.data(), m0.word_data(), m0.word_count());
        const auto root = store_.intern(child.data(), cap);
        store_.meta(root.id)[0] = pack_visit(kNoParent, 0);
        enabled_store.push_zero();
        compiled_->enabled_set(store_[root.id], enabled_store[root.id]);
        visit(root.id);
    } else {
        const StoreCheckpoint& ckpt = *options_.resume;
        if (ckpt.engine != StoreCheckpoint::Engine::kSequential) {
            throw std::runtime_error(
                "resume: checkpoint was written by the parallel engine");
        }
        if (ckpt.structure_digest != compiled_->structure_digest()) {
            throw std::runtime_error(
                "resume: checkpoint structural digest does not match this "
                "net — the interned ids describe a different structure");
        }
        if (ckpt.marking_words != mwords || ckpt.meta_words != 1) {
            throw std::runtime_error(
                "resume: checkpoint record geometry does not match");
        }
        if (ckpt.record_count == 0 || ckpt.record_count > cap ||
            ckpt.head > ckpt.record_count ||
            ckpt.next_layer_begin > ckpt.record_count) {
            throw std::runtime_error(
                "resume: checkpoint cursor is out of range for this "
                "pass's max_states");
        }
        if (ckpt.goal_hits.size() != query.goals.size()) {
            throw std::runtime_error(
                "resume: checkpoint goal count does not match the query");
        }
        ckpt.check_ids(compiled_->transition_count());
        copy_words(child.data(), m0.word_data(), m0.word_count());
        if (std::memcmp(ckpt.record(0), child.data(),
                        mwords * sizeof(std::uint64_t)) != 0) {
            throw std::runtime_error(
                "resume: checkpoint root marking differs from this net's "
                "initial marking (reconfigured since the checkpoint?)");
        }
        // Re-intern in id order: dense discovery-order ids make the store
        // rebuild independent of the table's probe order.
        for (std::uint64_t id = 0; id < ckpt.record_count; ++id) {
            const std::uint64_t* rec = ckpt.record(id);
            const auto interned = store_.intern(rec, cap);
            if (!interned.inserted || interned.id != id) {
                throw std::runtime_error(
                    "resume: checkpoint records are not unique dense-id "
                    "markings — corrupted or foreign checkpoint");
            }
            store_.meta(interned.id)[0] = rec[mwords];
        }
        start_head = static_cast<std::uint32_t>(ckpt.head);
        next_layer_begin =
            static_cast<std::uint32_t>(ckpt.next_layer_begin);
        result.edges_explored = ckpt.edges_explored;
        const bool por_active = result.por.active;
        result.por = ckpt.por;
        result.por.active = por_active;
        goal_hit = ckpt.goal_hits;
        unmatched = 0;
        for (std::uint32_t hit : goal_hit) {
            if (hit == kNoParent) ++unmatched;
        }
        if (can_early_stop && unmatched == 0) stop = true;
        deadlock_ids = ckpt.deadlocks;
        violation_ids = ckpt.violations;
        // Enabled rows are derived data: skip the (released, never read
        // again) prefix and recompute only the live frontier's rows.
        enabled_store.skip_to(start_head);
        for (std::uint64_t id = start_head; id < ckpt.record_count;
             ++id) {
            enabled_store.push_zero();
            compiled_->enabled_set(store_[id], enabled_store[id]);
        }
    }

    auto resident_now = [&]() {
        return store_.resident_bytes() + enabled_store.resident_bytes();
    };
    std::size_t peak_bytes = resident_now();
    // Peak sampling keys off the allocation geometry, not a head-index
    // stride: the resident footprint only moves when an arena gains a
    // block or the interning table grows, so re-sampling whenever this
    // signature changes captures every spike — including ones between
    // release_before boundaries that stride sampling misses.
    std::size_t geometry_sig =
        enabled_store.allocated_blocks() + store_.resident_bytes();

    const std::size_t save_every = options_.checkpoint_every != 0
                                       ? options_.checkpoint_every
                                       : std::size_t{1} << 16;

    // The BFS frontier is implicit: ids are dense discovery-order
    // indices and the queue is FIFO, so the frontier is exactly the id
    // range [head, store_.size()).
    const std::size_t rpb = enabled_store.records_per_block();
    // POR freshness watermark: ids below `next_layer_begin` belong to
    // the current or an earlier BFS layer (expanded or being expanded),
    // ids at or above it were discovered this layer and will only be
    // expanded in the next one. The parallel engine derives the same
    // predicate from per-record depth words, so both engines accept the
    // same ample sets and explore the identical reduced graph.
    for (std::uint32_t head = start_head; head < store_.size() && !stop;
         ++head) {
        if (options_.stop && (head & 2047u) == 0 && options_.stop()) {
            // Cooperative stop (sweep cancellation / timeout): report the
            // pass as truncated — whatever was explored is inconclusive.
            result.truncated = true;
            break;
        }
        if (!options_.checkpoint_path.empty() && head != start_head &&
            head % save_every == 0) {
            StoreCheckpoint ckpt;
            ckpt.engine = StoreCheckpoint::Engine::kSequential;
            ckpt.structure_digest = compiled_->structure_digest();
            ckpt.marking_words = static_cast<std::uint32_t>(mwords);
            ckpt.meta_words = 1;
            ckpt.record_count = store_.size();
            ckpt.records.reserve(store_.size() * (mwords + 1));
            for (std::uint32_t id = 0; id < store_.size(); ++id) {
                const std::uint64_t* rec = store_[id];
                ckpt.records.insert(ckpt.records.end(), rec,
                                    rec + mwords + 1);
            }
            ckpt.edges_explored = result.edges_explored;
            ckpt.head = head;
            ckpt.next_layer_begin = next_layer_begin;
            ckpt.goal_hits = goal_hit;
            ckpt.deadlocks = deadlock_ids;
            ckpt.violations = violation_ids;
            ckpt.por = result.por;
            ckpt.save(options_.checkpoint_path);
        }
        if (head % rpb == 0) {
            // Frontier-only enabled-set cache: every state below `head`
            // is fully expanded and its bitset will never be read again,
            // so whole blocks behind the frontier go back to the
            // allocator (witness traces walk the records' meta words,
            // which stay).
            peak_bytes = std::max(peak_bytes, resident_now());
            enabled_store.release_before(head);
        }
        if (head == next_layer_begin) {
            next_layer_begin = static_cast<std::uint32_t>(store_.size());
        }
        const std::uint64_t* marking = store_[head];
        const std::uint64_t* enabled = enabled_store[head];

        // Persistence under reduction is checked per STATE over the full
        // enabled set (the bitsets are always maintained in full — POR
        // only masks which bits get expanded), so every reduced-reachable
        // state reports exactly the violations the full engine finds
        // there. Without POR the check rides on the expansion edges below.
        const bool persistence_prepass = por && query.check_persistence;
        bool fresh_seen = false;

        // Persistence along the edge head --t--> child (child already
        // fired): every other transition enabled at head whose enabling t
        // withdraws is a violation unless the query exempts the pair.
        auto check_persistence = [&](TransitionId t) {
            for (std::uint32_t u : compiled_->affected(t)) {
                if (u == t.value) continue;
                if (((enabled[u / kWordBits] >> (u % kWordBits)) & 1) == 0) {
                    continue;  // u was not enabled before t fired
                }
                const TransitionId ut{u};
                if (compiled_->is_enabled(child.data(), ut)) continue;
                if (query.persistence_exempt &&
                    query.persistence_exempt(net_, t, ut)) {
                    continue;
                }
                violation_ids.push_back({head, 0, t.value, u});
                if (query.persistence_stop_at_first) {
                    stop = true;
                    return;
                }
                if (violation_ids.size() >=
                    query.persistence_max_violations) {
                    return;
                }
            }
        };
        auto collecting_violations = [&] {
            return query.check_persistence &&
                   violation_ids.size() < query.persistence_max_violations;
        };

        auto expand_edge = [&](TransitionId t, bool check_edges) {
            // Edge-counter stop poll: the head poll below fires every
            // 2048 *states*, which a heavily reduced (or truncated-at-
            // capacity) pass may take arbitrarily long to advance by —
            // deadlines must also trip on expansion work itself.
            if (options_.stop && (result.edges_explored & 255u) == 0 &&
                options_.stop()) {
                result.truncated = true;
                stop = true;
                return;
            }
            ++result.edges_explored;
            copy_words(child.data(), marking, mwords);
            compiled_->fire(child.data(), t);

            if (check_edges && collecting_violations()) {
                check_persistence(t);
                if (stop) return;
            }

            const auto interned = store_.intern(child.data(), cap);
            if (interned.id == MarkingStore::kNone) {
                // max_states hit mid-expansion: report truncation and
                // stop with states_explored == max_states exactly.
                result.truncated = true;
                stop = true;
                return;
            }
            if (interned.id >= next_layer_begin) fresh_seen = true;
            if (!interned.inserted) return;

            store_.meta(interned.id)[0] = pack_visit(head, t.value);
            enabled_store.push(enabled);
            compiled_->update_enabled(child.data(), t,
                                      enabled_store[interned.id]);
            const std::size_t sig =
                enabled_store.allocated_blocks() + store_.resident_bytes();
            if (sig != geometry_sig) {
                // An arena block or table growth just landed: sample the
                // spike at the boundary where it happens.
                geometry_sig = sig;
                peak_bytes = std::max(peak_bytes, resident_now());
            }
            visit(interned.id);
        };

        // Calls edge(t) for every transition of bits_src & ~minus in
        // ascending id order, until the pass stops.
        auto for_each_bit = [&](const std::uint64_t* bits_src,
                                const std::uint64_t* minus, auto&& edge) {
            for (std::size_t w = 0; w < twords && !stop; ++w) {
                std::uint64_t bits = bits_src[w];
                if (minus != nullptr) bits &= ~minus[w];
                while (bits != 0 && !stop) {
                    const TransitionId t{static_cast<std::uint32_t>(
                        w * kWordBits +
                        static_cast<std::size_t>(std::countr_zero(bits)))};
                    bits &= bits - 1;
                    edge(t);
                }
            }
        };
        auto expand_bits = [&](const std::uint64_t* bits_src,
                               const std::uint64_t* minus,
                               bool check_edges) {
            for_each_bit(bits_src, minus, [&](TransitionId t) {
                expand_edge(t, check_edges);
            });
        };

        if (persistence_prepass && collecting_violations()) {
            for_each_bit(enabled, nullptr, [&](TransitionId t) {
                if (!collecting_violations()) return;
                copy_words(child.data(), marking, mwords);
                compiled_->fire(child.data(), t);
                check_persistence(t);
            });
            if (stop) break;
        }

        bool reduced = false;
        std::size_t enabled_count = 0;
        std::size_t ample_count = 0;
        if (por) {
            for (std::size_t w = 0; w < twords; ++w) {
                enabled_count += static_cast<std::size_t>(
                    std::popcount(enabled[w]));
            }
            reduced = por->reduce(marking, enabled, ample.data(),
                                  por_scratch);
            ++result.por.expansions;
            result.por.enabled_transitions += enabled_count;
            if (reduced) {
                ++result.por.reduced_expansions;
                for (std::size_t w = 0; w < twords; ++w) {
                    ample_count += static_cast<std::size_t>(
                        std::popcount(ample[w]));
                }
            }
            result.por.expanded_transitions +=
                reduced ? ample_count : enabled_count;
        }

        expand_bits(reduced ? ample.data() : enabled, nullptr,
                    /*check_edges=*/!persistence_prepass);

        // Ignoring proviso (BFS-queue flavour): a visibility-sensitive
        // pass may not postpone the ignored transitions forever. If no
        // stubborn successor is fresh — none will be expanded in a later
        // layer — widen this state back to the full enabled set.
        if (reduced && por->proviso_needed() && !fresh_seen && !stop) {
            ++result.por.proviso_expansions;
            result.por.expanded_transitions += enabled_count - ample_count;
            expand_bits(enabled, ample.data(),
                        /*check_edges=*/false);
        }
    }

    result.states_explored = store_.size();
    result.memory.records = store_.size();
    result.memory.record_bytes = store_.record_bytes();
    result.memory.resident_bytes = resident_now();
    result.memory.peak_bytes =
        std::max(peak_bytes, result.memory.resident_bytes);
    result.memory.store = store_.stats();
    result.deadlocks.reserve(deadlock_ids.size());
    for (std::uint32_t id : deadlock_ids) {
        result.deadlocks.push_back(materialize(id));
    }
    result.persistence_violations.reserve(violation_ids.size());
    for (const StoreCheckpoint::Violation& v : violation_ids) {
        result.persistence_violations.push_back(
            {materialize(v.state), TransitionId{v.fired},
             TransitionId{v.disabled}, rebuild_trace(v.state)});
    }
    for (std::size_t g = 0; g < query.goals.size(); ++g) {
        ReachabilityResult& r = result.goals[g];
        r.states_explored = result.states_explored;
        r.edges_explored = result.edges_explored;
        r.truncated = result.truncated;
        r.memory = result.memory;
        r.por = result.por;
        if (goal_hit[g] != kNoParent) {
            r.witness = materialize(goal_hit[g]);
            r.witness_trace = rebuild_trace(goal_hit[g]);
        }
    }
    return result;
}

Trace ReachabilityExplorer::rebuild_trace(std::uint32_t index) const {
    // Predecessor links live in the records themselves, so the walk only
    // depends on what each record stores — not on any side array being
    // aligned with the store's insertion order.
    Trace trace;
    std::uint32_t cursor = index;
    for (;;) {
        const std::uint64_t visit = store_.meta(cursor)[0];
        const auto parent = static_cast<std::uint32_t>(visit);
        if (parent == kNoParent) break;
        trace.firings.push_back(TransitionId{
            static_cast<std::uint32_t>(visit >> 32)});
        cursor = parent;
    }
    std::reverse(trace.firings.begin(), trace.firings.end());
    return trace;
}

Marking ReachabilityExplorer::materialize(std::uint32_t id) const {
    Marking m(net_.place_count());
    copy_words(m.word_data(), store_[id], m.word_count());
    return m;
}

}  // namespace rap::petri
