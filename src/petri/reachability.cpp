#include "petri/reachability.hpp"

#include <algorithm>

#include "petri/checkpoint.hpp"
#include "petri/pass.hpp"
#include "util/arena.hpp"
#include "util/strings.hpp"

namespace rap::petri {

namespace {

using detail::kNoParent;

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
    : ExplorerBase(net, std::move(options)),
      store_(compiled_->marking_words(), /*meta_words=*/1) {}

ReachabilityExplorer::ReachabilityExplorer(const CompiledNet& compiled,
                                           ReachabilityOptions options)
    : ExplorerBase(compiled, std::move(options)),
      store_(compiled.marking_words(), /*meta_words=*/1) {}

MultiResult ReachabilityExplorer::run_query(const MultiQuery& query) {
    try {
        return run_pass(query);
    } catch (const std::exception& e) {
        // The pass died mid-exploration (a goal predicate threw, a
        // checkpoint write failed). The interned footprint is real and
        // still resident — attach it so accounting survives the abort.
        throw ExplorationAborted(
            e.what(), detail::footprint(store_, store_.resident_bytes(), 0));
    }
}

MultiResult ReachabilityExplorer::run_pass(const MultiQuery& query) {
    detail::PassShell shell(*compiled_, options_, query);
    const std::size_t mwords = shell.mwords;
    const std::size_t twords = shell.twords;
    const std::size_t cap = shell.cap;
    detail::Lane lane;
    shell.init(lane);
    const std::span<const detail::Lane> lanes(&lane, 1);

    store_.clear();

    // Enabled bitset per state, maintained incrementally: a successor's
    // set is its parent's with only affected(fired) re-tested. Record i
    // belongs to marking id i (both grow in discovery order).
    util::WordArena enabled_store(twords);

    bool stop = false;
    bool truncated = false;

    // Discovery-time evaluation, each goal recording only its *first*
    // (BFS-shortest) hit.
    auto visit = [&](std::uint32_t id) {
        shell.visit(id, store_[id], enabled_store[id], lane,
                    [&](std::size_t g) {
                        shell.goal_hit[g] = id;
                        --shell.unmatched;
                    });
        if (shell.can_early_stop && shell.unmatched == 0) stop = true;
    };

    std::uint32_t start_head = 0;
    std::uint32_t next_layer_begin = 1;
    if (options_.resume == nullptr) {
        const Marking m0 = shell.net.initial_marking();
        detail::copy_words(lane.child.data(), m0.word_data(),
                           m0.word_count());
        const auto root = store_.intern(lane.child.data(), cap);
        store_.meta(root.id)[0] = pack_visit(kNoParent, 0);
        enabled_store.push_zero();
        compiled_->enabled_set(store_[root.id], enabled_store[root.id]);
        visit(root.id);
    } else {
        const StoreCheckpoint& ckpt = *options_.resume;
        ckpt.check_resumable(StoreCheckpoint::Engine::kSequential, 1,
                             *compiled_, cap, query.goals.size());
        if (ckpt.head > ckpt.record_count ||
            ckpt.next_layer_begin > ckpt.record_count) {
            throw std::runtime_error(
                "resume: checkpoint cursor lies beyond its own records");
        }
        shell.restore(ckpt, lane, [&](const std::uint64_t* rec) {
            const auto interned = store_.intern(rec, cap);
            if (interned.inserted) store_.meta(interned.id)[0] = rec[mwords];
            return interned;
        });
        start_head = static_cast<std::uint32_t>(ckpt.head);
        next_layer_begin =
            static_cast<std::uint32_t>(ckpt.next_layer_begin);
        if (shell.can_early_stop && shell.unmatched == 0) stop = true;
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

    // Persistence under reduction is checked per STATE over the full
    // enabled set (the bitsets are always maintained in full — POR only
    // masks which bits get expanded), so every reduced-reachable state
    // reports exactly the violations the full engine finds there.
    // Without POR the check rides on the expansion edges.
    const bool prepass = shell.por && query.check_persistence;
    auto collecting = [&] {
        return query.check_persistence &&
               lane.violations.size() < query.persistence_max_violations;
    };

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
            truncated = true;
            break;
        }
        if (!options_.checkpoint_path.empty() && head != start_head &&
            head % save_every == 0) {
            StoreCheckpoint ckpt = shell.capture(
                StoreCheckpoint::Engine::kSequential, 1, store_, lanes);
            ckpt.head = head;
            ckpt.next_layer_begin = next_layer_begin;
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
        bool fresh_seen = false;

        auto record_violation = [&](TransitionId t, TransitionId u) {
            lane.violations.push_back({head, 0, t.value, u.value});
            if (query.persistence_stop_at_first) {
                stop = true;
                return false;
            }
            return lane.violations.size() < query.persistence_max_violations;
        };

        auto expand_edge = [&](TransitionId t) {
            // Edge-counter stop poll: the head poll above fires every
            // 2048 *states*, which a heavily reduced (or truncated-at-
            // capacity) pass may take arbitrarily long to advance by —
            // deadlines must also trip on expansion work itself.
            if (options_.stop && (lane.edges & 255u) == 0 &&
                options_.stop()) {
                truncated = true;
                stop = true;
                return;
            }
            ++lane.edges;
            shell.fire_into(lane, marking, t);

            if (!prepass && collecting()) {
                shell.scan_persistence(t, enabled, record_violation);
                if (stop) return;
            }

            const auto interned = store_.intern(lane.child.data(), cap);
            if (interned.id == MarkingStore::kNone) {
                // max_states hit mid-expansion: report truncation and
                // stop with states_explored == max_states exactly.
                truncated = true;
                stop = true;
                return;
            }
            if (interned.id >= next_layer_begin) fresh_seen = true;
            if (!interned.inserted) return;

            store_.meta(interned.id)[0] = pack_visit(head, t.value);
            enabled_store.push(enabled);
            compiled_->update_enabled(lane.child.data(), t,
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

        if (prepass && collecting()) {
            detail::for_each_bit(enabled, nullptr, twords, [&](TransitionId t) {
                shell.scan_persistence(t, enabled, record_violation);
                return !stop && collecting();
            });
            if (stop) break;
        }

        auto edge = [&](TransitionId t) {
            expand_edge(t);
            return !stop;
        };
        shell.expand_state(
            marking, enabled, lane,
            [&](const std::uint64_t* bits, const std::uint64_t* minus) {
                detail::for_each_bit(bits, minus, twords, edge);
                return fresh_seen || stop;
            });
    }

    return shell.finish(store_, lanes, truncated,
                        detail::footprint(store_, resident_now(), peak_bytes),
                        lane.deadlocks, lane.violations);
}

}  // namespace rap::petri
