#include "petri/reachability.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/arena.hpp"
#include "util/strings.hpp"

namespace rap::petri {

namespace {

constexpr std::size_t kWordBits = util::BitVec::kWordBits;

/// Parent id of the root's witness link, and "unmatched" in the goal
/// ledger.
constexpr std::uint32_t kNoParent = UINT32_MAX;

/// Predecessor link packed into the record's meta word: parent id in the
/// low half, the transition fired from it in the high half.
std::uint64_t pack_visit(std::uint32_t parent, std::uint32_t via) {
    return (std::uint64_t{via} << 32) | parent;
}

void copy_words(std::uint64_t* dst, const std::uint64_t* src,
                std::size_t n) {
    if (n != 0) std::memcpy(dst, src, n * sizeof(std::uint64_t));
}

std::size_t popcount_words(const std::uint64_t* bits, std::size_t n) {
    std::size_t count = 0;
    for (std::size_t w = 0; w < n; ++w) {
        count += static_cast<std::size_t>(std::popcount(bits[w]));
    }
    return count;
}

TransitionId bit_transition(std::size_t word, std::uint64_t bits) {
    return TransitionId{static_cast<std::uint32_t>(
        word * kWordBits + static_cast<std::size_t>(std::countr_zero(bits)))};
}

/// The persistence pairs a pass checks, one enabled_words()-wide row per
/// transition t: CompiledNet::disables(t) minus the pairs the query
/// exempts, asked once per structural pair.
std::vector<std::uint64_t> checked_pairs(const CompiledNet& compiled,
                                         const MultiQuery& query) {
    const std::size_t words = compiled.enabled_words();
    std::vector<std::uint64_t> rows(compiled.transition_count() * words);
    for (std::uint32_t t = 0; t < compiled.transition_count(); ++t) {
        const std::uint64_t* disables = compiled.disables(TransitionId{t});
        std::uint64_t* row = rows.data() + std::size_t{t} * words;
        for (std::size_t w = 0; w < words; ++w) {
            row[w] = disables[w];
            if (!query.persistence_exempt) continue;
            for (std::uint64_t bits = disables[w]; bits != 0;
                 bits &= bits - 1) {
                if (query.persistence_exempt(compiled.net(), TransitionId{t},
                                             bit_transition(w, bits))) {
                    row[w] &= ~(std::uint64_t{1} << std::countr_zero(bits));
                }
            }
        }
    }
    return rows;
}

/// The footprint results and ExplorationAborted carry: the store's
/// records and table geometry, the bytes resident now, and the peak
/// (never below the resident figure).
MemoryStats footprint(const MarkingStore& store, std::size_t resident,
                      std::size_t peak) {
    MemoryStats stats;
    stats.resident_bytes = resident;
    stats.peak_bytes = std::max(peak, resident);
    stats.store = store.stats();
    return stats;
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
    : options_(std::move(options)),
      owned_(std::in_place, net),
      compiled_(&*owned_),
      store_(compiled_->marking_words(), /*meta_words=*/1) {}

ReachabilityExplorer::ReachabilityExplorer(const CompiledNet& compiled,
                                           ReachabilityOptions options)
    : options_(std::move(options)),
      compiled_(&compiled),
      store_(compiled.marking_words(), /*meta_words=*/1) {}

MultiResult ReachabilityExplorer::run_query(const MultiQuery& query) {
    const Net& net = compiled_->net();
    const std::size_t mwords = compiled_->marking_words();
    const std::size_t twords = compiled_->enabled_words();
    const std::size_t cap = std::max<std::size_t>(options_.max_states, 1);
    // The pairs the persistence scan and the POR visibility both read.
    const std::vector<std::uint64_t> checked =
        query.check_persistence ? checked_pairs(*compiled_, query)
                                : std::vector<std::uint64_t>{};

    // Stubborn-set reduction of this pass; absent when off or fallen back
    // to full exploration (a goal with unknown support), so `if (por)` is
    // the single activity test.
    std::optional<PorContext> por;
    if (options_.por) {
        PorRequest request;
        request.goals = query.goals;
        request.check_persistence = query.check_persistence;
        por.emplace(*compiled_, request, checked.data());
        if (!por->active()) por.reset();
    }

    // Verdicts are state ids, materialized only at the end of the pass:
    // witness links in the records are immutable once written, so late
    // materialization is exact. goal_hit[g] is goal g's first
    // (BFS-shortest) witness, kNoParent while unmatched.
    std::vector<std::uint32_t> goal_hit(query.goals.size(), kNoParent);
    std::size_t unmatched = goal_hit.size();
    std::vector<std::uint32_t> deadlocks;
    struct Violation {
        std::uint32_t state;
        std::uint32_t fired;
        std::uint32_t disabled;
    };
    std::vector<Violation> violations;
    std::size_t edges = 0;
    PorStats por_stats;

    auto collecting = [&] {
        return query.check_persistence &&
               violations.size() < query.persistence_max_violations;
    };
    // The stop rule: a stop_at_first_match pass with a question to answer
    // ends once every goal has matched and the violations it asked for
    // are in. Deadlock collection needs the whole graph.
    auto answered = [&] {
        return options_.stop_at_first_match && !query.collect_deadlocks &&
               (!query.goals.empty() || query.check_persistence) &&
               unmatched == 0 && !collecting();
    };

    Marking scratch(net.place_count());  // predicate evaluation view
    PorContext::Scratch por_scratch;
    std::vector<std::uint64_t> ample(por ? twords : 0, 0);
    // Per-state persistence pre-test accumulator (see scan_persistence).
    std::vector<std::uint64_t> pair_rows(query.check_persistence ? twords : 0);

    // The successor batch of one expansion: every successor marking,
    // `stride` words apart (the store's key width), with the transition
    // that produced it and its interning hash. Grown to the widest
    // expansion seen, then reused; its first slot also stages the root.
    struct Successor {
        std::uint32_t via;
        std::uint64_t hash;
    };
    const std::size_t stride = std::max<std::size_t>(mwords, 1);
    std::vector<std::uint64_t> successor_words(stride, 0);
    std::vector<Successor> successors;

    store_.clear();

    // Enabled bitset per state, maintained incrementally: a successor's
    // set is its parent's with only affected(fired) re-tested. Record i
    // belongs to marking id i (both grow in discovery order).
    util::WordArena enabled_store(twords);

    bool stop = false;
    bool truncated = false;
    auto resident_now = [&]() {
        return store_.resident_bytes() + enabled_store.resident_bytes();
    };
    std::size_t peak_bytes = 0;

    // Discovery-time evaluation of a freshly interned state: deadlock
    // collection and every unmatched goal.
    auto visit = [&](std::uint32_t id) {
        const std::uint64_t* enabled = enabled_store[id];
        const bool dead = std::all_of(enabled, enabled + twords,
                                      [](std::uint64_t w) { return w == 0; });
        if (dead && query.collect_deadlocks) deadlocks.push_back(id);
        if (unmatched == 0) return;
        bool scratch_ready = false;
        for (std::size_t g = 0; g < query.goals.size(); ++g) {
            if (goal_hit[g] != kNoParent) continue;
            const Predicate& goal = *query.goals[g];
            bool match = dead;
            if (goal.kind() != Predicate::Kind::Deadlock) {
                if (!scratch_ready) {
                    copy_words(scratch.word_data(), store_[id],
                               scratch.word_count());
                    scratch_ready = true;
                }
                try {
                    match = goal(net, scratch);
                } catch (const std::exception& e) {
                    // The pass dies here. Its interned states and live
                    // enabled-set rows are real and still resident:
                    // attach them, with the peak sampled so far, so the
                    // accounting survives the abort.
                    throw ExplorationAborted(
                        e.what(),
                        footprint(store_, resident_now(), peak_bytes));
                }
            }
            if (match) {
                goal_hit[g] = id;
                if (--unmatched == 0 && answered()) stop = true;
            }
        }
    };

    const Marking m0 = net.initial_marking();
    std::uint64_t* key = successor_words.data();
    copy_words(key, m0.word_data(), m0.word_count());
    const auto root = store_.intern(key, store_.hash(key), cap);
    store_.meta(root.id)[0] = pack_visit(kNoParent, 0);
    enabled_store.push_zero();
    compiled_->enabled_set(store_[root.id], enabled_store[root.id]);
    visit(root.id);

    peak_bytes = resident_now();
    // Peak sampling keys off the allocation geometry, not a head-index
    // stride: the resident footprint only moves when an arena gains a
    // block or the interning table grows, so re-sampling whenever this
    // signature changes captures every spike — including ones between
    // release_before boundaries that stride sampling misses.
    std::size_t geometry_sig =
        enabled_store.allocated_blocks() + store_.resident_bytes();

    // The BFS frontier is implicit: ids are dense discovery-order
    // indices and the queue is FIFO, so the frontier is exactly the id
    // range [head, store_.size()).
    const std::size_t rpb = enabled_store.records_per_block();
    // POR freshness watermark: ids below `next_layer_begin` belong to
    // the current or an earlier BFS layer (expanded or being expanded),
    // ids at or above it were discovered this layer and will only be
    // expanded in the next one.
    std::uint32_t next_layer_begin = 1;
    for (std::uint32_t head = 0; head < store_.size() && !stop; ++head) {
        if (options_.stop && (head & 2047u) == 0 && options_.stop()) {
            // Cooperative stop (sweep cancellation): report the pass as
            // truncated — whatever was explored is inconclusive.
            truncated = true;
            break;
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

        // Persistence at head, over the full enabled set (POR only masks
        // which bits get expanded, so a reduced pass reports at each state
        // it reaches exactly what a full pass reports there). With t and
        // u both enabled, t disables u exactly when CompiledNet::disables
        // says so, so the scan of t needs no successor marking and is one
        // AND per word with t's checked-pair row. Most states have no
        // violation: the OR of the enabled transitions' rows, ANDed with
        // the enabled set, proves that before the scan walks any pair.
        auto scan_persistence = [&] {
            std::fill(pair_rows.begin(), pair_rows.end(), 0);
            for (std::size_t w = 0; w < twords; ++w) {
                for (std::uint64_t bits = enabled[w]; bits != 0;
                     bits &= bits - 1) {
                    const std::uint64_t* row =
                        checked.data() +
                        std::size_t{bit_transition(w, bits).value} * twords;
                    for (std::size_t v = 0; v < twords; ++v) {
                        pair_rows[v] |= row[v];
                    }
                }
            }
            std::uint64_t any = 0;
            for (std::size_t v = 0; v < twords; ++v) {
                any |= pair_rows[v] & enabled[v];
            }
            if (any == 0) return;
            for (std::size_t w = 0; w < twords; ++w) {
                for (std::uint64_t bits = enabled[w]; bits != 0;
                     bits &= bits - 1) {
                    const TransitionId t = bit_transition(w, bits);
                    const std::uint64_t* row =
                        checked.data() + std::size_t{t.value} * twords;
                    for (std::size_t v = 0; v < twords; ++v) {
                        for (std::uint64_t hit = enabled[v] & row[v];
                             hit != 0; hit &= hit - 1) {
                            violations.push_back(
                                {head, t.value, bit_transition(v, hit).value});
                            if (!collecting()) return;
                        }
                    }
                }
            }
        };
        if (collecting()) scan_persistence();
        if (answered()) break;

        bool fresh_seen = false;
        // Interns successor i of the batch, the edge it stands for.
        auto intern_successor = [&](std::size_t i) {
            // Edge-counter stop poll: the head poll above fires every
            // 2048 *states*, which a heavily reduced (or truncated-at-
            // capacity) pass may take arbitrarily long to advance by —
            // a cancel must also trip on expansion work itself.
            if (options_.stop && (edges & 255u) == 0 && options_.stop()) {
                truncated = true;
                stop = true;
                return;
            }
            ++edges;
            const std::uint64_t* next = successor_words.data() + i * stride;
            const TransitionId t{successors[i].via};
            const auto interned = store_.intern(next, successors[i].hash, cap);
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
            compiled_->update_enabled(next, t, enabled_store[interned.id]);
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

        // Expands every transition of bits & ~minus (minus may be null).
        // All successors are fired and hashed first, and each one's home
        // slot is prefetched, so the probes overlap their cache misses;
        // then they are interned in ascending transition order until the
        // pass stops. Returns true when the state needs no proviso
        // widening: a successor lies in the next BFS layer, or the pass
        // stopped.
        auto expand = [&](const std::uint64_t* bits,
                          const std::uint64_t* minus) {
            successors.clear();
            for (std::size_t w = 0; w < twords; ++w) {
                std::uint64_t word = bits[w];
                if (minus != nullptr) word &= ~minus[w];
                for (; word != 0; word &= word - 1) {
                    const std::size_t end = (successors.size() + 1) * stride;
                    if (successor_words.size() < end) {
                        successor_words.resize(end, 0);
                    }
                    std::uint64_t* next = successor_words.data() + end - stride;
                    const TransitionId t = bit_transition(w, word);
                    copy_words(next, marking, mwords);
                    compiled_->fire(next, t);
                    const std::uint64_t h = store_.hash(next);
                    store_.prefetch(h);
                    successors.push_back({t.value, h});
                }
            }
            for (std::size_t i = 0; i < successors.size() && !stop; ++i) {
                intern_successor(i);
            }
            return fresh_seen || stop;
        };

        // The reduction choice for this expansion, with its PorStats
        // accounting. The choice depends only on (marking, enabled set).
        if (!por) {
            expand(enabled, nullptr);
            continue;
        }
        const std::size_t enabled_count = popcount_words(enabled, twords);
        ++por_stats.expansions;
        por_stats.enabled_transitions += enabled_count;
        if (!por->reduce(marking, enabled, ample.data(), por_scratch)) {
            por_stats.expanded_transitions += enabled_count;
            expand(enabled, nullptr);
            continue;
        }
        const std::size_t ample_count = popcount_words(ample.data(), twords);
        ++por_stats.reduced_expansions;
        por_stats.expanded_transitions += ample_count;
        if (expand(ample.data(), nullptr) || !por->proviso_needed()) {
            continue;
        }
        // Ignoring proviso (BFS-queue flavour): a visibility-sensitive
        // pass may not postpone the ignored transitions forever. No
        // stubborn successor is fresh — none will be expanded in a later
        // layer — so widen this state back to the full enabled set.
        // Deadlock-only passes never need this.
        ++por_stats.proviso_expansions;
        por_stats.expanded_transitions += enabled_count - ample_count;
        expand(enabled, ample.data());
    }

    // Materialize every verdict from its state id: deadlocks and
    // violations in discovery order, and each matched goal's witness
    // marking with its trace (a walk over the records' witness links).
    auto marking_of = [&](std::uint32_t id) {
        Marking m(net.place_count());
        copy_words(m.word_data(), store_[id], m.word_count());
        return m;
    };
    auto trace_to = [&](std::uint32_t id) {
        Trace trace;
        for (std::uint64_t link = store_.meta(id)[0];
             static_cast<std::uint32_t>(link) != kNoParent;
             link = store_.meta(static_cast<std::uint32_t>(link))[0]) {
            trace.firings.push_back(
                TransitionId{static_cast<std::uint32_t>(link >> 32)});
        }
        std::reverse(trace.firings.begin(), trace.firings.end());
        return trace;
    };

    MultiResult result;
    result.states_explored = store_.size();
    result.edges_explored = edges;
    result.truncated = truncated;
    result.memory = footprint(store_, resident_now(), peak_bytes);
    result.por = por_stats;
    result.por.active = por.has_value();
    result.deadlocks.reserve(deadlocks.size());
    for (const std::uint32_t id : deadlocks) {
        result.deadlocks.push_back(marking_of(id));
    }
    result.persistence_violations.reserve(violations.size());
    for (const Violation& v : violations) {
        result.persistence_violations.push_back(
            {marking_of(v.state), TransitionId{v.fired},
             TransitionId{v.disabled}, trace_to(v.state)});
    }
    result.goals.resize(goal_hit.size());
    for (std::size_t g = 0; g < goal_hit.size(); ++g) {
        if (goal_hit[g] != kNoParent) {
            result.goals[g] = Witness{marking_of(goal_hit[g]),
                                      trace_to(goal_hit[g])};
        }
    }
    return result;
}

}  // namespace rap::petri
