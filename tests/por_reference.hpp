// Reference stubborn-set reduction for the ample-set oracle in
// por_test.cpp: the straightforward queue-driven closure over CSR
// adjacency lists, with the D2 condition chosen by rescanning every
// require and forbid place of the transition. It shares nothing with
// petri::PorContext but the definitions, so agreement on (found, ample)
// at every state pins the production closure's word-parallel tables and
// early exits to the textbook rules. Header-only, test-only.

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "petri/net.hpp"
#include "petri/por.hpp"
#include "petri/predicate.hpp"

namespace rap::petri::testfx {

/// PorContext's seed budget: the first eight enabled transitions.
constexpr int kReferenceSeedTrials = 8;

inline bool word_bit(const std::uint64_t* words, std::uint32_t i) {
    return (words[i / 64] >> (i % 64)) & 1;
}

/// The static tables of one (net, request): the same relations
/// PorContext documents, kept as sorted adjacency lists. A persistence
/// request checks every structural pair that `exempt` (when set) does
/// not name, asked pair by pair here rather than read off rows.
struct ReferencePor {
    ReferencePor(
        const Net& net, const PorRequest& request,
        const std::function<bool(const Net&, TransitionId, TransitionId)>&
            exempt = {})
        : transitions(net.transition_count()),
          enabled_words((net.transition_count() + 63) / 64) {
        active = transitions >= 2;
        for (const Predicate* goal : request.goals) {
            if (goal == nullptr) continue;
            if (goal->kind() == Predicate::Kind::Deadlock) continue;
            if (!goal->support()) active = false;
        }
        if (!active) return;

        const std::size_t T = transitions;
        const std::size_t P = net.place_count();
        require.resize(T);
        forbid.resize(T);
        std::vector<std::vector<std::uint32_t>> toff(T);
        for (std::uint32_t t = 0; t < T; ++t) {
            const auto pre = ids(net.preset(TransitionId{t}));
            const auto post = ids(net.postset(TransitionId{t}));
            const auto read = ids(net.readset(TransitionId{t}));
            std::set_union(pre.begin(), pre.end(), read.begin(), read.end(),
                           std::back_inserter(require[t]));
            std::set_difference(post.begin(), post.end(), pre.begin(),
                                pre.end(), std::back_inserter(forbid[t]));
            std::set_difference(pre.begin(), pre.end(), post.begin(),
                                post.end(), std::back_inserter(toff[t]));
        }
        producers.resize(P);
        unmarkers.resize(P);
        std::vector<std::vector<std::uint32_t>> requirers(P);
        for (std::uint32_t t = 0; t < T; ++t) {
            for (std::uint32_t p : forbid[t]) producers[p].push_back(t);
            for (std::uint32_t p : toff[t]) unmarkers[p].push_back(t);
            for (std::uint32_t p : require[t]) requirers[p].push_back(t);
        }

        // forward(t): the u that t can disable — toff(t) ∩ require(u) ≠ ∅
        // ∨ ton(t) ∩ forbid(u) ≠ ∅, where ton(t) = forbid(t) and the
        // transitions forbidding p are its producers. dependent(t) adds
        // the backward direction: the u that can disable t.
        std::vector<std::vector<std::uint32_t>> forward(T);
        dependent.resize(T);
        for (std::uint32_t t = 0; t < T; ++t) {
            for (std::uint32_t p : toff[t]) {
                append(forward[t], requirers[p]);
            }
            for (std::uint32_t p : forbid[t]) {
                append(forward[t], producers[p]);
            }
            sort_unique(forward[t]);
            std::erase(forward[t], t);
            dependent[t] = forward[t];
            for (std::uint32_t p : require[t]) {
                append(dependent[t], unmarkers[p]);
            }
            for (std::uint32_t p : forbid[t]) {
                append(dependent[t], producers[p]);
            }
            sort_unique(dependent[t]);
            std::erase(dependent[t], t);
        }

        visible.assign(T, 0);
        for (const Predicate* goal : request.goals) {
            if (goal == nullptr) continue;
            if (goal->kind() == Predicate::Kind::Deadlock) continue;
            proviso = true;
            for (PlaceId p : *goal->support()) mark_togglers(p.value);
        }
        if (request.check_persistence) {
            proviso = true;
            for (std::uint32_t t = 0; t < T; ++t) {
                for (std::uint32_t u : forward[t]) {
                    if (exempt &&
                        exempt(net, TransitionId{t}, TransitionId{u})) {
                        continue;
                    }
                    mark_support(t);
                    mark_support(u);
                }
            }
        }
    }

    static std::vector<std::uint32_t> ids(const std::vector<PlaceId>& ps) {
        std::vector<std::uint32_t> out;
        for (PlaceId p : ps) out.push_back(p.value);
        return out;
    }
    static void append(std::vector<std::uint32_t>& to,
                       const std::vector<std::uint32_t>& from) {
        to.insert(to.end(), from.begin(), from.end());
    }
    static void sort_unique(std::vector<std::uint32_t>& v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    }
    void mark_togglers(std::uint32_t p) {
        for (std::uint32_t t : producers[p]) visible[t] = 1;
        for (std::uint32_t t : unmarkers[p]) visible[t] = 1;
    }
    void mark_support(std::uint32_t t) {
        for (std::uint32_t p : require[t]) mark_togglers(p);
        for (std::uint32_t p : forbid[t]) mark_togglers(p);
    }

    std::size_t transitions;
    std::size_t enabled_words;
    bool active = true;
    bool proviso = false;
    std::vector<std::vector<std::uint32_t>> require;
    std::vector<std::vector<std::uint32_t>> forbid;
    std::vector<std::vector<std::uint32_t>> producers;
    std::vector<std::vector<std::uint32_t>> unmarkers;
    std::vector<std::vector<std::uint32_t>> dependent;
    std::vector<std::uint8_t> visible;
};

/// PorContext::reduce's contract over the reference tables: (found,
/// ample), with ample only meaningful when found.
inline std::pair<bool, std::vector<std::uint64_t>> reference_reduce(
    const ReferencePor& ref, const std::uint64_t* marking,
    const std::uint64_t* enabled) {
    std::vector<std::uint64_t> best(ref.enabled_words, 0);
    std::size_t enabled_count = 0;
    for (std::size_t w = 0; w < ref.enabled_words; ++w) {
        enabled_count += static_cast<std::size_t>(
            std::popcount(enabled[w]));
    }
    if (enabled_count < 2) return {false, best};

    std::size_t best_count = enabled_count;
    bool found = false;
    int trials = 0;
    std::vector<std::uint8_t> member(ref.transitions);
    std::vector<std::uint32_t> queue;
    for (std::uint32_t seed = 0;
         seed < ref.transitions && trials < kReferenceSeedTrials; ++seed) {
        if (!word_bit(enabled, seed)) continue;
        ++trials;
        std::fill(member.begin(), member.end(), 0);
        queue.assign(1, seed);
        member[seed] = 1;
        std::size_t amp = 0;
        bool aborted = false;
        for (std::size_t qi = 0; qi < queue.size(); ++qi) {
            const std::uint32_t u = queue[qi];
            std::span<const std::uint32_t> joins;
            if (word_bit(enabled, u)) {
                // D1, unless u is visible or the incumbent is matched.
                if ((ref.proviso && ref.visible[u]) || ++amp >= best_count) {
                    aborted = true;
                    break;
                }
                joins = ref.dependent[u];
            } else {
                // D2: the smallest enabler list of an unsatisfied
                // condition, scan order breaking ties.
                std::size_t chosen_size = SIZE_MAX;
                for (std::uint32_t p : ref.require[u]) {
                    if (!word_bit(marking, p) &&
                        ref.producers[p].size() < chosen_size) {
                        joins = ref.producers[p];
                        chosen_size = joins.size();
                    }
                }
                for (std::uint32_t p : ref.forbid[u]) {
                    if (word_bit(marking, p) &&
                        ref.unmarkers[p].size() < chosen_size) {
                        joins = ref.unmarkers[p];
                        chosen_size = joins.size();
                    }
                }
            }
            for (std::uint32_t v : joins) {
                if (!member[v]) {
                    member[v] = 1;
                    queue.push_back(v);
                }
            }
        }
        if (aborted || amp == 0 || amp >= best_count) continue;
        best_count = amp;
        found = true;
        std::fill(best.begin(), best.end(), 0);
        for (std::uint32_t u : queue) {
            if (word_bit(enabled, u)) {
                best[u / 64] |= std::uint64_t{1} << (u % 64);
            }
        }
        if (best_count == 1) break;
    }
    return {found, best};
}

}  // namespace rap::petri::testfx
