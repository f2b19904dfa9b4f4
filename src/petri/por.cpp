#include "petri/por.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace rap::petri {

namespace {

constexpr std::size_t kWordBits = 64;

bool test_bit(const std::uint64_t* words, std::uint32_t i) noexcept {
    return (words[i / kWordBits] >> (i % kWordBits)) & 1;
}

void set_bit(std::uint64_t* words, std::uint32_t i) noexcept {
    words[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
}

/// Calls `f(u)` for every member u of a `words`-wide bitset row.
template <class F>
void for_each_member(const std::uint64_t* row, std::size_t words, F&& f) {
    for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
            f(static_cast<std::uint32_t>(
                w * kWordBits +
                static_cast<std::size_t>(std::countr_zero(bits))));
        }
    }
}

}  // namespace

void PorContext::mark_togglers_visible(std::uint32_t place) {
    const std::uint64_t* producers = enabler_row(2 * place);
    const std::uint64_t* unmarkers = enabler_row(2 * place + 1);
    for (std::size_t w = 0; w < words_; ++w) {
        visible_[w] |= producers[w] | unmarkers[w];
    }
}

void PorContext::mark_enabledness_support_visible(std::uint32_t transition) {
    if (support_marked_[transition]) return;
    support_marked_[transition] = 1;
    for (std::uint32_t i = condition_off_[transition];
         i < condition_off_[transition + 1]; ++i) {
        mark_togglers_visible(conditions_[i].place);
    }
}

PorContext::PorContext(const CompiledNet& compiled,
                       const PorRequest& request,
                       const std::uint64_t* checked_pairs)
    : words_(compiled.enabled_words()),
      transitions_(compiled.transition_count()) {
    const Net& net = compiled.net();
    const std::size_t T = transitions_;
    // A pass whose goals include a predicate of unknown support cannot
    // bound that goal's visible transitions; reduction would risk the
    // verdict, so the whole pass falls back to full exploration.
    // (Deadlock goals need no visibility: stubbornness alone preserves
    // every deadlock.) Nets with < 2 transitions have nothing to reduce.
    active_ = T >= 2;
    for (const Predicate* goal : request.goals) {
        if (goal == nullptr) continue;
        if (goal->kind() == Predicate::Kind::Deadlock) continue;
        if (!goal->support()) active_ = false;
    }
    if (!active_) return;

    const std::size_t P = net.place_count();

    // Enabler rows under the compiled "safe enabling" semantics: row 2p
    // holds the transitions that can mark p (p ∈ ton = post ∖ pre, which
    // is also forbid: producing into p requires p unmarked), row 2p + 1
    // the ones that can unmark it (p ∈ toff = pre ∖ post).
    enablers_.assign(2 * P * words_, 0);
    std::vector<std::uint32_t> enabler_count(2 * P, 0);
    auto add_enabler = [&](std::uint32_t row, std::uint32_t t) {
        set_bit(enablers_.data() + std::size_t{row} * words_, t);
        ++enabler_count[row];
    };
    for (std::uint32_t t = 0; t < T; ++t) {
        const auto& pre = net.preset(TransitionId{t});
        const auto& post = net.postset(TransitionId{t});
        for (PlaceId p : post) {
            if (!std::binary_search(pre.begin(), pre.end(), p)) {
                add_enabler(2 * p.value, t);
            }
        }
        for (PlaceId p : pre) {
            if (!std::binary_search(post.begin(), post.end(), p)) {
                add_enabler(2 * p.value + 1, t);
            }
        }
    }

    // Each transition's conditions in D2 choice order: scan order
    // (require = pre ∪ read ascending, then forbid = post ∖ pre
    // ascending), stably sorted by enabler count, so the first
    // unsatisfied one is the smallest list with ties to scan order.
    condition_off_.reserve(T + 1);
    std::vector<PlaceId> require;
    for (std::uint32_t t = 0; t < T; ++t) {
        const auto& pre = net.preset(TransitionId{t});
        const auto& post = net.postset(TransitionId{t});
        const auto& read = net.readset(TransitionId{t});
        condition_off_.push_back(
            static_cast<std::uint32_t>(conditions_.size()));
        const auto first = static_cast<std::ptrdiff_t>(conditions_.size());
        require.clear();
        std::set_union(pre.begin(), pre.end(), read.begin(), read.end(),
                       std::back_inserter(require));
        for (PlaceId p : require) conditions_.push_back({p.value, 2 * p.value});
        for (PlaceId p : post) {
            if (!std::binary_search(pre.begin(), pre.end(), p)) {
                conditions_.push_back({p.value, 2 * p.value + 1});
            }
        }
        std::stable_sort(conditions_.begin() + first, conditions_.end(),
                         [&](const Condition& a, const Condition& b) {
                             return enabler_count[a.row] <
                                    enabler_count[b.row];
                         });
    }
    condition_off_.push_back(static_cast<std::uint32_t>(conditions_.size()));

    // Symmetric disabling dependence: the compiled disables rows ORed
    // with their transpose (neither side holds t itself).
    dependent_.assign(T * words_, 0);
    for (std::uint32_t t = 0; t < T; ++t) {
        const std::uint64_t* disables = compiled.disables(TransitionId{t});
        std::uint64_t* row = dependent_.data() + std::size_t{t} * words_;
        for (std::size_t w = 0; w < words_; ++w) row[w] |= disables[w];
        for_each_member(disables, words_, [&](std::uint32_t u) {
            set_bit(dependent_.data() + std::size_t{u} * words_, t);
        });
    }

    // Visibility. A transition is visible when its firing can change a
    // watched predicate: for goals, the togglers of the declared support
    // places; for persistence, the togglers of the enabledness support
    // (require ∪ forbid) of both members of every pair the pass checks.
    visible_.assign(words_, 0);
    for (const Predicate* goal : request.goals) {
        if (goal == nullptr) continue;
        if (goal->kind() == Predicate::Kind::Deadlock) continue;
        proviso_ = true;
        for (PlaceId p : *goal->support()) {
            mark_togglers_visible(p.value);
        }
    }
    if (request.check_persistence) {
        proviso_ = true;
        support_marked_.assign(T, 0);
        for (std::uint32_t t = 0; t < T; ++t) {
            for_each_member(checked_pairs + std::size_t{t} * words_, words_,
                            [&](std::uint32_t u) {
                                mark_enabledness_support_visible(t);
                                mark_enabledness_support_visible(u);
                            });
        }
    }
}

const std::uint64_t* PorContext::chosen_enablers(
    std::uint32_t t, const std::uint64_t* marking) const noexcept {
    for (std::uint32_t i = condition_off_[t]; i < condition_off_[t + 1];
         ++i) {
        const Condition& c = conditions_[i];
        // A require condition (even row) fails on an unmarked place, a
        // forbid condition (odd row) on a marked one.
        if (test_bit(marking, c.place) == ((c.row & 1) != 0)) {
            return enabler_row(c.row);
        }
    }
    // A disabled transition always has an unsatisfied condition; the
    // enabled bitsets are maintained incrementally and proven equal to
    // recomputation.
    assert(false && "disabled transition with every condition met");
    return nullptr;
}

// 64-byte aligned like CompiledNet::fire: a 32-byte shift cost sweep_grid 12%.
__attribute__((aligned(64)))
std::size_t PorContext::close(std::uint32_t seed,
                              const std::uint64_t* marking,
                              const std::uint64_t* enabled,
                              std::size_t bound, Scratch& s) const {
    // Locals, not members: words_ is an unsigned long like the uint64_t
    // words stored below, so the compiler would reload it after each
    // store.
    const std::size_t words = words_;
    const std::uint64_t* visible = visible_.data();
    std::uint64_t* closure = s.closure.data();
    std::uint32_t* stack = s.stack.data();
    const std::size_t seed_word = seed / kWordBits;
    const std::uint64_t seed_bit = std::uint64_t{1} << (seed % kWordBits);
    // C2: a proper ample set may not fire a visible transition.
    if ((visible[seed_word] & seed_bit) != 0) return 0;
    std::fill(closure, closure + words, 0);
    closure[seed_word] = seed_bit;
    std::size_t top = 0;
    stack[top++] = seed;
    // bound >= 2 here: reduce() stops at an ample set of one.
    std::size_t amp = 1;
    while (top != 0) {
        const std::uint32_t u = stack[--top];
        // D1 for an enabled member, D2 for a disabled one.
        const std::uint64_t* row = test_bit(enabled, u)
                                       ? dependent_row(u)
                                       : chosen_enablers(u, marking);
        if (row == nullptr) continue;
        for (std::size_t w = 0; w < words; ++w) {
            const std::uint64_t fresh = row[w] & ~closure[w];
            if (fresh == 0) continue;
            closure[w] |= fresh;
            const std::uint64_t fresh_enabled = fresh & enabled[w];
            if (fresh_enabled != 0) {
                if ((fresh_enabled & visible[w]) != 0) return 0;
                // Every enabled transition below the seed was an earlier
                // seed of this reduce() call. This closure now contains
                // that seed's whole closure, which cannot beat the
                // incumbent, so this one cannot either.
                const std::uint64_t earlier =
                    w < seed_word    ? ~std::uint64_t{0}
                    : w == seed_word ? seed_bit - 1
                                     : 0;
                if ((fresh_enabled & earlier) != 0) return 0;
                amp += static_cast<std::size_t>(std::popcount(fresh_enabled));
            }
            for (std::uint64_t bits = fresh; bits != 0; bits &= bits - 1) {
                stack[top++] = static_cast<std::uint32_t>(
                    w * kWordBits +
                    static_cast<std::size_t>(std::countr_zero(bits)));
            }
        }
        // A closure that already matches the incumbent can't improve on
        // it, and closures only grow.
        if (amp >= bound) return 0;
    }
    return amp;
}

__attribute__((aligned(64)))
bool PorContext::reduce(const std::uint64_t* marking,
                        const std::uint64_t* enabled, std::uint64_t* ample,
                        Scratch& s) const {
    std::size_t enabled_count = 0;
    for (std::size_t w = 0; w < words_; ++w) {
        enabled_count += static_cast<std::size_t>(
            std::popcount(enabled[w]));
    }
    if (enabled_count < 2) return false;
    s.closure.resize(words_);
    s.stack.resize(transitions_);

    // Seeds in ascending id order (close()'s earlier-seed stop relies on
    // it); each accepted closure is its seed's least fixpoint and
    // strictly smaller than the incumbent.
    std::size_t best_count = enabled_count;
    int trials = 0;
    for (std::size_t w = 0; w < words_ && trials < kSeedTrials; ++w) {
        for (std::uint64_t bits = enabled[w];
             bits != 0 && trials < kSeedTrials; bits &= bits - 1) {
            const auto seed = static_cast<std::uint32_t>(
                w * kWordBits +
                static_cast<std::size_t>(std::countr_zero(bits)));
            ++trials;
            const std::size_t amp = close(seed, marking, enabled,
                                          best_count, s);
            if (amp == 0) continue;
            best_count = amp;
            for (std::size_t v = 0; v < words_; ++v) {
                ample[v] = s.closure[v] & enabled[v];
            }
            if (best_count == 1) return true;
        }
    }
    return best_count < enabled_count;
}

}  // namespace rap::petri
