#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "petri/compiled.hpp"
#include "petri/net.hpp"
#include "petri/predicate.hpp"

namespace rap::petri {

/// Reduction statistics of one exploration pass (MultiResult::por). The
/// reduced state graph depends only on the net and the query, so every
/// run of the same pass reports the same numbers.
struct PorStats {
    /// Reduction actually ran. False when ReachabilityOptions::por was
    /// off or the pass had to fall back to full exploration (a goal
    /// predicate with unknown support places).
    bool active = false;
    std::size_t expansions = 0;  ///< states expanded by the pass
    /// States expanded with a proper stubborn subset of their enabled set.
    std::size_t reduced_expansions = 0;
    /// Reduced expansions widened back to the full enabled set by the
    /// BFS-queue ignoring proviso (no stubborn successor was fresh).
    std::size_t proviso_expansions = 0;
    /// Sum of |enabled| over expanded states (the full-exploration work).
    std::size_t enabled_transitions = 0;
    /// Sum of |expanded| over expanded states (the work actually done);
    /// expanded == ample plus any proviso widening.
    std::size_t expanded_transitions = 0;

    /// Enabled transitions skipped thanks to the reduction.
    std::size_t ignored() const noexcept {
        return enabled_transitions - expanded_transitions;
    }
};

/// What a pass needs preserved, distilled from MultiQuery by the engine:
/// the goal predicates drive the visibility condition, persistence adds
/// the visibility of the pairs the pass checks.
struct PorRequest {
    std::vector<const Predicate*> goals;
    bool check_persistence = false;
};

/// Property-aware stubborn-set (ample/persistent-set) reduction for the
/// reachability engine, built on the same "safe enabling" semantics as
/// CompiledNet:
///
///   enabled(t) <=> require(t) = pre ∪ read all marked
///               && forbid(t)  = post ∖ pre all unmarked
///
/// Static tables, built per pass from place adjacency (the relations as
/// enabled_words()-wide bitset rows):
///
/// - per place, its producers (p ∈ ton = post ∖ pre = forbid) and its
///   unmarkers (p ∈ toff = pre ∖ post)
/// - a symmetric *disabling* dependence, CompiledNet::disables ORed with
///   its transpose:
///     dependent(t,u) <=> toff(t)∩require(u) ≠ ∅ ∨ ton(t)∩forbid(u) ≠ ∅
///                      ∨ (the same with t and u swapped)
///   Transitions outside dependent(t) can neither disable t nor race its
///   effect: under 1-safe contact-free semantics every shared-toggle case
///   either implies mutual disabling (covered) or the pair can never be
///   co-enabled, so independent firings commute.
/// - per transition, its enabling conditions (a required or a forbidden
///   place) sorted by enabler count, then by scan position (require
///   places ascending, then forbid places ascending).
///
/// Per state, reduce() closes a seed transition under
///
///   D1  enabled t in the set  -> all of dependent(t) joins
///   D2  disabled t in the set -> the necessary enablers of ONE
///       unsatisfied condition join (producers of an unmarked required
///       place, or unmarkers of a marked forbidden place — the first
///       unsatisfied condition in the sorted order, i.e. the smallest
///       such list, ties to scan order)
///
/// one row OR per step, and returns ample = closure ∩ enabled. Every
/// enabled member is a key transition, so all deadlocks of the full graph
/// stay reachable and the reduced deadlock set is *exactly* the full one.
/// Goal reachability and persistence additionally require the visibility
/// condition (a proper ample set contains no transition that can change
/// a watched predicate) and the BFS-queue ignoring proviso, which the
/// engine applies through proviso_needed() and its layer bookkeeping.
///
/// Seeds are tried in ascending id order, the first kSeedTrials enabled
/// transitions, and a trial is accepted when its closure has fewer
/// enabled members than the incumbent and no enabled visible one. The
/// closure is walked depth-first from a stack of members not yet stepped,
/// and a trial stops as soon as it must be rejected:
///
/// - its enabled count reaches the incumbent's (closures only grow);
/// - it gains an enabled visible member;
/// - it gains an earlier seed of the same state. That seed's closure is
///   then a subset of this one, and that seed was either accepted (so the
///   incumbent is no larger than its closure) or rejected by one of these
///   same rules.
///
/// Walk order cannot change a result: every stop rule is monotone in the
/// closure, so a trial is rejected exactly when its least fixpoint would
/// be, and an accepted trial runs to that fixpoint. The choice of ample
/// set therefore depends only on (marking, enabled set, static tables),
/// so the reduced state graph — and every verdict and counter derived
/// from it — is a deterministic function of net and query.
class PorContext {
public:
    /// `checked_pairs` is read when request.check_persistence: one
    /// enabled_words()-wide row per transition t holding the u whose
    /// disabling by t the pass reports (the engine's checked-pair rows).
    PorContext(const CompiledNet& compiled, const PorRequest& request,
               const std::uint64_t* checked_pairs);

    /// False when some goal predicate has unknown support places — the
    /// pass cannot tell which transitions are visible to it, so the
    /// engine must fall back to full exploration.
    bool active() const noexcept { return active_; }

    /// True when a visibility-sensitive property (a non-deadlock goal or
    /// persistence) is present: proper ample sets must then contain no
    /// visible transition and the engine must apply the ignoring
    /// proviso. Deadlock-only passes skip both and reduce harder.
    bool proviso_needed() const noexcept { return proviso_; }

    /// Scratch for reduce(); reusable across states and across contexts
    /// (reduce() sizes it to the context's transition count).
    struct Scratch {
        std::vector<std::uint64_t> closure;  ///< the seed's closure so far
        /// Members not yet stepped, depth-first; each transition is pushed
        /// at most once per closure, so transition_count entries suffice.
        std::vector<std::uint32_t> stack;
    };

    /// Computes a stubborn subset of `enabled` at `marking` into `ample`
    /// (enabled_words() words). Returns true when ample is a *proper*
    /// subset worth expanding instead of the full enabled set; false
    /// means no admissible reduction was found (expand everything,
    /// `ample` contents are unspecified). Deterministic in its inputs.
    bool reduce(const std::uint64_t* marking, const std::uint64_t* enabled,
                std::uint64_t* ample, Scratch& scratch) const;

private:
    /// One enabling condition of a transition: `place` must be marked
    /// (a require condition, enabler row 2·place = its producers) or
    /// unmarked (a forbid condition, row 2·place + 1 = its unmarkers).
    struct Condition {
        std::uint32_t place;
        std::uint32_t row;
    };

    const std::uint64_t* dependent_row(std::uint32_t t) const noexcept {
        return dependent_.data() + std::size_t{t} * words_;
    }
    const std::uint64_t* enabler_row(std::uint32_t row) const noexcept {
        return enablers_.data() + std::size_t{row} * words_;
    }
    /// D2: the enabler row of t's first unsatisfied condition.
    const std::uint64_t* chosen_enablers(
        std::uint32_t t, const std::uint64_t* marking) const noexcept;
    /// Ample count of `seed`'s closure, left in scratch.closure; 0 when
    /// the closure reaches `bound` enabled members, an enabled visible
    /// one, or an enabled member below `seed` (an earlier seed): the
    /// seed cannot beat the incumbent.
    std::size_t close(std::uint32_t seed, const std::uint64_t* marking,
                      const std::uint64_t* enabled, std::size_t bound,
                      Scratch& scratch) const;
    void mark_togglers_visible(std::uint32_t place);
    void mark_enabledness_support_visible(std::uint32_t transition);

    std::size_t words_;        ///< enabled_words()
    std::size_t transitions_;  ///< transition_count()
    bool active_ = true;
    bool proviso_ = false;

    std::vector<std::uint64_t> dependent_;  // one row per transition
    std::vector<std::uint64_t> enablers_;   // two rows per place
    std::vector<std::uint32_t> condition_off_;  // transition_count + 1
    std::vector<Condition> conditions_;         // D2 choice order
    /// Transitions a proper ample set may not contain; all clear unless
    /// proviso_needed().
    std::vector<std::uint64_t> visible_;
    std::vector<std::uint8_t> support_marked_;  // memo for persistence viz

    static constexpr int kSeedTrials = 8;
};

}  // namespace rap::petri
