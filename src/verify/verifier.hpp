#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dfs/dynamics.hpp"
#include "dfs/model.hpp"
#include "dfs/translate.hpp"
#include "petri/predicate.hpp"
#include "petri/reachability.hpp"
#include "verify/artifacts.hpp"
#include "verify/spec.hpp"

namespace rap::verify {

/// The properties the Workcraft/MPSAT flow checks on DFS models
/// (Section II-D): the standard ones (deadlock) plus the custom functional
/// hazards of the dynamic extension (control-token conflicts,
/// non-persistence) expressed in Reach on the translated Petri net.
enum class Property {
    /// Reachability of a marking with no enabled transitions.
    Deadlock,
    /// Reachability of a marking where some node's control preset is
    /// fully marked with mixed True/False tokens — the "disabled node"
    /// hazard of Section II-B.
    ControlConflict,
    /// Output persistence of the PN, exempting the intended Mt+/Mf+ free
    /// choices of control registers (Fig. 4's non-deterministic
    /// evaluation outcome is a choice, not a hazard).
    Persistence,
    /// Reachability of a custom Reach-style predicate.
    Custom,
};

std::string_view to_string(Property property);

/// Outcome of one property check.
struct Finding {
    Property property = Property::Custom;
    bool violated = false;
    bool truncated = false;          ///< state space cap hit — inconclusive
    std::size_t states_explored = 0;
    std::string detail;              ///< human-readable violation summary
    std::vector<std::string> trace;  ///< PN firing trace witness
    /// The same witness translated back to DFS-level events through the
    /// translation's name map ("push filt destroys a bypassed token"
    /// instead of "Mf_filt+") — the debugging aid of Section III-A,
    /// aligned entry-for-entry with `trace`.
    std::vector<std::string> dfs_trace;
    /// The witness as typed DFS events, aligned entry-for-entry with
    /// `trace` — machine-readable (unlike dfs_trace) so it can feed
    /// TimedSimulator::set_stimulus directly for witness replay on the
    /// timed simulator.
    std::vector<dfs::Event> event_trace;

    std::string to_string() const;
};

struct VerifyOptions {
    std::size_t max_states = 2'000'000;
    /// Partial-order (stubborn-set) reduction forwarded to the
    /// exploration engine (petri::ReachabilityOptions::por). Verdicts
    /// are preserved for every property the verifier checks — the
    /// standard goals carry support places, so the unknown-support
    /// fallback never triggers for Spec::standard() — but
    /// states_explored counts the reduced graph and violation witnesses
    /// need not be globally shortest. Report::por carries the measured
    /// reduction of a pass.
    bool por = false;
    /// Cooperative stop hook forwarded to the exploration engine
    /// (petri::ReachabilityOptions::stop): polled cheaply mid-pass; when
    /// it returns true the exploration ends early and every finding of
    /// the pass reports `truncated = true` (inconclusive). flow::Sweep
    /// drives cancellation through this.
    /// Must not throw. Null (the default) never stops.
    std::function<bool()> stop;
};

/// Aggregate report of a full verification pass. Findings are always in
/// the canonical deterministic order — Deadlock, ControlConflict,
/// Persistence, then custom properties in their registration order —
/// regardless of how the Spec was assembled.
struct Report {
    std::vector<Finding> findings;
    /// Footprint of the exploration that produced this report; all zero
    /// when the spec needed no exploration.
    petri::MemoryStats memory;
    /// Reduction statistics of that exploration (inactive unless
    /// VerifyOptions::por was on and the pass could reduce); all zero,
    /// with reduction inactive, when the spec needed no exploration.
    petri::PorStats por;

    bool clean() const {
        for (const auto& f : findings) {
            if (f.violated) return false;
        }
        return true;
    }

    /// First finding of the given property; nullptr when the pass did not
    /// check it.
    const Finding* find(Property property) const {
        for (const auto& f : findings) {
            if (f.property == property) return &f;
        }
        return nullptr;
    }

    /// One line per finding, in the canonical order documented above.
    std::string to_string() const;
};

/// Verifies DFS models by translating them to their Petri-net semantics
/// and model-checking the result — the same pipeline the paper automates
/// in Workcraft with the MPSAT backend.
///
/// Construction is cheap when the model was compiled before: the
/// translation + CompiledNet artifact comes from the shared
/// verify::compile_model cache, so sequential constructions (and copies)
/// over the same model content share ONE compile.
class Verifier {
public:
    explicit Verifier(const dfs::Graph& graph, VerifyOptions options = {});

    /// Shares an externally cached artifact (flow::Design's constructor
    /// path). `model` must have been compiled from `graph`'s current
    /// content.
    Verifier(const dfs::Graph& graph,
             std::shared_ptr<const CompiledModel> model,
             VerifyOptions options = {});

    /// Runs exactly the properties `spec` asks for, sharing ONE
    /// state-space exploration across all of them, and reports findings
    /// in the canonical order. A spec with one question stops the pass at
    /// its first answer; with more, the pass runs to exhaustion so that
    /// every property gets an exact answer.
    Report verify(const Spec& spec) const;

    /// The pairs the persistence check exempts, read off the
    /// translation's event map: the MarkTrue/MarkFalse (Mt+/Mf+)
    /// transitions of one node.
    static bool persistence_exempt(const dfs::Translation& translation,
                                   petri::TransitionId a,
                                   petri::TransitionId b);

    /// verify(Spec::standard()): deadlock, control conflict and
    /// persistence in ONE state-space exploration.
    Report verify_all() const;

    /// Number of state-space explorations this verifier has run so far.
    /// Lets callers (and tests) confirm verify_all's single-pass claim.
    std::size_t explorations_run() const noexcept { return explorations_; }

    const dfs::Translation& translation() const noexcept {
        return model_->translation();
    }

    /// The shared compiled artifact backing this verifier.
    const std::shared_ptr<const CompiledModel>& model() const noexcept {
        return model_;
    }

private:
    Finding goal_finding(Property property, const petri::MultiResult& multi,
                         std::size_t goal,
                         std::string detail_on_violation) const;
    Finding persistence_finding(const petri::MultiResult& multi) const;
    void fill_traces(Finding& finding, const petri::Trace& trace) const;

    /// The control-conflict Reach predicate; nullopt when no node has
    /// multiple controls (trivially safe, nothing to explore).
    std::optional<petri::Predicate> control_conflict_predicate() const;

    const dfs::Graph* graph_;
    VerifyOptions options_;
    std::shared_ptr<const CompiledModel> model_;
    mutable std::size_t explorations_ = 0;
};

}  // namespace rap::verify
