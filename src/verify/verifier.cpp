#include "verify/verifier.hpp"

#include "util/strings.hpp"

namespace rap::verify {

std::string_view to_string(Property property) {
    switch (property) {
        case Property::Deadlock: return "deadlock";
        case Property::ControlConflict: return "control-conflict";
        case Property::Persistence: return "persistence";
        case Property::Custom: return "custom";
    }
    return "?";
}

std::string Finding::to_string() const {
    std::string out = std::string(rap::verify::to_string(property)) + ": ";
    if (truncated) out += "INCONCLUSIVE (state cap hit); ";
    out += violated ? "VIOLATED" : "ok";
    out += util::format(" [%zu states]", states_explored);
    if (!detail.empty()) out += " — " + detail;
    if (!trace.empty()) out += "\n  trace: " + util::join(trace, " -> ");
    if (!dfs_trace.empty()) {
        out += "\n  events: " + util::join(dfs_trace, "; ");
    }
    return out;
}

std::string Report::to_string() const {
    // Findings are already in the canonical order (Deadlock,
    // ControlConflict, Persistence, customs in registration order); the
    // rendering preserves it so reports diff cleanly across runs.
    std::vector<std::string> lines;
    lines.reserve(findings.size());
    for (const auto& f : findings) lines.push_back(f.to_string());
    return util::join(lines, "\n");
}

Verifier::Verifier(const dfs::Graph& graph, VerifyOptions options)
    : graph_(&graph), options_(options), model_(compile_model(graph)) {}

Verifier::Verifier(const dfs::Graph& graph,
                   std::shared_ptr<const CompiledModel> model,
                   VerifyOptions options)
    : graph_(&graph), options_(options), model_(std::move(model)) {}

void Verifier::fill_traces(Finding& finding,
                           const petri::Trace& trace) const {
    const dfs::Translation& tr = model_->translation();
    for (const auto t : trace.firings) {
        finding.trace.push_back(tr.net.transition_name(t));
        finding.dfs_trace.push_back(tr.describe_transition(*graph_, t));
        const auto& ev = tr.event(t);
        finding.event_trace.push_back({ev.node, ev.kind});
    }
}

namespace {

/// A finding of `property` carrying the pass's counters, not violated.
Finding pass_finding(Property property, const petri::MultiResult& multi) {
    Finding finding;
    finding.property = property;
    finding.states_explored = multi.states_explored;
    finding.truncated = multi.truncated;
    return finding;
}

}  // namespace

Finding Verifier::goal_finding(Property property,
                               const petri::MultiResult& multi,
                               std::size_t goal,
                               std::string detail_on_violation) const {
    Finding finding = pass_finding(property, multi);
    const std::optional<petri::Witness>& witness = multi.goals[goal];
    finding.violated = witness.has_value();
    if (finding.violated) {
        finding.detail =
            std::move(detail_on_violation) + " at " +
            model_->translation().net.describe_marking(witness->marking);
        fill_traces(finding, witness->trace);
    }
    return finding;
}

Finding Verifier::persistence_finding(
    const petri::MultiResult& multi) const {
    Finding finding = pass_finding(Property::Persistence, multi);
    finding.violated = !multi.persistence_violations.empty();
    if (finding.violated) {
        const dfs::Translation& tr = model_->translation();
        const auto& v = multi.persistence_violations.front();
        finding.detail = util::format(
            "%s — i.e. \"%s\" withdraws the enabling of \"%s\"",
            v.to_string(tr.net).c_str(),
            tr.describe_transition(*graph_, v.fired).c_str(),
            tr.describe_transition(*graph_, v.disabled).c_str());
        fill_traces(finding, v.trace_to_marking);
    }
    return finding;
}

std::optional<petri::Predicate> Verifier::control_conflict_predicate()
    const {
    // The Reach predicate: OR over all nodes with >=2 controls of "every
    // control marked, and both polarities present".
    const dfs::Graph& g = *graph_;
    struct Watched {
        dfs::NodeId node;
        std::vector<dfs::NodeId> controls;
        std::vector<bool> inverted;
    };
    std::vector<Watched> watched;
    for (dfs::NodeId n : g.nodes()) {
        const auto& controls = g.control_preset(n);
        if (controls.size() >= 2) {
            watched.push_back({n, controls, g.control_preset_inversion(n)});
        }
    }
    if (watched.empty()) return std::nullopt;

    const auto& places = model_->translation().places;
    // The predicate only reads the m1/mt1 slots of the watched controls;
    // declaring that support keeps partial-order reduction admissible
    // (an unknown-support goal would force full exploration).
    std::vector<petri::PlaceId> support;
    for (const auto& w : watched) {
        for (const dfs::NodeId c : w.controls) {
            support.push_back(places[c.value].m1);
            support.push_back(places[c.value].mt1);
        }
    }
    auto eval = [watched, &places](const petri::Net&,
                                   const petri::Marking& m) {
        for (const auto& w : watched) {
            bool all_marked = true;
            bool saw_true = false;
            bool saw_false = false;
            for (std::size_t i = 0; i < w.controls.size(); ++i) {
                const auto& slots = places[w.controls[i].value];
                if (!m.get(slots.m1.value)) {
                    all_marked = false;
                    break;
                }
                // Effective polarity after any inverting arc.
                const bool is_true = m.get(slots.mt1.value) != w.inverted[i];
                (is_true ? saw_true : saw_false) = true;
            }
            if (all_marked && saw_true && saw_false) return true;
        }
        return false;
    };
    return petri::Predicate::custom("control-conflict", std::move(eval),
                                    std::move(support));
}

bool Verifier::persistence_exempt(const dfs::Translation& translation,
                                  petri::TransitionId a,
                                  petri::TransitionId b) {
    // Intended choices: the Mt_x+ / Mf_x+ pair of the same node, i.e. the
    // non-deterministic outcome of a data-dependent predicate (Fig. 4).
    const auto& ea = translation.event(a);
    const auto& eb = translation.event(b);
    const auto marks = [](dfs::EventKind kind) {
        return kind == dfs::EventKind::MarkTrue ||
               kind == dfs::EventKind::MarkFalse;
    };
    return ea.node == eb.node && marks(ea.kind) && marks(eb.kind);
}

Report Verifier::verify(const Spec& spec) const {
    // One exploration answers every requested property: deadlock,
    // control-conflict and any custom predicates as multi-goal
    // reachability, persistence at the explored states. A single open
    // question may stop at its first answer. With more than one the pass
    // runs to exhaustion — early exit on one property would leave the
    // others unanswered — but keeps only the first persistence
    // counterexample.
    const auto deadlock_goal = petri::Predicate::deadlock();
    std::optional<petri::Predicate> conflict;
    if (spec.wants_control_conflict()) conflict = control_conflict_predicate();

    petri::MultiQuery query;
    if (spec.wants_deadlock()) query.goals.push_back(&deadlock_goal);
    if (conflict) query.goals.push_back(&*conflict);
    for (const auto& custom : spec.customs()) {
        query.goals.push_back(&custom.predicate);
    }
    if (spec.wants_persistence()) {
        query.check_persistence = true;
        query.persistence_exempt = [&tr = model_->translation()](
                                       const petri::Net&, auto a, auto b) {
            return persistence_exempt(tr, a, b);
        };
        query.persistence_max_violations = 1;
    }
    const std::size_t questions = (spec.wants_deadlock() ? 1u : 0u) +
                                  (spec.wants_control_conflict() ? 1u : 0u) +
                                  (spec.wants_persistence() ? 1u : 0u) +
                                  spec.customs().size();

    petri::MultiResult multi;
    if (!query.goals.empty() || query.check_persistence) {
        petri::ReachabilityOptions ropts;
        ropts.max_states = options_.max_states;
        ropts.stop_at_first_match = questions <= 1;
        ropts.por = options_.por;
        ropts.stop = options_.stop;
        ++explorations_;
        multi = petri::ReachabilityExplorer(model_->compiled(), ropts)
                    .run_query(query);
    }
    // else: the only requested property is a trivially safe
    // control-conflict — nothing to explore.

    // Findings in the canonical deterministic order.
    Report report;
    report.memory = multi.memory;
    report.por = multi.por;
    std::size_t goal = 0;
    if (spec.wants_deadlock()) {
        report.findings.push_back(goal_finding(
            Property::Deadlock, multi, goal++, "deadlock reachable"));
    }
    if (conflict) {
        report.findings.push_back(
            goal_finding(Property::ControlConflict, multi, goal++,
                         "mixed True/False controls disable a node"));
    } else if (spec.wants_control_conflict()) {
        Finding safe = pass_finding(Property::ControlConflict, multi);
        safe.detail = "no node has multiple controls; trivially safe";
        report.findings.push_back(std::move(safe));
    }
    if (spec.wants_persistence()) {
        report.findings.push_back(persistence_finding(multi));
    }
    for (const auto& custom : spec.customs()) {
        Finding finding = goal_finding(Property::Custom, multi, goal++,
                                       "predicate reachable");
        finding.detail = custom.description + ": " +
                         (finding.violated ? finding.detail : "unreachable");
        report.findings.push_back(std::move(finding));
    }
    return report;
}

Report Verifier::verify_all() const { return verify(Spec::standard()); }

}  // namespace rap::verify
