#pragma once

// The DFS enabling rules written as one switch per event kind over the
// equation helpers — the form dfs::Dynamics compiles into its event
// table. Tests compare the table against it state by state.

#include <algorithm>

#include "dfs/dynamics.hpp"

namespace rap::dfs::testing {

/// Enabledness of `e` at `s` by the equations (Section II, Eq. 1–5),
/// evaluated node by node over the graph's structural sets. Defined for
/// the kinds node_events(e.node) lists; a kind the node never emits gets
/// whatever its equation says.
class ReferenceEnabling {
public:
    explicit ReferenceEnabling(const Dynamics& dynamics)
        : dyn_(dynamics), g_(dynamics.graph()) {}

    bool operator()(const State& s, const Event& e) const {
        const NodeId n = e.node;
        switch (e.kind) {
            case EventKind::LogicEvaluate:
                return !s.logic_evaluated(n) && dyn_.eval_set(s, n);
            case EventKind::LogicReset:
                return s.logic_evaluated(n) && dyn_.eval_reset(s, n);
            case EventKind::Mark:
                return !s.marked(n) && dyn_.mark_set(s, n);
            case EventKind::Unmark: {
                if (!s.marked(n)) return false;
                switch (g_.kind(n)) {
                    case NodeKind::Register:
                    case NodeKind::Control:
                        return dyn_.mark_reset(s, n);
                    case NodeKind::Push:
                        // A destroyed token (Mf) leaves without any
                        // R-postset interaction; a real token behaves
                        // statically.
                        if (s.token_true(n)) return dyn_.mark_reset(s, n);
                        return preset_logic_reset(s, n) &&
                               r_preset_unmarked(s, n);
                    case NodeKind::Pop:
                        // An empty token (Mf) was produced out of thin
                        // air: it leaves when the R-postset took it and
                        // the control preset has moved on; the data
                        // preset was never involved.
                        if (s.token_true(n)) return dyn_.mark_reset(s, n);
                        if (!r_postset_took_token(s, n)) return false;
                        for (NodeId c : g_.control_preset(n)) {
                            if (s.marked(c)) return false;
                        }
                        return true;
                    case NodeKind::Logic:
                        return false;
                }
                return false;
            }
            case EventKind::MarkTrue: {
                if (s.marked(n)) return false;
                switch (g_.kind(n)) {
                    case NodeKind::Control:
                        // Eq. 5: copy a True token from upstream
                        // controls; with none the value is a free
                        // (data-dependent) choice.
                        if (!dyn_.mark_set(s, n)) return false;
                        if (g_.control_preset(n).empty()) return true;
                        return dyn_.true_controlled(s, n);
                    case NodeKind::Push:
                    case NodeKind::Pop:
                        // A static register when true-controlled.
                        return dyn_.true_controlled(s, n) &&
                               dyn_.mark_set(s, n);
                    default:
                        return false;
                }
            }
            case EventKind::MarkFalse: {
                if (s.marked(n)) return false;
                switch (g_.kind(n)) {
                    case NodeKind::Control:
                        if (!dyn_.mark_set(s, n)) return false;
                        if (g_.control_preset(n).empty()) return true;
                        return dyn_.false_controlled(s, n);
                    case NodeKind::Push:
                        // Consumes and destroys an incoming token: needs
                        // it (preset logic evaluated, R-preset marked
                        // with real pushes) but ignores the R-postset.
                        return dyn_.false_controlled(s, n) &&
                               preset_logic_evaluated(s, n) &&
                               r_preset_marked(s, n) &&
                               r_preset_pushes_true(s, n);
                    case NodeKind::Pop:
                        // Produces an empty token: ignores the data
                        // preset, needs only output space.
                        return dyn_.false_controlled(s, n) &&
                               r_postset_unmarked(s, n);
                    default:
                        return false;
                }
            }
        }
        return false;
    }

private:
    bool preset_logic_evaluated(const State& s, NodeId n) const {
        for (NodeId k : g_.preset(n)) {
            if (g_.is_logic(k) && !s.logic_evaluated(k)) return false;
        }
        return true;
    }
    bool preset_logic_reset(const State& s, NodeId n) const {
        for (NodeId k : g_.preset(n)) {
            if (g_.is_logic(k) && s.logic_evaluated(k)) return false;
        }
        return true;
    }
    bool r_preset_marked(const State& s, NodeId n) const {
        for (NodeId q : g_.r_preset(n)) {
            if (!s.marked(q)) return false;
        }
        return true;
    }
    bool r_preset_unmarked(const State& s, NodeId n) const {
        for (NodeId q : g_.r_preset(n)) {
            if (s.marked(q)) return false;
        }
        return true;
    }
    bool r_postset_unmarked(const State& s, NodeId n) const {
        for (NodeId q : g_.r_postset(n)) {
            if (s.marked(q)) return false;
        }
        return true;
    }
    bool r_preset_pushes_true(const State& s, NodeId n) const {
        for (NodeId q : g_.r_preset(n)) {
            if (g_.kind(q) == NodeKind::Push && !s.marked_true(g_, q)) {
                return false;
            }
        }
        return true;
    }
    /// Eq. 4: an R-postset pop took the token only when it latched Mt,
    /// unless `n` is that pop's own control register.
    bool r_postset_took_token(const State& s, NodeId n) const {
        const bool n_is_control = g_.kind(n) == NodeKind::Control;
        for (NodeId q : g_.r_postset(n)) {
            if (!s.marked(q)) return false;
            if (g_.kind(q) == NodeKind::Pop && !s.token_true(q)) {
                const auto& cpre = g_.control_preset(q);
                const bool n_controls_q =
                    n_is_control &&
                    std::binary_search(cpre.begin(), cpre.end(), n);
                if (!n_controls_q) return false;
            }
        }
        return true;
    }

    const Dynamics& dyn_;
    const Graph& g_;
};

}  // namespace rap::dfs::testing
