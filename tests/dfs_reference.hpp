#pragma once

// The DFS enabling rules as a per-node walk over the graph's structural
// sets, one switch per event kind. It reads only the Graph and the
// State: it calls nothing in dfs::Dynamics and does not use
// dfs::enabling_atoms, the one copy of the equations in src/ that both
// the event table and the Petri-net translation are generated from. So
// it is an independent oracle: a bug in the shared atoms moves the table
// and the net together, and only a comparison against this walk sees it.

#include <algorithm>

#include "dfs/dynamics.hpp"
#include "dfs/model.hpp"
#include "dfs/state.hpp"

namespace rap::dfs::testing {

/// Enabledness of `e` at `s` by the equations (Section II, Eq. 1–5),
/// evaluated node by node over the graph's structural sets. Defined for
/// the kinds node_events(e.node) lists; a kind the node never emits gets
/// whatever its equation says.
class ReferenceEnabling {
public:
    explicit ReferenceEnabling(const Graph& graph) : g_(graph) {}

    bool operator()(const State& s, const Event& e) const {
        const NodeId n = e.node;
        switch (e.kind) {
            case EventKind::LogicEvaluate:
                return !s.logic_evaluated(n) && eval_set(s, n);
            case EventKind::LogicReset:
                return s.logic_evaluated(n) && eval_reset(s, n);
            case EventKind::Mark:
                return !s.marked(n) && mark_set(s, n);
            case EventKind::Unmark: {
                if (!s.marked(n)) return false;
                switch (g_.kind(n)) {
                    case NodeKind::Register:
                    case NodeKind::Control:
                        return mark_reset(s, n);
                    case NodeKind::Push:
                        // A destroyed token (Mf) leaves without any
                        // R-postset interaction; a real token behaves
                        // statically.
                        if (s.token_true(n)) return mark_reset(s, n);
                        return preset_logic_reset(s, n) &&
                               r_preset_unmarked(s, n);
                    case NodeKind::Pop:
                        // An empty token (Mf) was produced out of thin
                        // air: it leaves when the R-postset took it and
                        // the control preset has moved on; the data
                        // preset was never involved.
                        if (s.token_true(n)) return mark_reset(s, n);
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
                        if (!mark_set(s, n)) return false;
                        if (g_.control_preset(n).empty()) return true;
                        return true_controlled(s, n);
                    case NodeKind::Push:
                    case NodeKind::Pop:
                        // A static register when true-controlled.
                        return true_controlled(s, n) && mark_set(s, n);
                    default:
                        return false;
                }
            }
            case EventKind::MarkFalse: {
                if (s.marked(n)) return false;
                switch (g_.kind(n)) {
                    case NodeKind::Control:
                        if (!mark_set(s, n)) return false;
                        if (g_.control_preset(n).empty()) return true;
                        return false_controlled(s, n);
                    case NodeKind::Push:
                        // Consumes and destroys an incoming token: needs
                        // it (preset logic evaluated, R-preset marked
                        // with real pushes) but ignores the R-postset.
                        return false_controlled(s, n) &&
                               preset_logic_evaluated(s, n) &&
                               r_preset_marked(s, n) &&
                               r_preset_pushes_true(s, n);
                    case NodeKind::Pop:
                        // Produces an empty token: ignores the data
                        // preset, needs only output space.
                        return false_controlled(s, n) &&
                               r_postset_unmarked(s, n);
                    default:
                        return false;
                }
            }
        }
        return false;
    }

    // -- the set/reset equations ---------------------------------------

    /// Cd↑(l), Eq. 1 + 3: preset logic evaluated, preset registers
    /// marked, and every directly preceding push carries a real token.
    bool eval_set(const State& s, NodeId l) const {
        for (NodeId k : g_.preset(l)) {
            if (g_.is_logic(k) ? !s.logic_evaluated(k) : !s.marked(k)) {
                return false;
            }
        }
        return preset_pushes_true(s, l);
    }

    /// Cd↓(l), Eq. 1 + 3: preset logic reset, preset registers unmarked.
    /// (The push term of Eq. 3 is subsumed: an unmarked push has no
    /// token.)
    bool eval_reset(const State& s, NodeId l) const {
        for (NodeId k : g_.preset(l)) {
            if (g_.is_logic(k) ? s.logic_evaluated(k) : s.marked(k)) {
                return false;
            }
        }
        return true;
    }

    /// Md↑(r), Eq. 2 + 4: preset logic evaluated, R-preset marked
    /// (pushes with real tokens only), R-postset unmarked.
    bool mark_set(const State& s, NodeId r) const {
        return preset_logic_evaluated(s, r) && r_preset_marked(s, r) &&
               r_preset_pushes_true(s, r) && r_postset_unmarked(s, r);
    }

    /// Md↓(r), Eq. 2 + 4: preset logic reset, R-preset unmarked,
    /// R-postset holding the propagated token (pops only when
    /// true-controlled).
    bool mark_reset(const State& s, NodeId r) const {
        return preset_logic_reset(s, r) && r_preset_unmarked(s, r) &&
               r_postset_took_token(s, r);
    }

    /// Every control register in n's R-preset is marked with the token
    /// that, after the arc's inversion, reads True. A node without
    /// controls is vacuously true-controlled: it behaves statically.
    bool true_controlled(const State& s, NodeId n) const {
        const auto& controls = g_.control_preset(n);
        const auto& inverted = g_.control_preset_inversion(n);
        for (std::size_t i = 0; i < controls.size(); ++i) {
            const NodeId c = controls[i];
            // Inverting arcs (Section II-B extension): the consumer
            // observes the complement of the control token.
            if (!s.marked(c) || s.token_true(c) == inverted[i]) return false;
        }
        return true;
    }

    /// As true_controlled for False, except that a node without controls
    /// is never false-controlled.
    bool false_controlled(const State& s, NodeId n) const {
        const auto& controls = g_.control_preset(n);
        const auto& inverted = g_.control_preset_inversion(n);
        if (controls.empty()) return false;
        for (std::size_t i = 0; i < controls.size(); ++i) {
            const NodeId c = controls[i];
            if (!s.marked(c) || s.token_true(c) != inverted[i]) return false;
        }
        return true;
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
    /// Every push in the R-preset carries a real token (Eq. 3/4 gating).
    bool r_preset_pushes_true(const State& s, NodeId n) const {
        for (NodeId q : g_.r_preset(n)) {
            if (g_.kind(q) == NodeKind::Push && !s.marked_true(g_, q)) {
                return false;
            }
        }
        return true;
    }
    /// Every push directly preceding logic l carries a real token
    /// (Eq. 3).
    bool preset_pushes_true(const State& s, NodeId l) const {
        for (NodeId q : g_.preset(l)) {
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

    const Graph& g_;
};

}  // namespace rap::dfs::testing
