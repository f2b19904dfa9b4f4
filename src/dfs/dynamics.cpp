#include "dfs/dynamics.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace rap::dfs {

std::string_view to_string(EventKind kind) {
    switch (kind) {
        case EventKind::LogicEvaluate: return "evaluate";
        case EventKind::LogicReset: return "reset";
        case EventKind::Mark: return "mark";
        case EventKind::Unmark: return "unmark";
        case EventKind::MarkTrue: return "mark-true";
        case EventKind::MarkFalse: return "mark-false";
    }
    return "?";
}

Dynamics::Dynamics(const Graph& graph) : graph_(&graph) {
    graph.ensure_valid();
    compile();
}

void Dynamics::check_node(NodeId n) const {
    if (n.value >= graph_->node_count()) {
        throw std::out_of_range("dfs::Dynamics: node id " +
                                std::to_string(n.value) +
                                " is outside the graph");
    }
}

std::vector<Event> Dynamics::node_events(NodeId n) const {
    check_node(n);
    std::vector<Event> out;
    for (const std::uint32_t i : node_event_indices(n)) {
        out.push_back(rows_[i].event);
    }
    return out;
}

// ---------------------------------------------------------------------------
// The compiled event table
// ---------------------------------------------------------------------------

namespace {

/// The events each node kind emits, in node_events order.
std::span<const EventKind> emitted_kinds(NodeKind kind) {
    static constexpr EventKind kLogic[] = {EventKind::LogicEvaluate,
                                           EventKind::LogicReset};
    static constexpr EventKind kRegister[] = {EventKind::Mark,
                                              EventKind::Unmark};
    static constexpr EventKind kDynamic[] = {
        EventKind::MarkTrue, EventKind::MarkFalse, EventKind::Unmark};
    switch (kind) {
        case NodeKind::Logic: return kLogic;
        case NodeKind::Register: return kRegister;
        case NodeKind::Control:
        case NodeKind::Push:
        case NodeKind::Pop: return kDynamic;
    }
    return {};
}

}  // namespace

void Dynamics::compile() {
    const Graph& g = *graph_;
    const std::size_t n = g.node_count();
    constexpr std::size_t kWordBits = util::BitVec::kWordBits;

    // The cube under construction, dense over the state words; end_cube()
    // appends its non-empty words as terms. Literals name State's layout
    // [C | M | T], one section of n bits each.
    std::vector<std::uint64_t> set(util::BitVec::words_for_bits(3 * n));
    std::vector<std::uint64_t> clear(set.size());
    auto literal = [&](std::size_t bit, bool value) {
        (value ? set : clear)[bit / kWordBits] |= std::uint64_t{1}
                                                  << (bit % kWordBits);
    };
    auto c = [&](NodeId x, bool v) { literal(x.value, v); };
    auto m = [&](NodeId x, bool v) { literal(n + x.value, v); };
    auto t = [&](NodeId x, bool v) { literal(2 * n + x.value, v); };
    auto end_cube = [&] {
        for (std::uint32_t w = 0; w < set.size(); ++w) {
            if (set[w] | clear[w]) terms_.push_back({set[w], clear[w], w});
            set[w] = clear[w] = 0;
        }
    };

    // Literal groups, one per term of the equations below.
    auto preset_logic = [&](NodeId x, bool evaluated) {
        for (NodeId k : g.preset(x)) {
            if (g.is_logic(k)) c(k, evaluated);
        }
    };
    auto r_preset = [&](NodeId x, bool marked) {
        for (NodeId q : g.r_preset(x)) m(q, marked);
    };
    auto r_preset_pushes_true = [&](NodeId x) {
        for (NodeId q : g.r_preset(x)) {
            if (g.kind(q) == NodeKind::Push) t(q, true);
        }
    };
    auto r_postset_unmarked = [&](NodeId x) {
        for (NodeId q : g.r_postset(x)) m(q, false);
    };
    auto r_postset_took_token = [&](NodeId x) {
        const bool x_is_control = g.kind(x) == NodeKind::Control;
        for (NodeId q : g.r_postset(x)) {
            m(q, true);
            if (g.kind(q) != NodeKind::Pop) continue;
            const auto& cpre = g.control_preset(q);
            if (!x_is_control ||
                !std::binary_search(cpre.begin(), cpre.end(), x)) {
                t(q, true);
            }
        }
    };
    auto mark_set = [&](NodeId x) {
        preset_logic(x, true);
        r_preset(x, true);
        r_preset_pushes_true(x);
        r_postset_unmarked(x);
    };
    auto mark_reset = [&](NodeId x) {
        preset_logic(x, false);
        r_preset(x, false);
        r_postset_took_token(x);
    };
    /// Every control marked with the token that, after the arc's
    /// inversion, reads `polarity`. Validation gives every push and pop
    /// a control, so false_controlled's "at least one" holds by
    /// structure; a control without one makes a free choice (Eq. 5).
    auto controlled = [&](NodeId x, bool polarity) {
        const auto& controls = g.control_preset(x);
        const auto& inverted = g.control_preset_inversion(x);
        for (std::size_t i = 0; i < controls.size(); ++i) {
            m(controls[i], true);
            t(controls[i], polarity != inverted[i]);
        }
    };

    node_first_.reserve(n + 1);
    for (NodeId x : g.nodes()) {
        node_first_.push_back(static_cast<std::uint32_t>(rows_.size()));
        const NodeKind kind = g.kind(x);
        for (const EventKind k : emitted_kinds(kind)) {
            Row row{{x, k}, static_cast<std::uint32_t>(terms_.size()), 0, 0};
            const bool splits_on_token =
                k == EventKind::Unmark &&
                (kind == NodeKind::Push || kind == NodeKind::Pop);
            switch (k) {
                case EventKind::LogicEvaluate:
                    // Eq. 1 + 3: preset logic evaluated, preset registers
                    // marked, directly preceding pushes with real tokens.
                    c(x, false);
                    for (NodeId p : g.preset(x)) {
                        if (g.is_logic(p)) {
                            c(p, true);
                        } else {
                            m(p, true);
                            if (g.kind(p) == NodeKind::Push) t(p, true);
                        }
                    }
                    break;
                case EventKind::LogicReset:
                    // Eq. 1 + 3: preset logic reset, preset registers
                    // unmarked.
                    c(x, true);
                    for (NodeId p : g.preset(x)) {
                        if (g.is_logic(p)) {
                            c(p, false);
                        } else {
                            m(p, false);
                        }
                    }
                    break;
                case EventKind::Mark:
                    m(x, false);
                    mark_set(x);
                    break;
                case EventKind::MarkTrue:
                    m(x, false);
                    controlled(x, true);
                    mark_set(x);
                    break;
                case EventKind::MarkFalse:
                    m(x, false);
                    controlled(x, false);
                    if (kind == NodeKind::Control) {
                        mark_set(x);
                    } else if (kind == NodeKind::Push) {
                        // Consumes and destroys the incoming token: the
                        // R-postset is never involved.
                        preset_logic(x, true);
                        r_preset(x, true);
                        r_preset_pushes_true(x);
                    } else {
                        // A pop produces an empty token: output space only.
                        r_postset_unmarked(x);
                    }
                    break;
                case EventKind::Unmark:
                    m(x, true);
                    if (!splits_on_token) {
                        mark_reset(x);
                        break;
                    }
                    // Push and pop: a real token (T) behaves statically...
                    t(x, true);
                    mark_reset(x);
                    end_cube();
                    row.split = static_cast<std::uint32_t>(terms_.size());
                    // ...a destroyed one (push) leaves without any
                    // R-postset interaction; an empty one (pop) leaves
                    // once the R-postset took it and the controls moved
                    // on, the data preset never involved.
                    m(x, true);
                    t(x, false);
                    if (kind == NodeKind::Push) {
                        preset_logic(x, false);
                        r_preset(x, false);
                    } else {
                        r_postset_took_token(x);
                        for (NodeId q : g.control_preset(x)) m(q, false);
                    }
                    break;
            }
            end_cube();
            row.end = static_cast<std::uint32_t>(terms_.size());
            if (!splits_on_token) row.split = row.end;
            rows_.push_back(row);
        }
    }
    node_first_.push_back(static_cast<std::uint32_t>(rows_.size()));

    // Readers, read off the compiled terms: bit b of the state belongs
    // to node b mod n. One bitset row per read node collects its readers,
    // which then come out ascending.
    const std::size_t row_words = util::BitVec::words_for_bits(n);
    std::vector<std::uint64_t> read_by(n * row_words);
    auto add_reader = [&](std::size_t read, std::uint32_t reader) {
        read_by[read * row_words + reader / kWordBits] |=
            std::uint64_t{1} << (reader % kWordBits);
    };
    for (const Row& row : rows_) {
        add_reader(row.event.node.value, row.event.node.value);
        for (std::uint32_t i = row.first; i < row.end; ++i) {
            const Term& term = terms_[i];
            for (std::uint64_t bits = term.set | term.clear; bits != 0;
                 bits &= bits - 1) {
                const std::size_t bit =
                    term.word * kWordBits +
                    static_cast<std::size_t>(std::countr_zero(bits));
                add_reader(bit % n, row.event.node.value);
            }
        }
    }
    reader_first_.reserve(n + 1);
    for (std::size_t read = 0; read < n; ++read) {
        reader_first_.push_back(static_cast<std::uint32_t>(readers_.size()));
        for (std::size_t w = 0; w < row_words; ++w) {
            for (std::uint64_t bits = read_by[read * row_words + w];
                 bits != 0; bits &= bits - 1) {
                readers_.push_back(NodeId{static_cast<std::uint32_t>(
                    w * kWordBits +
                    static_cast<std::size_t>(std::countr_zero(bits)))});
            }
        }
    }
    reader_first_.push_back(static_cast<std::uint32_t>(readers_.size()));
}

std::uint32_t Dynamics::event_index(const Event& e) const {
    check_node(e.node);
    for (const std::uint32_t i : node_event_indices(e.node)) {
        if (rows_[i].event.kind == e.kind) return i;
    }
    return kNoEvent;
}

// ---------------------------------------------------------------------------
// Structural state predicates
// ---------------------------------------------------------------------------

bool Dynamics::preset_logic_evaluated(const State& s, NodeId n) const {
    for (NodeId k : graph_->preset(n)) {
        if (graph_->is_logic(k) && !s.logic_evaluated(k)) return false;
    }
    return true;
}

bool Dynamics::preset_logic_reset(const State& s, NodeId n) const {
    for (NodeId k : graph_->preset(n)) {
        if (graph_->is_logic(k) && s.logic_evaluated(k)) return false;
    }
    return true;
}

bool Dynamics::r_preset_marked(const State& s, NodeId n) const {
    for (NodeId q : graph_->r_preset(n)) {
        if (!s.marked(q)) return false;
    }
    return true;
}

bool Dynamics::r_preset_unmarked(const State& s, NodeId n) const {
    for (NodeId q : graph_->r_preset(n)) {
        if (s.marked(q)) return false;
    }
    return true;
}

bool Dynamics::r_postset_unmarked(const State& s, NodeId n) const {
    for (NodeId q : graph_->r_postset(n)) {
        if (s.marked(q)) return false;
    }
    return true;
}

bool Dynamics::r_postset_took_token(const State& s, NodeId n) const {
    // Eq. 4: a pop in the R-postset counts as having taken the token only
    // when it latched while true-controlled (Mt); an Mf pop produced an
    // unrelated empty token and must not release this register. The one
    // exception is the pop's own *control* register: the pop latches the
    // configuration token on either polarity, which acknowledges it —
    // without this a False configuration token could never be returned.
    const bool n_is_control = graph_->kind(n) == NodeKind::Control;
    for (NodeId q : graph_->r_postset(n)) {
        if (!s.marked(q)) return false;
        if (graph_->kind(q) == NodeKind::Pop && !s.token_true(q)) {
            const auto& cpre = graph_->control_preset(q);
            const bool n_controls_q =
                n_is_control &&
                std::binary_search(cpre.begin(), cpre.end(), n);
            if (!n_controls_q) return false;
        }
    }
    return true;
}

bool Dynamics::r_preset_pushes_true(const State& s, NodeId n) const {
    for (NodeId q : graph_->r_preset(n)) {
        if (graph_->kind(q) == NodeKind::Push && !s.marked_true(*graph_, q)) {
            return false;
        }
    }
    return true;
}

bool Dynamics::preset_pushes_true(const State& s, NodeId l) const {
    for (NodeId q : graph_->preset(l)) {
        if (graph_->kind(q) == NodeKind::Push && !s.marked_true(*graph_, q)) {
            return false;
        }
    }
    return true;
}

bool Dynamics::true_controlled(const State& s, NodeId n) const {
    const auto& controls = graph_->control_preset(n);
    const auto& inverted = graph_->control_preset_inversion(n);
    for (std::size_t i = 0; i < controls.size(); ++i) {
        const NodeId c = controls[i];
        if (!s.marked(c)) return false;
        // Inverting arcs (Section II-B extension): the consumer observes
        // the complement of the control token.
        if (s.token_true(c) == inverted[i]) return false;
    }
    return true;
}

bool Dynamics::false_controlled(const State& s, NodeId n) const {
    const auto& controls = graph_->control_preset(n);
    const auto& inverted = graph_->control_preset_inversion(n);
    if (controls.empty()) return false;
    for (std::size_t i = 0; i < controls.size(); ++i) {
        const NodeId c = controls[i];
        if (!s.marked(c)) return false;
        if (s.token_true(c) != inverted[i]) return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// The set/reset equations
// ---------------------------------------------------------------------------

bool Dynamics::eval_set(const State& s, NodeId l) const {
    // Cd↑(l), Eq. 1 + 3: preset logic evaluated, preset registers marked,
    // and every directly-preceding push carries a real token.
    for (NodeId k : graph_->preset(l)) {
        if (graph_->is_logic(k)) {
            if (!s.logic_evaluated(k)) return false;
        } else {
            if (!s.marked(k)) return false;
        }
    }
    return preset_pushes_true(s, l);
}

bool Dynamics::eval_reset(const State& s, NodeId l) const {
    // Cd↓(l), Eq. 1 + 3: preset logic reset, preset registers unmarked.
    // (The push term of Eq. 3 is subsumed: an unmarked push has no token.)
    for (NodeId k : graph_->preset(l)) {
        if (graph_->is_logic(k)) {
            if (s.logic_evaluated(k)) return false;
        } else {
            if (s.marked(k)) return false;
        }
    }
    return true;
}

bool Dynamics::mark_set(const State& s, NodeId r) const {
    // Md↑(r), Eq. 2 + 4: preset logic evaluated, R-preset marked (pushes
    // with real tokens only), R-postset unmarked.
    return preset_logic_evaluated(s, r) && r_preset_marked(s, r) &&
           r_preset_pushes_true(s, r) && r_postset_unmarked(s, r);
}

bool Dynamics::mark_reset(const State& s, NodeId r) const {
    // Md↓(r), Eq. 2 + 4: preset logic reset, R-preset unmarked, R-postset
    // holding the propagated token (pops only when true-controlled).
    return preset_logic_reset(s, r) && r_preset_unmarked(s, r) &&
           r_postset_took_token(s, r);
}

// ---------------------------------------------------------------------------
// Event enabling
// ---------------------------------------------------------------------------

bool Dynamics::is_enabled(const State& s, const Event& e) const {
    const std::uint32_t i = event_index(e);
    return i != kNoEvent && is_enabled(s, i);
}

std::vector<Event> Dynamics::enabled_events(const State& s) const {
    std::vector<Event> out;
    for (std::uint32_t i = 0; i < event_count(); ++i) {
        if (is_enabled(s, i)) out.push_back(rows_[i].event);
    }
    return out;
}

void Dynamics::apply(State& s, const Event& e) const {
    assert(is_enabled(s, e));
    switch (e.kind) {
        case EventKind::LogicEvaluate:
            s.set_logic(e.node, true);
            break;
        case EventKind::LogicReset:
            s.set_logic(e.node, false);
            break;
        case EventKind::Mark:
            s.set_marked(e.node, true, false);
            break;
        case EventKind::Unmark:
            s.set_marked(e.node, false, false);
            break;
        case EventKind::MarkTrue:
            s.set_marked(e.node, true, true);
            break;
        case EventKind::MarkFalse:
            s.set_marked(e.node, true, false);
            break;
    }
}

bool Dynamics::is_deadlocked(const State& s) const {
    for (std::uint32_t i = 0; i < event_count(); ++i) {
        if (is_enabled(s, i)) return false;
    }
    return true;
}

std::optional<NodeId> Dynamics::control_conflict(const State& s) const {
    for (NodeId n : graph_->nodes()) {
        const auto& controls = graph_->control_preset(n);
        if (controls.size() < 2) continue;
        const auto& inverted = graph_->control_preset_inversion(n);
        bool all_marked = true;
        bool saw_true = false;
        bool saw_false = false;
        for (std::size_t i = 0; i < controls.size(); ++i) {
            const NodeId c = controls[i];
            if (!s.marked(c)) {
                all_marked = false;
                break;
            }
            // Effective (post-inversion) token value.
            (s.token_true(c) != inverted[i] ? saw_true : saw_false) = true;
        }
        if (all_marked && saw_true && saw_false) return n;
    }
    return std::nullopt;
}

}  // namespace rap::dfs
