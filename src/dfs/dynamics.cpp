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
// The equations
// ---------------------------------------------------------------------------

void enabling_atoms(const Graph& g, NodeId n, EventKind kind,
                    bool token_true, std::vector<Atom>& out) {
    using Var = Atom::Var;
    const NodeKind node_kind = g.kind(n);

    /// Register q marked — a push with a real token, Mt (the push gating
    /// of Eq. 3/4) — or unmarked.
    auto holds = [&](NodeId q, bool marked) {
        const bool real = marked && g.kind(q) == NodeKind::Push;
        out.push_back({q, real ? Var::Mt : Var::M, marked});
    };
    /// Preset logic evaluated and R-preset marked, or preset logic reset
    /// and R-preset unmarked.
    auto inputs = [&](bool ready) {
        for (NodeId k : g.preset(n)) {
            if (g.is_logic(k)) out.push_back({k, Var::C, ready});
        }
        for (NodeId q : g.r_preset(n)) holds(q, ready);
    };
    auto r_postset_unmarked = [&] {
        for (NodeId q : g.r_postset(n)) out.push_back({q, Var::M, false});
    };
    /// Eq. 4, "the R-postset took the token": a pop took it only when it
    /// latched Mt; an Mf pop produced an unrelated empty token and must
    /// not release n. The exception is the pop's own control register:
    /// the pop latches the configuration token on either polarity, which
    /// acknowledges it — without this a False configuration token could
    /// never be returned.
    auto r_postset_took = [&] {
        const bool n_is_control = node_kind == NodeKind::Control;
        for (NodeId q : g.r_postset(n)) {
            bool real = false;
            if (g.kind(q) == NodeKind::Pop) {
                const auto& cpre = g.control_preset(q);
                real = !n_is_control ||
                       !std::binary_search(cpre.begin(), cpre.end(), n);
            }
            out.push_back({q, real ? Var::Mt : Var::M, true});
        }
    };
    /// Every control carries the token that, after the arc's inversion
    /// (Section II-B), reads `polarity`. Validation gives every push and
    /// pop a control; a control without one makes a free choice (Eq. 5).
    auto controlled = [&](bool polarity) {
        const auto& controls = g.control_preset(n);
        const auto& inverted = g.control_preset_inversion(n);
        for (std::size_t i = 0; i < controls.size(); ++i) {
            out.push_back({controls[i],
                           polarity != inverted[i] ? Var::Mt : Var::Mf,
                           true});
        }
    };

    switch (kind) {
        case EventKind::LogicEvaluate:
        case EventKind::LogicReset: {
            // Cd↑ (Cd↓), Eq. 1 + 3: preset logic evaluated (reset),
            // preset registers marked with real tokens (unmarked).
            const bool up = kind == EventKind::LogicEvaluate;
            for (NodeId p : g.preset(n)) {
                if (g.is_logic(p)) {
                    out.push_back({p, Var::C, up});
                } else {
                    holds(p, up);
                }
            }
            return;
        }
        case EventKind::Mark:
        case EventKind::MarkTrue:
            // Md↑, Eq. 2 + 4: inputs ready, R-postset unmarked. A push or
            // pop behaves so when true-controlled.
            if (kind == EventKind::MarkTrue) controlled(true);
            inputs(true);
            r_postset_unmarked();
            return;
        case EventKind::MarkFalse:
            controlled(false);
            if (node_kind == NodeKind::Control) {
                inputs(true);
                r_postset_unmarked();
            } else if (node_kind == NodeKind::Push) {
                // Consumes and destroys the incoming token: the
                // R-postset is never involved.
                inputs(true);
            } else {
                // A pop produces an empty token: output space only.
                r_postset_unmarked();
            }
            return;
        case EventKind::Unmark:
            if (token_true || (node_kind != NodeKind::Push &&
                               node_kind != NodeKind::Pop)) {
                // Md↓, Eq. 2 + 4: inputs reset, R-postset holding the
                // propagated token.
                inputs(false);
                r_postset_took();
            } else if (node_kind == NodeKind::Push) {
                // A destroyed token leaves without any R-postset
                // interaction.
                inputs(false);
            } else {
                // An empty token leaves once the R-postset took it and
                // the controls moved on, the data preset never involved.
                r_postset_took();
                for (NodeId c : g.control_preset(n)) {
                    out.push_back({c, Var::M, false});
                }
            }
            return;
    }
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

    // The cube under construction, dense over the state words; add_cube
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

    // One cube of event (x, k): x's own variable at the value the event
    // flips it from (and, for a split Unmark, x's token `token_true`),
    // then the atoms of enabling_atoms(x, k, token_true).
    std::vector<Atom> atoms;
    auto add_cube = [&](NodeId x, EventKind k, bool token_true,
                        bool reads_own_token) {
        if (k == EventKind::LogicEvaluate || k == EventKind::LogicReset) {
            c(x, k == EventKind::LogicReset);
        } else {
            m(x, k == EventKind::Unmark);
        }
        if (reads_own_token) t(x, token_true);
        atoms.clear();
        enabling_atoms(g, x, k, token_true, atoms);
        for (const Atom& a : atoms) {
            if (a.var == Atom::Var::C) {
                c(a.node, a.value);
            } else {
                m(a.node, a.value);
                if (a.var != Atom::Var::M) t(a.node, a.var == Atom::Var::Mt);
            }
        }
        for (std::uint32_t w = 0; w < set.size(); ++w) {
            if (set[w] | clear[w]) terms_.push_back({set[w], clear[w], w});
            set[w] = clear[w] = 0;
        }
        return static_cast<std::uint32_t>(terms_.size());
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
            row.split = add_cube(x, k, true, splits_on_token);
            row.end = splits_on_token ? add_cube(x, k, false, true)
                                      : row.split;
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
