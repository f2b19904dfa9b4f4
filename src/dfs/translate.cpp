#include "dfs/translate.hpp"

#include <algorithm>
#include <initializer_list>
#include <stdexcept>

namespace rap::dfs {
namespace {

class Builder {
public:
    explicit Builder(const Graph& graph) : graph_(graph) {
        graph.ensure_valid();
        result_.net = petri::Net(graph.name() + "_pn");
    }

    Translation build() {
        make_places();
        for (NodeId n : graph_.nodes()) make_transitions(n);
        return std::move(result_);
    }

private:
    void make_places() {
        auto& net = result_.net;
        result_.places.resize(graph_.node_count());
        for (NodeId n : graph_.nodes()) {
            auto& slots = result_.places[n.value];
            const std::string& name = graph_.node_name(n);
            if (graph_.is_logic(n)) {
                slots.c0 = net.add_place("C_" + name + "_0", true);
                slots.c1 = net.add_place("C_" + name + "_1", false);
                continue;
            }
            const InitialMarking& init = graph_.initial(n);
            slots.m0 = net.add_place("M_" + name + "_0", !init.marked);
            slots.m1 = net.add_place("M_" + name + "_1", init.marked);
            if (graph_.is_dynamic(n)) {
                const bool t = init.marked && init.token == TokenValue::True;
                const bool f = init.marked && init.token == TokenValue::False;
                slots.mt0 = net.add_place("Mt_" + name + "_0", !t);
                slots.mt1 = net.add_place("Mt_" + name + "_1", t);
                slots.mf0 = net.add_place("Mf_" + name + "_0", !f);
                slots.mf1 = net.add_place("Mf_" + name + "_1", f);
            }
        }
    }

    petri::PlaceId place_for(const Atom& atom) const {
        const auto& slots = result_.places[atom.node.value];
        switch (atom.var) {
            case Atom::Var::C: return atom.value ? slots.c1 : slots.c0;
            case Atom::Var::M: return atom.value ? slots.m1 : slots.m0;
            case Atom::Var::Mt: return atom.value ? slots.mt1 : slots.mt0;
            case Atom::Var::Mf: return atom.value ? slots.mf1 : slots.mf0;
        }
        throw std::logic_error("bad atom");
    }

    /// Adds the transition of event (n, kind, token): it moves n's own
    /// variable from `consume` to `produce` and reads the places of
    /// enabling_atoms(n, kind). An atom's place that the transition
    /// consumes needs no read arc.
    void emit(const std::string& name, NodeId n, EventKind kind,
              std::optional<TokenValue> token,
              std::initializer_list<petri::PlaceId> consume,
              std::initializer_list<petri::PlaceId> produce) {
        auto& net = result_.net;
        const petri::TransitionId t = net.add_transition(name);
        result_.events_.push_back({n, kind, token});
        for (petri::PlaceId p : consume) net.add_input_arc(p, t);
        for (petri::PlaceId p : produce) net.add_output_arc(t, p);
        atoms_.clear();
        enabling_atoms(graph_, n, kind, token == TokenValue::True, atoms_);
        reads_.clear();
        for (const Atom& atom : atoms_) reads_.push_back(place_for(atom));
        std::sort(reads_.begin(), reads_.end());
        reads_.erase(std::unique(reads_.begin(), reads_.end()), reads_.end());
        for (petri::PlaceId p : reads_) {
            if (std::find(consume.begin(), consume.end(), p) ==
                consume.end()) {
                net.add_read_arc(p, t);
            }
        }
    }

    /// One emit per Fig. 3 transition: x+ moves x's token from x_0 to
    /// x_1, x- moves it back; a dynamic register's M± is refined into the
    /// mutually exclusive Mt± / Mf± pairs (Fig. 3c).
    void make_transitions(NodeId n) {
        const auto& s = result_.places[n.value];
        const std::string& name = graph_.node_name(n);
        if (graph_.is_logic(n)) {
            emit("C_" + name + "+", n, EventKind::LogicEvaluate,
                 std::nullopt, {s.c0}, {s.c1});
            emit("C_" + name + "-", n, EventKind::LogicReset, std::nullopt,
                 {s.c1}, {s.c0});
        } else if (!graph_.is_dynamic(n)) {
            emit("M_" + name + "+", n, EventKind::Mark, std::nullopt,
                 {s.m0}, {s.m1});
            emit("M_" + name + "-", n, EventKind::Unmark, std::nullopt,
                 {s.m1}, {s.m0});
        } else {
            constexpr TokenValue kT = TokenValue::True;
            constexpr TokenValue kF = TokenValue::False;
            emit("Mt_" + name + "+", n, EventKind::MarkTrue, kT,
                 {s.m0, s.mt0}, {s.m1, s.mt1});
            emit("Mf_" + name + "+", n, EventKind::MarkFalse, kF,
                 {s.m0, s.mf0}, {s.m1, s.mf1});
            emit("Mt_" + name + "-", n, EventKind::Unmark, kT,
                 {s.m1, s.mt1}, {s.m0, s.mt0});
            emit("Mf_" + name + "-", n, EventKind::Unmark, kF,
                 {s.m1, s.mf1}, {s.m0, s.mf0});
        }
    }

    const Graph& graph_;
    Translation result_;
    std::vector<Atom> atoms_;            // emit's buffers, reused
    std::vector<petri::PlaceId> reads_;
};

}  // namespace

petri::TransitionId Translation::transition_for(const Graph& graph,
                                                const Event& e,
                                                bool token_true) const {
    if (e.node.value >= graph.node_count()) {
        throw std::out_of_range("dfs::Translation: node id " +
                                std::to_string(e.node.value) +
                                " is outside the graph");
    }
    // events_ is in node order: n's transitions are adjacent.
    const auto first = std::lower_bound(
        events_.begin(), events_.end(), e.node,
        [](const TransitionEvent& te, NodeId n) { return te.node < n; });
    for (auto it = first; it != events_.end() && it->node == e.node; ++it) {
        if (it->kind != e.kind) continue;
        // A dynamic register's Unmark is Mt- or Mf- by its token.
        if (e.kind == EventKind::Unmark && it->token &&
            (it->token == TokenValue::True) != token_true) {
            continue;
        }
        return petri::TransitionId{
            static_cast<std::uint32_t>(it - events_.begin())};
    }
    throw std::invalid_argument("no PN transition for event " +
                                std::string(to_string(e.kind)) + " on " +
                                graph.node_name(e.node));
}

std::string Translation::describe_transition(const Graph& graph,
                                             petri::TransitionId t) const {
    const TransitionEvent& e = event(t);
    const std::string& name = graph.node_name(e.node);
    const bool token_true = e.token == TokenValue::True;
    switch (graph.kind(e.node)) {
        case NodeKind::Logic:
            return (e.kind == EventKind::LogicEvaluate ? "logic " + name +
                                                             " evaluates"
                                                       : "logic " + name +
                                                             " resets");
        case NodeKind::Register:
            return e.kind == EventKind::Mark
                       ? "register " + name + " accepts a token"
                       : "register " + name + " releases its token";
        case NodeKind::Control:
            switch (e.kind) {
                case EventKind::MarkTrue:
                    return "control " + name + " latches True";
                case EventKind::MarkFalse:
                    return "control " + name + " latches False";
                default:
                    return "control " + name + " releases its " +
                           (token_true ? "True" : "False") + " token";
            }
        case NodeKind::Push:
            switch (e.kind) {
                case EventKind::MarkTrue:
                    return "push " + name + " passes a token";
                case EventKind::MarkFalse:
                    return "push " + name + " destroys a bypassed token";
                default:
                    return "push " + name + " releases its " +
                           (token_true ? "passed" : "destroyed") + " token";
            }
        case NodeKind::Pop:
            switch (e.kind) {
                case EventKind::MarkTrue:
                    return "pop " + name + " takes a token";
                case EventKind::MarkFalse:
                    return "pop " + name + " produces an empty token";
                default:
                    return "pop " + name + " releases its " +
                           (token_true ? "real" : "empty") + " token";
            }
    }
    return "fire " + net.transition_name(t);
}

petri::Marking Translation::encode(const Graph& graph, const State& s) const {
    petri::Marking m(net.place_count());
    for (NodeId n : graph.nodes()) {
        const auto& slots = places[n.value];
        if (graph.is_logic(n)) {
            m.set((s.logic_evaluated(n) ? slots.c1 : slots.c0).value, true);
            continue;
        }
        m.set((s.marked(n) ? slots.m1 : slots.m0).value, true);
        if (graph.is_dynamic(n)) {
            const bool t = s.marked(n) && s.token_true(n);
            const bool f = s.marked(n) && !s.token_true(n);
            m.set((t ? slots.mt1 : slots.mt0).value, true);
            m.set((f ? slots.mf1 : slots.mf0).value, true);
        }
    }
    return m;
}

Translation to_petri(const Graph& graph) {
    return Builder(graph).build();
}

}  // namespace rap::dfs
