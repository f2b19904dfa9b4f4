#pragma once

#include <cstdint>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "dfs/model.hpp"
#include "dfs/state.hpp"

namespace rap::dfs {

/// Atomic state changes of the DFS token game. Each corresponds to one
/// signal edge of the node's state variable in the Petri-net semantics
/// (C_l±, M_r±, Mt_r±/Mf_r±).
enum class EventKind : std::uint8_t {
    LogicEvaluate,  ///< C(l): 0 -> 1   (Cd↑)
    LogicReset,     ///< C(l): 1 -> 0   (Cd↓)
    Mark,           ///< M(r): 0 -> 1 for static registers (Md↑)
    Unmark,         ///< M(r): 1 -> 0 (Md↓; relaxed for false push/pop)
    MarkTrue,       ///< dynamic register latches a True/real token (Mt+)
    MarkFalse,      ///< dynamic register latches a False token (Mf+):
                    ///< control: False value; push: token destroyed;
                    ///< pop: empty token produced
};

std::string_view to_string(EventKind kind);

struct Event {
    NodeId node;
    EventKind kind = EventKind::Mark;
    friend bool operator==(const Event&, const Event&) = default;
};

/// One conjunct of an enabling condition: variable `var` of `node` reads
/// `value`. C is a logic node's evaluation state and M a register's
/// marking. Mt and Mf read "marked with a True (real) token" and "marked
/// with a False (destroyed or empty) token" — Fig. 3c's Mt_1 and Mf_1
/// places — and appear with value = true only.
struct Atom {
    enum class Var : std::uint8_t { C, M, Mt, Mf };
    NodeId node;
    Var var = Var::M;
    bool value = true;
};

/// The DFS enabling equations (Section II, Eq. 1–5, with the inverting
/// arcs of Section II-B), written once. Appends to `out` the condition of
/// event (n, kind) on every variable except n's own, as a conjunction of
/// atoms. `token_true` selects the Mt- (true) or Mf- (false) variant of a
/// push's or pop's Unmark and is ignored otherwise. Defined for the kinds
/// node_events(n) lists.
///
/// Dynamics compiles these atoms into its event table and to_petri turns
/// them into read arcs; neither writes an equation of its own.
void enabling_atoms(const Graph& graph, NodeId n, EventKind kind,
                    bool token_true, std::vector<Atom>& out);

/// Executable semantics of the DFS equations (Section II, Eq. 1–5 plus the
/// interpretation notes in DESIGN.md §2). Stateless with respect to the
/// token game: all queries take the State explicitly, so the same Dynamics
/// can serve the untimed simulator, the timed simulator and the verifier.
///
/// Construction compiles the graph into a dense event table: every node's
/// node_events(n), in node order, each with its enabling condition as at
/// most two cubes of (state word, must-be-set mask, must-be-clear mask)
/// terms over State's [C|M|T] payload words:
///
///   enabled(e) <=> some cube of e has, for every term (w, set, clear),
///                  (s[w] & set) == set && (s[w] & clear) == 0
///
/// The equations live in enabling_atoms(): a cube is the event's own
/// literal and its atoms, Mt(q) read as M(q) = 1 ∧ T(q) = 1 and Mf(q) as
/// M(q) = 1 ∧ T(q) = 0. Only a push or pop Unmark needs two cubes: it
/// splits on the node's own token (T = 1 behaves statically, T = 0
/// releases a destroyed or empty token). Per node the table also keeps
/// its readers: the nodes whose cubes read one of its bits, so firing n
/// can change the enabledness of readers(n)'s events only.
///
/// Snapshot contract: the table reads the graph's structure only. A
/// Dynamics must be rebuilt after connect, connect_inverted or any add_*
/// on its graph; set_initial changes no enabling condition and needs no
/// rebuild.
class Dynamics {
public:
    explicit Dynamics(const Graph& graph);

    const Graph& graph() const noexcept { return *graph_; }

    /// All events a node could ever emit (used to enumerate candidates).
    /// Throws std::out_of_range for a node outside the graph.
    std::vector<Event> node_events(NodeId n) const;

    /// Enabledness of a single event at a state. False for a kind the
    /// node never emits; throws std::out_of_range for a node outside the
    /// graph.
    bool is_enabled(const State& s, const Event& e) const;

    /// All enabled events, in node order.
    std::vector<Event> enabled_events(const State& s) const;

    /// Applies an enabled event. Precondition: is_enabled(s, e).
    void apply(State& s, const Event& e) const;

    /// True iff no event is enabled — a DFS-level deadlock.
    bool is_deadlocked(const State& s) const;

    /// Control conflict (Section II-B): some node's control preset is
    /// fully marked but carries both True and False tokens, permanently
    /// disabling the node. Returns the first such node.
    std::optional<NodeId> control_conflict(const State& s) const;

    // -- the compiled event table ----------------------------------------
    // The hot-path reads event(), node_event_indices(), is_enabled(s, i)
    // and readers() check nothing: they take a row index below
    // event_count(), a node of the graph and a State of the graph.

    /// event_index() of an event whose node never emits its kind.
    static constexpr std::uint32_t kNoEvent = UINT32_MAX;

    /// Number of table rows: every node_events(n), in node order.
    std::uint32_t event_count() const noexcept {
        return static_cast<std::uint32_t>(rows_.size());
    }
    const Event& event(std::uint32_t i) const { return rows_[i].event; }

    /// Table indices of n's events, in node_events(n) order.
    auto node_event_indices(NodeId n) const {
        return std::views::iota(node_first_[n.value],
                                node_first_[n.value + 1]);
    }

    /// Table index of `e`, or kNoEvent for a kind its node never emits.
    /// Throws std::out_of_range for a node outside the graph.
    std::uint32_t event_index(const Event& e) const;

    /// Enabledness of table row `i` at a state.
    bool is_enabled(const State& s, std::uint32_t i) const noexcept {
        const std::uint64_t* words = s.bits().word_data();
        const Row& row = rows_[i];
        return cube_holds(words, row.first, row.split) ||
               (row.split != row.end &&
                cube_holds(words, row.split, row.end));
    }

    /// Nodes whose cubes read one of n's bits, ascending, n itself
    /// included: when n fires, only their events can change enabledness.
    std::span<const NodeId> readers(NodeId n) const noexcept {
        return {readers_.data() + reader_first_[n.value],
                readers_.data() + reader_first_[n.value + 1]};
    }

private:
    /// One word of a cube: in state word `word`, the bits of `set` must
    /// be 1 and the bits of `clear` 0.
    struct Term {
        std::uint64_t set;
        std::uint64_t clear;
        std::uint32_t word;
    };
    /// An event and its condition: cube 0 is terms_[first, split), cube 1
    /// is terms_[split, end) when that range is non-empty. Every real
    /// cube reads its own node, so an empty cube 1 means "no second cube".
    struct Row {
        Event event;
        std::uint32_t first;
        std::uint32_t split;
        std::uint32_t end;
    };

    void compile();
    void check_node(NodeId n) const;  ///< throws std::out_of_range

    bool cube_holds(const std::uint64_t* words, std::uint32_t first,
                    std::uint32_t last) const noexcept {
        for (; first < last; ++first) {
            const Term& t = terms_[first];
            const std::uint64_t w = words[t.word];
            if ((~w & t.set) | (w & t.clear)) return false;
        }
        return true;
    }

    const Graph* graph_;
    std::vector<Row> rows_;
    std::vector<Term> terms_;
    std::vector<std::uint32_t> node_first_;    // node -> first row; n + 1
    std::vector<std::uint32_t> reader_first_;  // node -> into readers_
    std::vector<NodeId> readers_;
};

}  // namespace rap::dfs
