#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dfs/dynamics.hpp"
#include "dfs/model.hpp"
#include "dfs/state.hpp"
#include "petri/net.hpp"

namespace rap::dfs {

/// Result of the Fig. 3 translation: the Petri net plus the bookkeeping
/// needed to map DFS states/events onto markings/transitions (used by the
/// verifier to translate counterexample traces back to DFS terms, and by
/// the bisimulation tests).
struct Translation {
    petri::Net net;

    /// Per node: the place ids of its variable encodings. Static nodes use
    /// only the `m` (registers) or `c` (logic) pair; dynamic registers add
    /// the Mt/Mf pairs of Fig. 3c.
    struct NodePlaces {
        petri::PlaceId c0, c1;    // logic evaluation state
        petri::PlaceId m0, m1;    // register marking
        petri::PlaceId mt0, mt1;  // true-token flag (dynamic only)
        petri::PlaceId mf0, mf1;  // false-token flag (dynamic only)
    };
    std::vector<NodePlaces> places;  // indexed by NodeId::value

    /// Maps a DFS event to its PN transition. Unmark of a dynamic register
    /// maps to two transitions (Mt- / Mf-) selected by the current token
    /// flag, hence the extra parameter. Throws std::invalid_argument for a
    /// kind the node never emits and std::out_of_range for a node outside
    /// the graph.
    petri::TransitionId transition_for(const Graph& graph, const Event& e,
                                       bool token_true) const;

    /// Encodes a DFS state as a PN marking (for initial-state agreement
    /// and bisimulation checks).
    petri::Marking encode(const Graph& graph, const State& s) const;

    /// Reverse of transition_for: the DFS event each PN transition
    /// realises. `token` is the polarity carried by the Mt/Mf pair of a
    /// dynamic register (nullopt for logic and static registers).
    struct TransitionEvent {
        NodeId node;
        EventKind kind = EventKind::Mark;
        std::optional<TokenValue> token;
    };
    /// Indexed by TransitionId::value; to_petri emits node by node, so
    /// the entries are in node order.
    std::vector<TransitionEvent> events_;

    const TransitionEvent& event(petri::TransitionId t) const {
        return events_.at(t.value);
    }

    /// Renders a PN firing in DFS vocabulary — the witness language of
    /// the paper's debugging workflow ("push filt destroys a bypassed
    /// token") instead of the raw firing name ("Mf_filt+").
    std::string describe_transition(const Graph& graph,
                                    petri::TransitionId t) const;
};

/// Translates a (valid) DFS model into its 1-safe read-arc Petri net
/// semantics per Section II-C. Each state variable becomes an x_0/x_1
/// place pair with x+ / x- transitions between them. A transition's read
/// arcs are the places of its event's enabling_atoms — the same atoms
/// Dynamics compiles into its event table. Dynamic registers refine M±
/// into the mutually exclusive Mt±/Mf± pairs.
Translation to_petri(const Graph& graph);

}  // namespace rap::dfs
