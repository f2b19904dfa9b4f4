#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dfs/dynamics.hpp"
#include "dfs/simulator.hpp"
#include "dfs/translate.hpp"
#include "dfs_helpers.hpp"
#include "ope/dfs_models.hpp"
#include "petri/compiled.hpp"
#include "petri/reachability.hpp"
#include "pipeline/builder.hpp"
#include "pipeline/wagging.hpp"
#include "util/rng.hpp"

namespace rap::dfs {
namespace {

using testing::add_control_ring;
using testing::make_fig1b;
using testing::random_model;

TEST(Translate, Fig1bNetSize) {
    const auto m = make_fig1b();
    const Translation tr = to_petri(m.graph);
    // logic: 2 places/2 transitions; static register: 2/2;
    // dynamic register (Fig. 3c): 6 places / 4 transitions.
    // fig1b = 1 logic + 2 static + 3 dynamic.
    EXPECT_EQ(tr.net.place_count(), 2u + 2 * 2 + 3 * 6);
    EXPECT_EQ(tr.net.transition_count(), 2u + 2 * 2 + 3 * 4);
    EXPECT_EQ(tr.net.name(), "fig1b_pn");
}

TEST(Translate, InitialMarkingAgreesWithInitialState) {
    auto m = make_fig1b();
    m.graph.set_initial(m.ctrl, true, TokenValue::False);
    const Translation tr = to_petri(m.graph);
    const State s0 = State::initial(m.graph);
    EXPECT_EQ(tr.net.initial_marking(), tr.encode(m.graph, s0));
}

TEST(Translate, VariablePlacePairsAreOneHot) {
    const auto m = make_fig1b();
    const Translation tr = to_petri(m.graph);
    const petri::Marking m0 = tr.net.initial_marking();
    for (NodeId n : m.graph.nodes()) {
        const auto& slots = tr.places[n.value];
        if (m.graph.is_logic(n)) {
            EXPECT_NE(m0.get(slots.c0.value), m0.get(slots.c1.value));
        } else {
            EXPECT_NE(m0.get(slots.m0.value), m0.get(slots.m1.value));
            if (m.graph.is_dynamic(n)) {
                EXPECT_NE(m0.get(slots.mt0.value), m0.get(slots.mt1.value));
                EXPECT_NE(m0.get(slots.mf0.value), m0.get(slots.mf1.value));
            }
        }
    }
}

TEST(Translate, TransitionNamingConvention) {
    const auto m = make_fig1b();
    const Translation tr = to_petri(m.graph);
    EXPECT_TRUE(tr.net.find_transition("C_cond+").has_value());
    EXPECT_TRUE(tr.net.find_transition("M_in-").has_value());
    EXPECT_TRUE(tr.net.find_transition("Mt_ctrl+").has_value());
    EXPECT_TRUE(tr.net.find_transition("Mf_filt-").has_value());
    EXPECT_FALSE(tr.net.find_transition("M_ctrl+").has_value());
}

TEST(Translate, SimultaneousChoiceEnablingMatchesFig4) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    const Translation tr = to_petri(m.graph);

    State s = State::initial(m.graph);
    dyn.apply(s, {m.in, EventKind::Mark});
    dyn.apply(s, {m.cond, EventKind::LogicEvaluate});
    const petri::Marking pm = tr.encode(m.graph, s);
    // "transitions Mt_ctrl+ and Mf_ctrl+ can be enabled simultaneously"
    EXPECT_TRUE(tr.net.is_enabled(pm, *tr.net.find_transition("Mt_ctrl+")));
    EXPECT_TRUE(tr.net.is_enabled(pm, *tr.net.find_transition("Mf_ctrl+")));
}

TEST(Translate, TransitionForMapsEveryEventKind) {
    const auto m = make_fig1b();
    const Translation tr = to_petri(m.graph);
    EXPECT_NO_THROW(
        tr.transition_for(m.graph, {m.cond, EventKind::LogicEvaluate}, false));
    EXPECT_NO_THROW(
        tr.transition_for(m.graph, {m.in, EventKind::Unmark}, false));
    const auto mt = tr.transition_for(m.graph, {m.ctrl, EventKind::Unmark},
                                      /*token_true=*/true);
    EXPECT_EQ(tr.net.transition_name(mt), "Mt_ctrl-");
    const auto mf = tr.transition_for(m.graph, {m.ctrl, EventKind::Unmark},
                                      /*token_true=*/false);
    EXPECT_EQ(tr.net.transition_name(mf), "Mf_ctrl-");
    // A kind the node never emits has no transition...
    EXPECT_THROW(tr.transition_for(m.graph, {m.ctrl, EventKind::Mark}, true),
                 std::invalid_argument);
    EXPECT_THROW(
        tr.transition_for(m.graph, {m.in, EventKind::LogicEvaluate}, false),
        std::invalid_argument);
    EXPECT_THROW(tr.transition_for(m.graph, {m.cond, EventKind::Unmark}, true),
                 std::invalid_argument);
    EXPECT_THROW(
        tr.transition_for(m.graph, {m.in, EventKind::MarkFalse}, false),
        std::invalid_argument);
    // ...and a node outside the graph is out of range.
    const NodeId outside{static_cast<std::uint32_t>(m.graph.node_count())};
    EXPECT_THROW(tr.transition_for(m.graph, {outside, EventKind::Mark}, false),
                 std::out_of_range);
}

// ------------------------------------------------ pinned translation --

/// FNV-1a over `bytes`.
std::uint64_t fnv1a(std::string_view bytes) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

/// What pins a translation: the net's arcs, its initial marking, and its
/// names together with the event map.
struct NetPin {
    std::uint64_t structure;
    std::uint64_t marking;
    std::uint64_t names;
    friend bool operator==(const NetPin&, const NetPin&) = default;
};

NetPin pin_of(const Graph& graph) {
    const Translation tr = to_petri(graph);
    const petri::Marking m0 = tr.net.initial_marking();
    std::string names;
    for (std::uint32_t p = 0; p < tr.net.place_count(); ++p) {
        names += tr.net.place_name(petri::PlaceId{p}) + "\n";
    }
    for (std::uint32_t t = 0; t < tr.net.transition_count(); ++t) {
        const petri::TransitionId id{t};
        const Translation::TransitionEvent& e = tr.event(id);
        names += tr.net.transition_name(id) + " " +
                 std::to_string(e.node.value) + " " +
                 std::string(to_string(e.kind)) + " " +
                 (!e.token ? "-" : e.token == TokenValue::True ? "T" : "F") +
                 "\n";
    }
    return {petri::CompiledNet::digest_structure(tr.net),
            petri::hash_marking_words(m0.word_data(), m0.word_count()),
            fnv1a(names)};
}

std::ostream& operator<<(std::ostream& os, const NetPin& pin) {
    return os << std::hex << "{0x" << pin.structure << "ULL, 0x"
              << pin.marking << "ULL, 0x" << pin.names << "ULL}"
              << std::dec;
}

TEST(Translate, NetIsPinnedOnTheZoo) {
    pipeline::Pipeline gap = ope::build_reconfigurable_ope_dfs(3, 3);
    pipeline::reset_ring(gap.graph, gap.stages[1].global_ring,
                         TokenValue::False);
    Graph wagging("wagging");
    pipeline::add_wagging_stage(wagging, "w", wagging.add_register("in"));

    struct Pinned {
        const char* name;
        Graph graph;
        NetPin pin;
    };
    const Pinned zoo[] = {
        {"fig1b", make_fig1b().graph,
         {0x15cf1f9c7872d3a6ULL, 0x65e08a6a0bc4f8f4ULL,
          0x91c7bacedd7e3ce6ULL}},
        {"ope_static_s3", ope::build_static_ope_dfs(3).graph,
         {0xaa53e2b4f02d2c26ULL, 0x62075b9bfc163173ULL,
          0xff9e075199c19f14ULL}},
        {"ope_s3_d3", ope::build_reconfigurable_ope_dfs(3, 3).graph,
         {0xb33a55f0a3762b9aULL, 0x33572cec7aaad6eaULL,
          0x23213e4f2bcf1046ULL}},
        {"ope_s4_d4", ope::build_reconfigurable_ope_dfs(4, 4).graph,
         {0x7c6b57d1e8cb18a9ULL, 0x341db0e314b9c0b6ULL,
          0x8165edf419ed818aULL}},
        {"ope_s18_d18", ope::build_reconfigurable_ope_dfs(18, 18).graph,
         {0x6666e6227a21992fULL, 0xfe402ba97fcc8fd6ULL,
          0x27bfbba496053364ULL}},
        {"ope_gap", gap.graph,
         {0xb33a55f0a3762b9aULL, 0x929f3579fb18061fULL,
          0x23213e4f2bcf1046ULL}},
        {"wagging", wagging,
         {0x13d1c81569274446ULL, 0x96df2c149d4ee1f0ULL,
          0xfc05c33d008c188cULL}},
    };
    for (const Pinned& model : zoo) {
        EXPECT_EQ(pin_of(model.graph), model.pin) << model.name;
    }

    // The 24 fuzz seeds, folded into one value.
    std::string fuzz;
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        const NetPin pin = pin_of(random_model(seed));
        fuzz += std::to_string(pin.structure) + " " +
                std::to_string(pin.marking) + " " +
                std::to_string(pin.names) + "\n";
    }
    EXPECT_EQ(fnv1a(fuzz), 0x8910c76bd52cf380ULL)
        << std::hex << fnv1a(fuzz);
}

// --------------------------------------------------------- lockstep --

/// Runs a long random walk on the DFS semantics while firing the mapped
/// transition on the PN side, checking the markings stay identical. This
/// is the strong form of "the PN captures the DFS execution semantics".
void lockstep_walk(const Graph& graph, std::uint64_t seed,
                   std::uint64_t steps) {
    const Dynamics dyn(graph);
    const Translation tr = to_petri(graph);
    State s = State::initial(graph);
    petri::Marking pm = tr.net.initial_marking();
    util::Rng rng(seed);

    for (std::uint64_t i = 0; i < steps; ++i) {
        const auto enabled = dyn.enabled_events(s);
        if (enabled.empty()) break;
        const Event e = enabled[rng.below(enabled.size())];
        const bool token = graph.is_dynamic(e.node) && s.token_true(e.node);
        const auto t = tr.transition_for(graph, e, token);
        ASSERT_TRUE(tr.net.is_enabled(pm, t))
            << "PN lags DFS: " << tr.net.transition_name(t)
            << " disabled at DFS state " << s.describe(graph);
        dyn.apply(s, e);
        tr.net.fire(pm, t);
        ASSERT_EQ(pm, tr.encode(graph, s))
            << "marking diverged after " << tr.net.transition_name(t);
    }
}

TEST(Translate, LockstepFig1b) {
    const auto m = make_fig1b();
    lockstep_walk(m.graph, 17, 5000);
}

TEST(Translate, LockstepControlRing) {
    Graph g("ring3");
    add_control_ring(g, "loop", TokenValue::False);
    lockstep_walk(g, 23, 1000);
}

TEST(Translate, LockstepControlledPipeline) {
    // A pipeline where a control ring gates a push/pop pair around a
    // middle register — the Fig. 6c building block in miniature.
    Graph g("mini");
    const auto in = g.add_register("in");
    const auto ring = add_control_ring(g, "cfg", TokenValue::False);
    const auto push = g.add_push("push");
    const auto mid = g.add_register("mid");
    const auto pop = g.add_pop("pop");
    const auto sink = g.add_register("sink");
    g.connect(in, push);
    g.connect(ring.c1, push);
    g.connect(push, mid);
    g.connect(mid, pop);
    g.connect(ring.c1, pop);
    g.connect(pop, sink);
    lockstep_walk(g, 29, 5000);
}

// ------------------------------------------------- state-space match --

std::size_t dfs_state_count(const Dynamics& dyn) {
    std::unordered_set<State, StateHash> seen;
    std::deque<State> frontier;
    const State s0 = State::initial(dyn.graph());
    seen.insert(s0);
    frontier.push_back(s0);
    while (!frontier.empty()) {
        const State s = frontier.front();
        frontier.pop_front();
        for (const Event& e : dyn.enabled_events(s)) {
            State next = s;
            dyn.apply(next, e);
            if (seen.insert(next).second) frontier.push_back(next);
        }
    }
    return seen.size();
}

void expect_equal_state_spaces(const Graph& graph) {
    const Dynamics dyn(graph);
    const Translation tr = to_petri(graph);
    petri::ReachabilityExplorer explorer(tr.net);
    EXPECT_EQ(dfs_state_count(dyn), explorer.run_query({}).states_explored);
}

TEST(Translate, StateSpaceBisimulationFig1b) {
    expect_equal_state_spaces(make_fig1b().graph);
}

TEST(Translate, StateSpaceBisimulationControlRing) {
    Graph g("ring3");
    add_control_ring(g, "loop", TokenValue::True);
    expect_equal_state_spaces(g);
}

// ------------------------------------------ exhaustive bisimulation --

struct Bisimulation {
    std::size_t states = 0;
    std::size_t edges = 0;
    std::size_t mismatches = 0;
    std::string first_mismatch;
};

/// Walks the reachable DFS states of `graph` breadth-first, at most `cap`
/// of them, and checks at each state s, against m = encode(s):
///   * the enabled events, mapped through transition_for, are exactly the
///     net's enabled transitions at m, and event() maps each one back;
///   * every successor agrees: firing the transition at m gives the
///     encoding of the applied event;
///   * every atom of enabling_atoms holds on s iff its place is marked in
///     m, the place found by its Fig. 3 name ("Mt_<node>_1", ...).
Bisimulation bisimulate(const Graph& graph, std::size_t cap) {
    const Dynamics dyn(graph);
    const Translation tr = to_petri(graph);
    Bisimulation out;

    // Every atom any event reads, once, with its place.
    std::vector<std::pair<Atom, petri::PlaceId>> atoms;
    std::vector<char> listed(graph.node_count() * 8);
    std::vector<Atom> event_atoms;
    static constexpr const char* kPrefix[] = {"C_", "M_", "Mt_", "Mf_"};
    for (std::uint32_t i = 0; i < dyn.event_count(); ++i) {
        for (const bool token_true : {true, false}) {
            event_atoms.clear();
            enabling_atoms(graph, dyn.event(i).node, dyn.event(i).kind,
                           token_true, event_atoms);
            for (const Atom& a : event_atoms) {
                const auto var = static_cast<std::size_t>(a.var);
                // Mt and Mf atoms are positive only.
                EXPECT_TRUE(a.var == Atom::Var::C || a.var == Atom::Var::M ||
                            a.value);
                char& seen = listed[a.node.value * 8 + var * 2 + a.value];
                if (seen) continue;
                seen = 1;
                const auto place = tr.net.find_place(
                    kPrefix[var] + graph.node_name(a.node) +
                    (a.value ? "_1" : "_0"));
                EXPECT_TRUE(place.has_value());
                if (place) atoms.emplace_back(a, *place);
            }
        }
    }
    auto holds = [](const State& s, const Atom& a) {
        switch (a.var) {
            case Atom::Var::C: return s.logic_evaluated(a.node) == a.value;
            case Atom::Var::M: return s.marked(a.node) == a.value;
            case Atom::Var::Mt: return s.marked(a.node) && s.token_true(a.node);
            case Atom::Var::Mf:
                return s.marked(a.node) && !s.token_true(a.node);
        }
        return false;
    };

    std::unordered_set<State, StateHash> seen;
    std::deque<State> frontier;
    seen.insert(State::initial(graph));
    frontier.push_back(State::initial(graph));
    std::vector<petri::TransitionId> mapped;
    while (!frontier.empty() && out.states < cap) {
        const State s = frontier.front();
        frontier.pop_front();
        ++out.states;
        const petri::Marking m = tr.encode(graph, s);
        auto mismatch = [&](const std::string& what) {
            if (out.mismatches++ == 0) {
                out.first_mismatch = what + " at " + s.describe(graph);
            }
        };
        for (const auto& [atom, place] : atoms) {
            if (holds(s, atom) != m.get(place.value)) {
                mismatch("atom place " + tr.net.place_name(place));
            }
        }

        const std::vector<Event> enabled = dyn.enabled_events(s);
        out.edges += enabled.size();
        mapped.clear();
        for (const Event& e : enabled) {
            const bool token = graph.is_dynamic(e.node) && s.token_true(e.node);
            const petri::TransitionId t = tr.transition_for(graph, e, token);
            mapped.push_back(t);
            const Translation::TransitionEvent& back = tr.event(t);
            if (back.node != e.node || back.kind != e.kind) {
                mismatch("event() of " + tr.net.transition_name(t));
            }
            State next = s;
            dyn.apply(next, e);
            petri::Marking fired = m;
            tr.net.fire(fired, t);
            if (fired != tr.encode(graph, next)) {
                mismatch("successor by " + tr.net.transition_name(t));
            }
            if (seen.insert(next).second) frontier.push_back(std::move(next));
        }
        std::sort(mapped.begin(), mapped.end());
        if (mapped != tr.net.enabled_transitions(m)) {
            mismatch("enabled sets");
        }
    }
    return out;
}

TEST(Translate, ExhaustiveBisimulation) {
    const Bisimulation ope =
        bisimulate(ope::build_reconfigurable_ope_dfs(3, 3).graph, SIZE_MAX);
    EXPECT_EQ(ope.states, 191'052u);
    EXPECT_EQ(ope.edges, 994'212u);
    EXPECT_EQ(ope.mismatches, 0u) << ope.first_mismatch;

    // The model with inverting arcs: 842,400 states, walked in part.
    Graph wagging("wagging");
    pipeline::add_wagging_stage(wagging, "w", wagging.add_register("in"));
    const Bisimulation wag = bisimulate(wagging, 60'000);
    EXPECT_EQ(wag.states, 60'000u);
    EXPECT_EQ(wag.mismatches, 0u) << wag.first_mismatch;
}

TEST(Translate, PnDeadlockFreeForFig1b) {
    const auto m = make_fig1b();
    const Translation tr = to_petri(m.graph);
    petri::ReachabilityExplorer explorer(tr.net);
    EXPECT_TRUE(
        explorer.run_query({.collect_deadlocks = true}).deadlocks.empty());
}

TEST(Translate, PnFindsSeededDeadlock) {
    // Incorrect initialisation (Section III-A): marking filt initially
    // without its upstream token cannot return to a live cycle — the
    // verifier must find *some* deadlock.
    Graph g("mini_bad");
    const auto in = g.add_register("in");
    const auto c1 = g.add_control("c1", true, TokenValue::True);
    const auto c2 = g.add_control("c2", true, TokenValue::True);
    const auto c3 = g.add_control("c3", true, TokenValue::True);
    g.connect(c1, c2);
    g.connect(c2, c3);
    g.connect(c3, c1);
    const auto push = g.add_push("push");
    const auto sink = g.add_register("sink");
    g.connect(in, push);
    g.connect(c1, push);
    g.connect(push, sink);
    // A fully marked control ring can never advance: every register's
    // R-postset is occupied.
    const Translation tr = to_petri(g);
    petri::ReachabilityExplorer explorer(tr.net);
    const auto result = explorer.run_query({.collect_deadlocks = true});
    EXPECT_FALSE(result.deadlocks.empty());
}

}  // namespace
}  // namespace rap::dfs
