#include <gtest/gtest.h>

#include "petri/dot.hpp"
#include "petri/net.hpp"
#include "petri/predicate.hpp"
#include "petri/reachability.hpp"

namespace rap::petri {
namespace {

/// p0 -> t0 -> p1 -> t1 -> p0 : a two-place ring with one token.
Net make_ring() {
    Net net("ring");
    const auto p0 = net.add_place("p0", true);
    const auto p1 = net.add_place("p1", false);
    const auto t0 = net.add_transition("t0");
    const auto t1 = net.add_transition("t1");
    net.add_input_arc(p0, t0);
    net.add_output_arc(t0, p1);
    net.add_input_arc(p1, t1);
    net.add_output_arc(t1, p0);
    return net;
}

TEST(Net, InitialMarkingReflectsConstruction) {
    const Net net = make_ring();
    const Marking m = net.initial_marking();
    EXPECT_TRUE(m.get(0));
    EXPECT_FALSE(m.get(1));
}

TEST(Net, EnablingAndFiring) {
    const Net net = make_ring();
    Marking m = net.initial_marking();
    const auto t0 = *net.find_transition("t0");
    const auto t1 = *net.find_transition("t1");
    EXPECT_TRUE(net.is_enabled(m, t0));
    EXPECT_FALSE(net.is_enabled(m, t1));
    net.fire(m, t0);
    EXPECT_FALSE(m.get(0));
    EXPECT_TRUE(m.get(1));
    EXPECT_TRUE(net.is_enabled(m, t1));
}

TEST(Net, ReadArcTestsWithoutConsuming) {
    Net net("read");
    const auto guard = net.add_place("guard", true);
    const auto src = net.add_place("src", true);
    const auto dst = net.add_place("dst", false);
    const auto t = net.add_transition("t");
    net.add_input_arc(src, t);
    net.add_output_arc(t, dst);
    net.add_read_arc(guard, t);

    Marking m = net.initial_marking();
    EXPECT_TRUE(net.is_enabled(m, t));
    net.fire(m, t);
    EXPECT_TRUE(m.get(guard.value));  // still there
    EXPECT_TRUE(m.get(dst.value));

    // Without the guard token the transition is disabled.
    Marking m2 = net.initial_marking();
    m2.set(guard.value, false);
    EXPECT_FALSE(net.is_enabled(m2, t));
}

TEST(Net, ContactFreenessBlocksMarkedPostset) {
    Net net("contact");
    const auto a = net.add_place("a", true);
    const auto b = net.add_place("b", true);  // already full
    const auto t = net.add_transition("t");
    net.add_input_arc(a, t);
    net.add_output_arc(t, b);
    EXPECT_FALSE(net.is_enabled(net.initial_marking(), t));
}

TEST(Net, SelfLoopPlaceAllowed) {
    // a transition that consumes and re-produces the same place.
    Net net("selfloop");
    const auto a = net.add_place("a", true);
    const auto t = net.add_transition("t");
    net.add_input_arc(a, t);
    net.add_output_arc(t, a);
    Marking m = net.initial_marking();
    EXPECT_TRUE(net.is_enabled(m, t));
    net.fire(m, t);
    EXPECT_TRUE(m.get(a.value));
}

TEST(Net, DuplicateArcRejected) {
    Net net("dup");
    const auto a = net.add_place("a", true);
    const auto t = net.add_transition("t");
    net.add_input_arc(a, t);
    EXPECT_THROW(net.add_input_arc(a, t), std::invalid_argument);
}

TEST(Net, FindByName) {
    const Net net = make_ring();
    EXPECT_TRUE(net.find_place("p1").has_value());
    EXPECT_FALSE(net.find_place("nope").has_value());
    EXPECT_TRUE(net.find_transition("t1").has_value());
    EXPECT_FALSE(net.find_transition("nope").has_value());
}

TEST(Net, DescribeMarkingListsNames) {
    const Net net = make_ring();
    EXPECT_EQ(net.describe_marking(net.initial_marking()), "{p0}");
}

TEST(Net, DeadlockDetection) {
    Net net("dead");
    const auto a = net.add_place("a", false);
    const auto t = net.add_transition("t");
    net.add_input_arc(a, t);
    EXPECT_TRUE(net.is_deadlocked(net.initial_marking()));
}

// ------------------------------------------------------- reachability --

TEST(Reachability, RingHasTwoStates) {
    const Net net = make_ring();
    ReachabilityExplorer explorer(net);
    EXPECT_EQ(explorer.run_query({}).states_explored, 2u);
}

TEST(Reachability, FindsMarkedPlaceWithShortestTrace) {
    const Net net = make_ring();
    ReachabilityExplorer explorer(net);
    const auto goal = Predicate::marked(net, "p1");
    const auto witness = explorer.run_query({.goals = {&goal}}).goals[0];
    ASSERT_TRUE(witness.has_value());
    EXPECT_EQ(witness->trace.firings.size(), 1u);
    EXPECT_EQ(witness->trace.to_string(net), "t0");
}

TEST(Reachability, GoalAtInitialStateHasEmptyTrace) {
    const Net net = make_ring();
    ReachabilityExplorer explorer(net);
    const auto goal = Predicate::marked(net, "p0");
    const auto witness = explorer.run_query({.goals = {&goal}}).goals[0];
    ASSERT_TRUE(witness.has_value());
    EXPECT_TRUE(witness->trace.firings.empty());
}

TEST(Reachability, UnreachableGoalExploresEverything) {
    const Net net = make_ring();
    ReachabilityExplorer explorer(net);
    const auto goal =
        Predicate::marked(net, "p0") && Predicate::marked(net, "p1");
    const auto result = explorer.run_query({.goals = {&goal}});
    EXPECT_FALSE(result.goals[0].has_value());
    EXPECT_EQ(result.states_explored, 2u);
}

TEST(Reachability, DeadlockFoundInLinearChain) {
    Net net("chain");
    const auto a = net.add_place("a", true);
    const auto b = net.add_place("b", false);
    const auto t = net.add_transition("t");
    net.add_input_arc(a, t);
    net.add_output_arc(t, b);
    ReachabilityExplorer explorer(net);
    const auto dead = Predicate::deadlock();
    const auto result =
        explorer.run_query({.goals = {&dead}, .collect_deadlocks = true});
    ASSERT_EQ(result.deadlocks.size(), 1u);
    EXPECT_TRUE(result.deadlocks[0].get(b.value));
    ASSERT_TRUE(result.goals[0].has_value());
    EXPECT_EQ(result.goals[0]->trace.firings.size(), 1u);
}

TEST(Reachability, LiveRingHasNoDeadlock) {
    const Net net = make_ring();
    ReachabilityExplorer explorer(net);
    EXPECT_TRUE(
        explorer.run_query({.collect_deadlocks = true}).deadlocks.empty());
}

TEST(Reachability, MaxStatesTruncates) {
    // A 12-bit binary counter-ish net with 12 independent toggles has
    // 2^12 states; cap below that.
    Net net("big");
    for (int i = 0; i < 12; ++i) {
        const auto p0 = net.add_place("b" + std::to_string(i) + "_0", true);
        const auto p1 = net.add_place("b" + std::to_string(i) + "_1", false);
        const auto up = net.add_transition("u" + std::to_string(i));
        const auto dn = net.add_transition("d" + std::to_string(i));
        net.add_input_arc(p0, up);
        net.add_output_arc(up, p1);
        net.add_input_arc(p1, dn);
        net.add_output_arc(dn, p0);
    }
    ReachabilityOptions options;
    options.max_states = 100;
    ReachabilityExplorer explorer(net, options);
    const auto result = explorer.run_query({});
    EXPECT_TRUE(result.truncated);
    EXPECT_LE(result.states_explored, 102u);
}

// ---------------------------------------------------------- predicate --

TEST(Predicate, ConnectivesEvaluate) {
    const Net net = make_ring();
    const Marking m = net.initial_marking();
    const auto p0 = Predicate::marked(net, "p0");
    const auto p1 = Predicate::marked(net, "p1");
    EXPECT_TRUE(p0(net, m));
    EXPECT_FALSE(p1(net, m));
    EXPECT_TRUE((p0 || p1)(net, m));
    EXPECT_FALSE((p0 && p1)(net, m));
    EXPECT_TRUE((!p1)(net, m));
}

TEST(Predicate, EnabledAtom) {
    const Net net = make_ring();
    const Marking m = net.initial_marking();
    EXPECT_TRUE(Predicate::enabled(net, "t0")(net, m));
    EXPECT_FALSE(Predicate::enabled(net, "t1")(net, m));
}

TEST(Predicate, UnknownNamesThrow) {
    const Net net = make_ring();
    EXPECT_THROW(Predicate::marked(net, "zz"), std::invalid_argument);
    EXPECT_THROW(Predicate::enabled(net, "zz"), std::invalid_argument);
}

TEST(Predicate, DescriptionComposes) {
    const Net net = make_ring();
    const auto pred =
        Predicate::marked(net, "p0") && !Predicate::marked(net, "p1");
    EXPECT_EQ(pred.description(), "($P\"p0\" & ~$P\"p1\")");
}

// -------------------------------------------------------- persistence --

/// A persistence-only pass on the sequential engine, stopping at the
/// first violation (stop_at_first_match with one violation asked for).
MultiResult persistence_pass(const Net& net, MultiQuery query = {}) {
    query.check_persistence = true;
    query.persistence_max_violations = 1;
    return ReachabilityExplorer(net).run_query(query);
}

TEST(Persistence, RingIsPersistent) {
    const Net net = make_ring();
    EXPECT_TRUE(persistence_pass(net).persistence_violations.empty());
}

TEST(Persistence, ChoiceIsNotPersistent) {
    // Two transitions compete for one token: firing either disables the
    // other.
    Net net("choice");
    const auto a = net.add_place("a", true);
    const auto b = net.add_place("b", false);
    const auto c = net.add_place("c", false);
    const auto t1 = net.add_transition("t1");
    const auto t2 = net.add_transition("t2");
    net.add_input_arc(a, t1);
    net.add_output_arc(t1, b);
    net.add_input_arc(a, t2);
    net.add_output_arc(t2, c);
    const auto result = persistence_pass(net);
    ASSERT_FALSE(result.persistence_violations.empty());
    const auto& v = result.persistence_violations[0];
    EXPECT_NE(v.fired, v.disabled);
    EXPECT_TRUE(v.trace_to_marking.firings.empty());
    EXPECT_NE(v.to_string(net).find("disables"), std::string::npos);
}

TEST(Persistence, ExemptionSuppressesIntendedChoice) {
    Net net("choice");
    const auto a = net.add_place("a", true);
    const auto b = net.add_place("b", false);
    const auto t1 = net.add_transition("t1");
    const auto t2 = net.add_transition("t2");
    net.add_input_arc(a, t1);
    net.add_output_arc(t1, b);
    net.add_input_arc(a, t2);
    net.add_output_arc(t2, b);
    MultiQuery query;
    query.persistence_exempt = [](const Net&, TransitionId, TransitionId) {
        return true;
    };
    EXPECT_TRUE(persistence_pass(net, query).persistence_violations.empty());
}

TEST(Persistence, ReadArcDisablingDetected) {
    // t_consume removes the token that t_guarded only reads.
    Net net("readhazard");
    const auto g = net.add_place("g", true);
    const auto s = net.add_place("s", true);
    const auto d = net.add_place("d", false);
    const auto sink = net.add_place("sink", false);
    const auto guarded = net.add_transition("guarded");
    net.add_input_arc(s, guarded);
    net.add_output_arc(guarded, d);
    net.add_read_arc(g, guarded);
    const auto consume = net.add_transition("consume");
    net.add_input_arc(g, consume);
    net.add_output_arc(consume, sink);
    const auto result = persistence_pass(net);
    ASSERT_FALSE(result.persistence_violations.empty());
    const auto& v = result.persistence_violations[0];
    EXPECT_EQ(net.transition_name(v.fired), "consume");
    EXPECT_EQ(net.transition_name(v.disabled), "guarded");
}

// ---------------------------------------------------------------- dot --

TEST(Dot, RendersPlacesTransitionsAndReadArcs) {
    Net net("d");
    const auto a = net.add_place("a", true);
    const auto b = net.add_place("b", false);
    const auto t = net.add_transition("go");
    net.add_input_arc(a, t);
    net.add_output_arc(t, b);
    net.add_read_arc(b, t);
    const std::string dot = to_dot(net);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("p_a"), std::string::npos);
    EXPECT_NE(dot.find("t_go"), std::string::npos);
    EXPECT_NE(dot.find("style=dashed"), std::string::npos);
    EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
}

}  // namespace
}  // namespace rap::petri
