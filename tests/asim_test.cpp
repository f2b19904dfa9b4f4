#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "asim/timed_sim.hpp"
#include "dfs/dynamics.hpp"
#include "dfs_helpers.hpp"
#include "ope/dfs_models.hpp"
#include "pipeline/builder.hpp"

namespace rap::asim {
namespace {

using dfs::Dynamics;
using dfs::State;
using dfs::testing::add_linear_pipeline;
using dfs::testing::make_fig1b;

TimedSimulator make_sim(const Dynamics& dyn, const TimingMap& timing,
                        double voltage = 1.2, double leakage_gates = 0.0) {
    return TimedSimulator(dyn, timing,
                          tech::VoltageSchedule::constant(voltage),
                          leakage_gates);
}

TEST(TimedSim, LinearPipelineAdvancesTime) {
    dfs::Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 3);
    const Dynamics dyn(g);
    auto sim = make_sim(dyn, uniform_timing(g, 1.0, 1.0));
    State s = State::initial(g);
    RunLimits limits;
    limits.target_marks = 10;
    limits.observe = regs.back();
    const auto stats = sim.run(s, limits);
    EXPECT_EQ(stats.marks_at(regs.back()), 10u);
    EXPECT_GT(stats.time_s, 10.0);      // at least the sink's own events
    EXPECT_FALSE(stats.deadlocked);
    EXPECT_FALSE(stats.frozen);
    EXPECT_EQ(stats.dynamic_energy_j, static_cast<double>(stats.events));
}

TEST(TimedSim, ThroughputHalvesAtHalfSpeedVoltage) {
    dfs::Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 2);
    const Dynamics dyn(g);

    auto run_at = [&](double v) {
        auto sim = make_sim(dyn, uniform_timing(g, 1.0), v);
        State s = State::initial(g);
        RunLimits limits;
        limits.target_marks = 50;
        limits.observe = regs.back();
        return sim.run(s, limits).time_s;
    };
    const double t_nominal = run_at(1.2);
    const double t_low = run_at(0.6);
    const double expected_ratio =
        tech::speed_factor(1.2) / tech::speed_factor(0.6);
    EXPECT_NEAR(t_low / t_nominal, expected_ratio, expected_ratio * 0.01);
}

TEST(TimedSim, EnergyScalesWithVoltageSquared) {
    dfs::Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 2);
    const Dynamics dyn(g);
    auto run_at = [&](double v) {
        auto sim = make_sim(dyn, uniform_timing(g, 1.0, 1.0), v);
        State s = State::initial(g);
        RunLimits limits;
        limits.target_marks = 50;
        limits.observe = regs.back();
        const auto stats = sim.run(s, limits);
        return stats.dynamic_energy_j / static_cast<double>(stats.events);
    };
    EXPECT_NEAR(run_at(0.6) / run_at(1.2), 0.25, 1e-6);
}

TEST(TimedSim, DeadlockReported) {
    dfs::Graph g("dead");
    const auto c1 = g.add_control("c1", true, dfs::TokenValue::True);
    const auto c2 = g.add_control("c2", false, dfs::TokenValue::True);
    g.connect(c1, c2);
    g.connect(c2, c1);
    const Dynamics dyn(g);
    auto sim = make_sim(dyn, uniform_timing(g, 1.0));
    State s = State::initial(g);
    RunLimits limits;
    limits.max_events = 100;
    const auto stats = sim.run(s, limits);
    EXPECT_TRUE(stats.deadlocked);
    EXPECT_EQ(stats.events, 0u);
}

TEST(TimedSim, FrozenSupplyReported) {
    dfs::Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 2);
    const Dynamics dyn(g);
    TimedSimulator sim(dyn, uniform_timing(g, 1.0),
                       tech::VoltageSchedule::constant(0.2), 0.0);
    State s = State::initial(g);
    RunLimits limits;
    limits.target_marks = 5;
    limits.observe = regs.back();
    const auto stats = sim.run(s, limits);
    EXPECT_TRUE(stats.frozen);
    EXPECT_EQ(stats.events, 0u);
}

TEST(TimedSim, FreezeThenRecoveryCompletesWork) {
    dfs::Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 2);
    const Dynamics dyn(g);
    tech::VoltageSchedule schedule;
    schedule.add_segment(5.0, 1.2);
    schedule.add_segment(100.0, 0.30);  // freeze
    schedule.add_segment(1.0, 1.2);     // recover, hold forever
    TimedSimulator sim(dyn, uniform_timing(g, 1.0), schedule, 0.0);
    State s = State::initial(g);
    RunLimits limits;
    limits.target_marks = 20;
    limits.observe = regs.back();
    const auto stats = sim.run(s, limits);
    EXPECT_FALSE(stats.frozen);
    EXPECT_EQ(stats.marks_at(regs.back()), 20u);
    // The run must have waited out the frozen decade.
    EXPECT_GT(stats.time_s, 105.0);
}

TEST(TimedSim, MaxTimeLimitStopsRun) {
    dfs::Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 2);
    const Dynamics dyn(g);
    auto sim = make_sim(dyn, uniform_timing(g, 1.0));
    State s = State::initial(g);
    RunLimits limits;
    limits.target_marks = 1000000;
    limits.observe = regs.back();
    limits.max_time_s = 50.0;
    const auto stats = sim.run(s, limits);
    EXPECT_LE(stats.time_s, 50.0 + 1e-9);
    EXPECT_FALSE(stats.frozen);
}

TEST(TimedSim, LeakageAccruesOverTime) {
    dfs::Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 2);
    const Dynamics dyn(g);
    auto sim = make_sim(dyn, uniform_timing(g, 1.0), 1.2, 1e6);
    State s = State::initial(g);
    RunLimits limits;
    limits.target_marks = 20;
    limits.observe = regs.back();
    const auto stats = sim.run(s, limits);
    EXPECT_NEAR(stats.leakage_energy_j,
                tech::leakage_power(1.2, 1e6) * stats.time_s,
                stats.leakage_energy_j * 1e-9);
}

TEST(TimedSim, PowerTraceCoversRunAndSumsToEnergy) {
    dfs::Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 2);
    const Dynamics dyn(g);
    auto sim = make_sim(dyn, uniform_timing(g, 1.0, 2.0), 1.2, 1e5);
    sim.enable_power_trace(5.0);
    State s = State::initial(g);
    RunLimits limits;
    limits.target_marks = 30;
    limits.observe = regs.back();
    const auto stats = sim.run(s, limits);
    ASSERT_FALSE(stats.trace.empty());
    double traced = 0;
    for (const auto& sample : stats.trace) {
        EXPECT_EQ(sample.voltage_v, 1.2);
        traced += sample.power_w * (sample.t_end_s - sample.t_start_s);
    }
    // Trace bins cover at least the whole run (the last bin may extend
    // past it, adding its leakage).
    EXPECT_GE(traced, stats.total_energy_j() * 0.99);
    EXPECT_LE(traced, stats.total_energy_j() * 1.2);
}

TEST(TimedSim, PowerTraceRefusesADegenerateBin) {
    dfs::Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 2);
    const Dynamics dyn(g);
    auto sim = make_sim(dyn, uniform_timing(g, 1.0, 2.0));
    for (const double bin : {0.0, -1.0, std::nan(""),
                             std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(sim.enable_power_trace(bin), std::invalid_argument)
            << bin;
    }
    // Positive and finite, but a run's trace would need more bins than a
    // vector can hold: run() says so instead of converting the index.
    sim.enable_power_trace(1e-300);
    State s = State::initial(g);
    RunLimits limits;
    limits.target_marks = 4;
    limits.observe = regs.back();
    EXPECT_THROW(sim.run(s, limits), std::length_error);
}

TEST(TimedSim, TrueBiasSteersBypassFraction) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    auto sim = make_sim(dyn, uniform_timing(m.graph, 1.0));
    sim.set_seed(42);
    sim.set_true_bias(0.2);
    State s = State::initial(m.graph);
    RunLimits limits;
    limits.target_marks = 400;
    limits.observe = m.out;
    const auto stats = sim.run(s, limits);
    const double false_fraction =
        static_cast<double>(stats.marks_at(m.out) -
                            (stats.marks_at(m.comp))) /
        static_cast<double>(stats.marks_at(m.out));
    EXPECT_GT(false_fraction, 0.6);
}

TEST(TimedSim, SlowNodeDominatesThroughput) {
    dfs::Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 3);
    const Dynamics dyn(g);
    TimingMap timing = uniform_timing(g, 1.0);
    // Make the middle function block 10x slower.
    const auto f2 = *g.find("p_f2");
    timing[f2.value].delay_s = 10.0;

    auto fast_sim = make_sim(dyn, uniform_timing(g, 1.0));
    auto slow_sim = make_sim(dyn, timing);
    State s1 = State::initial(g), s2 = State::initial(g);
    RunLimits limits;
    limits.target_marks = 30;
    limits.observe = regs.back();
    const double t_fast = fast_sim.run(s1, limits).time_s;
    const double t_slow = slow_sim.run(s2, limits).time_s;
    EXPECT_GT(t_slow, t_fast * 3.0);
}

TEST(TimedSim, DaisyPenaltyGrowsWithRealTokens) {
    // Two sources joined by a logic node into a sink: with a per-true-
    // input penalty on the join, the cycle slows proportionally.
    dfs::Graph g("join");
    const auto a = g.add_register("a");
    const auto b = g.add_register("b");
    const auto j = g.add_logic("j");
    const auto sink = g.add_register("sink");
    g.connect(a, j);
    g.connect(b, j);
    g.connect(j, sink);
    const Dynamics dyn(g);

    TimingMap plain = uniform_timing(g, 1.0);
    TimingMap daisy = uniform_timing(g, 1.0);
    daisy[j.value].delay_per_true_input_s = 5.0;

    RunLimits limits;
    limits.target_marks = 20;
    limits.observe = sink;
    State s1 = State::initial(g), s2 = State::initial(g);
    auto sim1 = make_sim(dyn, plain);
    auto sim2 = make_sim(dyn, daisy);
    const double t_plain = sim1.run(s1, limits).time_s;
    const double t_daisy = sim2.run(s2, limits).time_s;
    EXPECT_GT(t_daisy, t_plain * 1.5);
}

TEST(TimedSim, PendingWorkFollowsPresetRegisterChanges) {
    // A false-controlled pop emits its empty token without waiting for
    // its data preset, so that preset can fill while the emission is
    // pending. With a per-true-input cost, the emission's work must be
    // re-read when it does: 2 at enabling, 2 + 5 once r latches at t=1.
    dfs::Graph g("pending");
    const auto a = g.add_register("a", true);
    const auto r = g.add_register("r");
    const auto c = g.add_control("c", true, dfs::TokenValue::False);
    const auto p = g.add_pop("p");
    const auto sink = g.add_register("sink");
    g.connect(a, r);
    g.connect(r, p);
    g.connect(c, p);
    g.connect(p, sink);
    const Dynamics dyn(g);

    TimingMap timing = uniform_timing(g, 100.0);
    timing[r.value].delay_s = 1.0;
    timing[p.value].delay_s = 2.0;
    timing[p.value].delay_per_true_input_s = 5.0;
    auto sim = make_sim(dyn, timing);
    sim.enable_event_trace();
    State s = State::initial(g);
    RunLimits limits;
    limits.max_events = 2;
    const auto stats = sim.run(s, limits);

    ASSERT_EQ(stats.events_log.size(), 2u);
    EXPECT_EQ(stats.events_log[0].event,
              (dfs::Event{r, dfs::EventKind::Mark}));
    EXPECT_EQ(stats.events_log[0].t_s, 1.0);
    EXPECT_EQ(stats.events_log[1].event,
              (dfs::Event{p, dfs::EventKind::MarkFalse}));
    EXPECT_EQ(stats.events_log[1].t_s, 7.0);
}

TEST(TimedSim, StimulusOfAKindTheNodeNeverEmitsStalls) {
    // A forced event whose node never emits its kind (a mark on a
    // control register, an evaluate on a register) has no row in the
    // event table: the replay stops before firing anything.
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    const dfs::Event never_emitted[] = {
        {m.ctrl, dfs::EventKind::Mark},
        {m.in, dfs::EventKind::LogicEvaluate}};
    for (const dfs::Event& bad : never_emitted) {
        auto sim = make_sim(dyn, uniform_timing(m.graph, 1.0));
        sim.set_stimulus({bad, {m.in, dfs::EventKind::Mark}});
        State s = State::initial(m.graph);
        const auto stats = sim.run(s, RunLimits{});
        EXPECT_TRUE(stats.stimulus_stalled);
        EXPECT_EQ(stats.stimulus_fired, 0u);
        EXPECT_EQ(stats.events, 0u);
        EXPECT_EQ(s, State::initial(m.graph));
    }
}

TEST(TimedSim, ObserveOutsideTheGraphThrows) {
    dfs::Graph g("lin");
    add_linear_pipeline(g, "p", 2);
    const Dynamics dyn(g);
    auto sim = make_sim(dyn, uniform_timing(g, 1.0));
    State s = State::initial(g);
    RunLimits limits;
    limits.target_marks = 4;
    for (const std::uint32_t node :
         {static_cast<std::uint32_t>(g.node_count()), 100000u}) {
        limits.observe = dfs::NodeId{node};
        EXPECT_THROW(sim.run(s, limits), std::out_of_range) << node;
        EXPECT_EQ(s, State::initial(g)) << "nothing fired";
    }
    // Without a mark target the observed node is never read.
    limits.target_marks = 0;
    limits.max_events = 10;
    EXPECT_EQ(sim.run(s, limits).events, 10u);
}

/// Runs `sim` from the model's initial state until `out` latched `items`
/// tokens (or 100,000 events fired), with the event log on.
TimedStats run_seeded(TimedSimulator& sim, const dfs::Graph& g,
                      dfs::NodeId out, std::uint64_t items,
                      std::uint64_t seed) {
    sim.set_seed(seed);
    sim.enable_event_trace();
    State s = State::initial(g);
    RunLimits limits;
    limits.target_marks = items;
    limits.observe = out;
    limits.max_events = 100'000;
    return sim.run(s, limits);
}

/// Whether two runs agree on every field, doubles bit for bit.
bool identical(const TimedStats& a, const TimedStats& b) {
    const auto same = [](double x, double y) {
        return std::bit_cast<std::uint64_t>(x) ==
               std::bit_cast<std::uint64_t>(y);
    };
    if (a.events_log.size() != b.events_log.size()) return false;
    for (std::size_t i = 0; i < a.events_log.size(); ++i) {
        if (!same(a.events_log[i].t_s, b.events_log[i].t_s) ||
            !(a.events_log[i].event == b.events_log[i].event)) {
            return false;
        }
    }
    return same(a.time_s, b.time_s) && a.events == b.events &&
           a.deadlocked == b.deadlocked && a.frozen == b.frozen &&
           same(a.dynamic_energy_j, b.dynamic_energy_j) &&
           same(a.leakage_energy_j, b.leakage_energy_j) &&
           a.marks == b.marks &&
           a.events_log_truncated == b.events_log_truncated &&
           a.faults.jittered_enables == b.faults.jittered_enables &&
           a.faults.drops == b.faults.drops &&
           a.faults.duplicates == b.faults.duplicates &&
           a.faults.stuck_nodes == b.faults.stuck_nodes &&
           a.stimulus_fired == b.stimulus_fired &&
           a.stimulus_stalled == b.stimulus_stalled;
}

// The OPE has no free-choice control (every control register sits in a
// ring), so without faults no seeded stream is read: any two seeds give
// the same run, bit for bit. Campaign relies on this to simulate such a
// point once.
TEST(TimedSim, FaultFreeOpeRunDoesNotDependOnTheSeed) {
    const pipeline::Pipeline ope = ope::build_reconfigurable_ope_dfs(3, 3);
    const Dynamics dyn(ope.graph);
    auto sim = make_sim(dyn, uniform_timing(ope.graph, 1e-9, 1e-12), 0.9,
                        1e4);
    EXPECT_FALSE(sim.depends_on_seed());
    const TimedStats a = run_seeded(sim, ope.graph, ope.out, 16, 1);
    const TimedStats b = run_seeded(sim, ope.graph, ope.out, 16, 0xfeed);
    EXPECT_EQ(a.marks_at(ope.out), 16u);
    EXPECT_FALSE(a.events_log_truncated);
    EXPECT_TRUE(identical(a, b));
}

TEST(TimedSim, EachArmedFaultClassMakesTheRunDependOnTheSeed) {
    const pipeline::Pipeline ope = ope::build_reconfigurable_ope_dfs(3, 3);
    const Dynamics dyn(ope.graph);
    auto sim = make_sim(dyn, uniform_timing(ope.graph, 1e-9, 1e-12));

    FaultSpec jitter;
    jitter.delay_sigma = 0.2;
    FaultSpec drops;
    drops.drop_rate = 0.05;
    FaultSpec duplicates;
    duplicates.duplicate_rate = 0.05;
    FaultSpec stuck;
    stuck.stuck_rate = 0.01;
    FaultSpec glitch;
    glitch.glitch.rate_hz = 1e6;
    glitch.glitch.droop_v = 0.4;
    glitch.glitch.min_duration_s = 1e-8;
    glitch.glitch.max_duration_s = 5e-8;
    const std::vector<std::pair<std::string, FaultSpec>> classes{
        {"delay_sigma", jitter},
        {"drop_rate", drops},
        {"duplicate_rate", duplicates},
        {"stuck_rate", stuck},
        {"glitch", glitch}};
    for (const auto& [name, spec] : classes) {
        sim.set_faults(spec);
        EXPECT_TRUE(sim.depends_on_seed()) << name;
        if (spec.glitch.active()) {
            // Droops are spliced into the schedule per run seed by the
            // caller (asim::splice_glitches), not drawn by run() itself.
            continue;
        }
        const TimedStats a = run_seeded(sim, ope.graph, ope.out, 16, 1);
        const TimedStats b = run_seeded(sim, ope.graph, ope.out, 16, 2);
        EXPECT_FALSE(identical(a, b)) << name << ": the seed moved nothing";
    }
    sim.set_faults(FaultSpec{});
    EXPECT_FALSE(sim.depends_on_seed());
}

// Fig. 1b's `ctrl` takes its polarity from `cond`, not from a control
// token: the bias coin decides each race, so the seed moves the run even
// without faults.
TEST(TimedSim, FreeChoiceControlMakesTheRunDependOnTheSeed) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    auto sim = make_sim(dyn, uniform_timing(m.graph, 1.0));
    EXPECT_TRUE(sim.depends_on_seed());
    const TimedStats a = run_seeded(sim, m.graph, m.out, 64, 1);
    const TimedStats b = run_seeded(sim, m.graph, m.out, 64, 2);
    EXPECT_FALSE(identical(a, b));
}

}  // namespace
}  // namespace rap::asim
