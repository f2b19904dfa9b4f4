#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "asim/faults.hpp"
#include "asim/timed_sim.hpp"
#include "asim/vcd.hpp"
#include "dfs/dynamics.hpp"
#include "dfs_helpers.hpp"
#include "verify/verifier.hpp"
#include "verify/witness.hpp"

namespace rap::asim {
namespace {

using dfs::Dynamics;
using dfs::State;
using dfs::TokenValue;
using dfs::testing::add_control_ring;
using dfs::testing::add_linear_pipeline;
using dfs::testing::make_fig1b;

TimedSimulator make_sim(const Dynamics& dyn, const TimingMap& timing,
                        tech::VoltageSchedule schedule =
                            tech::VoltageSchedule::constant(1.2)) {
    return TimedSimulator(dyn, timing, std::move(schedule), 0.0);
}

// -- glitch splicing -----------------------------------------------------

TEST(Faults, SpliceGlitchesIsSeedDeterministic) {
    const auto base = tech::VoltageSchedule::constant(1.2);
    GlitchSpec spec;
    spec.rate_hz = 0.05;
    spec.droop_v = 0.9;
    spec.min_duration_s = 1.0;
    spec.max_duration_s = 4.0;

    const auto a = splice_glitches(base, spec, 7, 1000.0);
    const auto b = splice_glitches(base, spec, 7, 1000.0);
    ASSERT_GT(a.glitches(), 0u);
    ASSERT_EQ(a.glitches(), b.glitches());
    for (std::size_t i = 0; i < a.windows.size(); ++i) {
        EXPECT_EQ(a.windows[i].start_s, b.windows[i].start_s);
        EXPECT_EQ(a.windows[i].end_s, b.windows[i].end_s);
    }
    // A different seed realises a different droop pattern.
    const auto c = splice_glitches(base, spec, 8, 1000.0);
    bool differs = c.glitches() != a.glitches();
    for (std::size_t i = 0; !differs && i < a.windows.size(); ++i) {
        differs = a.windows[i].start_s != c.windows[i].start_s;
    }
    EXPECT_TRUE(differs);
}

// Poisson arrivals never reach an unbounded horizon: splice_glitches
// refuses one instead of appending windows until memory runs out.
TEST(Faults, SpliceGlitchesRefusesAnUnboundedHorizon) {
    const auto base = tech::VoltageSchedule::constant(1.2);
    GlitchSpec spec;
    spec.rate_hz = 2e5;
    spec.droop_v = 0.5;
    spec.min_duration_s = 2e-7;
    spec.max_duration_s = 1e-6;
    for (const double horizon :
         {std::numeric_limits<double>::infinity(), std::nan("")}) {
        EXPECT_THROW(splice_glitches(base, spec, 1, horizon),
                     std::invalid_argument)
            << horizon;
    }
    // Without droops there is nothing to splice, whatever the horizon.
    const auto calm = splice_glitches(
        base, GlitchSpec{}, 1, std::numeric_limits<double>::infinity());
    EXPECT_EQ(calm.glitches(), 0u);
}

// NaN fails every comparison, so the checks are written to fail it: a
// NaN duration bound used to pass and splice windows that end at NaN.
// An infinite rate draws zero-length gaps and would never reach the
// horizon; the spec is refused before any arrival is drawn.
TEST(Faults, ValidateGlitchRefusesNanDurationsAndAnInfiniteRate) {
    const auto base = tech::VoltageSchedule::constant(1.2);
    GlitchSpec spec;
    spec.rate_hz = 2e5;
    spec.droop_v = 0.5;
    spec.min_duration_s = 2e-7;
    spec.max_duration_s = std::nan("");
    EXPECT_THROW(validate_glitch(spec), std::invalid_argument);
    EXPECT_THROW(splice_glitches(base, spec, 1, 1e-4), std::invalid_argument);
    spec.max_duration_s = 1e-6;
    spec.min_duration_s = std::nan("");
    EXPECT_THROW(validate_glitch(spec), std::invalid_argument);
    EXPECT_THROW(splice_glitches(base, spec, 1, 1e-4), std::invalid_argument);

    spec.rate_hz = std::numeric_limits<double>::infinity();
    spec.min_duration_s = 0.0;
    spec.max_duration_s = 0.0;
    ASSERT_THROW(validate_glitch(spec), std::invalid_argument);
    EXPECT_THROW(splice_glitches(base, spec, 1, 1e-4), std::invalid_argument);

    // An inactive spec is not checked: it splices nothing.
    spec.droop_v = 0.0;
    EXPECT_NO_THROW(validate_glitch(spec));
    EXPECT_EQ(splice_glitches(base, spec, 1, 1e-4).glitches(), 0u);
}

TEST(Faults, SplicedScheduleDroopsInsideWindowsOnly) {
    const auto base = tech::VoltageSchedule::constant(1.2);
    GlitchSpec spec;
    spec.rate_hz = 0.02;
    spec.droop_v = 0.5;
    spec.min_duration_s = 2.0;
    spec.max_duration_s = 2.0;

    const auto spliced = splice_glitches(base, spec, 11, 500.0);
    ASSERT_GT(spliced.glitches(), 0u);
    for (const auto& w : spliced.windows) {
        const double mid = (w.start_s + w.end_s) / 2;
        EXPECT_NEAR(spliced.schedule.voltage_at(mid), 0.7, 1e-12);
        EXPECT_NEAR(spliced.schedule.voltage_at(w.end_s + 1e-9), 1.2,
                    1e-12);
    }
    EXPECT_NEAR(spliced.schedule.voltage_at(0.0), 1.2, 1e-12)
        << "first droop arrives strictly after t=0";
    // Inactive spec: the base schedule passes through untouched.
    const auto off = splice_glitches(base, GlitchSpec{}, 11, 500.0);
    EXPECT_EQ(off.glitches(), 0u);
    EXPECT_EQ(off.schedule.voltage_at(123.0), 1.2);
}

/// splice_glitches' former rebuild, kept as the oracle: every distinct
/// edge reads the base voltage by a linear scan of its breakpoints and is
/// drooped when a scan of every window finds one holding it.
tech::VoltageSchedule quadratic_rebuild(const tech::VoltageSchedule& base,
                                        const GlitchedSchedule& glitched,
                                        double droop_v) {
    const auto points = base.breakpoints();
    std::vector<double> edges{0.0};
    for (const auto& point : points) edges.push_back(point.first);
    for (const auto& w : glitched.windows) {
        edges.push_back(w.start_s);
        edges.push_back(w.end_s);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    const auto drooped = [&](double at) {
        double v = 0.0;
        for (const auto& [start, voltage] : points) {
            if (start > at) break;
            v = voltage;
        }
        for (const auto& w : glitched.windows) {
            if (at >= w.start_s && at < w.end_s) {
                v = std::max(0.0, v - droop_v);
                break;
            }
        }
        return v;
    };

    tech::VoltageSchedule spliced;
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const double start = edges[i];
        const double end =
            (i + 1 < edges.size()) ? edges[i + 1] : start + 1.0;
        if (end <= start) continue;
        spliced.add_segment(end - start, drooped(start));
    }
    return spliced;
}

// The cursor walk rebuilds exactly the schedule the quadratic scan did,
// breakpoint for breakpoint, on a flat base, on a 3-segment base whose
// breakpoints fall inside windows (a droop then spans a base step), and
// on an empty 0V base (droops clamp at 0V).
TEST(Faults, SpliceGlitchesMatchesTheQuadraticReference) {
    GlitchSpec spec;
    spec.rate_hz = 1e6;
    spec.droop_v = 1.0;
    spec.min_duration_s = 5e-8;
    spec.max_duration_s = 4e-7;

    const auto flat = tech::VoltageSchedule::constant(1.2);
    std::size_t most_windows = 0;
    std::size_t empty_splices = 0;
    for (std::uint64_t seed = 1; seed <= 110; ++seed) {
        // Horizons from 0 to 2.5 ms: 0 to ~2,000 windows.
        const double horizon = 2.5e-4 * static_cast<double>(seed % 11);
        const std::vector<GlitchedSchedule::Window> windows =
            splice_glitches(flat, spec, seed, horizon).windows;
        most_windows = std::max(most_windows, windows.size());
        empty_splices += windows.empty() ? 1 : 0;

        // Base breakpoints in the middle of two windows.
        const auto middle = [&](std::size_t i) {
            return (windows[i].start_s + windows[i].end_s) / 2;
        };
        const double first = windows.size() >= 2
                                 ? middle(windows.size() / 3)
                                 : 1e-4;
        const double second = windows.size() >= 2
                                  ? middle(2 * windows.size() / 3)
                                  : 2e-4;
        tech::VoltageSchedule stepped;
        stepped.add_segment(first, 1.2);
        stepped.add_segment(second - first, 0.9);
        stepped.add_segment(1.0, 1.1);

        for (const tech::VoltageSchedule& base :
             {flat, stepped, tech::VoltageSchedule{}}) {
            const GlitchedSchedule out =
                splice_glitches(base, spec, seed, horizon);
            ASSERT_EQ(out.windows.size(), windows.size()) << seed;
            const tech::VoltageSchedule expected =
                out.windows.empty()
                    ? base
                    : quadratic_rebuild(base, out, spec.droop_v);
            EXPECT_EQ(out.schedule.breakpoints(), expected.breakpoints())
                << "seed " << seed << ", " << out.windows.size()
                << " windows";
            EXPECT_EQ(out.schedule.duration(), expected.duration())
                << seed;
        }
    }
    EXPECT_GT(most_windows, 1500u);
    EXPECT_GT(empty_splices, 0u);
}

TEST(Faults, ScaledMultipliesIntensitiesAndClamps) {
    FaultSpec spec;
    spec.delay_sigma = 0.1;
    spec.drop_rate = 0.3;
    spec.duplicate_rate = 0.2;
    spec.stuck_rate = 1e-3;
    spec.glitch.rate_hz = 2.0;

    const FaultSpec twice = spec.scaled(2.0);
    EXPECT_NEAR(twice.delay_sigma, 0.2, 1e-12);
    EXPECT_NEAR(twice.drop_rate, 0.6, 1e-12);
    EXPECT_NEAR(twice.stuck_rate, 2e-3, 1e-12);
    EXPECT_NEAR(twice.glitch.rate_hz, 4.0, 1e-12);
    EXPECT_EQ(spec.scaled(100.0).drop_rate, 1.0);  // clamped
    const FaultSpec off = spec.scaled(0.0);
    EXPECT_FALSE(off.any());
    EXPECT_THROW((void)spec.scaled(-1.0), std::invalid_argument);
}

TEST(Faults, ScaledRefusesNonFiniteFactor) {
    // A NaN factor would make every rate NaN, an infinite one each zero
    // rate NaN (0 * inf).
    FaultSpec spec;
    spec.drop_rate = 0.3;
    spec.glitch.rate_hz = 2.0;
    EXPECT_THROW((void)spec.scaled(std::nan("")), std::invalid_argument);
    EXPECT_THROW((void)spec.scaled(std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    EXPECT_NO_THROW((void)spec.scaled(3.0));
    // A finite factor whose product overflows an intensity to inf.
    spec.glitch.rate_hz = 1e6;
    EXPECT_THROW((void)spec.scaled(1e303), std::invalid_argument);
    FaultSpec jitter;
    jitter.delay_sigma = 2.0;
    EXPECT_THROW((void)jitter.scaled(1e308), std::invalid_argument);
    EXPECT_NO_THROW((void)jitter.scaled(1e300));
}

// -- injected event faults ----------------------------------------------

TEST(Faults, SameSeedReproducesIdenticalStats) {
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    FaultSpec spec;
    spec.delay_sigma = 0.3;
    spec.drop_rate = 0.05;
    spec.duplicate_rate = 0.05;

    auto run_with = [&](std::uint64_t seed) {
        auto sim = make_sim(dyn, uniform_timing(m.graph, 1.0, 1.0));
        sim.set_seed(seed);
        sim.set_true_bias(0.5);
        sim.set_faults(spec);
        State s = State::initial(m.graph);
        RunLimits limits;
        limits.target_marks = 100;
        limits.observe = m.out;
        return sim.run(s, limits);
    };

    const auto a = run_with(2024);
    const auto b = run_with(2024);
    EXPECT_EQ(a.time_s, b.time_s);  // bit-exact, not approximate
    EXPECT_EQ(a.dynamic_energy_j, b.dynamic_energy_j);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.marks, b.marks);
    EXPECT_EQ(a.faults.drops, b.faults.drops);
    EXPECT_EQ(a.faults.duplicates, b.faults.duplicates);
    EXPECT_EQ(a.faults.jittered_enables, b.faults.jittered_enables);

    const auto c = run_with(2025);
    EXPECT_NE(a.time_s, c.time_s);  // jitter makes seeds distinguishable
}

TEST(Faults, DropsSpendTimeAndEnergyWithoutProgress) {
    dfs::Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 2);
    const Dynamics dyn(g);
    FaultSpec spec;
    spec.drop_rate = 0.2;

    auto sim = make_sim(dyn, uniform_timing(g, 1.0, 1.0));
    sim.set_seed(5);
    sim.set_faults(spec);
    State s = State::initial(g);
    RunLimits limits;
    limits.target_marks = 50;
    limits.observe = regs.back();
    const auto stats = sim.run(s, limits);

    EXPECT_EQ(stats.marks_at(regs.back()), 50u);  // retries still deliver
    EXPECT_GT(stats.faults.drops, 0u);
    // Each event costs 1 J at nominal; dropped firings burn energy
    // without counting as events.
    EXPECT_NEAR(stats.dynamic_energy_j,
                static_cast<double>(stats.events + stats.faults.drops),
                1e-9);
}

TEST(Faults, DuplicatesDoubleTheDynamicEnergy) {
    dfs::Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 2);
    const Dynamics dyn(g);
    FaultSpec spec;
    spec.duplicate_rate = 1.0;  // every firing double-pulses

    auto sim = make_sim(dyn, uniform_timing(g, 1.0, 1.0));
    sim.set_seed(5);
    sim.set_faults(spec);
    State s = State::initial(g);
    RunLimits limits;
    limits.target_marks = 20;
    limits.observe = regs.back();
    const auto stats = sim.run(s, limits);
    EXPECT_EQ(stats.faults.duplicates, stats.events);
    EXPECT_NEAR(stats.dynamic_energy_j, 2.0 * stats.events, 1e-9);
}

TEST(Faults, StuckNodeStallsThePipeline) {
    dfs::Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 3);
    const Dynamics dyn(g);
    FaultSpec spec;
    spec.stuck_rate = 1.0;  // the very first firing freezes its node

    auto sim = make_sim(dyn, uniform_timing(g, 1.0, 1.0));
    sim.set_seed(5);
    sim.set_faults(spec);
    State s = State::initial(g);
    RunLimits limits;
    limits.target_marks = 50;
    limits.observe = regs.back();
    limits.max_events = 10'000;
    const auto stats = sim.run(s, limits);
    EXPECT_GE(stats.faults.stuck_nodes, 1u);
    EXPECT_LT(stats.marks_at(regs.back()), 50u);
    EXPECT_TRUE(stats.deadlocked);
}

// -- event-trace cap + VCD of faulty runs --------------------------------

TEST(Faults, EventTraceCapSetsTruncationFlag) {
    dfs::Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 2);
    const Dynamics dyn(g);

    auto run_with_cap = [&](std::size_t cap) {
        auto sim = make_sim(dyn, uniform_timing(g, 1.0));
        sim.enable_event_trace(cap);
        State s = State::initial(g);
        RunLimits limits;
        limits.target_marks = 10;
        limits.observe = regs.back();
        return sim.run(s, limits);
    };

    const auto clipped = run_with_cap(5);
    EXPECT_EQ(clipped.events_log.size(), 5u);
    EXPECT_TRUE(clipped.events_log_truncated);
    EXPECT_GT(clipped.events, 5u) << "the run itself is not truncated";

    const auto full = run_with_cap(1'000'000);
    EXPECT_EQ(full.events_log.size(), full.events);
    EXPECT_FALSE(full.events_log_truncated);
}

TEST(Faults, VcdOfGlitchedRunShowsTheStallWindow) {
    dfs::Graph g("lin");
    const auto regs = add_linear_pipeline(g, "p", 2);
    const Dynamics dyn(g);

    // One deep droop at a seeded offset: below the freeze voltage the
    // pipeline makes no progress, so the VCD timeline must show a gap
    // covering the window.
    GlitchSpec glitch;
    glitch.rate_hz = 0.005;
    glitch.droop_v = 1.0;  // 1.2 - 1.0 = 0.2V < kFreezeV: full stall
    glitch.min_duration_s = 40.0;
    glitch.max_duration_s = 40.0;
    const auto spliced = splice_glitches(
        tech::VoltageSchedule::constant(1.2), glitch, 3, 400.0);
    ASSERT_GT(spliced.glitches(), 0u);

    auto sim = make_sim(dyn, uniform_timing(g, 1.0), spliced.schedule);
    sim.enable_event_trace();
    State s = State::initial(g);
    RunLimits limits;
    limits.target_marks = 200;
    limits.observe = regs.back();
    limits.max_time_s = 400.0;
    const auto stats = sim.run(s, limits);
    ASSERT_FALSE(stats.events_log.empty());
    ASSERT_FALSE(stats.events_log_truncated);

    const auto& w = spliced.windows.front();
    for (const auto& te : stats.events_log) {
        // No event completes strictly inside a full-stall window.
        EXPECT_FALSE(te.t_s > w.start_s && te.t_s < w.end_s)
            << "event at " << te.t_s << " inside stall [" << w.start_s
            << ", " << w.end_s << ")";
    }

    const std::string vcd = to_vcd(g, stats.events_log, 1.0);
    EXPECT_NE(vcd.find("$timescale"), std::string::npos);
    EXPECT_NE(vcd.find("M_p_in"), std::string::npos);
}

// -- witness replay, both directions -------------------------------------

TEST(Witness, VerifierCounterexampleDrivesTheTimedSim) {
    // The mixed-polarity double-ring hazard of Section III-A, with ring
    // b's initial token rotated back to c3 so the conflict is reached
    // only after the ring advances: the verifier finds the control
    // conflict, and its typed witness replays on the timed simulator
    // into the same conflicted state.
    dfs::Graph g("mixed");
    const auto in = g.add_register("in");
    const auto a = add_control_ring(g, "a", TokenValue::True);
    const auto b1 = g.add_control("b_c1", false, TokenValue::False);
    const auto b2 = g.add_control("b_c2", false, TokenValue::False);
    const auto b3 = g.add_control("b_c3", true, TokenValue::False);
    g.connect(b1, b2);
    g.connect(b2, b3);
    g.connect(b3, b1);
    const auto p = g.add_push("p");
    const auto sink = g.add_register("sink");
    g.connect(in, p);
    g.connect(a.c1, p);
    g.connect(b1, p);
    g.connect(p, sink);

    const verify::Verifier verifier(g);
    const verify::Finding finding =
        verifier.verify(verify::Spec{}.control_conflict()).findings[0];
    ASSERT_TRUE(finding.violated);
    ASSERT_EQ(finding.event_trace.size(), finding.trace.size());
    ASSERT_FALSE(finding.event_trace.empty());

    const Dynamics dyn(g);
    auto sim = make_sim(dyn, uniform_timing(g, 1.0));
    sim.set_stimulus(finding.event_trace);
    State s = State::initial(g);
    RunLimits limits;
    limits.max_events = finding.event_trace.size();
    const auto stats = sim.run(s, limits);

    EXPECT_FALSE(stats.stimulus_stalled);
    EXPECT_EQ(stats.stimulus_fired, finding.event_trace.size());
    EXPECT_TRUE(dyn.control_conflict(s).has_value())
        << "replaying the witness must reach the hazardous state";
    // Golden pin of the replay's timing: one nominal-speed unit per
    // forced event at 1.2 V, no energy annotated.
    EXPECT_EQ(stats.events, 1u);
    EXPECT_EQ(stats.time_s, 1.0);
    EXPECT_EQ(stats.dynamic_energy_j, 0.0);
}

TEST(Witness, TimedSimTraceIsPnReachable) {
    // The converse bridge: a timed-sim event log (free choices and all)
    // replays transition-for-transition on the translated Petri net and
    // lands on the encoding of the final simulator state.
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    auto sim = make_sim(dyn, uniform_timing(m.graph, 1.0));
    sim.set_seed(9);
    sim.set_true_bias(0.3);
    sim.enable_event_trace();
    State s = State::initial(m.graph);
    RunLimits limits;
    limits.target_marks = 40;
    limits.observe = m.out;
    const auto stats = sim.run(s, limits);
    ASSERT_FALSE(stats.events_log_truncated);

    std::vector<dfs::Event> events;
    events.reserve(stats.events_log.size());
    for (const TimedEvent& te : stats.events_log) {
        events.push_back(te.event);
    }
    const auto translation = dfs::to_petri(m.graph);
    const auto replay =
        verify::replay_events_on_net(dyn, translation, events);
    EXPECT_TRUE(replay.ok) << replay.detail;
    EXPECT_EQ(replay.fired, events.size());
    EXPECT_TRUE(replay.marking_agrees);
    EXPECT_TRUE(replay.final_state == s);
}

TEST(Witness, DivergentTraceIsRejectedWithDetail)
{
    const auto m = make_fig1b();
    const Dynamics dyn(m.graph);
    const auto translation = dfs::to_petri(m.graph);
    // An event that is never enabled initially: unmarking the output.
    const std::vector<dfs::Event> bogus{
        {m.out, dfs::EventKind::Unmark}};
    const auto replay =
        verify::replay_events_on_net(dyn, translation, bogus);
    EXPECT_FALSE(replay.ok);
    EXPECT_EQ(replay.fired, 0u);
    EXPECT_NE(replay.detail.find("not enabled"), std::string::npos);
}

}  // namespace
}  // namespace rap::asim
