#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "asim/faults.hpp"
#include "tech/voltage.hpp"
#include "util/rng.hpp"

namespace rap::tech {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(VoltageModel, SpeedNormalisedAtNominal) {
    EXPECT_NEAR(speed_factor(1.2), 1.0, 1e-12);
}

TEST(VoltageModel, SpeedMonotoneInVoltage) {
    double prev = 0;
    for (double v = 0.35; v <= 1.6; v += 0.05) {
        const double s = speed_factor(v);
        EXPECT_GT(s, prev) << "at " << v;
        prev = s;
    }
}

TEST(VoltageModel, FreezesAtAndBelowThreshold) {
    EXPECT_EQ(speed_factor(0.34), 0.0);
    EXPECT_EQ(speed_factor(0.30), 0.0);
    EXPECT_EQ(speed_factor(0.0), 0.0);
    EXPECT_GT(speed_factor(0.35), 0.0);
}

TEST(VoltageModel, NearThresholdSlowdownIsSteep) {
    // The paper's Fig. 9a spans roughly two decades of computation time
    // between 0.5V and 1.6V.
    const double slow = 1.0 / speed_factor(0.5);
    const double fast = 1.0 / speed_factor(1.6);
    EXPECT_GT(slow / fast, 10.0);
    EXPECT_LT(slow / fast, 200.0);
}

TEST(VoltageModel, EnergySquareLaw) {
    EXPECT_NEAR(energy_factor(1.2), 1.0, 1e-12);
    EXPECT_NEAR(energy_factor(0.6), 0.25, 1e-12);
    EXPECT_NEAR(energy_factor(2.4), 4.0, 1e-12);
}

TEST(VoltageModel, LeakageScalesWithGatesAndVoltage) {
    const double p1 = leakage_power(1.2, 1000);
    const double p2 = leakage_power(1.2, 2000);
    EXPECT_NEAR(p2 / p1, 2.0, 1e-9);
    EXPECT_LT(leakage_power(0.5, 1000), p1);
    EXPECT_EQ(leakage_power(0.0, 1000), 0.0);
    EXPECT_EQ(leakage_power(-1.0, 1000), 0.0);
}

// ------------------------------------------------------------ schedule --

TEST(VoltageSchedule, ConstantHoldsForever) {
    const auto s = VoltageSchedule::constant(0.9);
    EXPECT_EQ(s.voltage_at(0.0), 0.9);
    EXPECT_EQ(s.voltage_at(1e9), 0.9);
}

TEST(VoltageSchedule, EmptyScheduleIsFrozen) {
    const VoltageSchedule s;
    EXPECT_EQ(s.voltage_at(5.0), 0.0);
    EXPECT_EQ(s.finish_time(0.0, 1.0), kInf);
}

TEST(VoltageSchedule, SegmentsApplyInOrder) {
    VoltageSchedule s;
    s.add_segment(10.0, 1.2);
    s.add_segment(5.0, 0.5);
    s.add_segment(1.0, 1.0);  // holds forever
    EXPECT_EQ(s.voltage_at(0.0), 1.2);
    EXPECT_EQ(s.voltage_at(9.999), 1.2);
    EXPECT_EQ(s.voltage_at(10.0), 0.5);
    EXPECT_EQ(s.voltage_at(14.9), 0.5);
    EXPECT_EQ(s.voltage_at(15.0), 1.0);
    EXPECT_EQ(s.voltage_at(1e6), 1.0);
    EXPECT_THROW(s.add_segment(0.0, 1.2), std::invalid_argument);
}

// A refused segment leaves the schedule as it was: a NaN duration used
// to be accepted and start every later segment at NaN.
TEST(VoltageSchedule, RefusesNonFiniteOrNegativeSegments) {
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    VoltageSchedule s;
    s.add_segment(2.0, 1.2);
    const auto before = s.breakpoints();
    const std::pair<double, double> bad[] = {
        {kNan, 1.0},  {kInf, 1.0},  {-1.0, 1.0}, {0.0, 1.0},
        {1.0, kNan},  {1.0, kInf},  {1.0, -kInf}, {1.0, -0.1},
    };
    for (const auto& [duration, voltage] : bad) {
        EXPECT_THROW(s.add_segment(duration, voltage), std::invalid_argument)
            << duration << " s at " << voltage << " V";
        EXPECT_EQ(s.breakpoints(), before);
    }
    s.add_segment(1.0, 0.0);  // 0V is unpowered, not invalid
    s.add_segment(1.0, 0.9);
    EXPECT_EQ(s.voltage_at(2.5), 0.0);
    EXPECT_EQ(s.voltage_at(3.0), 0.9);
}

// voltage_at at, just before and just after every breakpoint, and
// before the first one, where the supply is 0V.
TEST(VoltageSchedule, VoltageAtEveryBreakpointEdge) {
    VoltageSchedule s;
    const std::vector<double> voltages{1.2, 0.5, 0.9, 0.0, 0.34, 1.1, 0.7};
    for (std::size_t i = 0; i < voltages.size(); ++i) {
        s.add_segment(1e-6 * static_cast<double>(i + 1), voltages[i]);
    }
    const auto points = s.breakpoints();
    ASSERT_EQ(points.size(), voltages.size());
    EXPECT_EQ(s.voltage_at(-1.0), 0.0);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto [start, voltage] = points[i];
        const double previous = i > 0 ? points[i - 1].second : 0.0;
        EXPECT_EQ(s.voltage_at(start), voltage) << i;
        EXPECT_EQ(s.voltage_at(std::nextafter(start, -kInf)), previous)
            << i;
        EXPECT_EQ(s.voltage_at(std::nextafter(start, kInf)), voltage) << i;
    }
    EXPECT_EQ(s.voltage_at(kInf), voltages.back());

    const VoltageSchedule empty;
    for (const double t : {-1.0, 0.0, 1.0, kInf}) {
        EXPECT_EQ(empty.voltage_at(t), 0.0) << t;
    }
}

TEST(VoltageSchedule, FinishTimeAtNominalIsIdentity) {
    const auto s = VoltageSchedule::constant(1.2);
    EXPECT_NEAR(s.finish_time(2.0, 3.0), 5.0, 1e-12);
    EXPECT_EQ(s.finish_time(2.0, 0.0), 2.0);
}

TEST(VoltageSchedule, FinishTimeScalesWithSpeed) {
    const auto s = VoltageSchedule::constant(0.5);
    const double rate = speed_factor(0.5);
    EXPECT_NEAR(s.finish_time(0.0, 1.0), 1.0 / rate, 1e-9);
}

TEST(VoltageSchedule, WorkSpansSegmentBoundary) {
    // 1s of work, but the first segment only supplies half of it.
    VoltageSchedule s;
    s.add_segment(0.5, 1.2);   // rate 1 for 0.5s -> 0.5 work done
    s.add_segment(1.0, 1.2);   // remaining 0.5 work at rate 1
    EXPECT_NEAR(s.finish_time(0.0, 1.0), 1.0, 1e-9);
}

TEST(VoltageSchedule, FreezeThenRecoverCompletesAfterRecovery) {
    VoltageSchedule s;
    s.add_segment(1.0, 1.2);    // 1 work unit possible
    s.add_segment(10.0, 0.30);  // frozen decade
    s.add_segment(1.0, 1.2);    // recovery
    // 2 units of work: 1 before the freeze, then wait out the freeze.
    EXPECT_NEAR(s.finish_time(0.0, 2.0), 12.0, 1e-9);
}

TEST(VoltageSchedule, FrozenForeverNeverFinishes) {
    VoltageSchedule s;
    s.add_segment(1.0, 1.2);
    s.add_segment(1.0, 0.2);  // trailing freeze holds forever
    EXPECT_EQ(s.finish_time(0.0, 2.0), kInf);
}

TEST(VoltageSchedule, LeakageEnergyIntegratesSegments) {
    VoltageSchedule s;
    s.add_segment(2.0, 1.2);
    s.add_segment(2.0, 0.6);
    const double gates = 1e6;
    const double expected = leakage_power(1.2, gates) * 2.0 +
                            leakage_power(0.6, gates) * 1.0;
    EXPECT_NEAR(s.leakage_energy(gates, 0.0, 3.0), expected, 1e-15);
    EXPECT_EQ(s.leakage_energy(gates, 3.0, 3.0), 0.0);
    EXPECT_EQ(s.leakage_energy(gates, 5.0, 3.0), 0.0);
}

// ------------------------------------------------------------ timeline --

/// The integration loop as it stood before SupplyTimeline existed: one
/// speed_factor (one pow) per visited segment per call. Kept here as the
/// reference the compiled timeline must reproduce bit for bit.
double per_call_finish_time(const VoltageSchedule& schedule, double t0,
                            double work) {
    if (work <= 0) return t0;
    const auto segments = schedule.breakpoints();
    double remaining = work;
    double t = t0;
    for (std::size_t i = 0; i < segments.size(); ++i) {
        const double seg_end =
            (i + 1 < segments.size()) ? segments[i + 1].first : kInf;
        if (seg_end <= t) continue;
        const double rate = speed_factor(segments[i].second);
        const double span = seg_end - t;
        if (rate > 0) {
            const double need = remaining / rate;
            if (need <= span) return t + need;
            remaining -= span * rate;
        }
        t = seg_end;
        if (t == kInf) break;
    }
    return kInf;
}

using Breakpoints = std::vector<std::pair<double, double>>;

bool starts_a_segment(const Breakpoints& points, double t) {
    for (const auto& [start, voltage] : points) {
        if (start == t) return true;
    }
    return false;
}

/// Segment boundaries strictly inside (t0, t1).
std::size_t boundaries_between(const Breakpoints& points, double t0,
                               double t1) {
    std::size_t n = 0;
    for (const auto& [start, voltage] : points) {
        if (start > t0 && start < t1) ++n;
    }
    return n;
}

bool inside_a_window(const asim::GlitchedSchedule& glitched, double t) {
    for (const auto& w : glitched.windows) {
        if (t > w.start_s && t < w.end_s) return true;
    }
    return false;
}

TEST(SupplyTimeline, MatchesPerCallIntegrationBitForBit) {
    const double horizon = 1e-5;
    // Base supplies: nominal, sub-nominal (droops push it below the
    // freeze), a three-step ramp, and one that freezes for good.
    std::vector<VoltageSchedule> bases{VoltageSchedule::constant(1.2),
                                       VoltageSchedule::constant(0.55),
                                       VoltageSchedule::constant(0.45)};
    bases.emplace_back();
    bases.back().add_segment(horizon / 3, 1.2);
    bases.back().add_segment(horizon / 3, 0.6);
    bases.back().add_segment(1.0, 0.9);
    bases.emplace_back();
    bases.back().add_segment(horizon / 2, 0.9);
    bases.back().add_segment(1.0, 0.3);

    asim::GlitchSpec spec;
    spec.rate_hz = 2e6;
    spec.droop_v = 0.5;
    spec.min_duration_s = 2e-7;
    spec.max_duration_s = 1e-6;

    util::Rng rng(0x71e11e);
    std::size_t pairs = 0;
    std::size_t on_boundary = 0;
    std::size_t in_frozen_droop = 0;
    std::size_t zero_work = 0;
    std::size_t three_segments = 0;
    std::size_t never = 0;
    for (std::uint64_t seed = 0; seed < 240; ++seed) {
        const VoltageSchedule& base = bases[seed % bases.size()];
        const asim::GlitchedSchedule glitched =
            asim::splice_glitches(base, spec, seed, horizon);
        const VoltageSchedule& schedule = glitched.schedule;
        const SupplyTimeline timeline(schedule);
        const Breakpoints points = schedule.breakpoints();

        for (int k = 0; k < 24; ++k) {
            // Start anywhere, exactly on a boundary, or inside a droop.
            double t0 = rng.uniform() * 1.2 * horizon;
            if (k % 4 == 1) {
                t0 = points[rng.below(points.size())].first;
            } else if (k % 4 == 2 && !glitched.windows.empty()) {
                const auto& w =
                    glitched.windows[rng.below(glitched.windows.size())];
                t0 = w.start_s + (w.end_s - w.start_s) * rng.uniform();
            }
            // Work up to the whole horizon, a short phase, or none.
            double work = rng.uniform() * horizon;
            if (k % 6 == 0) work = 0.0;
            if (k % 6 == 3) work = rng.uniform() * 1e-7;

            const double want = per_call_finish_time(schedule, t0, work);
            const double got = timeline.finish_time(t0, work);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                      std::bit_cast<std::uint64_t>(want))
                << "seed " << seed << " t0 " << t0 << " work " << work
                << ": " << got << " vs " << want;
            ASSERT_EQ(
                std::bit_cast<std::uint64_t>(schedule.finish_time(t0, work)),
                std::bit_cast<std::uint64_t>(want));

            ++pairs;
            const bool boundary = starts_a_segment(points, t0);
            const bool frozen =
                schedule.voltage_at(t0) <= kFreezeV;
            on_boundary += boundary;
            in_frozen_droop +=
                !boundary && frozen && inside_a_window(glitched, t0);
            zero_work += work == 0.0;
            never += want == kInf;
            three_segments += boundaries_between(points, t0, want) >= 2;
        }
    }
    EXPECT_GE(pairs, 200u * 24u);
    EXPECT_GT(on_boundary, 0u);
    EXPECT_GT(in_frozen_droop, 0u);
    EXPECT_GT(zero_work, 0u);
    EXPECT_GT(three_segments, 0u);
    EXPECT_GT(never, 0u);
}

TEST(SupplyTimeline, EmptyScheduleNeverFinishes) {
    const SupplyTimeline timeline(VoltageSchedule{});
    EXPECT_EQ(timeline.finish_time(0.0, 1.0), kInf);
    EXPECT_EQ(timeline.finish_time(3.0, 0.0), 3.0);
    EXPECT_EQ(timeline.finish_time(kInf, 1.0), kInf);
}

}  // namespace
}  // namespace rap::tech
