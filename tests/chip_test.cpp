#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>
#include <type_traits>

#include "chip/chip.hpp"
#include "chip/lfsr.hpp"

namespace rap::chip {
namespace {

// An Evaluation's netlist points into its own model, so a copy or a move
// would leave it pointing into the source.
static_assert(!std::is_copy_constructible_v<Evaluation>);
static_assert(!std::is_move_constructible_v<Evaluation>);

// --------------------------------------------------------------- LFSR --

TEST(Lfsr, ZeroSeedMappedToDefault) {
    Lfsr a(0), b(0xACE1);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Lfsr, DeterministicPerSeed) {
    Lfsr a(123), b(123), c(124);
    bool diverged = false;
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(a.next(), b.next());
        diverged |= (a.state() != c.state());
        c.next();
    }
    EXPECT_TRUE(diverged);
}

TEST(Lfsr, MaximalPeriod) {
    Lfsr lfsr(1);
    const std::uint16_t start = lfsr.state();
    std::uint32_t period = 0;
    do {
        lfsr.next();
        ++period;
    } while (lfsr.state() != start && period <= 70000);
    EXPECT_EQ(period, Lfsr::period());
}

TEST(Lfsr, NeverReachesZero) {
    Lfsr lfsr(42);
    for (int i = 0; i < 70000; ++i) {
        EXPECT_NE(lfsr.next(), 0u);
    }
}

// ------------------------------------------------------ functional mode --

TEST(Chip, RandomModeChecksumMatchesBehaviouralModel) {
    // Section IV: "the produced checksum is validated against the output
    // of the OPE behavioural model initialised with the same seed and
    // count parameters".
    for (const int depth : {3, 7, 18}) {
        ChipOptions options;
        options.core = Core::Reconfigurable;
        options.depth = depth;
        const auto result = run_random_mode(options, 0x5EED, 5000);
        EXPECT_EQ(result.checksum, reference_checksum(depth, 0x5EED, 5000))
            << "depth " << depth;
        EXPECT_EQ(result.items, 5000u);
        EXPECT_EQ(result.rank_lists, 5000u - depth + 1);
    }
}

TEST(Chip, StaticCoreChecksumMatchesReconfigurableAtFullDepth) {
    ChipOptions st;
    st.core = Core::Static;
    ChipOptions rc;
    rc.core = Core::Reconfigurable;
    rc.depth = 18;
    EXPECT_EQ(run_random_mode(st, 7, 3000).checksum,
              run_random_mode(rc, 7, 3000).checksum);
}

TEST(Chip, ChecksumDependsOnSeedAndCount) {
    ChipOptions options;
    std::set<std::uint64_t> checksums;
    checksums.insert(run_random_mode(options, 1, 1000).checksum);
    checksums.insert(run_random_mode(options, 2, 1000).checksum);
    checksums.insert(run_random_mode(options, 1, 1001).checksum);
    EXPECT_EQ(checksums.size(), 3u);
}

TEST(Chip, NormalModeStreamsRankLists) {
    ChipOptions options;
    options.core = Core::Reconfigurable;
    options.depth = 6;
    const std::vector<std::int64_t> stream = {3, 1, 4, 1, 5, 9, 2, 6};
    const auto outputs = run_normal_mode(options, stream);
    ASSERT_EQ(outputs.size(), 3u);
    EXPECT_EQ(outputs[0], (std::vector<int>{3, 1, 4, 2, 5, 6}));
    EXPECT_EQ(outputs[2], (std::vector<int>{3, 1, 4, 6, 2, 5}));
}

TEST(Chip, OptionValidation) {
    ChipOptions bad_static;
    bad_static.core = Core::Static;
    bad_static.depth = 10;
    EXPECT_THROW(run_random_mode(bad_static, 1, 10), std::invalid_argument);
    ChipOptions bad_depth;
    bad_depth.core = Core::Reconfigurable;
    bad_depth.depth = 2;
    EXPECT_THROW(run_random_mode(bad_depth, 1, 10), std::invalid_argument);
}

// ---------------------------------------------------------- evaluation --

ChipOptions small_static() {
    ChipOptions options;
    options.stages = 6;
    options.depth = 6;
    options.core = Core::Static;
    return options;
}

ChipOptions small_reconfig(int depth,
                           netlist::SyncTopology sync =
                               netlist::SyncTopology::DaisyChain) {
    ChipOptions options;
    options.stages = 6;
    options.depth = depth;
    options.core = Core::Reconfigurable;
    options.sync = sync;
    return options;
}

TEST(Evaluation, MeasurementProducesPlausibleNumbers) {
    const Evaluation chip(small_static());
    const auto m = chip.measure(1.2, 200);
    EXPECT_EQ(m.items, 200u);
    EXPECT_FALSE(m.frozen);
    EXPECT_FALSE(m.deadlocked);
    EXPECT_GT(m.time_s, 0.0);
    EXPECT_GT(m.dynamic_j, 0.0);
    EXPECT_GT(m.leakage_j, 0.0);
    EXPECT_GT(m.time_per_item_s(), 0.0);
    EXPECT_GT(m.energy_per_item_j(), 0.0);
}

TEST(Evaluation, LowerVoltageSlowerButThriftier) {
    const Evaluation chip(small_static());
    const auto nominal = chip.measure(1.2, 150);
    const auto low = chip.measure(0.6, 150);
    EXPECT_GT(low.time_s, nominal.time_s * 2);
    EXPECT_LT(low.dynamic_j, nominal.dynamic_j);
}

TEST(Evaluation, ReconfigurableCostsTimeAndEnergy) {
    const Evaluation st(small_static());
    const Evaluation rc(small_reconfig(6));
    const auto ms = st.measure(1.2, 300);
    const auto mr = rc.measure(1.2, 300);
    // Fig. 9a: the daisy-chained reconfigurable core pays in time and a
    // little in energy at equal depth.
    EXPECT_GT(mr.time_per_item_s(), ms.time_per_item_s() * 1.05);
    EXPECT_GT(mr.energy_per_item_j(), ms.energy_per_item_j());
}

TEST(Evaluation, TreeSyncCutsTheOverhead) {
    const Evaluation daisy(small_reconfig(6));
    const Evaluation tree(
        small_reconfig(6, netlist::SyncTopology::Tree));
    const auto md = daisy.measure(1.2, 300);
    const auto mt = tree.measure(1.2, 300);
    EXPECT_LT(mt.time_per_item_s(), md.time_per_item_s());
}

TEST(Evaluation, DeeperConfigurationTakesLongerAndMoreEnergy) {
    const Evaluation shallow(small_reconfig(3));
    const Evaluation deep(small_reconfig(6));
    const auto m3 = shallow.measure(1.2, 300);
    const auto m6 = deep.measure(1.2, 300);
    EXPECT_GT(m6.time_per_item_s(), m3.time_per_item_s());
    EXPECT_GT(m6.energy_per_item_j(), m3.energy_per_item_j());
}

// Golden pins for the daisy-chained completion, the chip's only timing
// whose work reads live state (delay_per_true_input_s > 0). Depth 4 of
// 6 stages mixes real tokens with the empty ones of bypassed stages.
TEST(Evaluation, DaisyChainMeasurementIsPinned) {
    const Evaluation chip(small_reconfig(4));
    const auto nominal = chip.measure(1.2, 300);
    EXPECT_EQ(nominal.items, 300u);
    EXPECT_EQ(nominal.time_s, 0x1.1ccc45bea82c3p-19);
    EXPECT_EQ(nominal.energy_j(), 0x1.33053a71e9808p-29);
    const auto low = chip.measure(0.5, 300);
    EXPECT_EQ(low.items, 300u);
    EXPECT_EQ(low.time_s, 0x1.ac8a8a1ced51bp-16);
    EXPECT_EQ(low.energy_j(), 0x1.ac8ea185a8b04p-32);
}

// The simulator reads 0 target items as "no target", so a zero-item
// measurement on a live supply would never end: both entry points refuse
// it.
TEST(Evaluation, RefusesZeroItems) {
    const Evaluation chip(small_static());
    EXPECT_THROW(chip.measure(1.2, 0), std::invalid_argument);
    EXPECT_THROW(chip.measure_with_schedule(
                     tech::VoltageSchedule::constant(1.2), 0, 0.0,
                     std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
}

TEST(Evaluation, FreezeAndRecoverCompletesTheRun) {
    const Evaluation chip(small_static());
    // Budget the schedule from a nominal calibration run.
    const auto nominal = chip.measure(1.2, 100);
    tech::VoltageSchedule schedule;
    schedule.add_segment(nominal.time_s * 0.2, 1.2);
    schedule.add_segment(nominal.time_s * 5.0, 0.30);  // frozen
    schedule.add_segment(1.0, 1.2);                    // recover
    const auto stats = chip.measure_with_schedule(
        schedule, 100, /*trace_bin_s=*/0.0, /*max_time_s=*/1e9);
    EXPECT_FALSE(stats.frozen);
    EXPECT_EQ(stats.marks_at(chip.model().out), 100u);
    EXPECT_GT(stats.time_s, nominal.time_s * 5.0);
}

TEST(Evaluation, ImplementationStatsReflectCore) {
    const Evaluation st(small_static());
    const Evaluation rc(small_reconfig(6));
    EXPECT_EQ(st.implementation_stats().pushes, 0);
    EXPECT_GT(rc.implementation_stats().pushes, 0);
    EXPECT_GT(rc.implementation_stats().total_gates,
              st.implementation_stats().total_gates);
}

TEST(Evaluation, PaperCalibrationMapsReference) {
    const Evaluation chip(small_static());
    const auto nominal = chip.measure(1.2, 200);
    const auto cal = PaperCalibration::from(nominal);
    // Applying the calibration to the calibrating measurement itself must
    // land exactly on the paper's reference values.
    const double items_ratio =
        PaperCalibration::kReferenceItems /
        static_cast<double>(nominal.items);
    EXPECT_NEAR(nominal.time_s * items_ratio * cal.time_scale,
                PaperCalibration::kReferenceTimeS, 1e-9);
    EXPECT_NEAR(nominal.energy_j() * items_ratio * cal.energy_scale,
                PaperCalibration::kReferenceEnergyJ, 1e-12);
}

TEST(Evaluation, CalibrationDegenerateInputsSafe) {
    const auto cal = PaperCalibration::from(Measurement{});
    EXPECT_EQ(cal.time_scale, 1.0);
    EXPECT_EQ(cal.energy_scale, 1.0);
}

}  // namespace
}  // namespace rap::chip
