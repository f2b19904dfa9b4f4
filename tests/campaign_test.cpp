// Tests for the flow::Campaign Monte-Carlo harness: grid expansion,
// bit-reproducibility across worker counts (the seeding contract),
// survival-curve aggregation and its knee, streaming per-run rows, and
// the rap_mc_* metrics exposition folded from settled points.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dfs_helpers.hpp"
#include "rap/flow/campaign.hpp"
#include "rap/flow/design.hpp"
#include "rap/flow/metrics.hpp"
#include "rap/util/rng.hpp"

namespace rap::flow {
namespace {

/// Small OPE-style pipeline factory (the real reconfigurable OPE is too
/// heavy for a tier-1 Monte-Carlo grid), with the chip's validity rule
/// expressed by throwing.
Campaign::Factory small_factory(int stages) {
    return [stages](int depth) {
        if (depth < 1 || depth > stages) {
            throw std::invalid_argument(
                "depth " + std::to_string(depth) + " out of range for " +
                std::to_string(stages) + " stages");
        }
        return pipeline::build_pipeline(
            "mc_s" + std::to_string(stages) + "_d" + std::to_string(depth),
            dfs::testing::ope_style_stages(stages, depth));
    };
}

TEST(Campaign, GridExpandsInStableOrder) {
    Campaign campaign(small_factory(2));
    const auto grid = campaign.depths({1, 2})
                          .fault_scales({0.0, 1.0})
                          .voltages({1.2, 0.6})
                          .grid();
    ASSERT_EQ(grid.size(), 2u * 2u * 2u);
    // depth outermost, then fault scale, then voltage
    EXPECT_EQ(grid[0].label, "d1/f0.00/v1.20");
    EXPECT_EQ(grid[1].label, "d1/f0.00/v0.60");
    EXPECT_EQ(grid[2].label, "d1/f1.00/v1.20");
    EXPECT_EQ(grid[4].label, "d2/f0.00/v1.20");
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(grid[i].index, i);
    }
}

TEST(Campaign, RejectsBadConfiguration) {
    EXPECT_THROW(Campaign(Campaign::Factory{}), std::invalid_argument);
    Campaign campaign(small_factory(2));
    EXPECT_THROW(campaign.voltages({}), std::invalid_argument);
    EXPECT_THROW(campaign.fault_scales({}), std::invalid_argument);
    EXPECT_THROW(campaign.depths({}), std::invalid_argument);
    EXPECT_THROW(campaign.runs(0), std::invalid_argument);
    EXPECT_THROW(campaign.items(0), std::invalid_argument);
    // Refused at the setter: past it, FaultSpec::scaled and
    // splice_glitches would throw on a worker thread and end the process.
    EXPECT_THROW(campaign.fault_scales({1.0, -1.0}), std::invalid_argument);
    EXPECT_THROW(campaign.fault_scales({std::nan("")}),
                 std::invalid_argument);
    // An infinite scale would throw mid-grid with glitches on, and make
    // NaN rates (0 * inf) with them off.
    EXPECT_THROW(
        campaign.fault_scales({1.0, std::numeric_limits<double>::infinity()}),
        std::invalid_argument);
    EXPECT_NO_THROW(campaign.fault_scales({0.0, 4.0}));
    // A NaN, infinite or negative voltage would read as a frozen point
    // and move the survival knee with the axis order; 0V is unpowered.
    EXPECT_THROW(campaign.voltages({0.2, std::nan("")}),
                 std::invalid_argument);
    EXPECT_THROW(
        campaign.voltages({std::numeric_limits<double>::infinity()}),
        std::invalid_argument);
    EXPECT_THROW(campaign.voltages({-1.0}), std::invalid_argument);
    EXPECT_NO_THROW(campaign.voltages({0.0, 1.2}));
    asim::FaultSpec faults;
    faults.glitch.rate_hz = 1e6;
    faults.glitch.droop_v = 0.4;
    faults.glitch.min_duration_s = 5e-8;
    faults.glitch.max_duration_s = 1e-8;
    EXPECT_THROW(campaign.base_faults(faults), std::invalid_argument);
    faults.glitch.min_duration_s = -1e-8;
    EXPECT_THROW(campaign.base_faults(faults), std::invalid_argument);
    // NaN bounds and an infinite rate, refused before any worker splices.
    faults.glitch.min_duration_s = std::nan("");
    EXPECT_THROW(campaign.base_faults(faults), std::invalid_argument);
    faults.glitch.min_duration_s = 1e-8;
    faults.glitch.max_duration_s = std::nan("");
    EXPECT_THROW(campaign.base_faults(faults), std::invalid_argument);
    faults.glitch.max_duration_s = 5e-8;
    faults.glitch.rate_hz = std::numeric_limits<double>::infinity();
    EXPECT_THROW(campaign.base_faults(faults), std::invalid_argument);
    faults.glitch.rate_hz = 1e6;
    EXPECT_NO_THROW(campaign.base_faults(faults));
    // A finite scale whose product with the base spec overflows would
    // throw on a worker after earlier points ran. Each setter checks
    // against the other's current value and, on a throw, changes nothing.
    EXPECT_THROW(campaign.fault_scales({1.0, 1e303}), std::invalid_argument);
    const auto grid = campaign.grid();  // scales {0, 4} kept
    ASSERT_EQ(grid.size(), 4u);
    EXPECT_EQ(grid[3].fault_scale, 4.0);
    campaign.base_faults(asim::FaultSpec{});
    campaign.fault_scales({1.0, 1e303});  // a zero spec scales to zero
    EXPECT_THROW(campaign.base_faults(faults), std::invalid_argument);
    // The base spec stayed zero, so every point runs.
    EXPECT_NO_THROW(campaign.voltages({1.2}).runs(1).items(2).run());
}

// The seeding contract: the full result set — every per-point checksum
// and the campaign checksum — is bit-identical at any worker count.
TEST(Campaign, BitReproducibleAcrossWorkerCounts) {
    asim::FaultSpec faults;
    faults.delay_sigma = 0.2;
    faults.drop_rate = 0.02;
    faults.glitch.rate_hz = 1e6;  // a few droops per microsecond-scale run
    faults.glitch.droop_v = 0.4;
    faults.glitch.min_duration_s = 1e-8;
    faults.glitch.max_duration_s = 5e-8;

    auto summary_at = [&](std::size_t workers) {
        return Campaign(small_factory(2))
            .depths({1, 2})
            .fault_scales({0.0, 1.0})
            .voltages({1.2, 0.7})
            .base_faults(faults)
            .runs(6)
            .items(6)
            .seed(99)
            .workers(workers)
            .run();
    };

    const CampaignSummary serial = summary_at(1);
    const CampaignSummary pooled = summary_at(4);
    ASSERT_EQ(serial.rows.size(), pooled.rows.size());
    EXPECT_EQ(serial.checksum, pooled.checksum);
    for (std::size_t i = 0; i < serial.rows.size(); ++i) {
        EXPECT_EQ(serial.rows[i].checksum, pooled.rows[i].checksum)
            << serial.rows[i].point.label;
        EXPECT_EQ(serial.rows[i].completed, pooled.rows[i].completed);
        EXPECT_EQ(serial.rows[i].mean_time_s, pooled.rows[i].mean_time_s);
    }

    // A different master seed realises a different campaign.
    const CampaignSummary other = summary_at(1);
    EXPECT_EQ(other.checksum, serial.checksum) << "same seed reruns match";
    const CampaignSummary reseeded = Campaign(small_factory(2))
                                         .depths({1, 2})
                                         .fault_scales({0.0, 1.0})
                                         .voltages({1.2, 0.7})
                                         .base_faults(faults)
                                         .runs(6)
                                         .items(6)
                                         .seed(100)
                                         .run();
    EXPECT_NE(reseeded.checksum, serial.checksum);
}

// Golden pins: the exact checksums of a small seeded campaign over the
// real reconfigurable OPE, with bench_mc's fault mix. The tests above
// only compare runs with each other (serial vs pooled, rerun vs run), so
// a change to the simulator's arithmetic would pass them all; this one
// fails on any change to a single run's time, energy, event count or
// fault tally. Covers nominal and sub-nominal supplies, droops below
// the freeze voltage, drops, duplicates and stuck-ats.
TEST(Campaign, GoldenChecksumsArePinned) {
    asim::FaultSpec faults;
    faults.delay_sigma = 0.15;
    faults.drop_rate = 0.01;
    faults.duplicate_rate = 0.005;
    faults.stuck_rate = 2e-4;
    faults.glitch.rate_hz = 2e5;
    faults.glitch.droop_v = 0.5;
    faults.glitch.min_duration_s = 2e-7;
    faults.glitch.max_duration_s = 1e-6;
    const CampaignSummary summary = Campaign::ope(4)
                                        .depths({3, 4})
                                        .voltages({1.2, 0.55, 0.45})
                                        .fault_scales({0.0, 4.0})
                                        .base_faults(faults)
                                        .runs(3)
                                        .items(8)
                                        .seed(2024)
                                        .run();

    const std::vector<std::uint64_t> golden{
        0x2cf977a857b50222ULL,  // d3/f0.00/v1.20
        0x09d4f4917e940755ULL,  // d3/f0.00/v0.55
        0x0c54d87293cc6f81ULL,  // d3/f0.00/v0.45
        0x0d4368adc6bd96d3ULL,  // d3/f4.00/v1.20
        0x13063f10f42a8ae5ULL,  // d3/f4.00/v0.55
        0xfc2651c559568a9fULL,  // d3/f4.00/v0.45
        0x5c4f527fd8e3f061ULL,  // d4/f0.00/v1.20
        0x8599694276969b45ULL,  // d4/f0.00/v0.55
        0xcff452d504f718b3ULL,  // d4/f0.00/v0.45
        0x877ceb5c1ff56106ULL,  // d4/f4.00/v1.20
        0x1067b7eea190a8c0ULL,  // d4/f4.00/v0.55
        0xe58a23d578afc2cbULL,  // d4/f4.00/v0.45
    };
    ASSERT_EQ(summary.rows.size(), golden.size());
    for (std::size_t i = 0; i < golden.size(); ++i) {
        EXPECT_EQ(summary.rows[i].checksum, golden[i])
            << summary.rows[i].point.label;
    }
    EXPECT_EQ(summary.checksum, 0xd3e901560b5ff566ULL);
    // The grid must exercise what the checksums are meant to guard.
    EXPECT_GT(summary.rows[5].glitch_windows, 0u);
    EXPECT_GT(summary.rows[11].faults_injected, 0u);
    EXPECT_LT(summary.completed_total, summary.runs_total);
}

TEST(Campaign, CleanNominalCampaignSurvivesEverywhere) {
    const CampaignSummary summary = Campaign(small_factory(2))
                                        .depths({2})
                                        .runs(4)
                                        .items(8)
                                        .seed(7)
                                        .run();
    ASSERT_EQ(summary.rows.size(), 1u);
    EXPECT_EQ(summary.survival(), 1.0);
    EXPECT_FALSE(summary.first_failure_voltage.has_value());
    EXPECT_EQ(summary.hazards_total, 0u);
    EXPECT_GT(summary.rows[0].mean_energy_per_item_j, 0.0);
    EXPECT_GT(summary.rows[0].mean_time_s, 0.0);
}

TEST(Campaign, SubFreezeVoltageShowsUpInTheSurvivalCurve) {
    const CampaignSummary summary = Campaign(small_factory(2))
                                        .depths({2})
                                        .voltages({1.2, 0.3})  // < kFreezeV
                                        .runs(3)
                                        .items(4)
                                        .seed(7)
                                        .run();
    ASSERT_EQ(summary.rows.size(), 2u);
    EXPECT_EQ(summary.rows[0].survival, 1.0);  // nominal
    EXPECT_EQ(summary.rows[1].survival, 0.0);  // frozen supply
    EXPECT_EQ(summary.rows[1].frozen, 3u);
    ASSERT_TRUE(summary.first_failure_voltage.has_value());
    EXPECT_NEAR(*summary.first_failure_voltage, 0.3, 1e-12);
}

// The survival knee ignores statistical blips. A point whose runs fail
// less often than 5% (1 of 40) is reported as a blip and does not drag
// first_failure_voltage to the top of the voltage axis; a point that
// fails in 5% of its runs (2 of 40, the threshold itself) sets the knee.
TEST(Campaign, KneeRequiresMinimumFailureFraction) {
    asim::FaultSpec faults;
    faults.stuck_rate = 0.0005;  // rare stuck-ats: flaky, not broken
    const CampaignSummary summary = Campaign(small_factory(2))
                                        .depths({2})
                                        .voltages({1.2, 0.9})
                                        .base_faults(faults)
                                        .runs(40)
                                        .items(6)
                                        .seed(13)
                                        .run();
    ASSERT_EQ(summary.rows.size(), 2u);
    // The seed realises one failure at 1.2 V and two at 0.9 V.
    ASSERT_EQ(summary.rows[0].runs - summary.rows[0].completed, 1u);
    ASSERT_EQ(summary.rows[1].runs - summary.rows[1].completed, 2u);
    ASSERT_TRUE(summary.first_failure_voltage.has_value());
    EXPECT_NEAR(*summary.first_failure_voltage, 0.9, 1e-12);
    EXPECT_EQ(summary.blip_points, 1u);
    ASSERT_TRUE(summary.highest_blip_voltage.has_value());
    EXPECT_NEAR(*summary.highest_blip_voltage, 1.2, 1e-12);
}

TEST(Campaign, StuckFaultsDegradeSurvival) {
    asim::FaultSpec faults;
    faults.stuck_rate = 0.05;
    const CampaignSummary summary = Campaign(small_factory(2))
                                        .depths({2})
                                        .fault_scales({0.0, 20.0})
                                        .base_faults(faults)
                                        .runs(4)
                                        .items(8)
                                        .seed(13)
                                        .run();
    ASSERT_EQ(summary.rows.size(), 2u);
    EXPECT_EQ(summary.rows[0].survival, 1.0);  // scale 0 disarms
    EXPECT_EQ(summary.rows[1].survival, 0.0);  // stuck_rate 1.0
    EXPECT_GT(summary.rows[1].faults_injected, 0u);
}

TEST(Campaign, InvalidDepthPointsReportAsDeterministicFailures) {
    const CampaignSummary a = Campaign(small_factory(2))
                                  .depths({3})  // factory throws
                                  .runs(3)
                                  .seed(5)
                                  .run();
    const CampaignSummary b = Campaign(small_factory(2))
                                  .depths({3})
                                  .runs(3)
                                  .seed(5)
                                  .run();
    ASSERT_EQ(a.rows.size(), 1u);
    EXPECT_EQ(a.rows[0].completed, 0u);
    EXPECT_EQ(a.runs_total, 3u);
    EXPECT_EQ(a.checksum, b.checksum);

    // A factory that returns an invalid model instead of throwing (depth
    // 2 gains a push with no control register) fails its own points the
    // same way; the valid depth beside it still completes.
    const Campaign::Factory valid = small_factory(2);
    const Campaign::Factory returns_invalid = [&valid](int depth) {
        pipeline::Pipeline p = valid(depth);
        if (depth == 2) {
            const dfs::NodeId bad = p.graph.add_push("bad_push");
            p.graph.connect(p.out, bad);
        }
        return p;
    };
    std::map<std::size_t, std::uint64_t> events;
    const auto mixed = [&] {
        return Campaign(returns_invalid)
            .depths({1, 2})
            .runs(3)
            .items(4)
            .seed(5)
            .workers(2)
            .on_run([&](const CampaignRun& run) {
                events[run.point] += run.events;
            })
            .run();
    };
    const CampaignSummary c = mixed();
    ASSERT_EQ(c.rows.size(), 2u);
    EXPECT_EQ(c.rows[0].survival, 1.0) << "the valid depth completes";
    EXPECT_GT(events[0], 0u);
    EXPECT_EQ(c.rows[1].runs, 3u);
    EXPECT_EQ(c.rows[1].completed, 0u);
    EXPECT_EQ(events[1], 0u) << "an invalid model fires nothing";
    EXPECT_EQ(mixed().checksum, c.checksum);
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// Folds one 64-bit word into an FNV-1a hash, lowest byte first, as
/// Campaign's checksums do.
void fnv_fold(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 1099511628211ULL;
    }
}

/// Folds one run row the way Campaign's point checksum does.
void reference_fold(std::uint64_t& h, const CampaignRun& r) {
    fnv_fold(h, r.seed);
    fnv_fold(h, (r.completed ? 1u : 0u) | (r.deadlocked ? 2u : 0u) |
                    (r.frozen ? 4u : 0u) | (r.hazard ? 8u : 0u));
    fnv_fold(h, std::bit_cast<std::uint64_t>(r.time_s));
    fnv_fold(h, std::bit_cast<std::uint64_t>(r.energy_j));
    fnv_fold(h, r.items);
    fnv_fold(h, r.events);
    fnv_fold(h, r.faults.drops);
    fnv_fold(h, r.faults.duplicates);
    fnv_fold(h, r.faults.stuck_nodes);
    fnv_fold(h, r.glitches);
}

struct ReferencePoint {
    std::vector<CampaignRun> runs;
    std::uint64_t checksum = kFnvOffset;
};

/// Every run of every grid point simulated on its own, one after the
/// other: the per-run loop Campaign ran before a seed-independent point
/// simulated once. Calibration tag, 8x time budget, event cap and seeds
/// follow src/flow/campaign.cpp. Valid models only.
std::vector<ReferencePoint> reference_campaign(
    const Campaign::Factory& factory, const std::vector<CampaignPoint>& grid,
    const asim::FaultSpec& faults, std::size_t runs, std::uint64_t seed,
    std::uint64_t items) {
    std::vector<ReferencePoint> points;
    for (const CampaignPoint& point : grid) {
        const std::unique_ptr<Design> design =
            make_design(factory(point.depth));
        const dfs::Graph& graph = design->graph();
        const dfs::NodeId out = design->pipeline().out;
        const std::uint64_t event_cap = items * graph.node_count() * 64;

        asim::TimedSimulator calib = design->timed_sim();
        calib.set_seed(
            util::stream_seed(seed ^ 0x63616c6962ULL, point.index));
        dfs::State cs = dfs::State::initial(graph);
        asim::RunLimits climits;
        climits.target_marks = items;
        climits.observe = out;
        climits.max_events = event_cap;
        const double nominal_s = calib.run(cs, climits).time_s;
        const double sf = tech::speed_factor(point.voltage);
        const double budget_s = 8.0 * nominal_s / (sf > 0.0 ? sf : 1.0);
        const asim::FaultSpec spec = faults.scaled(point.fault_scale);

        ReferencePoint ref;
        for (std::size_t r = 0; r < runs; ++r) {
            CampaignRun row;
            row.point = point.index;
            row.run = r;
            row.seed = util::stream_seed(seed, point.index * runs + r);
            const asim::GlitchedSchedule glitched = asim::splice_glitches(
                tech::VoltageSchedule::constant(point.voltage), spec.glitch,
                row.seed, budget_s);
            row.glitches = glitched.glitches();
            asim::TimedSimulator sim = design->timed_sim(glitched.schedule);
            sim.set_seed(row.seed);
            sim.set_faults(spec);
            dfs::State s = dfs::State::initial(graph);
            asim::RunLimits limits;
            limits.target_marks = items;
            limits.observe = out;
            limits.max_events = event_cap;
            limits.max_time_s = budget_s;
            const asim::TimedStats stats = sim.run(s, limits);
            row.items = stats.marks_at(out);
            row.completed = row.items >= items;
            row.deadlocked = stats.deadlocked;
            row.frozen = stats.frozen;
            row.time_s = stats.time_s;
            row.energy_j = stats.total_energy_j();
            row.events = stats.events;
            row.faults = stats.faults;
            row.hazard =
                design->dynamics().control_conflict(s).has_value();
            reference_fold(ref.checksum, row);
            ref.runs.push_back(row);
        }
        points.push_back(std::move(ref));
    }
    return points;
}

/// Whether two rows agree on every field, doubles bit for bit.
bool same_row(const CampaignRun& a, const CampaignRun& b) {
    return a.point == b.point && a.run == b.run && a.seed == b.seed &&
           a.completed == b.completed && a.deadlocked == b.deadlocked &&
           a.frozen == b.frozen && a.hazard == b.hazard &&
           std::bit_cast<std::uint64_t>(a.time_s) ==
               std::bit_cast<std::uint64_t>(b.time_s) &&
           std::bit_cast<std::uint64_t>(a.energy_j) ==
               std::bit_cast<std::uint64_t>(b.energy_j) &&
           a.items == b.items && a.events == b.events &&
           a.faults.jittered_enables == b.faults.jittered_enables &&
           a.faults.drops == b.faults.drops &&
           a.faults.duplicates == b.faults.duplicates &&
           a.faults.stuck_nodes == b.faults.stuck_nodes &&
           a.glitches == b.glitches;
}

/// Whether every run of a reference point has run 0's results.
bool seed_independent(const ReferencePoint& ref) {
    return std::all_of(ref.runs.begin(), ref.runs.end(),
                       [&](CampaignRun row) {
                           row.run = ref.runs[0].run;
                           row.seed = ref.runs[0].seed;
                           return same_row(row, ref.runs[0]);
                       });
}

/// Runs the campaign on two workers and checks every streamed row, every
/// point checksum and the campaign checksum against the reference loop.
/// Returns the reference.
std::vector<ReferencePoint> expect_matches_reference(
    Campaign campaign, const Campaign::Factory& factory,
    const asim::FaultSpec& faults, std::size_t runs, std::uint64_t seed,
    std::uint64_t items) {
    std::map<std::size_t, std::vector<CampaignRun>> streamed;
    const std::vector<CampaignPoint> grid = campaign.grid();
    const CampaignSummary summary =
        campaign.base_faults(faults)
            .runs(runs)
            .items(items)
            .seed(seed)
            .workers(2)
            .on_run([&](const CampaignRun& run) {
                streamed[run.point].push_back(run);
            })
            .run();
    const std::vector<ReferencePoint> reference =
        reference_campaign(factory, grid, faults, runs, seed, items);

    EXPECT_EQ(summary.rows.size(), grid.size());
    EXPECT_EQ(streamed.size(), grid.size());
    std::uint64_t campaign_checksum = kFnvOffset;
    for (std::size_t p = 0; p < reference.size(); ++p) {
        const std::vector<CampaignRun>& rows = streamed[p];
        EXPECT_EQ(rows.size(), runs) << grid[p].label;
        for (std::size_t r = 0; r < std::min(rows.size(), runs); ++r) {
            EXPECT_TRUE(same_row(rows[r], reference[p].runs[r]))
                << grid[p].label << " run " << r;
        }
        if (p < summary.rows.size()) {
            EXPECT_EQ(summary.rows[p].checksum, reference[p].checksum)
                << grid[p].label;
        }
        fnv_fold(campaign_checksum, reference[p].checksum);
    }
    EXPECT_EQ(summary.checksum, campaign_checksum);
    return reference;
}

// A point with no fault armed on a model with no free-choice control
// simulates once and reports that run under every run's seed. Every row
// it streams and every checksum must equal simulating each run on its
// own, while points that do read a seed keep simulating every run.
TEST(Campaign, SeedIndependentPointsMatchThePerRunReference) {
    asim::FaultSpec faults;
    faults.delay_sigma = 0.2;
    faults.drop_rate = 0.02;
    faults.duplicate_rate = 0.01;
    faults.stuck_rate = 0.002;
    faults.glitch.rate_hz = 1e6;
    faults.glitch.droop_v = 0.4;
    faults.glitch.min_duration_s = 1e-8;
    faults.glitch.max_duration_s = 5e-8;
    const Campaign::Factory factory = small_factory(2);
    Campaign campaign(factory);
    campaign.depths({1, 2}).fault_scales({0.0, 1.0}).voltages({1.2, 0.7});
    const std::vector<ReferencePoint> reference =
        expect_matches_reference(campaign, factory, faults, 5, 31, 6);
    // Grid order: depth, then scale, then voltage. Scale 0 is the copy
    // path's input, scale 1 is not.
    ASSERT_EQ(reference.size(), 8u);
    for (std::size_t p = 0; p < reference.size(); ++p) {
        const bool fault_free = (p / 2) % 2 == 0;
        EXPECT_EQ(seed_independent(reference[p]), fault_free) << p;
    }
}

// Fig. 1b's `ctrl` is a free-choice control register: even at fault
// scale 0 every run reads the bias coin, so the copy path must not
// engage and each run keeps its own result.
TEST(Campaign, FreeChoiceModelsSimulateEveryRun) {
    const Campaign::Factory fig1b = [](int) {
        dfs::testing::Fig1b m = dfs::testing::make_fig1b();
        pipeline::Pipeline p;
        p.graph = std::move(m.graph);
        p.in = m.in;
        p.out = m.out;
        return p;
    };
    Campaign campaign(fig1b);
    campaign.fault_scales({0.0}).voltages({1.2, 0.7});
    const std::vector<ReferencePoint> reference = expect_matches_reference(
        campaign, fig1b, asim::FaultSpec{}, 6, 8, 16);
    ASSERT_EQ(reference.size(), 2u);
    for (const ReferencePoint& ref : reference) {
        EXPECT_FALSE(seed_independent(ref));
    }
}

TEST(Campaign, StreamsRowsInRunOrderPerPoint) {
    std::map<std::size_t, std::vector<std::size_t>> seen;
    std::size_t rows = 0;
    const CampaignSummary summary =
        Campaign(small_factory(2))
            .depths({1, 2})
            .runs(4)
            .items(4)
            .seed(3)
            .on_run([&](const CampaignRun& run) {
                seen[run.point].push_back(run.run);
                ++rows;
            })
            .run();
    EXPECT_EQ(rows, summary.runs_total);
    for (const auto& [point, runs] : seen) {
        ASSERT_EQ(runs.size(), 4u) << "point " << point;
        for (std::size_t r = 0; r < runs.size(); ++r) {
            EXPECT_EQ(runs[r], r) << "rows of one point arrive in order";
        }
    }
}

// Campaign points are claimed in grid order, unlike Sweep's largest
// first: one worker runs them with the point index never decreasing.
TEST(Campaign, ClaimsPointsInGridOrder) {
    std::vector<std::size_t> points;
    const CampaignSummary summary =
        Campaign(small_factory(2))
            .depths({1, 2})
            .fault_scales({0.0, 1.0})  // 4 points
            .runs(2)
            .items(4)
            .seed(5)
            .workers(1)
            .on_run([&](const CampaignRun& run) {
                points.push_back(run.point);
            })
            .run();
    ASSERT_EQ(points.size(), summary.runs_total);
    ASSERT_EQ(points.size(), 4u * 2u);
    EXPECT_TRUE(std::is_sorted(points.begin(), points.end()));
    EXPECT_EQ(points.front(), 0u);
    EXPECT_EQ(points.back(), 3u);
}

TEST(Campaign, CancelStopsCallbacksAndSkipsUnstartedPoints) {
    std::promise<void> first_row;
    auto first_row_seen = first_row.get_future();
    std::promise<void> gate;
    auto gate_open = gate.get_future().share();
    std::atomic<int> factory_calls{0};

    // The factory blocks from the second point on until the test opens
    // the gate *after* cancelling — mid-campaign cancellation without
    // timing assumptions.
    const Campaign::Factory build = small_factory(2);
    auto factory = [&](int depth) {
        if (factory_calls.fetch_add(1) > 0) gate_open.wait();
        return build(depth);
    };

    std::atomic<std::size_t> callbacks{0};
    bool first_signalled = false;
    auto handle = Campaign(Campaign::Factory(factory))
                      .depths({1, 2})
                      .fault_scales({0.0, 1.0})  // 4 points
                      .runs(3)
                      .items(4)
                      .seed(17)
                      .workers(1)
                      .on_run([&](const CampaignRun&) {
                          ++callbacks;
                          if (!first_signalled) {
                              first_signalled = true;
                              first_row.set_value();
                          }
                      })
                      .launch();

    first_row_seen.wait();
    handle.cancel();
    const std::size_t callbacks_at_cancel = callbacks.load();
    gate.set_value();
    EXPECT_TRUE(handle.cancelled());

    const CampaignSummary summary = handle.wait();
    EXPECT_EQ(callbacks.load(), callbacks_at_cancel)
        << "no on_run row may fire after cancel() returned";
    // The single worker finishes the point it holds — the first, or the
    // second if it already reached that factory call — and starts no
    // other.
    ASSERT_GE(summary.rows.size(), 1u);
    ASSERT_LE(summary.rows.size(), 2u);
    for (std::size_t i = 0; i < summary.rows.size(); ++i) {
        EXPECT_EQ(summary.rows[i].point.index, i) << "unstarted point kept";
    }
    EXPECT_EQ(summary.runs_total, 3u * summary.rows.size());
    EXPECT_EQ(handle.metrics().value("rap_mc_cancelled"), 1.0);
    // The pool settles every point: ran, or cancelled before start.
    EXPECT_EQ(handle.done(), handle.total());
    EXPECT_EQ(handle.metrics().value("rap_mc_points_done"), 4.0);
    EXPECT_EQ(handle.metrics().value("rap_mc_in_flight"), 0.0);
}

// The grid runner's one failure rule, from the point body's side: an
// exception that escapes on_run settles its point, cancels the grid and
// comes out of wait() on the caller's thread. Two workers can each fire
// one callback before the first failure cancels the grid.
TEST(Campaign, ThrowingCallbackSurfacesFromWait) {
    std::atomic<int> calls{0};
    auto handle = Campaign(small_factory(2))
                      .depths({1, 2})
                      .fault_scales({0.0, 1.0})  // 4 points
                      .runs(2)
                      .items(4)
                      .workers(2)
                      .on_run([&](const CampaignRun&) {
                          ++calls;
                          throw std::runtime_error("run sink failed");
                      })
                      .launch();
    try {
        handle.wait();
        ADD_FAILURE() << "wait() returned without the callback's exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "run sink failed");
    }
    EXPECT_TRUE(handle.cancelled());
    EXPECT_EQ(handle.done(), handle.total());
    EXPECT_EQ(handle.metrics().value("rap_mc_in_flight"), 0.0);
    EXPECT_GE(calls.load(), 1);
    EXPECT_LE(calls.load(), 2);
}

TEST(Campaign, MetricsExposeMonteCarloCounters) {
    auto handle = Campaign(small_factory(2))
                      .depths({1, 2})
                      .runs(2)
                      .items(4)
                      .seed(21)
                      .launch();
    const CampaignSummary summary = handle.wait();
    const Metrics snapshot = handle.metrics();
    const std::string text = metrics::to_prometheus(snapshot);
    EXPECT_NE(text.find("rap_mc_points_total 2"), std::string::npos);
    EXPECT_NE(text.find("rap_mc_points_done 2"), std::string::npos);
    EXPECT_NE(text.find("rap_mc_runs_done 4"), std::string::npos);
    EXPECT_NE(text.find("rap_mc_failures_total 0"), std::string::npos);
    EXPECT_NE(text.find("rap_mc_survival 1"), std::string::npos);
    EXPECT_EQ(summary.runs_total, 4u);
}

// The run figures fold the settled points' rows. Polled from the
// launching thread while two workers run, every snapshot counts whole
// points and its counters never fall; the last one matches the summary.
TEST(Campaign, MetricsFoldSettledPoints) {
    asim::FaultSpec faults;
    faults.stuck_rate = 0.01;
    const std::size_t kRuns = 6;
    auto handle = Campaign(small_factory(2))
                      .depths({1, 2})
                      .fault_scales({0.0, 1.0, 4.0})
                      .voltages({1.2, 0.3})  // nominal + sub-freeze
                      .base_faults(faults)
                      .runs(kRuns)
                      .items(8)
                      .seed(11)
                      .workers(2)
                      .launch();
    double runs_done = 0.0;
    double failures = 0.0;
    const auto check = [&](const Metrics& m) {
        const double runs = m.value("rap_mc_runs_done");
        const double failed = m.value("rap_mc_failures_total");
        EXPECT_EQ(runs, m.value("rap_mc_points_done") * kRuns);
        EXPECT_LE(failed, runs);
        EXPECT_GE(runs, runs_done);
        EXPECT_GE(failed, failures);
        runs_done = runs;
        failures = failed;
    };
    while (handle.done() < handle.total()) check(handle.metrics());
    const CampaignSummary summary = handle.wait();
    const Metrics last = handle.metrics();
    check(last);

    std::uint64_t faults_injected = 0;
    std::uint64_t glitch_windows = 0;
    for (const CampaignAggregate& row : summary.rows) {
        faults_injected += row.faults_injected;
        glitch_windows += row.glitch_windows;
    }
    EXPECT_GT(summary.runs_total, summary.completed_total);
    EXPECT_EQ(last.value("rap_mc_points_done"),
              static_cast<double>(summary.rows.size()));
    EXPECT_EQ(last.value("rap_mc_runs_done"),
              static_cast<double>(summary.runs_total));
    EXPECT_EQ(last.value("rap_mc_failures_total"),
              static_cast<double>(summary.runs_total -
                                  summary.completed_total));
    EXPECT_EQ(last.value("rap_mc_hazards_total"),
              static_cast<double>(summary.hazards_total));
    EXPECT_EQ(last.value("rap_mc_faults_injected_total"),
              static_cast<double>(faults_injected));
    EXPECT_EQ(last.value("rap_mc_glitch_windows_total"),
              static_cast<double>(glitch_windows));
}

}  // namespace
}  // namespace rap::flow
