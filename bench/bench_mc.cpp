// Monte-Carlo campaign smoke: flow::Campaign over the real 3-stage
// reconfigurable OPE pipeline — voltage x fault-scale survival curves
// from >= 1000 seeded timed-sim runs, with the reproducibility contract
// checked in-harness: the campaign runs twice with the same master seed
// and the aggregate checksums must match bit-for-bit (that checksum
// folds every run's raw time/energy/fault bits, so one diverging run
// anywhere fails the comparison).
//
// Exit is non-zero if the campaign misbehaves: reproducibility broken,
// fault-free nominal-voltage runs failing, or the checksum blind to the
// master seed (a different seed producing the same aggregate). The
// nightly soak workflow runs it, and that exit code is the gate.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "flow/campaign.hpp"
#include "flow/metrics.hpp"
#include "util/table.hpp"

namespace {

using namespace rap;

flow::Campaign make_campaign(std::uint64_t seed) {
    const unsigned hw = std::thread::hardware_concurrency();
    return flow::Campaign::ope(3)
        .depths({3})
        .voltages({1.2, 0.9, 0.7, 0.55, 0.45})
        .fault_scales({0.0, 1.0, 4.0})
        .base_faults(bench::mc_faults())
        .runs(70)  // 5 voltages x 3 scales x 70 = 1050 runs
        .items(24)
        .seed(seed)
        .workers(hw ? hw : 1);
}

}  // namespace

int main() {
    bench::Stopwatch watch;
    bench::print_header(
        "fault-injection Monte-Carlo campaign",
        "flow::Campaign over the 3-stage OPE: survival curves + "
        "seed reproducibility");

    bool ok = true;
    constexpr std::uint64_t kSeed = 20240612;

    bench::Stopwatch campaign_watch;
    const flow::CampaignSummary summary = make_campaign(kSeed).run();
    const double campaign_seconds = campaign_watch.elapsed_s();

    util::Table table({"point", "survival", "frozen", "deadlock",
                       "hazards", "faults", "glitches", "E/item [pJ]"});
    for (const flow::CampaignAggregate& row : summary.rows) {
        table.add_row(
            {row.point.label, util::Table::num(row.survival, 2),
             std::to_string(row.frozen), std::to_string(row.deadlocks),
             std::to_string(row.hazards),
             std::to_string(row.faults_injected),
             std::to_string(row.glitch_windows),
             row.completed > 0
                 ? util::Table::num(row.mean_energy_per_item_j * 1e12, 2)
                 : "-"});
    }
    std::printf("%s\n", table.to_ascii().c_str());

    std::printf("runs:               %zu (%.0f runs/s)\n",
                summary.runs_total,
                campaign_seconds > 0.0
                    ? summary.runs_total / campaign_seconds
                    : 0.0);
    std::printf("overall survival:   %.1f%%\n", 100.0 * summary.survival());
    std::printf("first failure at:   %s\n",
                summary.first_failure_voltage
                    ? (std::to_string(*summary.first_failure_voltage) + " V")
                          .c_str()
                    : "none");
    std::printf("aggregate checksum: %016" PRIx64 "\n", summary.checksum);
    std::printf("campaign wall time: %.2f s\n\n", campaign_seconds);

    // Gate 1: fault-free nominal-voltage runs must all complete.
    for (const flow::CampaignAggregate& row : summary.rows) {
        if (row.point.fault_scale == 0.0 && row.point.voltage >= 1.2 &&
            row.survival < 1.0) {
            std::printf("FAULT-FREE NOMINAL FAILURES at %s\n",
                        row.point.label.c_str());
            ok = false;
        }
    }

    // Gate 2: the reproducibility contract — the same master seed must
    // reproduce the aggregate row bit-for-bit on a second pass.
    bench::Stopwatch repro_watch;
    const flow::CampaignSummary rerun = make_campaign(kSeed).run();
    const bool reproducible = rerun.checksum == summary.checksum;
    std::printf("reproducibility:    %s (rerun %016" PRIx64 " in %.2f s)\n",
                reproducible ? "OK" : "BROKEN", rerun.checksum,
                repro_watch.elapsed_s());
    if (!reproducible) {
        std::printf("SEEDED CAMPAIGN IS NOT REPRODUCIBLE\n");
        ok = false;
    }

    // A different seed must realise a different campaign (sanity check
    // that the checksum actually covers the stochastic surface).
    const flow::CampaignSummary other = make_campaign(kSeed + 1).run();
    if (other.checksum == summary.checksum) {
        std::printf("CHECKSUM BLIND: different seed, same checksum\n");
        ok = false;
    }

    bench::print_footer(watch);
    return ok ? 0 : 1;
}
