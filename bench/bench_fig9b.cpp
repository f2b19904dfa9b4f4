// E9 — Fig. 9b: power consumption of the reconfigurable OPE pipeline
// (all 18 stages active) during a single LFSR-generated experiment while
// the supply voltage is stepped down from 0.5V to 0.34V — where the chip
// freezes with no progress (leakage only) — and then raised again, after
// which the circuit recovers and completes the computation correctly.

#include <cstdio>

#include "bench_util.hpp"
#include "chip/chip.hpp"
#include "util/table.hpp"

int main() {
    using namespace rap;
    bench::Stopwatch watch;
    bench::print_header(
        "E9 / Fig. 9b",
        "power trace under a falling supply: freeze at 0.34V and recovery");

    constexpr std::uint64_t kItems = 3000;
    chip::ChipOptions options;
    options.stages = 18;
    options.depth = 18;
    options.core = chip::Core::Reconfigurable;
    options.sync = netlist::SyncTopology::DaisyChain;
    const chip::Evaluation chip_eval(options);

    // Budget the schedule from the expected runtime at 0.5V: the voltage
    // steps down every ~12% of it, reaching the freeze point well before
    // the computation can finish, holds there, then recovers to 0.5V.
    const auto probe = chip_eval.measure(0.5, kItems);
    const double unit = probe.time_s / 8.0;

    tech::VoltageSchedule schedule;
    const std::vector<double> downward = {0.50, 0.49, 0.48, 0.47,
                                          0.46, 0.45, 0.44, 0.34};
    for (const double v : downward) schedule.add_segment(unit, v);
    schedule.add_segment(4 * unit, 0.34);  // frozen plateau
    schedule.add_segment(unit, 0.50);      // recovery, holds forever

    const auto stats = chip_eval.measure_with_schedule(
        schedule, kItems, /*trace_bin_s=*/unit / 2.0, /*max_time_s=*/1e9);

    // The paper's time axis is seconds on the bench; ours is simulator
    // time — report both the raw trace and paper-scaled time using the
    // nominal calibration of the static core.
    chip::ChipOptions static_options;
    static_options.core = chip::Core::Static;
    const chip::Evaluation static_chip(static_options);
    const auto cal =
        chip::PaperCalibration::from(static_chip.measure(1.2, 800));
    const double items_ratio =
        chip::PaperCalibration::kReferenceItems / static_cast<double>(kItems);

    // Idle prefix: before the computation starts the chip only leaks at
    // 0.5V (the flat left side of Fig. 9b).
    const double idle_power =
        tech::leakage_power(0.5, chip_eval.netlist().total_gates());

    util::Table table({"t [s, paper scale]", "V", "power [uW, paper scale]",
                       "phase"});
    const double tscale = cal.time_scale * items_ratio;
    const double pscale = cal.energy_scale / cal.time_scale;
    table.add_row({"0.00", "0.50",
                   util::Table::num(idle_power * pscale * 1e6, 4), "idle"});
    const double idle_span = stats.time_s * 0.1;
    std::size_t printed = 0;
    for (const auto& sample : stats.trace) {
        if (printed++ % 2) continue;  // thin the table
        const char* phase = "computing";
        if (sample.voltage_v <= 0.34) {
            phase = sample.power_w < 2 * idle_power ? "FROZEN (leakage)"
                                                    : "slowing";
        } else if (sample.t_start_s > stats.time_s * 0.8) {
            phase = "recovered";
        }
        table.add_row(
            {util::Table::num((idle_span + sample.t_start_s) * tscale, 2),
             util::Table::num(sample.voltage_v, 2),
             util::Table::num(sample.power_w * pscale * 1e6, 4), phase});
    }
    std::printf("%s\n", table.to_ascii().c_str());

    const bool completed = stats.marks_at(chip_eval.model().out) >= kItems;
    std::printf("items completed after recovery: %llu / %llu -> %s\n",
                static_cast<unsigned long long>(
                    stats.marks_at(chip_eval.model().out)),
                static_cast<unsigned long long>(kItems),
                completed ? "run completed correctly" : "RUN INCOMPLETE");
    std::printf("frozen forever: %s (expected no — the supply recovers)\n",
                stats.frozen ? "yes" : "no");
    std::printf(
        "Expected shape: up-spike at computation start, stepwise power\n"
        "decrease as the supply falls, a leakage-only plateau at 0.34V\n"
        "(no progress for arbitrarily long), and a final down-spike when\n"
        "the supply recovers and the remaining items complete.\n");
    bench::print_footer(watch);
    return completed ? 0 : 1;
}
