#include "chip/chip.hpp"

#include <stdexcept>

#include "chip/lfsr.hpp"
#include "dfs/dynamics.hpp"
#include "ope/encoder.hpp"

namespace rap::chip {

namespace {

void check_options(const ChipOptions& options) {
    if (options.stages < 1) {
        throw std::invalid_argument("chip needs at least one stage");
    }
    if (options.core == Core::Static) {
        if (options.depth != options.stages) {
            throw std::invalid_argument(
                "the static core's depth is fixed at its stage count");
        }
    } else {
        if (options.depth < ope::min_depth() ||
            options.depth > options.stages) {
            throw std::invalid_argument(
                "reconfigurable depth must be in [3, stages]");
        }
    }
}

/// The simulator reads 0 target items as "no target": a measurement run
/// on a live supply would never end.
void check_items(std::uint64_t items) {
    if (items == 0) {
        throw std::invalid_argument(
            "chip::Evaluation: need at least one item to measure");
    }
}

}  // namespace

FunctionalResult run_random_mode(const ChipOptions& options,
                                 std::uint16_t seed, std::uint64_t count) {
    check_options(options);
    Lfsr lfsr(seed);
    ope::PipelineEncoder encoder(options.depth);
    FunctionalResult result;
    for (std::uint64_t i = 0; i < count; ++i) {
        const auto ranks = encoder.push(lfsr.next());
        ++result.items;
        if (ranks) {
            ++result.rank_lists;
            result.checksum = ope::fold_checksum(result.checksum, *ranks);
        }
    }
    return result;
}

std::vector<std::vector<int>> run_normal_mode(
    const ChipOptions& options, std::span<const std::int64_t> items) {
    check_options(options);
    ope::PipelineEncoder encoder(options.depth);
    std::vector<std::vector<int>> outputs;
    for (const auto item : items) {
        if (auto ranks = encoder.push(item)) {
            outputs.push_back(std::move(*ranks));
        }
    }
    return outputs;
}

std::uint64_t reference_checksum(int window, std::uint16_t seed,
                                 std::uint64_t count) {
    Lfsr lfsr(seed);
    ope::ReferenceEncoder encoder(window);
    std::uint64_t checksum = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        if (auto ranks = encoder.push(lfsr.next())) {
            checksum = ope::fold_checksum(checksum, *ranks);
        }
    }
    return checksum;
}

Evaluation::Evaluation(ChipOptions options)
    : options_(options),
      model_(options.core == Core::Static
                 ? ope::build_static_ope_dfs(options.stages)
                 : ope::build_reconfigurable_ope_dfs(options.stages,
                                                     options.depth)) {
    check_options(options);
    netlist_ = std::make_unique<netlist::Netlist>(
        model_.graph, netlist::Library(options.sync));
}

netlist::NetlistStats Evaluation::implementation_stats() const {
    return netlist_->stats();
}

asim::TimingMap Evaluation::annotated_timing() const {
    asim::TimingMap timing = netlist_->timing();
    if (options_.sync == netlist::SyncTopology::DaisyChain) {
        // The daisy chain threads the completion of consecutive stages:
        // each *active* stage contribution is serialised instead of
        // overlapped, so the aggregation's effective delay grows with
        // the number of real tokens it joins. Empty tokens from bypassed
        // stages ripple through one C-element only (kept in delay_s via
        // the library's daisy sync_depth).
        // Per-link cost of the chain: the C-element itself plus the long
        // inter-stage wiring and buffering the floorplan imposes on a
        // chain that snakes across all 18 stages (the tree overlaps these
        // segments). Fitted to the silicon's measured +36%.
        const double c_delay = 8.0 * netlist::Library::kGateDelayS;
        timing[model_.agg.value].delay_per_true_input_s = c_delay;
    }
    return timing;
}

Measurement Evaluation::measure(double voltage, std::uint64_t items) const {
    check_items(items);
    const dfs::Dynamics dynamics(model_.graph);
    asim::TimedSimulator sim(dynamics, annotated_timing(),
                             tech::VoltageSchedule::constant(voltage),
                             netlist_->total_gates());
    dfs::State state = dfs::State::initial(model_.graph);
    asim::RunLimits limits;
    limits.target_marks = items;
    limits.observe = model_.out;
    const auto stats = sim.run(state, limits);

    Measurement m;
    m.time_s = stats.time_s;
    m.dynamic_j = stats.dynamic_energy_j;
    m.leakage_j = stats.leakage_energy_j;
    m.items = stats.marks_at(model_.out);
    m.frozen = stats.frozen;
    m.deadlocked = stats.deadlocked;
    return m;
}

asim::TimedStats Evaluation::measure_with_schedule(
    const tech::VoltageSchedule& schedule, std::uint64_t items,
    double trace_bin_s, double max_time_s) const {
    check_items(items);
    const dfs::Dynamics dynamics(model_.graph);
    asim::TimedSimulator sim(dynamics, annotated_timing(), schedule,
                             netlist_->total_gates());
    if (trace_bin_s > 0) sim.enable_power_trace(trace_bin_s);
    dfs::State state = dfs::State::initial(model_.graph);
    asim::RunLimits limits;
    limits.target_marks = items;
    limits.observe = model_.out;
    limits.max_time_s = max_time_s;
    return sim.run(state, limits);
}

PaperCalibration PaperCalibration::from(const Measurement& static_nominal) {
    PaperCalibration cal;
    if (static_nominal.items == 0 || static_nominal.time_s <= 0) return cal;
    const double items_ratio =
        kReferenceItems / static_cast<double>(static_nominal.items);
    cal.time_scale =
        kReferenceTimeS / (static_nominal.time_s * items_ratio);
    cal.energy_scale =
        kReferenceEnergyJ / (static_nominal.energy_j() * items_ratio);
    return cal;
}

}  // namespace rap::chip
