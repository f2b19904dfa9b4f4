#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "asim/timed_sim.hpp"
#include "netlist/netlist.hpp"
#include "ope/dfs_models.hpp"
#include "pipeline/builder.hpp"
#include "tech/voltage.hpp"

namespace rap::chip {

/// Which OPE core the `config` input selects (Fig. 8a).
enum class Core { Static, Reconfigurable };

/// Chip-level build options.
struct ChipOptions {
    int stages = 18;  ///< physical pipeline length (the chip's 18)
    Core core = Core::Static;
    /// Active depth (= OPE window size). Must equal `stages` for the
    /// static core; 3..stages for the reconfigurable one.
    int depth = 18;
    /// Completion topology of the stage synchronisation. The fabricated
    /// reconfigurable core used the daisy chain (the 36% overhead); the
    /// static core and the proposed fix use the tree.
    netlist::SyncTopology sync = netlist::SyncTopology::Tree;
};

// ---------------------------------------------------------------- modes --

/// Result of a random-mode run: one checksum word after `count` items
/// (Fig. 8a's accumulator output).
struct FunctionalResult {
    std::uint64_t checksum = 0;
    std::uint64_t items = 0;
    std::uint64_t rank_lists = 0;
};

/// Functional (value-level) random-mode run of the selected core: LFSR
/// stream -> OPE pipeline (incremental stage-parallel encoder) ->
/// checksum accumulator.
FunctionalResult run_random_mode(const ChipOptions& options,
                                 std::uint16_t seed, std::uint64_t count);

/// Functional normal-mode run: caller-supplied stream in, rank lists out.
std::vector<std::vector<int>> run_normal_mode(
    const ChipOptions& options, std::span<const std::int64_t> items);

/// Golden checksum from the behavioural model (ReferenceEncoder) with the
/// same seed/count — what the paper validates the silicon against.
std::uint64_t reference_checksum(int window, std::uint16_t seed,
                                 std::uint64_t count);

// ---------------------------------------------------------- measurement --

/// One timed measurement, the substitute for the FPGA timer (1 ms
/// precision) + Keithley source meter (1 nW) of Section IV.
struct Measurement {
    double time_s = 0;
    double dynamic_j = 0;
    double leakage_j = 0;
    std::uint64_t items = 0;
    bool frozen = false;
    bool deadlocked = false;

    double energy_j() const { return dynamic_j + leakage_j; }
    double time_per_item_s() const {
        return items ? time_s / static_cast<double>(items) : 0;
    }
    double energy_per_item_j() const {
        return items ? energy_j() / static_cast<double>(items) : 0;
    }
};

/// The evaluation chip + test bench: builds the DFS model of the selected
/// core, maps it onto the NCL-D library, and drives the timed simulator
/// under configurable supply conditions.
class Evaluation {
public:
    explicit Evaluation(ChipOptions options);

    // netlist_ points into model_.
    Evaluation(const Evaluation&) = delete;
    Evaluation& operator=(const Evaluation&) = delete;

    const ChipOptions& options() const noexcept { return options_; }
    const pipeline::Pipeline& model() const noexcept { return model_; }
    const netlist::Netlist& netlist() const noexcept { return *netlist_; }
    netlist::NetlistStats implementation_stats() const;

    /// Processes `items` input items at a constant supply voltage.
    /// `items` == 0 throws std::invalid_argument.
    Measurement measure(double voltage, std::uint64_t items) const;

    /// Processes up to `items` items under an arbitrary supply schedule,
    /// sampling the power trace with `trace_bin_s` bins (Fig. 9b's
    /// instrument). The run also stops at `max_time_s`. `items` == 0
    /// throws std::invalid_argument.
    asim::TimedStats measure_with_schedule(
        const tech::VoltageSchedule& schedule, std::uint64_t items,
        double trace_bin_s, double max_time_s) const;

private:
    asim::TimingMap annotated_timing() const;

    ChipOptions options_;
    pipeline::Pipeline model_;
    std::unique_ptr<netlist::Netlist> netlist_;
};

/// Scale factors mapping simulator units onto the paper's absolute
/// reference: the static core at the nominal 1.2V processing 16M items
/// measured 1.22 s and 2.74 mJ.
struct PaperCalibration {
    double time_scale = 1;    ///< paper-seconds per sim-second
    double energy_scale = 1;  ///< paper-joules per sim-joule

    static constexpr double kReferenceTimeS = 1.22;
    static constexpr double kReferenceEnergyJ = 2.74e-3;
    static constexpr double kReferenceItems = 16e6;

    /// Derives the scales from a nominal-voltage measurement of the
    /// static core.
    static PaperCalibration from(const Measurement& static_nominal);
};

}  // namespace rap::chip
