#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asim/faults.hpp"
#include "flow/design.hpp"
#include "flow/metrics.hpp"
#include "pipeline/builder.hpp"

namespace rap::flow {

namespace detail {
struct CampaignState;
}

/// One point of a campaign's parameter grid, in stable grid order
/// (depth outermost, then fault scale, then voltage).
struct CampaignPoint {
    std::size_t index = 0;     ///< position in the expanded grid
    int depth = 0;             ///< reconfiguration depth (factory input)
    double fault_scale = 1.0;  ///< multiplier on the base FaultSpec
    double voltage = 0.0;      ///< constant supply voltage [V]
    std::string label;         ///< "d3/f1.50/v0.84"
};

/// One seeded Monte-Carlo run, streamed through on_run as it completes.
/// Bit-reproducible: every field is a pure function of (model content,
/// options, master seed, point index, run index) — never of scheduling.
struct CampaignRun {
    std::size_t point = 0;  ///< CampaignPoint::index
    std::size_t run = 0;    ///< run index within the point
    std::uint64_t seed = 0; ///< the run's derived master seed
    bool completed = false; ///< pushed the full item budget through
    bool deadlocked = false;
    bool frozen = false;    ///< supply never recovered above freeze
    /// The run ended in a control-token conflict (the Section II-B
    /// "disabled node" hazard) — fault injection broke a handshake. To
    /// confirm one on the Petri net, rerun its seed with
    /// TimedSimulator::enable_event_trace and pass the log to
    /// verify::replay_events_on_net.
    bool hazard = false;
    double time_s = 0.0;
    double energy_j = 0.0;       ///< dynamic + leakage
    std::uint64_t items = 0;     ///< tokens latched at the output
    std::uint64_t events = 0;
    asim::FaultCounts faults;    ///< faults actually injected
    std::size_t glitches = 0;    ///< supply-droop windows realised
};

/// Survival statistics of one grid point over all its runs.
struct CampaignAggregate {
    CampaignPoint point;
    std::size_t runs = 0;
    std::size_t completed = 0;
    std::size_t deadlocks = 0;
    std::size_t frozen = 0;
    std::size_t hazards = 0;
    std::uint64_t faults_injected = 0;
    std::uint64_t glitch_windows = 0;
    double survival = 0.0;  ///< completed / runs
    /// Means over *completed* runs (0 when none survived).
    double mean_time_s = 0.0;
    double mean_energy_per_item_j = 0.0;
    /// FNV-1a over every run's raw result bits, in run order — the
    /// reproducibility fingerprint (identical across worker counts).
    std::uint64_t checksum = 0;
};

/// The whole campaign: per-point aggregates in stable grid order plus
/// the campaign-level survival summary.
struct CampaignSummary {
    std::vector<CampaignAggregate> rows;
    std::size_t runs_total = 0;
    std::size_t completed_total = 0;
    std::size_t hazards_total = 0;
    /// Highest supply voltage at which a grid point's failure fraction
    /// reached 5% (the top of the survival curve's knee); nullopt when
    /// no point failed that decisively. Points with fewer failures are
    /// statistical blips — a single flaky run out of hundreds at nominal
    /// must not drag the knee to the top of the voltage axis — and are
    /// reported through highest_blip_voltage instead.
    std::optional<double> first_failure_voltage;
    /// Highest supply voltage at which some runs failed but the point's
    /// failure fraction stayed *below* 5% — the blips the knee
    /// deliberately ignores; nullopt when there were none.
    std::optional<double> highest_blip_voltage;
    /// Grid points counted as blips (failures below 5% of their runs).
    std::size_t blip_points = 0;
    /// FNV-1a over the row checksums in grid order — one number that
    /// must match across reruns with the same master seed.
    std::uint64_t checksum = 0;

    double survival() const {
        return runs_total > 0
                   ? static_cast<double>(completed_total) / runs_total
                   : 0.0;
    }
};

/// Seeded fault-injection Monte-Carlo harness over the timed simulator —
/// flow::Sweep's sibling for the measurement bench instead of the model
/// checker. A fluent grid of depth × fault scale × supply voltage fans
/// out to `runs()` seeded timed-sim runs per point over a worker pool,
/// streaming CampaignRun rows and aggregating survival curves. Each point
/// is a default flow::Design in the one tech:: process and NCL-D
/// library; a campaign never verifies, so it takes no DesignOptions:
///
///     auto summary =
///         flow::Campaign::ope(4)            // 4-stage reconfigurable OPE
///             .voltages({1.2, 0.9, 0.6, 0.45})
///             .fault_scales({0.0, 1.0, 4.0})
///             .base_faults(spec)
///             .runs(200)
///             .seed(2024)
///             .run();
///
/// ## Reproducibility contract
///
/// Every run's seed derives from the master seed and the run's (point,
/// run) coordinates alone (util::stream_seed), runs of one point execute
/// sequentially on whichever worker claimed the point, and aggregates
/// are folded in run order — so the full result set, including every
/// checksum, is bit-identical for a given master seed at ANY worker
/// count. The checksums exist to let CI assert exactly that.
///
/// A point that no seed can change simulates once. When
/// asim::TimedSimulator::depends_on_seed() is false for its first run
/// (no fault armed at the point's scale, no free-choice control in its
/// model), every run reports that result under its own run index and
/// seed: the rows and checksums that simulating each run would give.
class Campaign {
public:
    /// Builds the model at one reconfiguration depth. Throwing, or
    /// returning a model that fails dfs::Graph::ensure_valid, marks
    /// every grid point of that depth kInvalid-like: its runs all report
    /// as failed with zero events.
    using Factory = std::function<pipeline::Pipeline(int depth)>;
    using RunCallback = std::function<void(const CampaignRun&)>;

    explicit Campaign(Factory factory);

    /// Campaign over the paper's reconfigurable OPE pipeline with the
    /// given stage count.
    static Campaign ope(int stages);

    // -- grid axes (defaults: tech::kNominalV, scale 1, depth 1) ---------

    /// Each voltage must be finite and non-negative (a NaN, infinite or
    /// negative one throws std::invalid_argument); 0V is an unpowered
    /// point.
    Campaign& voltages(std::vector<double> values);
    /// Each scale must be finite and non-negative (a negative, NaN or
    /// infinite one throws std::invalid_argument), and so must its product
    /// with the current base_faults (FaultSpec::scaled). On a throw the
    /// campaign is unchanged.
    Campaign& fault_scales(std::vector<double> values);
    Campaign& depths(std::vector<int> values);

    // -- behaviour -------------------------------------------------------

    /// The fault intensities at scale 1.0 (each point applies
    /// spec.scaled(point.fault_scale)). An active glitch spec whose
    /// duration window splice_glitches would refuse throws
    /// std::invalid_argument here (asim::validate_glitch), and so does a
    /// spec that one of the current fault scales overflows. On a throw
    /// the campaign is unchanged.
    Campaign& base_faults(asim::FaultSpec spec);
    /// Seeded runs per grid point (default 32).
    Campaign& runs(std::size_t per_point);
    /// Master seed of the whole campaign (default 1).
    Campaign& seed(std::uint64_t master);
    /// Tokens each run pushes through the pipeline output (default 32).
    /// A run that has not pushed them within 8x the point's calibrated
    /// fault-free run time (voltage-compensated) counts as a failure.
    Campaign& items(std::uint64_t count);
    /// Worker pool size; 0 (default) = one per hardware thread, capped
    /// at the grid size. Never affects results.
    Campaign& workers(std::size_t count);
    /// Streaming sink for per-run rows, invoked from worker threads
    /// (serialised). Rows of one point arrive in run order; must not
    /// call back into the Handle.
    Campaign& on_run(RunCallback callback);

    /// The expanded grid in stable order, without running anything.
    std::vector<CampaignPoint> grid() const;

    /// A launched campaign. Movable handle over shared state; the
    /// destructor waits for the pool (call cancel() first to end early)
    /// and drops the exception wait() would have rethrown.
    class Handle {
    public:
        Handle(Handle&&) noexcept = default;
        Handle& operator=(Handle&&) noexcept = default;
        Handle(const Handle&) = delete;
        Handle& operator=(const Handle&) = delete;
        ~Handle();

        /// Cooperative cancellation: no new point starts, a running
        /// point finishes its runs, and once cancel() returns no further
        /// on_run callbacks fire. The pool still settles every grid
        /// point: ran, or cancelled before start. The summary only
        /// aggregates points that ran (its checksum is then NOT
        /// comparable to a full run's).
        void cancel();
        bool cancelled() const;

        /// Grid points settled so far: ran, or cancelled before start.
        std::size_t done() const;
        std::size_t total() const;  ///< grid size

        /// Scrapeable rap_mc_* metrics snapshot (campaign progress, run
        /// and failure counters) — render with metrics::to_prometheus().
        /// The run figures fold the points settled so far, so they move
        /// a whole point's runs at a time.
        Metrics metrics() const;

        /// Joins the pool and returns the aggregated summary. Call at
        /// most once; the pool is joined either way. An exception that
        /// escaped a point or on_run settled that point and cancelled
        /// the campaign; wait() rethrows the first one.
        CampaignSummary wait();

    private:
        friend class Campaign;
        explicit Handle(std::shared_ptr<detail::CampaignState> state);

        std::shared_ptr<detail::CampaignState> state_;
    };

    /// Starts the worker pool and returns immediately.
    Handle launch();

    /// launch() + wait().
    CampaignSummary run();

private:
    Factory factory_;
    asim::FaultSpec faults_;
    std::vector<double> voltages_;
    std::vector<double> fault_scales_{1.0};
    std::vector<int> depths_{1};
    std::size_t runs_ = 32;
    std::uint64_t seed_ = 1;
    std::uint64_t items_ = 32;
    std::size_t workers_ = 0;
    RunCallback callback_;
};

}  // namespace rap::flow
