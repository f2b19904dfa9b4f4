#include "flow/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "flow/grid_pool.hpp"
#include "ope/dfs_models.hpp"
#include "util/rng.hpp"

namespace rap::flow {

namespace detail {

namespace {

/// FNV-1a over raw bytes — the campaign's reproducibility fingerprint.
/// Frozen: changing it invalidates every recorded campaign checksum.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv_bytes(h, &v, 8); }

void fnv_double(std::uint64_t& h, double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    fnv_u64(h, bits);
}

/// Seed-space tag separating per-point calibration from the per-run
/// streams (which use plain stream_seed(master, point * runs + run)).
constexpr std::uint64_t kCalibTag = 0x63616c6962ULL;  // "calib"

/// A run's simulated-time budget, as a multiple of its point's
/// calibrated fault-free run time; a run that exceeds it fails.
constexpr double kTimeBudgetFactor = 8.0;

/// A grid point whose runs fail at least this often sets the survival
/// knee; one that fails less often is a blip.
constexpr double kKneeMinFailureFraction = 0.05;

}  // namespace

/// Everything a running campaign shares between the launching thread,
/// the worker pool and the Handle. Owned by the Handle, which joins the
/// runner before letting go of it.
struct CampaignState {
    // -- immutable after launch -----------------------------------------
    Campaign::Factory factory;
    asim::FaultSpec faults;
    std::vector<CampaignPoint> grid;
    std::size_t runs = 1;
    std::uint64_t seed = 1;
    std::uint64_t items = 1;
    Campaign::RunCallback callback;

    // -- results (guarded by runner.mutex()) ------------------------------
    /// Slot per grid point, empty until a worker runs the point; the
    /// metrics snapshot's run figures are folded from the slots.
    std::vector<std::optional<CampaignAggregate>> rows;

    /// Last, so it is destroyed first: the workers are joined before the
    /// slots they write go away.
    GridPool runner;
};

namespace {

void fold_run(std::uint64_t& h, const CampaignRun& r) {
    fnv_u64(h, r.seed);
    fnv_u64(h, (r.completed ? 1u : 0u) | (r.deadlocked ? 2u : 0u) |
                   (r.frozen ? 4u : 0u) | (r.hazard ? 8u : 0u));
    fnv_double(h, r.time_s);
    fnv_double(h, r.energy_j);
    fnv_u64(h, r.items);
    fnv_u64(h, r.events);
    fnv_u64(h, r.faults.drops);
    fnv_u64(h, r.faults.duplicates);
    fnv_u64(h, r.faults.stuck_nodes);
    fnv_u64(h, r.glitches);
}

/// Streams one finished run row under the runner's mutex (callback
/// serialised, never after cancel()).
void publish_run(CampaignState& state, const CampaignRun& row) {
    const std::lock_guard<std::mutex> lock(state.runner.mutex());
    if (!state.runner.cancelled() && state.callback) state.callback(row);
}

/// Folds one finished run row into its point's aggregate, in run order,
/// and streams it.
void record_run(CampaignState& state, CampaignAggregate& agg,
                const CampaignRun& row) {
    if (row.completed) {
        ++agg.completed;
    } else if (row.deadlocked) {
        ++agg.deadlocks;
    } else if (row.frozen) {
        ++agg.frozen;
    }
    fold_run(agg.checksum, row);
    if (row.hazard) ++agg.hazards;
    agg.faults_injected += row.faults.injected();
    agg.glitch_windows += row.glitches;
    if (row.completed) {
        agg.mean_time_s += row.time_s;
        if (row.items > 0) {
            agg.mean_energy_per_item_j += row.energy_j / row.items;
        }
    }
    publish_run(state, row);
}

/// Runs one grid point start to finish: calibrate, then `runs` seeded
/// Monte-Carlo runs in run order. Never throws; a factory that throws or
/// returns an invalid model reports every run of the point as failed
/// with zero events.
CampaignAggregate process_point(CampaignState& state, std::size_t index) {
    const CampaignPoint& point = state.grid[index];
    CampaignAggregate agg;
    agg.point = point;
    agg.runs = state.runs;
    agg.checksum = kFnvOffset;

    const auto run_seed = [&](std::size_t r) {
        return util::stream_seed(state.seed, point.index * state.runs + r);
    };
    const auto make_row = [&](std::size_t r) {
        CampaignRun row;
        row.point = point.index;
        row.run = r;
        row.seed = run_seed(r);
        return row;
    };

    std::unique_ptr<Design> design;
    try {
        design = make_design(state.factory(point.depth));
        // Everything a run reads, built here so that an invalid model
        // fails this point instead of escaping to the pool.
        (void)design->dynamics();
        (void)design->timing();
    } catch (const std::exception&) {
        // Invalid depth or model for this factory: the whole point is a
        // failure band of the survival curve, deterministically.
        for (std::size_t r = 0; r < state.runs; ++r) {
            record_run(state, agg, make_row(r));
        }
        return agg;
    }

    const dfs::Graph& graph = design->graph();
    const dfs::Dynamics& dynamics = design->dynamics();
    const dfs::NodeId out = design->pipeline().out;
    // Guard rail against pathological fault configurations that never
    // reach the item target: generous, but finite.
    const std::uint64_t event_cap =
        std::max<std::uint64_t>(1, state.items) * graph.node_count() * 64;

    // Calibrate the point's fault-free run time at the nominal supply;
    // the per-run simulated-time budget scales it by the voltage's
    // speed factor.
    double nominal_s = 0.0;
    {
        asim::TimedSimulator sim = design->timed_sim();
        sim.set_seed(util::stream_seed(state.seed ^ kCalibTag, point.index));
        dfs::State s = dfs::State::initial(graph);
        asim::RunLimits limits;
        limits.target_marks = state.items;
        limits.observe = out;
        limits.max_events = event_cap;
        nominal_s = sim.run(s, limits).time_s;
    }
    const double sf = tech::speed_factor(point.voltage);
    const double budget_s =
        kTimeBudgetFactor * nominal_s / (sf > 0.0 ? sf : 1.0);

    const asim::FaultSpec spec = state.faults.scaled(point.fault_scale);
    const tech::VoltageSchedule base_schedule =
        tech::VoltageSchedule::constant(point.voltage);

    /// Simulates run `row.run` under its seed and fills in its results;
    /// returns whether that run read a seeded stream.
    const auto simulate = [&](CampaignRun& row) {
        const asim::GlitchedSchedule glitched = asim::splice_glitches(
            base_schedule, spec.glitch, row.seed, budget_s);
        row.glitches = glitched.glitches();

        asim::TimedSimulator sim = design->timed_sim(glitched.schedule);
        sim.set_seed(row.seed);
        sim.set_faults(spec);

        dfs::State s = dfs::State::initial(graph);
        asim::RunLimits limits;
        limits.target_marks = state.items;
        limits.observe = out;
        limits.max_events = event_cap;
        limits.max_time_s = budget_s;
        const asim::TimedStats stats = sim.run(s, limits);

        row.items = stats.marks_at(out);
        row.completed = row.items >= state.items;
        row.deadlocked = stats.deadlocked;
        row.frozen = stats.frozen;
        row.time_s = stats.time_s;
        row.energy_j = stats.total_energy_j();
        row.events = stats.events;
        row.faults = stats.faults;
        row.hazard = dynamics.control_conflict(s).has_value();
        return sim.depends_on_seed();
    };

    // When run 0 reads no seeded stream (no fault armed, no free-choice
    // control), every later run would repeat it bit for bit: each one
    // reports a copy of it under its own coordinates and seed.
    CampaignRun first = make_row(0);
    const bool seeded = simulate(first);
    record_run(state, agg, first);
    for (std::size_t r = 1; r < state.runs; ++r) {
        CampaignRun row;
        if (seeded) {
            row = make_row(r);
            simulate(row);
        } else {
            row = first;
            row.run = r;
            row.seed = run_seed(r);
        }
        record_run(state, agg, row);
    }

    if (agg.completed > 0) {
        agg.mean_time_s /= agg.completed;
        agg.mean_energy_per_item_j /= agg.completed;
    }
    agg.survival =
        agg.runs > 0 ? static_cast<double>(agg.completed) / agg.runs : 0.0;
    return agg;
}

Metrics build_metrics(CampaignState& state) {
    Metrics m;
    using Type = Metrics::Type;

    std::size_t done = 0;
    std::size_t in_flight = 0;
    std::size_t runs_done = 0;
    std::size_t failures = 0;
    std::size_t hazards = 0;
    std::uint64_t faults = 0;
    std::uint64_t glitches = 0;
    {
        const std::lock_guard<std::mutex> lock(state.runner.mutex());
        done = state.runner.done();
        in_flight = state.runner.in_flight();
        for (const std::optional<CampaignAggregate>& slot : state.rows) {
            if (!slot) continue;  // not settled, or cancelled before start
            runs_done += slot->runs;
            failures += slot->runs - slot->completed;
            hazards += slot->hazards;
            faults += slot->faults_injected;
            glitches += slot->glitch_windows;
        }
    }

    m.set("rap_mc_points_total", "Grid points in the campaign",
          Type::kGauge, static_cast<double>(state.grid.size()));
    m.set("rap_mc_points_done", "Grid points completed so far",
          Type::kGauge, static_cast<double>(done));
    m.set("rap_mc_in_flight", "Grid points simulating right now",
          Type::kGauge, static_cast<double>(in_flight));
    m.set("rap_mc_cancelled", "1 once Handle::cancel() was called",
          Type::kGauge, state.runner.cancelled() ? 1.0 : 0.0);
    m.set("rap_mc_runs_total", "Monte-Carlo runs the grid will execute",
          Type::kGauge,
          static_cast<double>(state.grid.size() * state.runs));
    m.set("rap_mc_runs_done", "Monte-Carlo runs of the points settled so far",
          Type::kCounter, static_cast<double>(runs_done));
    m.set("rap_mc_failures_total",
          "Runs that missed the item target (deadlock, freeze or budget)",
          Type::kCounter, static_cast<double>(failures));
    m.set("rap_mc_hazards_total",
          "Runs ending in a control-token conflict", Type::kCounter,
          static_cast<double>(hazards));
    m.set("rap_mc_faults_injected_total",
          "Event faults injected across all runs (drops, duplicates, "
          "stuck-ats)",
          Type::kCounter, static_cast<double>(faults));
    m.set("rap_mc_glitch_windows_total",
          "Supply-droop windows realised across all runs", Type::kCounter,
          static_cast<double>(glitches));
    m.set("rap_mc_survival",
          "Completed / executed runs so far", Type::kGauge,
          runs_done > 0
              ? static_cast<double>(runs_done - failures) / runs_done
              : 0.0);
    return m;
}

CampaignSummary build_summary(CampaignState& state) {
    CampaignSummary summary;
    summary.checksum = kFnvOffset;
    for (const std::optional<CampaignAggregate>& slot : state.rows) {
        if (!slot) continue;  // cancelled before start
        const CampaignAggregate& row = *slot;
        summary.runs_total += row.runs;
        summary.completed_total += row.completed;
        summary.hazards_total += row.hazards;
        if (row.completed < row.runs) {
            const double failure_fraction =
                row.runs > 0
                    ? static_cast<double>(row.runs - row.completed) /
                          static_cast<double>(row.runs)
                    : 0.0;
            if (failure_fraction >= kKneeMinFailureFraction) {
                if (!summary.first_failure_voltage ||
                    row.point.voltage > *summary.first_failure_voltage) {
                    summary.first_failure_voltage = row.point.voltage;
                }
            } else {
                // A statistical blip: failures happened, but too few to
                // call this voltage the knee. Reported separately so the
                // signal is not lost.
                ++summary.blip_points;
                if (!summary.highest_blip_voltage ||
                    row.point.voltage > *summary.highest_blip_voltage) {
                    summary.highest_blip_voltage = row.point.voltage;
                }
            }
        }
        fnv_u64(summary.checksum, row.checksum);
        summary.rows.push_back(row);
    }
    return summary;
}

}  // namespace
}  // namespace detail

// -- Campaign (builder) --------------------------------------------------

Campaign::Campaign(Factory factory)
    : factory_(std::move(factory)), voltages_{tech::kNominalV} {
    if (!factory_) {
        throw std::invalid_argument(
            "flow::Campaign: the model factory must be callable");
    }
}

Campaign Campaign::ope(int stages) {
    return Campaign([stages](int depth) {
        return ope::build_reconfigurable_ope_dfs(stages, depth);
    });
}

Campaign& Campaign::voltages(std::vector<double> values) {
    if (values.empty()) {
        throw std::invalid_argument("flow::Campaign: empty voltage axis");
    }
    for (const double voltage : values) {
        if (!(voltage >= 0.0) || std::isinf(voltage)) {
            throw std::invalid_argument(
                "flow::Campaign: voltages must be finite and non-negative");
        }
    }
    voltages_ = std::move(values);
    return *this;
}

Campaign& Campaign::fault_scales(std::vector<double> values) {
    if (values.empty()) {
        throw std::invalid_argument(
            "flow::Campaign: empty fault-scale axis");
    }
    for (const double scale : values) {
        if (!(scale >= 0.0) || std::isinf(scale)) {
            throw std::invalid_argument(
                "flow::Campaign: fault scales must be finite and "
                "non-negative");
        }
        (void)faults_.scaled(scale);  // throws if the product overflows
    }
    fault_scales_ = std::move(values);
    return *this;
}

Campaign& Campaign::depths(std::vector<int> values) {
    if (values.empty()) {
        throw std::invalid_argument("flow::Campaign: empty depth axis");
    }
    depths_ = std::move(values);
    return *this;
}

Campaign& Campaign::base_faults(asim::FaultSpec spec) {
    asim::validate_glitch(spec.glitch);
    for (const double scale : fault_scales_) (void)spec.scaled(scale);
    faults_ = spec;
    return *this;
}

Campaign& Campaign::runs(std::size_t per_point) {
    if (per_point == 0) {
        throw std::invalid_argument(
            "flow::Campaign: need at least one run per point");
    }
    runs_ = per_point;
    return *this;
}

Campaign& Campaign::seed(std::uint64_t master) {
    seed_ = master;
    return *this;
}

Campaign& Campaign::items(std::uint64_t count) {
    if (count == 0) {
        throw std::invalid_argument(
            "flow::Campaign: need at least one item per run");
    }
    items_ = count;
    return *this;
}

Campaign& Campaign::workers(std::size_t count) {
    workers_ = count;
    return *this;
}

Campaign& Campaign::on_run(RunCallback callback) {
    callback_ = std::move(callback);
    return *this;
}

std::vector<CampaignPoint> Campaign::grid() const {
    std::vector<CampaignPoint> points;
    points.reserve(depths_.size() * fault_scales_.size() *
                   voltages_.size());
    char label[64];
    for (const int depth : depths_) {
        for (const double scale : fault_scales_) {
            for (const double voltage : voltages_) {
                std::snprintf(label, sizeof(label), "d%d/f%.2f/v%.2f",
                              depth, scale, voltage);
                points.push_back(CampaignPoint{points.size(), depth, scale,
                                               voltage, label});
            }
        }
    }
    return points;
}

// -- Campaign::Handle ----------------------------------------------------

Campaign::Handle::Handle(std::shared_ptr<detail::CampaignState> state)
    : state_(std::move(state)) {}

Campaign::Handle::~Handle() {
    if (state_) state_->runner.join();
}

void Campaign::Handle::cancel() { state_->runner.cancel(); }

bool Campaign::Handle::cancelled() const {
    return state_->runner.cancelled();
}

std::size_t Campaign::Handle::done() const {
    return state_->runner.done();
}

std::size_t Campaign::Handle::total() const {
    return state_->runner.total();
}

Metrics Campaign::Handle::metrics() const {
    return detail::build_metrics(*state_);
}

CampaignSummary Campaign::Handle::wait() {
    state_->runner.wait();
    return detail::build_summary(*state_);
}

// -- launch --------------------------------------------------------------

Campaign::Handle Campaign::launch() {
    auto state = std::make_shared<detail::CampaignState>();
    state->factory = factory_;
    state->faults = faults_;
    state->grid = grid();
    state->runs = runs_;
    state->seed = seed_;
    state->items = items_;
    state->callback = callback_;

    state->rows.resize(state->grid.size());

    // Points are claimed in grid order. A seed-independent point costs
    // one run. The seed-dependent ones dominate and lie within 2x of
    // each other (14-27 ms each on one worker, best of 5, over
    // perfbench's mc_campaign grid at fault scales 1 and 4), so no claim
    // order shortens a campaign by much.
    std::vector<std::size_t> order(state->grid.size());
    std::iota(order.begin(), order.end(), std::size_t{0});

    detail::CampaignState* st = state.get();
    st->runner.start(
        std::move(order), workers_,
        [st](std::size_t i) { return detail::process_point(*st, i); },
        [st](std::size_t i, CampaignAggregate row) {
            st->rows[i] = std::move(row);
        });
    return Handle(std::move(state));
}

CampaignSummary Campaign::run() { return launch().wait(); }

}  // namespace rap::flow
