#include "flow/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "flow/grid_pool.hpp"
#include "ope/dfs_models.hpp"
#include "verify/cache.hpp"

namespace rap::flow {

std::string_view to_string(SweepStatus status) {
    switch (status) {
        case SweepStatus::kOk: return "ok";
        case SweepStatus::kInvalid: return "invalid";
        case SweepStatus::kCancelled: return "cancelled";
    }
    return "?";
}

namespace detail {

/// Everything a running sweep shares between the launching thread, the
/// worker pool and the Handle. Owned by the Handle, which joins the
/// runner before letting go of it.
struct SweepState {
    // -- immutable after launch -----------------------------------------
    Sweep::Factory factory;
    DesignOptions base;
    verify::Spec spec;
    Sweep::ResultCallback callback;
    /// Cache counters at launch, so the metrics snapshot can attribute
    /// hit-rate to this sweep rather than the whole process lifetime.
    verify::CacheStats cache_before;

    // -- results (guarded by runner.mutex()) ------------------------------
    /// Slot per grid point; the metrics snapshot's figures are folded
    /// from the slots, so a slot no pass has filled (its launch-time
    /// kCancelled row, all figures zero) adds nothing.
    std::vector<SweepResult> results;
    std::unordered_set<std::string> distinct;  ///< model fingerprints

    /// Last, so it is destroyed first: the workers are joined before the
    /// slots they write go away.
    GridPool runner;
};

namespace {

/// Runs one grid point start to finish, from the point in its
/// launch-time slot (no other worker touches that slot, so it is read
/// without the lock). Never throws: every failure mode maps to a row
/// status.
SweepResult process_point(SweepState& state, std::size_t index) {
    SweepResult row = state.results[index];
    const SweepPoint& point = row.point;

    std::optional<pipeline::Pipeline> model;
    try {
        model.emplace(state.factory(point.stages, point.depth));
    } catch (const std::exception& e) {
        row.status = SweepStatus::kInvalid;
        row.error = e.what();
        return row;
    }

    // Dedup bookkeeping. The session below resolves the model through
    // the artifact cache, which coalesces concurrent builds of the same
    // content and never evicts a model the session still holds.
    const std::string key = verify::model_fingerprint(model->graph);
    {
        const std::lock_guard<std::mutex> lock(state.runner.mutex());
        state.distinct.insert(key);
    }

    DesignOptions options = state.base;
    const std::function<bool()> user_stop = options.verify.stop;
    options.verify.stop = [&state, user_stop] {
        return state.runner.cancelled() || (user_stop && user_stop());
    };

    try {
        const auto design = make_design(std::move(*model), options);

        using Clock = std::chrono::steady_clock;
        const auto t0 = Clock::now();
        row.report = design->verify(state.spec);
        row.verify_seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        for (const auto& finding : row.report.findings) {
            row.states = std::max(row.states, finding.states_explored);
        }
        row.status = state.runner.cancelled() ? SweepStatus::kCancelled
                                              : SweepStatus::kOk;
    } catch (const petri::ExplorationAborted& e) {
        // A pass that died mid-exploration still interned real states.
        row.status = SweepStatus::kInvalid;
        row.error = e.what();
        row.report.memory = e.memory;
    } catch (const std::exception& e) {
        row.status = SweepStatus::kInvalid;
        row.error = e.what();
    }
    return row;
}

/// Stores a finished row in its slot and streams it. Runs under
/// runner.mutex().
void publish_row(SweepState& state, std::size_t index, SweepResult row) {
    state.results[index] = std::move(row);
    if (!state.runner.cancelled() && state.callback) {
        state.callback(state.results[index]);
    }
}

Metrics build_metrics(SweepState& state) {
    Metrics m;
    using Type = Metrics::Type;

    std::size_t done = 0;
    std::size_t in_flight = 0;
    std::size_t distinct = 0;
    std::size_t states_total = 0;
    double verify_seconds = 0.0;
    std::size_t peak = 0;
    // Marking-store shape of the exploration that owns `peak` (on a tie,
    // the later row in grid order) — the rap_store_* gauges describe the
    // sweep's biggest state space, the one capacity planning cares about.
    std::optional<petri::StoreStats> peak_store;
    std::size_t por_active = 0;
    std::size_t por_enabled = 0;
    std::size_t por_expanded = 0;
    {
        const std::lock_guard<std::mutex> lock(state.runner.mutex());
        done = state.runner.done();
        in_flight = state.runner.in_flight();
        distinct = state.distinct.size();
        for (const SweepResult& row : state.results) {
            states_total += row.states;
            verify_seconds += row.verify_seconds;
            const petri::MemoryStats& memory = row.report.memory;
            // Zero records: the row ran no pass.
            if (memory.store.records > 0 && memory.peak_bytes >= peak) {
                peak = memory.peak_bytes;
                peak_store = memory.store;
            }
            const petri::PorStats& por = row.report.por;
            if (por.active) {
                ++por_active;
                por_enabled += por.enabled_transitions;
                por_expanded += por.expanded_transitions;
            }
        }
    }
    const std::size_t total = state.runner.total();
    const std::size_t queued = total - std::min(total, done + in_flight);

    m.set("rap_sweep_configs_total",
          "Grid points in the sweep", Type::kGauge,
          static_cast<double>(total));
    m.set("rap_sweep_configs_done",
          "Grid points completed so far", Type::kGauge,
          static_cast<double>(done));
    m.set("rap_sweep_queue_depth",
          "Grid points neither done nor running", Type::kGauge,
          static_cast<double>(queued));
    m.set("rap_sweep_in_flight",
          "Configurations holding exploration state right now",
          Type::kGauge, static_cast<double>(in_flight));
    m.set("rap_sweep_cancelled",
          "1 once Handle::cancel() was called", Type::kGauge,
          state.runner.cancelled() ? 1.0 : 0.0);
    m.set("rap_sweep_distinct_models",
          "Distinct model contents seen (the dedup denominator)",
          Type::kGauge, static_cast<double>(distinct));
    m.set("rap_sweep_states_total",
          "States explored across all completed configurations",
          Type::kCounter, static_cast<double>(states_total));
    m.set("rap_sweep_verify_seconds_total",
          "Wall seconds spent verifying across all configurations",
          Type::kCounter, verify_seconds);
    m.set("rap_sweep_states_per_second",
          "Aggregate verification throughput", Type::kGauge,
          verify_seconds > 0.0
              ? static_cast<double>(states_total) / verify_seconds
              : 0.0);
    m.set("rap_sweep_peak_resident_bytes",
          "Largest single-exploration resident footprint seen",
          Type::kGauge, static_cast<double>(peak));

    // Marking-store shape of the peak-resident exploration — the
    // capacity-tier surface (table vs arena split, load factor).
    if (peak_store) {
        m.set("rap_store_slots",
              "Hash-table slots of the peak-resident exploration's store",
              Type::kGauge, static_cast<double>(peak_store->slots));
        m.set("rap_store_load_factor",
              "Records / slots of the peak-resident exploration's store",
              Type::kGauge, peak_store->load_factor());
        m.set("rap_store_table_bytes",
              "Hash-table bytes of the peak-resident exploration's store",
              Type::kGauge, static_cast<double>(peak_store->table_bytes));
        m.set("rap_store_arena_bytes",
              "Record-arena bytes of the peak-resident exploration's store",
              Type::kGauge, static_cast<double>(peak_store->arena_bytes));
    }

    // Partial-order reduction aggregates across completed rows. The
    // ratio compares transition-expansion work, the quantity reduction
    // actually saves (state counts are a second-order consequence).
    m.set("rap_por_active_configs",
          "Completed configurations whose pass ran with reduction",
          Type::kGauge, static_cast<double>(por_active));
    m.set("rap_por_enabled_transitions_total",
          "Enabled transitions across expanded states (full-exploration "
          "work)",
          Type::kCounter, static_cast<double>(por_enabled));
    m.set("rap_por_expanded_transitions_total",
          "Transitions actually expanded under reduction",
          Type::kCounter, static_cast<double>(por_expanded));
    m.set("rap_por_ignored_transitions_total",
          "Enabled transitions skipped thanks to reduction",
          Type::kCounter,
          static_cast<double>(por_enabled -
                              std::min(por_enabled, por_expanded)));
    m.set("rap_por_reduction_ratio",
          "Enabled / expanded transition work across reduced passes",
          Type::kGauge,
          por_expanded > 0
              ? static_cast<double>(por_enabled) /
                    static_cast<double>(por_expanded)
              : 0.0);

    // Process artifact-cache counters, as deltas since launch so the
    // exposition describes THIS sweep's traffic.
    const verify::CacheStats now = verify::cache_stats();
    const verify::CacheStats& before = state.cache_before;
    const auto delta = [](std::size_t a, std::size_t b) {
        return static_cast<double>(a - std::min(a, b));
    };
    const double hits = delta(now.hits, before.hits);
    const double misses = delta(now.misses, before.misses);
    m.set("rap_cache_hits_total",
          "Artifact cache hits since the sweep launched", Type::kCounter, hits);
    m.set("rap_cache_misses_total",
          "Artifact cache misses (= builds) since the sweep launched",
          Type::kCounter, misses);
    m.set("rap_cache_evictions_total",
          "Artifact cache LRU evictions since the sweep launched",
          Type::kCounter, delta(now.evictions, before.evictions));
    m.set("rap_cache_hit_rate",
          "Hits / lookups of the artifact cache since the sweep launched",
          Type::kGauge,
          hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
    m.set("rap_cache_entries", "Artifacts resident in the cache",
          Type::kGauge, static_cast<double>(now.entries));
    m.set("rap_cache_resident_bytes",
          "Approximate bytes held by cached artifacts", Type::kGauge,
          static_cast<double>(now.bytes));
    m.set("rap_cache_capacity_bytes", "Artifact cache byte capacity",
          Type::kGauge, static_cast<double>(now.capacity_bytes));
    m.set("rap_cache_pinned",
          "Artifacts held by live sessions or building, so never evicted",
          Type::kGauge, static_cast<double>(now.pinned));
    return m;
}

}  // namespace
}  // namespace detail

// -- Sweep (builder) -----------------------------------------------------

Sweep::Sweep(Factory factory, DesignOptions base)
    : factory_(std::move(factory)),
      base_(std::move(base)),
      spec_(verify::Spec::standard()) {
    if (!factory_) {
        throw std::invalid_argument(
            "flow::Sweep: the model factory must be callable");
    }
    validate_options(base_);
    // Sweeps verify with partial-order reduction: verdicts are preserved
    // and every configuration explores a smaller graph.
    base_.verify.por = true;
}

Sweep Sweep::ope(DesignOptions base) {
    return Sweep(
        [](int stages, int depth) {
            return ope::build_reconfigurable_ope_dfs(stages, depth);
        },
        std::move(base));
}

Sweep& Sweep::depths(int lo, int hi) {
    if (lo > hi) {
        throw std::invalid_argument("flow::Sweep: empty depth range");
    }
    // Stops at hi before incrementing, so hi == INT_MAX cannot overflow.
    std::vector<int> values;
    for (int d = lo;; ++d) {
        values.push_back(d);
        if (d == hi) break;
    }
    depths_ = std::move(values);
    return *this;
}

Sweep& Sweep::depths(std::vector<int> values) {
    if (values.empty()) {
        throw std::invalid_argument("flow::Sweep: empty depth axis");
    }
    depths_ = std::move(values);
    return *this;
}

Sweep& Sweep::stages(std::vector<int> values) {
    if (values.empty()) {
        throw std::invalid_argument("flow::Sweep: empty stage axis");
    }
    stages_ = std::move(values);
    return *this;
}

Sweep& Sweep::spec(verify::Spec value) {
    spec_ = std::move(value);
    return *this;
}

Sweep& Sweep::workers(std::size_t count) {
    workers_ = count;
    return *this;
}

Sweep& Sweep::on_result(ResultCallback callback) {
    callback_ = std::move(callback);
    return *this;
}

std::vector<SweepPoint> Sweep::grid() const {
    std::vector<SweepPoint> points;
    points.reserve(stages_.size() * depths_.size());
    char label[64];
    for (const int stages : stages_) {
        for (const int depth : depths_) {
            std::snprintf(label, sizeof(label), "s%d/d%d", stages, depth);
            points.push_back(SweepPoint{points.size(), stages, depth, label});
        }
    }
    return points;
}

// -- Sweep::Handle -------------------------------------------------------

Sweep::Handle::Handle(std::shared_ptr<detail::SweepState> state)
    : state_(std::move(state)) {}

Sweep::Handle::~Handle() {
    if (state_) state_->runner.join();
}

void Sweep::Handle::cancel() { state_->runner.cancel(); }

bool Sweep::Handle::cancelled() const {
    return state_->runner.cancelled();
}

std::size_t Sweep::Handle::done() const { return state_->runner.done(); }

std::size_t Sweep::Handle::total() const {
    return state_->runner.total();
}

std::size_t Sweep::Handle::distinct_models() const {
    const std::lock_guard<std::mutex> lock(state_->runner.mutex());
    return state_->distinct.size();
}

Metrics Sweep::Handle::metrics() const {
    return detail::build_metrics(*state_);
}

std::vector<SweepResult> Sweep::Handle::wait() {
    state_->runner.wait();
    return state_->results;
}

// -- launch --------------------------------------------------------------

Sweep::Handle Sweep::launch() {
    auto state = std::make_shared<detail::SweepState>();
    state->factory = factory_;
    state->base = base_;
    state->spec = spec_;
    state->callback = callback_;
    state->cache_before = verify::cache_stats();

    // Every slot starts as its point's kCancelled row; a worker
    // overwrites the slot of each point it runs.
    for (SweepPoint& point : grid()) {
        SweepResult& row = state->results.emplace_back();
        row.status = SweepStatus::kCancelled;
        row.point = std::move(point);
    }

    // Largest configuration first: a sweep ends no sooner than its
    // slowest pass, so that pass must not start behind smaller ones.
    // Ties keep grid order.
    std::vector<std::size_t> order(state->results.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto larger = [&](std::size_t a, std::size_t b) {
        const SweepPoint& pa = state->results[a].point;
        const SweepPoint& pb = state->results[b].point;
        return std::pair(pa.stages, pa.depth) > std::pair(pb.stages, pb.depth);
    };
    std::stable_sort(order.begin(), order.end(), larger);

    detail::SweepState* st = state.get();
    st->runner.start(
        std::move(order), workers_,
        [st](std::size_t i) { return detail::process_point(*st, i); },
        [st](std::size_t i, SweepResult row) {
            detail::publish_row(*st, i, std::move(row));
        });
    return Handle(std::move(state));
}

std::vector<SweepResult> Sweep::run() { return launch().wait(); }

}  // namespace rap::flow
