#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "flow/design.hpp"
#include "flow/metrics.hpp"
#include "pipeline/builder.hpp"
#include "verify/spec.hpp"

namespace rap::flow {

namespace detail {
struct SweepState;
}

/// One point of a sweep's parameter grid, in stable grid order (stages
/// outermost, then depth).
struct SweepPoint {
    std::size_t index = 0;  ///< position in the expanded grid
    int stages = 0;
    int depth = 0;
    std::string label;  ///< "s4/d3"
};

enum class SweepStatus {
    kOk,         ///< verified (report may still be truncated by max_states)
    kInvalid,    ///< factory/options rejected the configuration
    kCancelled,  ///< Handle::cancel() hit before/while this config ran
};

std::string_view to_string(SweepStatus status);

/// One completed grid point, streamed through the on_result callback as
/// it finishes and collected (in grid order) by Handle::wait().
struct SweepResult {
    SweepPoint point;
    SweepStatus status = SweepStatus::kOk;
    std::string error;      ///< what() of the rejecting exception (kInvalid)
    /// Findings (kOk) and the pass's statistics. A kInvalid row whose
    /// pass died keeps its partial footprint; a row that ran no pass has
    /// all-zero figures.
    verify::Report report;
    std::size_t states = 0;           ///< states explored by the pass
    double verify_seconds = 0.0;      ///< wall time of the verification
};

/// Batch design-space sweep driver: the paper's verification flow as a
/// high-traffic workload. A fluent grid builder expands depth × stage
/// count into configurations, schedules one flow::Design session per
/// configuration over a worker pool, and streams SweepResult rows as they
/// complete:
///
///     auto results =
///         flow::Sweep::ope()                 // reconfigurable OPE factory
///             .stages({3, 4, 5})
///             .depths(1, 6)                  // invalid combos -> kInvalid
///             .workers(4)
///             .on_result([](const flow::SweepResult& r) { ... })
///             .run();
///
/// Scaling contract:
///
/// - **Dedup before compile.** Configurations are content-keyed
///   (verify::model_fingerprint); the verify::ArtifactCache
///   coalesces concurrent builds, so identical models reached through
///   different grid points (e.g. a factory that maps two grid points to
///   one model, or a repeated axis value) compile exactly once —
///   artifact_builds() grows by the number of *distinct* models, not
///   grid points.
/// - **Held artifacts.** Each worker's session owns its configuration's
///   compiled model while it runs, and the cache never evicts a model
///   that is still held, so a tight cache capacity cannot force a
///   rebuild under a running worker.
/// - **Bounded in-flight memory.** Each worker runs one configuration at
///   a time, so at most workers() sessions hold exploration state
///   simultaneously.
/// - **Bounded per configuration.** DesignOptions::verify.max_states
///   caps every pass, and a capped pass truncates at the same state on
///   every machine, so a row depends only on its configuration.
/// - **Cooperative cancellation.** Handle::cancel() stops new work and
///   interrupts running explorations through the engine's stop hook.
/// - **Largest first.** Workers claim configurations in descending
///   (stages, depth) order, ties in grid order, whatever order the axes
///   list their values in. A sweep ends no sooner than its slowest
///   pass, so that pass starts first rather than behind smaller ones.
///   Only the claim order changes: wait() still returns grid order.
///
/// Results arrive through on_result in completion order (never after
/// cancel() returns) and from Handle::wait() as one vector in stable
/// grid order.
class Sweep {
public:
    /// Builds the model of one configuration. Throwing (e.g. an invalid
    /// stages/depth combination) marks that grid point kInvalid with the
    /// exception's message — the validity gate of the grid.
    using Factory = std::function<pipeline::Pipeline(int stages, int depth)>;
    using ResultCallback = std::function<void(const SweepResult&)>;

    explicit Sweep(Factory factory, DesignOptions base = {});

    /// Sweep over the paper's reconfigurable OPE pipeline
    /// (ope::build_reconfigurable_ope_dfs as the factory; depths below
    /// ope::min_depth() or above the stage count come back kInvalid).
    static Sweep ope(DesignOptions base = {});

    // -- grid axes (empty axis = the base factory defaults below) -------

    /// Inclusive range; lo > hi throws and leaves the axis as it was.
    Sweep& depths(int lo, int hi);
    Sweep& depths(std::vector<int> values);
    Sweep& stages(std::vector<int> values);

    // -- per-configuration behaviour ------------------------------------

    /// Properties each configuration verifies (default Spec::standard()).
    Sweep& spec(verify::Spec value);
    /// Worker pool size; 0 (default) = one per hardware thread, capped
    /// at the grid size.
    Sweep& workers(std::size_t count);
    /// Streaming sink, invoked from worker threads (serialised — at most
    /// one callback at a time) as rows complete. The callback must not
    /// call back into the Handle (it runs under the sweep's result lock).
    Sweep& on_result(ResultCallback callback);

    /// The expanded grid in stable order, without running anything.
    std::vector<SweepPoint> grid() const;

    /// A launched sweep. Movable handle over shared state; the
    /// destructor waits for the pool (call cancel() first to end early)
    /// and drops the exception wait() would have rethrown.
    class Handle {
    public:
        Handle(Handle&&) noexcept = default;
        Handle& operator=(Handle&&) noexcept = default;
        Handle(const Handle&) = delete;
        Handle& operator=(const Handle&) = delete;
        ~Handle();

        /// Cooperative cancellation: no new configurations start,
        /// running explorations stop at their next poll, and once
        /// cancel() returns no further on_result callbacks fire. The
        /// pool still settles every grid point: ran, or cancelled before
        /// start. Points that did not finish report kCancelled.
        void cancel();
        bool cancelled() const;

        /// Grid points settled so far: ran, or cancelled before start.
        std::size_t done() const;
        std::size_t total() const;  ///< grid size

        /// Distinct model contents seen so far (the dedup denominator:
        /// artifact builds can never exceed this).
        std::size_t distinct_models() const;

        /// Scrapeable engine metrics snapshot: sweep progress (configs
        /// done/total, queue depth, in-flight), aggregate states/s and
        /// peak resident bytes, and the process artifact cache's
        /// hit/miss/eviction counters — render with
        /// metrics::to_prometheus().
        Metrics metrics() const;

        /// Joins the pool and returns a copy of every row in stable grid
        /// order, so metrics() afterwards still reads the rows' figures.
        /// Call at most once; the pool is joined either way. An exception
        /// that escaped a point or on_result settled that point and
        /// cancelled the sweep; wait() rethrows the first one.
        std::vector<SweepResult> wait();

    private:
        friend class Sweep;
        explicit Handle(std::shared_ptr<detail::SweepState> state);

        std::shared_ptr<detail::SweepState> state_;
    };

    /// Starts the worker pool and returns immediately.
    Handle launch();

    /// launch() + wait(): the whole grid, rows in stable grid order.
    std::vector<SweepResult> run();

private:
    Factory factory_;
    DesignOptions base_;
    verify::Spec spec_;
    std::vector<int> depths_{1};
    std::vector<int> stages_{1};
    std::size_t workers_ = 0;
    ResultCallback callback_;
};

}  // namespace rap::flow
