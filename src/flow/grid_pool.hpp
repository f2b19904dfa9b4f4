#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace rap::flow::detail {

/// The worker pool under flow::Sweep and flow::Campaign. Workers claim
/// grid points in the caller's claim order, one counter stepping through
/// that permutation of the point indices. One mutex guards the
/// pool's counters and cancel flag, and the result slots and aggregates
/// of the Sweep or Campaign too. One cancel rule holds for both: after
/// cancel() no point body starts, and a point that had not started is
/// settled without running — it counts in done(), fires no callback and
/// keeps its launch-time slot. cancel() takes mutex() and callbacks test
/// cancelled() under it, so none fires after cancel() returns. One
/// failure rule holds for both too: an exception that escapes a point
/// body or a publish step (a throwing callback) settles that point and
/// cancels the grid; the first one is kept and wait() rethrows it on the
/// caller's thread after the join. join() alone, as a Handle destroyed
/// without wait() does, drops it.
class GridPool {
public:
    GridPool() = default;
    GridPool(const GridPool&) = delete;  // workers hold its address
    GridPool& operator=(const GridPool&) = delete;
    ~GridPool() { join(); }

    /// Starts the workers over the grid points in `order`, a permutation
    /// of the point indices that workers claim front to back; `workers`
    /// 0 means one per hardware thread, capped at the point count.
    /// run(i) executes point i outside the lock; publish(i, result) stores
    /// its result under mutex() in the step that settles the point.
    template <typename Run, typename Publish>
    void start(std::vector<std::size_t> order, std::size_t workers, Run run,
               Publish publish) {
        order_ = std::move(order);
        if (workers == 0) {
            workers = std::max(1u, std::thread::hardware_concurrency());
        }
        workers = std::max<std::size_t>(1, std::min(workers, total()));
        threads_.reserve(workers);
        for (std::size_t i = 0; i < workers; ++i) {
            threads_.emplace_back([this, run, publish]() mutable {
                for (;;) {
                    const std::size_t claim =
                        next_.fetch_add(1, std::memory_order_relaxed);
                    if (claim >= total()) return;
                    const std::size_t index = order_[claim];
                    {
                        const std::lock_guard<std::mutex> lock(mutex_);
                        if (cancelled()) {
                            ++done_;
                            continue;
                        }
                        ++in_flight_;
                    }
                    try {
                        auto result = run(index);
                        const std::lock_guard<std::mutex> lock(mutex_);
                        publish(index, std::move(result));
                        settle();
                    } catch (...) {
                        const std::lock_guard<std::mutex> lock(mutex_);
                        settle();
                        if (!error_) error_ = std::current_exception();
                        cancelled_.store(true, std::memory_order_relaxed);
                    }
                }
            });
        }
    }

    /// Waits for every worker. Idempotent.
    void join() {
        for (std::thread& worker : threads_) {
            if (worker.joinable()) worker.join();
        }
    }

    /// join(), then rethrows the first exception a point body or publish
    /// step threw, if any.
    void wait() {
        join();
        if (error_) std::rethrow_exception(error_);
    }

    void cancel() {
        const std::lock_guard<std::mutex> lock(mutex_);
        cancelled_.store(true, std::memory_order_relaxed);
    }

    // The counters and the flag change only under mutex(): a reader that
    // holds it sees them consistent with the result slots, and a
    // lock-free read (a stop poll, a progress query) is a snapshot.
    bool cancelled() const {
        return cancelled_.load(std::memory_order_relaxed);
    }
    std::size_t done() const { return done_.load(std::memory_order_relaxed); }
    std::size_t in_flight() const {
        return in_flight_.load(std::memory_order_relaxed);
    }
    std::size_t total() const { return order_.size(); }
    std::mutex& mutex() const { return mutex_; }

private:
    void settle() {
        --in_flight_;
        ++done_;
    }

    std::vector<std::size_t> order_;  ///< claim order, set by start()
    std::atomic<std::size_t> next_{0};
    mutable std::mutex mutex_;
    std::atomic<std::size_t> in_flight_{0};
    std::atomic<std::size_t> done_{0};
    std::atomic<bool> cancelled_{false};
    std::exception_ptr error_;  ///< first failure; written under mutex_
    std::vector<std::thread> threads_;
};

}  // namespace rap::flow::detail
