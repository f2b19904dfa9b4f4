#pragma once

// Shared helpers for the experiment-regeneration harnesses. Each bench
// binary reproduces one table/figure of the paper (see DESIGN.md §3) and
// prints it in the same rows/series the paper reports.

#include <chrono>
#include <cstdio>
#include <string>

#include "asim/faults.hpp"

namespace rap::bench {

/// The Monte Carlo fault mix at scale 1 (bench_mc's campaign, and the
/// single run BM_TimedSimRun times): jitter, drops, duplicates, rare
/// stuck-ats and a few supply droops per microsecond-scale run.
inline asim::FaultSpec mc_faults() {
    asim::FaultSpec faults;
    faults.delay_sigma = 0.15;
    faults.drop_rate = 0.01;
    faults.duplicate_rate = 0.005;
    faults.stuck_rate = 2e-4;
    faults.glitch.rate_hz = 2e5;
    faults.glitch.droop_v = 0.5;
    faults.glitch.min_duration_s = 2e-7;
    faults.glitch.max_duration_s = 1e-6;
    return faults;
}

/// Wall-clock stopwatch for reporting harness runtimes.
class Stopwatch {
public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}
    double elapsed_s() const {
        const auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(now - start_).count();
    }

private:
    std::chrono::steady_clock::time_point start_;
};

inline void print_header(const std::string& experiment,
                         const std::string& what) {
    std::printf("==========================================================\n");
    std::printf("%s\n", experiment.c_str());
    std::printf("%s\n", what.c_str());
    std::printf("==========================================================\n");
}

inline void print_footer(const Stopwatch& watch) {
    std::printf("[harness runtime: %.2f s]\n\n", watch.elapsed_s());
}

}  // namespace rap::bench
