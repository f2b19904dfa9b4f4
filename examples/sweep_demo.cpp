// Design-space sweep demo: explore the reconfigurable OPE's
// configuration space (pipeline depth x stage count) through the
// flow::Sweep batch service, streaming verified rows as they complete
// and finishing with the Prometheus-style metrics scrape a dashboard
// would poll.
//
//   $ ./examples/sweep_demo

#include <cstdio>

#include "rap/rap.hpp"

int main() {
    using namespace rap;

    // Keep each exploration modest so the demo runs in seconds: the
    // deepest configurations here would otherwise visit millions of
    // states (that's what the max_states cap and the soak job are for).
    flow::DesignOptions base;
    base.verify.max_states = 50'000;

    std::printf("%-10s %-9s %9s %12s\n", "config", "status", "states",
                "verify [ms]");
    flow::Sweep::Handle handle =
        flow::Sweep::ope(base)
            .stages({3, 4})
            .depths(2, 4)  // depth 2 is below the chip's minimum -> invalid
            .workers(4)
            .on_result([](const flow::SweepResult& row) {
                if (row.status == flow::SweepStatus::kOk) {
                    std::printf("%-10s %-9s %9zu %12.1f\n",
                                row.point.label.c_str(),
                                std::string(to_string(row.status)).c_str(),
                                row.states, row.verify_seconds * 1e3);
                } else {
                    std::printf("%-10s %-9s  (%s)\n",
                                row.point.label.c_str(),
                                std::string(to_string(row.status)).c_str(),
                                row.error.c_str());
                }
            })
            .launch();
    const auto rows = handle.wait();

    // One exploration per configuration: each distinct model content is
    // compiled once, through the artifact cache.
    std::printf("\n%zu grid points, %zu distinct models\n", rows.size(),
                handle.distinct_models());

    std::printf("\nmetrics scrape (Prometheus text format):\n%s",
                flow::metrics::to_prometheus(handle.metrics()).c_str());
    return 0;
}
