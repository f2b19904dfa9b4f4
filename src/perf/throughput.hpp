#pragma once

#include <cstdint>

#include "asim/timed_sim.hpp"
#include "dfs/model.hpp"

namespace rap::perf {

/// Measured steady-state throughput of a DFS model: tokens per second at
/// an observation register under uniform unit node delays at the nominal
/// supply (the dynamic counterpart of the static cycle bound — the
/// Workcraft performance analyser reports both). The first 20 tokens
/// fill the pipeline and are excluded from the rate; each of the two
/// runs stops after 10M events.
struct ThroughputResult {
    double tokens_per_s = 0;
    double time_s = 0;
    std::uint64_t tokens = 0;
    bool deadlocked = false;
};

struct ThroughputOptions {
    std::uint64_t tokens = 200;  ///< tokens to observe after the warmup
};

ThroughputResult measure_throughput(const dfs::Graph& graph,
                                    dfs::NodeId observe,
                                    ThroughputOptions options = {});

}  // namespace rap::perf
