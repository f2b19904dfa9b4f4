#include "perf/throughput.hpp"

#include "dfs/dynamics.hpp"
#include "tech/voltage.hpp"

namespace rap::perf {

namespace {
constexpr std::uint64_t kWarmupTokens = 20;
constexpr std::uint64_t kMaxEvents = 10'000'000;
}  // namespace

ThroughputResult measure_throughput(const dfs::Graph& graph,
                                    dfs::NodeId observe,
                                    ThroughputOptions options) {
    const dfs::Dynamics dynamics(graph);
    // Unit delays at the nominal supply: speed factor 1 everywhere.
    asim::TimedSimulator sim(dynamics, asim::uniform_timing(graph, 1.0),
                             tech::VoltageSchedule::constant(tech::kNominalV),
                             /*leakage_gates=*/0.0);

    dfs::State state = dfs::State::initial(graph);

    // Warmup: let the pipeline fill before timing.
    asim::RunLimits warmup;
    warmup.target_marks = kWarmupTokens;
    warmup.observe = observe;
    warmup.max_events = kMaxEvents;
    const auto w = sim.run(state, warmup);

    ThroughputResult result;
    if (w.deadlocked) {
        result.deadlocked = true;
        return result;
    }

    asim::RunLimits limits;
    limits.target_marks = options.tokens;
    limits.observe = observe;
    limits.max_events = kMaxEvents;
    const auto stats = sim.run(state, limits);

    result.deadlocked = stats.deadlocked;
    result.tokens = stats.marks_at(observe);
    result.time_s = stats.time_s;
    if (stats.time_s > 0) {
        result.tokens_per_s =
            static_cast<double>(result.tokens) / stats.time_s;
    }
    return result;
}

}  // namespace rap::perf
