#include "dfs/simulator.hpp"

#include <algorithm>

namespace rap::dfs {

Simulator::Simulator(const Dynamics& dynamics, std::uint64_t seed)
    : dynamics_(&dynamics), rng_(seed) {}

SimStats Simulator::run(State& state, std::uint64_t max_steps) {
    const Graph& graph = dynamics_->graph();
    SimStats stats;
    stats.marks.assign(graph.node_count(), 0);
    stats.false_marks.assign(graph.node_count(), 0);

    for (std::uint64_t step = 0; step < max_steps; ++step) {
        std::vector<Event> enabled = dynamics_->enabled_events(state);
        if (enabled.empty()) {
            stats.deadlocked = true;
            break;
        }
        if (!stats.conflict) {
            stats.conflict = dynamics_->control_conflict(state);
        }

        // When both polarities of the same free-choice control register
        // are enabled, resolve with the configured bias; otherwise pick
        // uniformly among all enabled events.
        Event chosen = enabled[rng_.below(enabled.size())];
        if (chosen.kind == EventKind::MarkTrue ||
            chosen.kind == EventKind::MarkFalse) {
            const Event twin{chosen.node,
                             chosen.kind == EventKind::MarkTrue
                                 ? EventKind::MarkFalse
                                 : EventKind::MarkTrue};
            if (std::find(enabled.begin(), enabled.end(), twin) !=
                enabled.end()) {
                chosen.kind = rng_.chance(true_bias_) ? EventKind::MarkTrue
                                                      : EventKind::MarkFalse;
            }
        }

        dynamics_->apply(state, chosen);
        ++stats.steps;
        if (chosen.kind == EventKind::Mark ||
            chosen.kind == EventKind::MarkTrue ||
            chosen.kind == EventKind::MarkFalse) {
            ++stats.marks[chosen.node.value];
            if (chosen.kind == EventKind::MarkFalse) {
                ++stats.false_marks[chosen.node.value];
            }
        }
    }
    return stats;
}

}  // namespace rap::dfs
