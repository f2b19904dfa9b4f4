#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dfs/dynamics.hpp"
#include "util/rng.hpp"

namespace rap::dfs {

/// Outcome of an untimed random-walk simulation.
struct SimStats {
    std::uint64_t steps = 0;
    bool deadlocked = false;
    std::optional<NodeId> conflict;  ///< first control conflict observed

    /// Per-node count of Mark/MarkTrue/MarkFalse events — the number of
    /// tokens that passed through each register.
    std::vector<std::uint64_t> marks;
    /// Of which MarkFalse (destroyed/empty/False tokens).
    std::vector<std::uint64_t> false_marks;

    std::uint64_t marks_at(NodeId n) const { return marks.at(n.value); }
    std::uint64_t false_marks_at(NodeId n) const {
        return false_marks.at(n.value);
    }
};

/// Untimed interleaving simulator: picks one enabled event uniformly at
/// random per step. This is the "interactive simulation" of the Workcraft
/// plugin, driven by a seed instead of mouse clicks; tests use it to
/// cross-validate the dynamics against the Petri-net translation and to
/// measure relative token throughput.
class Simulator {
public:
    Simulator(const Dynamics& dynamics, std::uint64_t seed = 1);

    /// Runs up to `max_steps` events from `state` (updated in place).
    /// Stops early on deadlock. Control conflicts are recorded but do not
    /// stop the run (they may resolve once controls unmark).
    SimStats run(State& state, std::uint64_t max_steps);

    /// Biases the True/False choice of *free* control registers (those
    /// with no upstream controls): probability of choosing True when both
    /// polarities are enabled. Default 0.5. This models the data
    /// distribution feeding a `cond` predicate (Fig. 1b).
    void set_true_bias(double bias) { true_bias_ = bias; }

private:
    const Dynamics* dynamics_;
    util::Rng rng_;
    double true_bias_ = 0.5;
};

}  // namespace rap::dfs
