#include "asim/timed_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace rap::asim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Sub-stream tag of the free-choice bias coin (see util::stream_seed);
/// the fault streams have their own tags inside asim/faults.cpp.
constexpr std::uint64_t kStreamBias = 0x62696173ULL;  // "bias"

/// A control register with no upstream controls: the bias coin, not a
/// control token, decides the polarity of its marks.
bool is_free_choice(const dfs::Graph& graph, dfs::NodeId node) {
    return graph.kind(node) == dfs::NodeKind::Control &&
           graph.control_preset(node).empty();
}
}  // namespace

TimingMap uniform_timing(const dfs::Graph& graph, double delay_s,
                         double energy_j) {
    return TimingMap(graph.node_count(), NodeTiming{delay_s, energy_j});
}

TimedSimulator::TimedSimulator(const dfs::Dynamics& dynamics,
                               TimingMap timing,
                               tech::VoltageSchedule schedule,
                               double leakage_gates)
    : dynamics_(&dynamics),
      timing_(std::move(timing)),
      schedule_(std::move(schedule)),
      timeline_(schedule_),
      leakage_gates_(leakage_gates) {
    assert(timing_.size() == dynamics.graph().node_count());
}

void TimedSimulator::set_seed(std::uint64_t seed) { seed_ = seed; }

void TimedSimulator::set_true_bias(double bias) { true_bias_ = bias; }

void TimedSimulator::set_faults(FaultSpec spec) { faults_ = spec; }

void TimedSimulator::set_stimulus(std::vector<dfs::Event> forced) {
    stimulus_ = std::move(forced);
}

void TimedSimulator::enable_power_trace(double bin_s) {
    if (!std::isfinite(bin_s) || bin_s <= 0.0) {
        throw std::invalid_argument(
            "TimedSimulator: power-trace bin width must be positive and "
            "finite");
    }
    trace_bin_s_ = bin_s;
}

void TimedSimulator::enable_event_trace(std::size_t max_events) {
    event_trace_cap_ = max_events;
}

bool TimedSimulator::depends_on_seed() const {
    if (faults_.any()) return true;
    const dfs::Graph& graph = dynamics_->graph();
    const auto nodes = graph.nodes();
    return std::any_of(nodes.begin(), nodes.end(), [&](dfs::NodeId n) {
        return is_free_choice(graph, n);
    });
}

TimedStats TimedSimulator::run(dfs::State& state, const RunLimits& limits) {
    const dfs::Graph& graph = dynamics_->graph();
    if (limits.target_marks > 0 &&
        limits.observe.value >= graph.node_count()) {
        throw std::out_of_range(
            "TimedSimulator: the observed node is outside the graph");
    }
    TimedStats stats;
    stats.marks.assign(graph.node_count(), 0);
    util::Rng bias_rng(util::stream_seed(seed_, kStreamBias));
    FaultRealization faults(faults_, seed_, graph.node_count());

    // enabled_since per event (kInf = disabled), plus a compact list of
    // candidate indices with lazy deletion so the arbitration scan only
    // touches currently-enabled events. work_scale holds the jitter
    // factor drawn when the event last became enabled; completion the
    // event's finish time, valid while it stays enabled. All are indexed
    // by the Dynamics event table.
    const std::uint32_t event_count = dynamics_->event_count();
    std::vector<double> enabled_since(event_count, kInf);
    std::vector<double> work_scale(event_count, 1.0);
    std::vector<double> completion(event_count, kInf);
    std::vector<char> in_list(event_count, 0);
    std::vector<std::uint32_t> candidates;
    double now = 0.0;

    /// Finish time of event i as currently enabled: its nominal-speed
    /// work (completion daisy-chain cost read off the live state, jitter
    /// off the factor drawn at enabling) integrated over the supply.
    auto finish_time = [&](std::uint32_t i) {
        const dfs::NodeId node = dynamics_->event(i).node;
        const NodeTiming& t = timing_[node.value];
        double work = t.delay_s;
        if (t.delay_per_true_input_s > 0) {
            int real_inputs = 0;
            for (const dfs::NodeId p : graph.preset(node)) {
                if (!graph.is_logic(p) && state.marked_true(graph, p)) {
                    ++real_inputs;
                }
            }
            work += t.delay_per_true_input_s * real_inputs;
        }
        return timeline_.finish_time(enabled_since[i], work * work_scale[i]);
    };

    // Re-tests a node's events: a newly enabled one draws its jitter and
    // joins the candidate list, a disabled one is cancelled. The visiting
    // order (ascending node id, table order within a node) fixes the
    // order of the jitter draws and of the candidate list, whose order
    // breaks ties in the arbitration scan.
    auto refresh_node = [&](dfs::NodeId node) {
        const bool is_stuck = faults.stuck(node.value);
        for (const std::uint32_t i : dynamics_->node_event_indices(node)) {
            const bool enabled =
                !is_stuck && dynamics_->is_enabled(state, i);
            if (enabled && enabled_since[i] == kInf) {
                enabled_since[i] = now;
                work_scale[i] = faults.draw_work_scale();
                completion[i] = finish_time(i);
                if (!in_list[i]) {
                    in_list[i] = 1;
                    candidates.push_back(i);
                }
            } else if (!enabled) {
                enabled_since[i] = kInf;  // inertial cancel
            }
        }
    };
    for (const dfs::NodeId n : graph.nodes()) refresh_node(n);

    // Power-trace accumulation.
    std::vector<double> bin_dynamic;  // dynamic energy per bin
    // Every bin index goes through here: one the vector could not hold
    // throws instead of overflowing the conversion to size_t.
    const auto bin_index = [&bin_dynamic](double bins) {
        if (!(bins < static_cast<double>(bin_dynamic.max_size()))) {
            throw std::length_error(
                "TimedSimulator: the power trace needs more bins than a "
                "vector can hold");
        }
        return static_cast<std::size_t>(bins);
    };
    auto record_energy = [&](double t, double joules) {
        if (!trace_bin_s_) return;
        const std::size_t bin = bin_index(t / *trace_bin_s_);
        if (bin_dynamic.size() <= bin) bin_dynamic.resize(bin + 1, 0.0);
        bin_dynamic[bin] += joules;
    };

    std::size_t next_forced = 0;
    while (stats.events < limits.max_events) {
        if (limits.target_marks > 0 &&
            stats.marks[limits.observe.value] >= limits.target_marks) {
            break;
        }

        const bool forcing = next_forced < stimulus_.size();
        double best_time = kInf;
        std::uint32_t best = UINT32_MAX;
        if (forcing) {
            // Witness replay: the next stimulus event fires next, at the
            // time it would normally complete, regardless of races.
            const std::uint32_t i =
                dynamics_->event_index(stimulus_[next_forced]);
            if (i == dfs::Dynamics::kNoEvent || enabled_since[i] == kInf) {
                stats.stimulus_stalled = true;
                break;
            }
            best = i;
            best_time = completion[i];
            if (best_time == kInf) {
                stats.frozen = true;
                break;
            }
            if (best_time > limits.max_time_s) {
                now = limits.max_time_s;
                break;
            }
        } else {
            // Earliest completion among enabled events (compacting the
            // candidate list as we go).
            bool any_enabled = false;
            for (std::size_t c = 0; c < candidates.size();) {
                const std::uint32_t i = candidates[c];
                if (enabled_since[i] == kInf) {
                    in_list[i] = 0;
                    candidates[c] = candidates.back();
                    candidates.pop_back();
                    continue;
                }
                any_enabled = true;
                if (completion[i] < best_time) {
                    best_time = completion[i];
                    best = i;
                }
                ++c;
            }
            if (!any_enabled) {
                stats.deadlocked = true;
                break;
            }
            if (best == UINT32_MAX || best_time > limits.max_time_s) {
                // All pending work is frozen (or exceeds the budget).
                stats.frozen = (best == UINT32_MAX);
                now = std::min(limits.max_time_s, now);
                if (!stats.frozen) now = limits.max_time_s;
                break;
            }
        }

        // Resolve the free-choice polarity race with the configured bias:
        // when both polarities of one control register finish together
        // conceptually, pick by coin flip instead of timing noise. A
        // forced stimulus scripts the polarity, so its race is not
        // re-drawn.
        dfs::Event event = dynamics_->event(best);
        if (!forcing &&
            (event.kind == dfs::EventKind::MarkTrue ||
             event.kind == dfs::EventKind::MarkFalse) &&
            is_free_choice(graph, event.node)) {
            event.kind = bias_rng.chance(true_bias_)
                             ? dfs::EventKind::MarkTrue
                             : dfs::EventKind::MarkFalse;
        }

        now = best_time;
        const double joules =
            timing_[event.node.value].energy_j *
            tech::energy_factor(schedule_.voltage_at(now));

        const FaultRealization::Action action =
            faults.on_fire(event.node.value);
        if (action == FaultRealization::Action::kDrop) {
            // Glitched handshake: the phase's time and energy are spent
            // but the state change is lost; the event restarts its timer
            // (and redraws its jitter) to retry.
            stats.dynamic_energy_j += joules;
            record_energy(now, joules);
            enabled_since[best] = now;
            work_scale[best] = faults.draw_work_scale();
            completion[best] = finish_time(best);
            continue;
        }

        dynamics_->apply(state, event);
        ++stats.events;
        if (forcing) {
            ++next_forced;
            ++stats.stimulus_fired;
        }
        if (event_trace_cap_) {
            if (stats.events_log.size() < *event_trace_cap_) {
                stats.events_log.push_back({now, event});
            } else {
                stats.events_log_truncated = true;
            }
        }

        // A duplicated phase dissipates the spurious edge's energy too.
        const double spent =
            action == FaultRealization::Action::kDuplicate ? 2 * joules
                                                           : joules;
        stats.dynamic_energy_j += spent;
        record_energy(now, spent);

        if (event.kind == dfs::EventKind::Mark ||
            event.kind == dfs::EventKind::MarkTrue ||
            event.kind == dfs::EventKind::MarkFalse) {
            ++stats.marks[event.node.value];
        }

        // Only readers(n) can change enabledness. n is one of them, so a
        // kStuck action that froze it retires its pending phases here.
        for (const dfs::NodeId node : dynamics_->readers(event.node)) {
            refresh_node(node);
        }
        // Cached completion times stay exact: a firing changes only the
        // fired node's state, so the only finish times it moves are those
        // of postset nodes whose work counts their preset's real tokens.
        for (const dfs::NodeId node : graph.postset(event.node)) {
            if (timing_[node.value].delay_per_true_input_s <= 0) continue;
            for (const std::uint32_t i : dynamics_->node_event_indices(node)) {
                if (enabled_since[i] != kInf) completion[i] = finish_time(i);
            }
        }
    }

    stats.time_s = now;
    stats.faults = faults.counts();
    stats.leakage_energy_j = schedule_.leakage_energy(leakage_gates_, 0.0, now);

    if (trace_bin_s_) {
        const double bin = *trace_bin_s_;
        const std::size_t bins = bin_index(std::ceil(now / bin));
        bin_dynamic.resize(std::max(bin_dynamic.size(), bins), 0.0);
        for (std::size_t i = 0; i < bin_dynamic.size(); ++i) {
            PowerSample sample;
            sample.t_start_s = static_cast<double>(i) * bin;
            sample.t_end_s = sample.t_start_s + bin;
            const double leak = schedule_.leakage_energy(
                leakage_gates_, sample.t_start_s, sample.t_end_s);
            sample.power_w = (bin_dynamic[i] + leak) / bin;
            sample.voltage_v = schedule_.voltage_at(sample.t_start_s);
            stats.trace.push_back(sample);
        }
    }
    return stats;
}

}  // namespace rap::asim
