#include "asim/timed_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/rng.hpp"

namespace rap::asim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Sub-stream tag of the free-choice bias coin (see util::stream_seed);
/// the fault streams have their own tags inside asim/faults.cpp.
constexpr std::uint64_t kStreamBias = 0x62696173ULL;  // "bias"
}  // namespace

TimingMap uniform_timing(const dfs::Graph& graph, double delay_s,
                         double energy_j) {
    return TimingMap(graph.node_count(), NodeTiming{delay_s, energy_j});
}

TimedSimulator::TimedSimulator(const dfs::Dynamics& dynamics,
                               TimingMap timing, tech::VoltageModel model,
                               tech::VoltageSchedule schedule,
                               double leakage_gates)
    : dynamics_(&dynamics),
      timing_(std::move(timing)),
      model_(model),
      schedule_(std::move(schedule)),
      timeline_(schedule_, model_),
      leakage_gates_(leakage_gates) {
    const dfs::Graph& graph = dynamics.graph();
    assert(timing_.size() == graph.node_count());

    // Dense event enumeration.
    node_event_begin_.resize(graph.node_count() + 1, 0);
    for (dfs::NodeId n : graph.nodes()) {
        node_event_begin_[n.value] =
            static_cast<std::uint32_t>(events_.size());
        for (const dfs::Event& e : dynamics.node_events(n)) {
            events_.push_back(e);
        }
    }
    node_event_begin_[graph.node_count()] =
        static_cast<std::uint32_t>(events_.size());

    // Affected-set: nodes whose event enabledness can change when `n`
    // changes state — n itself plus its direct and register-level
    // neighbourhood (all the sets the enabling equations quantify over).
    affected_.resize(graph.node_count());
    for (dfs::NodeId n : graph.nodes()) {
        std::vector<std::uint32_t>& set = affected_[n.value];
        set.push_back(n.value);
        for (const std::vector<dfs::NodeId>* neighbours :
             {&graph.preset(n), &graph.postset(n), &graph.r_preset(n),
              &graph.r_postset(n)}) {
            for (dfs::NodeId m : *neighbours) set.push_back(m.value);
        }
        std::sort(set.begin(), set.end());
        set.erase(std::unique(set.begin(), set.end()), set.end());
    }
}

void TimedSimulator::set_seed(std::uint64_t seed) { seed_ = seed; }

void TimedSimulator::set_true_bias(double bias) { true_bias_ = bias; }

void TimedSimulator::set_faults(FaultSpec spec) { faults_ = spec; }

void TimedSimulator::set_stimulus(std::vector<dfs::Event> forced) {
    stimulus_ = std::move(forced);
}

void TimedSimulator::enable_power_trace(double bin_s) {
    trace_bin_s_ = bin_s;
}

void TimedSimulator::enable_event_trace(std::size_t max_events) {
    event_trace_cap_ = max_events;
}

TimedStats TimedSimulator::run(dfs::State& state, const RunLimits& limits) {
    const dfs::Graph& graph = dynamics_->graph();
    TimedStats stats;
    stats.marks.assign(graph.node_count(), 0);
    util::Rng bias_rng(util::stream_seed(seed_, kStreamBias));
    FaultRealization faults(faults_, seed_, graph.node_count());

    // enabled_since per event (kInf = disabled), plus a compact list of
    // candidate indices with lazy deletion so the arbitration scan only
    // touches currently-enabled events. work_scale holds the jitter
    // factor drawn when the event last became enabled; completion the
    // event's finish time, valid while it stays enabled.
    std::vector<double> enabled_since(events_.size(), kInf);
    std::vector<double> work_scale(events_.size(), 1.0);
    std::vector<double> completion(events_.size(), kInf);
    std::vector<char> in_list(events_.size(), 0);
    std::vector<std::uint32_t> candidates;
    double now = 0.0;

    /// Finish time of event i as currently enabled: its nominal-speed
    /// work (completion daisy-chain cost read off the live state, jitter
    /// off the factor drawn at enabling) integrated over the supply.
    auto finish_time = [&](std::uint32_t i) {
        const NodeTiming& t = timing_[events_[i].node.value];
        double work = t.delay_s;
        if (t.delay_per_true_input_s > 0) {
            int real_inputs = 0;
            for (const dfs::NodeId p : graph.preset(events_[i].node)) {
                if (!graph.is_logic(p) && state.marked_true(graph, p)) {
                    ++real_inputs;
                }
            }
            work += t.delay_per_true_input_s * real_inputs;
        }
        return timeline_.finish_time(enabled_since[i], work * work_scale[i]);
    };

    // Cached completion times stay exact: a firing changes only the fired
    // node's state, and a register's refresh set holds its postset, so
    // every node whose work counts that register is refreshed and, if
    // its work reads live state, recomputed.
    auto refresh_node = [&](std::uint32_t node) {
        const bool is_stuck = faults.stuck(node);
        const bool reads_state = timing_[node].delay_per_true_input_s > 0;
        for (std::uint32_t i = node_event_begin_[node];
             i < node_event_begin_[node + 1]; ++i) {
            const bool enabled =
                !is_stuck && dynamics_->is_enabled(state, events_[i]);
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
            } else if (reads_state) {
                completion[i] = finish_time(i);
            }
        }
    };
    for (std::uint32_t n = 0; n < graph.node_count(); ++n) refresh_node(n);

    /// Event index of a forced stimulus event (UINT32_MAX when the node
    /// has no such phase — a malformed stimulus).
    auto find_event = [&](const dfs::Event& e) -> std::uint32_t {
        for (std::uint32_t i = node_event_begin_[e.node.value];
             i < node_event_begin_[e.node.value + 1]; ++i) {
            if (events_[i].kind == e.kind) return i;
        }
        return UINT32_MAX;
    };

    // Power-trace accumulation.
    std::vector<double> bin_dynamic;  // dynamic energy per bin
    auto record_energy = [&](double t, double joules) {
        if (!trace_bin_s_) return;
        const auto bin = static_cast<std::size_t>(t / *trace_bin_s_);
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
            const std::uint32_t i = find_event(stimulus_[next_forced]);
            if (i == UINT32_MAX || enabled_since[i] == kInf) {
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
        dfs::Event event = events_[best];
        if (!forcing && (event.kind == dfs::EventKind::MarkTrue ||
                         event.kind == dfs::EventKind::MarkFalse)) {
            const bool is_free_choice =
                graph.kind(event.node) == dfs::NodeKind::Control &&
                graph.control_preset(event.node).empty();
            if (is_free_choice) {
                event.kind = bias_rng.chance(true_bias_)
                                 ? dfs::EventKind::MarkTrue
                                 : dfs::EventKind::MarkFalse;
            }
        }

        now = best_time;
        const double joules =
            timing_[event.node.value].energy_j *
            model_.energy_factor(schedule_.voltage_at(now));

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

        // A kStuck action froze the node; refresh_node sees it via
        // faults.stuck() and retires its pending phases with the rest.
        for (const std::uint32_t node : affected_[event.node.value]) {
            refresh_node(node);
        }
    }

    stats.time_s = now;
    stats.faults = faults.counts();
    stats.leakage_energy_j =
        schedule_.leakage_energy(model_, leakage_gates_, 0.0, now);

    if (trace_bin_s_) {
        const double bin = *trace_bin_s_;
        const auto bins = static_cast<std::size_t>(
            std::ceil(now / bin));
        bin_dynamic.resize(std::max(bin_dynamic.size(), bins), 0.0);
        for (std::size_t i = 0; i < bin_dynamic.size(); ++i) {
            PowerSample sample;
            sample.t_start_s = static_cast<double>(i) * bin;
            sample.t_end_s = sample.t_start_s + bin;
            const double leak = schedule_.leakage_energy(
                model_, leakage_gates_, sample.t_start_s, sample.t_end_s);
            sample.power_w = (bin_dynamic[i] + leak) / bin;
            sample.voltage_v = schedule_.voltage_at(sample.t_start_s);
            stats.trace.push_back(sample);
        }
    }
    return stats;
}

}  // namespace rap::asim
