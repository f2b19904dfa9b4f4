#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "asim/faults.hpp"
#include "dfs/dynamics.hpp"
#include "tech/voltage.hpp"

namespace rap::asim {

/// Per-node timing/energy annotation at the nominal voltage. Every event
/// of the node (each phase of the 4-phase handshake: data wave = mark /
/// evaluate, spacer wave = unmark / reset) takes `delay_s` of
/// nominal-speed work and dissipates `energy_j` scaled by the square-law
/// energy factor at the supply voltage in effect when the event fires.
struct NodeTiming {
    double delay_s = 1e-9;
    double energy_j = 1e-12;
    /// Extra work per *real* (Mt) token among the node's direct register
    /// preset at the moment the event is scheduled. This models
    /// daisy-chained completion structures whose traversal cost grows
    /// with the number of active participants (the chip's stage
    /// synchronisation, Section IV) — empty tokens from bypassed stages
    /// ripple through quickly.
    double delay_per_true_input_s = 0;
};

/// Timing annotation for a whole graph, indexed by NodeId::value.
using TimingMap = std::vector<NodeTiming>;

/// Uniform annotation helper (used by abstract performance analysis).
TimingMap uniform_timing(const dfs::Graph& graph, double delay_s,
                         double energy_j = 0.0);

/// Stop conditions for a timed run; the first one reached wins.
struct RunLimits {
    std::uint64_t max_events = UINT64_MAX;
    double max_time_s = 1e30;
    /// Stop once `observe` has latched this many tokens (0 = disabled).
    std::uint64_t target_marks = 0;
    dfs::NodeId observe{};
};

/// One bin of the sampled power trace (Fig. 9b's instrument).
struct PowerSample {
    double t_start_s = 0;
    double t_end_s = 0;
    double power_w = 0;    ///< average total power over the bin
    double voltage_v = 0;  ///< supply voltage at bin start
};

/// One fired event with its completion timestamp (for waveform export).
struct TimedEvent {
    double t_s = 0;
    dfs::Event event;
};

struct TimedStats {
    double time_s = 0;
    std::uint64_t events = 0;
    bool deadlocked = false;
    /// The supply froze (all pending work needs a voltage that never
    /// comes) — the Fig. 9b "stuck at 0.34V forever" condition.
    bool frozen = false;
    double dynamic_energy_j = 0;
    double leakage_energy_j = 0;
    std::vector<std::uint64_t> marks;  ///< tokens latched per node
    std::vector<PowerSample> trace;    ///< filled when tracing enabled
    std::vector<TimedEvent> events_log;  ///< filled when event tracing on
    /// The event trace hit its cap and later events were not recorded —
    /// set so consumers (VCD export, witness confirmation) can tell a
    /// complete log from a silently clipped one.
    bool events_log_truncated = false;
    /// Faults the run actually injected (all zero without set_faults).
    FaultCounts faults;
    /// Forced-order stimulus progress (see set_stimulus): events of the
    /// stimulus fired, and whether replay stalled on a never-enabled one.
    std::uint64_t stimulus_fired = 0;
    bool stimulus_stalled = false;

    double total_energy_j() const {
        return dynamic_energy_j + leakage_energy_j;
    }
    std::uint64_t marks_at(dfs::NodeId n) const { return marks.at(n.value); }
};

/// Event-driven timed token-game simulator — the stand-in for the
/// fabricated chip plus its measurement bench. Each enabled DFS event
/// completes after its node's nominal work integrated against the supply
/// schedule (alpha-power-law speed scaling, freeze below 0.34V); firing
/// dissipates the node's dynamic energy at the instantaneous voltage, and
/// leakage accrues continuously over the gate count.
///
/// Races are inertial: an event disabled before completion is cancelled
/// and restarts its timer on re-enabling.
///
/// A run indexes its per-event bookkeeping by the Dynamics event table and
/// tests enabling through its compiled cubes. After node n fires it
/// re-tests the events of readers(n) only, the nodes whose conditions
/// read n. It keeps each enabled event's completion time instead of
/// re-integrating it per step: it is computed when the event enables or
/// a drop restarts its timer, and recomputed when n fires only for n's
/// postset nodes with delay_per_true_input_s > 0, whose work reads their
/// preset registers.
class TimedSimulator {
public:
    TimedSimulator(const dfs::Dynamics& dynamics, TimingMap timing,
                   tech::VoltageSchedule schedule, double leakage_gates);

    /// Master seed of the run's every stochastic stream: free-choice
    /// bias arbitration and each fault-injection dice derive their own
    /// sub-stream from it via util::stream_seed, so one seed makes a
    /// whole run — biases, jitter, drops, stuck-ats — bit-reproducible.
    void set_seed(std::uint64_t seed);

    /// Biases free-choice control registers (no upstream controls): the
    /// probability that the True polarity wins the race. Implemented as a
    /// per-arrival random pick, modelling the data distribution at a
    /// `cond` predicate. The pick stream derives from set_seed.
    void set_true_bias(double bias);

    /// Arms fault injection: each run realises `spec` from the master
    /// seed (fresh dice per run). Pass a default-constructed spec to
    /// disarm. Supply glitches are NOT realised here — splice them into
    /// the voltage schedule with asim::splice_glitches.
    void set_faults(FaultSpec spec);

    /// Forces the next run to fire exactly this event order while the
    /// list lasts (witness replay: a verifier counterexample as a timed
    /// stimulus). Each forced event fires at the time it would normally
    /// complete; free-choice races obey the scripted polarity instead of
    /// the bias coin. If a forced event is not enabled when its turn
    /// comes (or its node never emits its kind) the run stops with
    /// TimedStats::stimulus_stalled; a node outside the graph throws
    /// std::out_of_range. After the list is exhausted the run continues
    /// under normal arbitration.
    void set_stimulus(std::vector<dfs::Event> forced);

    /// Enables power-trace sampling with the given bin width. A width
    /// that is not positive and finite throws std::invalid_argument; one
    /// so small that a run's trace needs more bins than a vector can
    /// hold makes run() throw std::length_error.
    void enable_power_trace(double bin_s);

    /// Records every fired event with its timestamp into
    /// TimedStats::events_log (feeds the VCD waveform exporter). Capped
    /// at `max_events` entries to bound memory; when the cap clips the
    /// log, TimedStats::events_log_truncated says so.
    void enable_event_trace(std::size_t max_events = 1'000'000);

    /// Whether a run reads a random stream that set_seed derives: true
    /// when a fault is armed (FaultSpec::any(), glitches included, since
    /// callers splice those per run seed) or the graph has a free-choice
    /// control register, whose polarity race the bias coin decides. When
    /// false, every seed gives a bit-identical run.
    bool depends_on_seed() const;

    /// Runs the token game from `state` until a limit is reached. A
    /// positive target_marks with an observe node outside the graph
    /// throws std::out_of_range before anything fires.
    TimedStats run(dfs::State& state, const RunLimits& limits);

private:
    const dfs::Dynamics* dynamics_;
    TimingMap timing_;
    tech::VoltageSchedule schedule_;
    tech::SupplyTimeline timeline_;  // schedule_ compiled
    double leakage_gates_;
    double true_bias_ = 0.5;
    std::uint64_t seed_ = 1;
    FaultSpec faults_;
    std::vector<dfs::Event> stimulus_;
    std::optional<double> trace_bin_s_;
    std::optional<std::size_t> event_trace_cap_;
};

}  // namespace rap::asim
