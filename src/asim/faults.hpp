#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tech/voltage.hpp"
#include "util/rng.hpp"

namespace rap::asim {

/// Supply-noise model: voltage droops arriving as a Poisson process,
/// spliced into a base tech::VoltageSchedule by splice_glitches(). Each
/// droop subtracts `droop_v` from the scheduled supply (clamped at 0V)
/// for a uniform duration in [min_duration_s, max_duration_s] — deep
/// droops push the supply below the freeze voltage and stall the
/// pipeline for their duration, the Fig. 9b brown-out in miniature.
struct GlitchSpec {
    double rate_hz = 0.0;  ///< mean droop arrivals per second (0 = off)
    double droop_v = 0.0;  ///< voltage subtracted while a droop is active
    double min_duration_s = 0.0;
    double max_duration_s = 0.0;

    bool active() const noexcept { return rate_hz > 0.0 && droop_v > 0.0; }
};

/// Fault-injection intensities for one timed-simulator run. All rates
/// are per *firing* Bernoulli probabilities drawn from streams derived
/// from the run's master seed (TimedSimulator::set_seed), so a run is
/// bit-reproducible from (model, schedule, spec, seed).
struct FaultSpec {
    /// Lognormal sigma of the multiplicative work-scale drawn each time
    /// an event becomes enabled — per-node delay variation around
    /// NodeTiming::delay_s (0 = deterministic nominal delays).
    double delay_sigma = 0.0;
    /// Transient handshake loss: the phase completes (time passes,
    /// energy dissipates) but the state change is discarded and the
    /// event restarts its timer — a glitched handshake that retries.
    double drop_rate = 0.0;
    /// Spurious extra pulse: the phase fires normally but dissipates
    /// twice the dynamic energy (the duplicate edge is absorbed by the
    /// completion logic and never corrupts state).
    double duplicate_rate = 0.0;
    /// Stuck-at: after this firing the node freezes forever — none of
    /// its phases ever enable again. Upstream/downstream handshakes
    /// starve, typically deadlocking the pipeline.
    double stuck_rate = 0.0;
    /// Supply droops spliced into the voltage schedule (realised by
    /// splice_glitches, not by the simulator loop).
    GlitchSpec glitch;

    bool any_event_faults() const noexcept {
        return drop_rate > 0.0 || duplicate_rate > 0.0 || stuck_rate > 0.0;
    }
    bool any() const noexcept {
        return delay_sigma > 0.0 || any_event_faults() || glitch.active();
    }

    /// The spec with every intensity multiplied by `factor` — the
    /// campaign's fault-rate axis (probabilities clamped to [0, 1]). A
    /// negative, NaN or infinite factor throws std::invalid_argument, and
    /// so does a scaled delay_sigma or glitch.rate_hz that is not finite.
    FaultSpec scaled(double factor) const;
};

/// Tally of the faults one run actually injected.
struct FaultCounts {
    std::uint64_t jittered_enables = 0;  ///< work-scale draws applied
    std::uint64_t drops = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t stuck_nodes = 0;

    std::uint64_t injected() const noexcept {
        return drops + duplicates + stuck_nodes;
    }
};

/// One seeded realisation of a FaultSpec: the per-run dice. Owned by
/// TimedSimulator::run (one fresh realisation per run, derived from the
/// master seed), exposed here so tests can drive the streams directly.
/// Every draw comes from a purpose-named sub-stream of the master seed
/// (util::stream_seed), so realisations are independent of each other
/// and of the free-choice bias stream.
class FaultRealization {
public:
    FaultRealization(const FaultSpec& spec, std::uint64_t master_seed,
                     std::size_t node_count);

    /// Multiplicative work scale for an event that just became enabled
    /// (1.0 when jitter is off; no stream consumed in that case).
    double draw_work_scale();

    /// What happens to the firing that just completed on `node`.
    enum class Action { kNone, kDrop, kDuplicate, kStuck };
    Action on_fire(std::uint32_t node);

    /// Node froze via a kStuck action; its events must never re-enable.
    bool stuck(std::uint32_t node) const {
        return stuck_[node] != 0;
    }

    const FaultCounts& counts() const noexcept { return counts_; }

private:
    FaultSpec spec_;
    util::Rng delay_rng_;
    util::Rng event_rng_;
    std::vector<char> stuck_;
    FaultCounts counts_;
};

/// A glitch-spliced schedule plus the realised droop windows (sorted,
/// non-overlapping) so callers can assert waveform visibility.
struct GlitchedSchedule {
    tech::VoltageSchedule schedule;
    struct Window {
        double start_s = 0.0;
        double end_s = 0.0;
    };
    std::vector<Window> windows;

    std::size_t glitches() const noexcept { return windows.size(); }
};

/// Throws std::invalid_argument unless an active spec has a finite
/// rate_hz and a duration window 0 <= min_duration_s <= max_duration_s
/// of finite values (NaN fails) — the rule splice_glitches applies,
/// callable where a spec is configured.
void validate_glitch(const GlitchSpec& spec);

/// Splices seeded voltage droops into `base` over [0, horizon_s):
/// Poisson arrivals at spec.rate_hz, uniform durations, each window
/// subtracting spec.droop_v from whatever `base` schedules there
/// (clamped at 0V; base breakpoints inside a window are preserved).
/// Past the horizon the base schedule continues unmodified. The result
/// is a pure function of (base, spec, seed). An active spec with a
/// horizon that is not finite throws std::invalid_argument.
GlitchedSchedule splice_glitches(const tech::VoltageSchedule& base,
                                 const GlitchSpec& spec, std::uint64_t seed,
                                 double horizon_s);

}  // namespace rap::asim
