#pragma once

#include <utility>
#include <vector>

namespace rap::tech {

/// The 90nm-like low-power CMOS process standing in for the paper's
/// TSMC 90nm silicon, the one technology the chip was built in. The
/// delay model is an alpha-power law anchored at the freeze voltage: the
/// paper observes the chip operating down to 0.34V, freezing there (no
/// progress, leakage only) and recovering when the supply rises —
/// exactly the behaviour speed_factor() reproduces.
inline constexpr double kNominalV = 1.2;  ///< nominal supply [V]
/// No forward progress at or below this supply [V].
inline constexpr double kFreezeV = 0.34;
/// Alpha-power-law exponent (near-threshold fit).
inline constexpr double kAlpha = 2.0;
/// Leakage power per gate at the nominal voltage [W]; scales ~V^3
/// (subthreshold + DIBL lump).
inline constexpr double kLeakagePerGateW = 2.75e-10;

/// Relative logic speed of the process: 1.0 at kNominalV, 0 at or below
/// kFreezeV, > 1 above nominal. speed = k * (V - kFreezeV)^kAlpha / V.
double speed_factor(double v);

/// Relative dynamic energy per switching event: (V / kNominalV)^2.
double energy_factor(double v);

/// Static (leakage) power of `gates` equivalent gates at voltage v [W].
double leakage_power(double v, double gates);

/// Piecewise-constant supply-voltage schedule, built by appending
/// segments. The last appended segment's voltage holds forever (its
/// duration only positions any further segments); an empty schedule is
/// 0V everywhere (frozen).
class VoltageSchedule {
public:
    /// A flat schedule at voltage v.
    static VoltageSchedule constant(double v);

    /// Appends a segment of `duration_s` seconds at voltage `v` after the
    /// previously appended segments. Throws std::invalid_argument, and
    /// leaves the schedule unchanged, unless the duration is positive and
    /// finite and the voltage finite and non-negative (0V is unpowered).
    void add_segment(double duration_s, double v);

    /// The voltage of the last segment starting at or before t (0V
    /// before the first); a binary search over the segments.
    double voltage_at(double t) const;

    /// The piecewise-constant breakpoints as (start time, voltage) pairs,
    /// sorted by start. Exposed so overlays (the fault injector's
    /// droop/glitch splicing) can rebuild a schedule without losing the
    /// base supply's own transitions.
    std::vector<std::pair<double, double>> breakpoints() const;

    /// End time of the last appended segment — the horizon after which
    /// the final voltage holds forever.
    double duration() const noexcept { return cursor_; }

    /// Time at which an amount of `work` (expressed in nominal-speed
    /// seconds) completes when started at time t0, integrating the speed
    /// factor across segments. Returns +inf if the supply never recovers
    /// above the freeze voltage for long enough. Compiles a
    /// SupplyTimeline per call; callers that integrate repeatedly over
    /// one schedule should compile it once.
    double finish_time(double t0, double work) const;

    /// Leakage energy dissipated by `gates` between t0 and t1.
    double leakage_energy(double gates, double t0, double t1) const;

private:
    friend class SupplyTimeline;

    struct Segment {
        double start;
        double voltage;
    };
    // Sorted by start; first segment (if any) starts at 0.
    std::vector<Segment> segments_;
    double cursor_ = 0.0;  // end time of the last appended segment
};

/// A VoltageSchedule compiled into one row per segment: its start time
/// and the speed factor at its voltage. Integrating work over the rows
/// evaluates no pow() per call, and the result is bit-identical to
/// evaluating speed_factor() per segment. The timed simulator compiles
/// its supply once per run.
class SupplyTimeline {
public:
    explicit SupplyTimeline(const VoltageSchedule& schedule);

    /// VoltageSchedule::finish_time over the compiled rows.
    double finish_time(double t0, double work) const;

private:
    struct Row {
        double start;
        double speed;
    };
    // Sorted by start, parallel to the schedule's segments.
    std::vector<Row> rows_;
};

}  // namespace rap::tech
