#include "asim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rap::asim {

namespace {

/// Stream tags: the fixed fan-out from a run's master seed. Values are
/// arbitrary but frozen — changing them changes every seeded campaign.
constexpr std::uint64_t kStreamDelay = 0x64656c6179ULL;    // "delay"
constexpr std::uint64_t kStreamEvents = 0x6576656e74ULL;   // "event"
constexpr std::uint64_t kStreamGlitch = 0x676c697463ULL;   // "glitc"

double clamp_probability(double p) {
    return std::clamp(p, 0.0, 1.0);
}

/// Standard normal via Box-Muller; consumes exactly two uniforms, so
/// the stream advance per draw is fixed.
double standard_normal(util::Rng& rng) {
    const double u1 = std::max(rng.uniform(), 1e-12);
    const double u2 = rng.uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
}

}  // namespace

FaultSpec FaultSpec::scaled(double factor) const {
    // A NaN factor makes every rate NaN, and an infinite one makes a
    // zero rate NaN (0 * inf).
    if (!(factor >= 0.0) || std::isinf(factor)) {
        throw std::invalid_argument(
            "FaultSpec::scaled: factor must be finite and non-negative");
    }
    FaultSpec out = *this;
    out.delay_sigma = delay_sigma * factor;
    out.drop_rate = clamp_probability(drop_rate * factor);
    out.duplicate_rate = clamp_probability(duplicate_rate * factor);
    out.stuck_rate = clamp_probability(stuck_rate * factor);
    out.glitch.rate_hz = glitch.rate_hz * factor;
    // A finite factor can still overflow a large intensity.
    if (!std::isfinite(out.delay_sigma) ||
        !std::isfinite(out.glitch.rate_hz)) {
        throw std::invalid_argument(
            "FaultSpec::scaled: scaled delay_sigma and glitch.rate_hz must "
            "be finite");
    }
    return out;
}

FaultRealization::FaultRealization(const FaultSpec& spec,
                                   std::uint64_t master_seed,
                                   std::size_t node_count)
    : spec_(spec),
      delay_rng_(util::stream_seed(master_seed, kStreamDelay)),
      event_rng_(util::stream_seed(master_seed, kStreamEvents)),
      stuck_(node_count, 0) {}

double FaultRealization::draw_work_scale() {
    if (spec_.delay_sigma <= 0.0) return 1.0;
    ++counts_.jittered_enables;
    const double scale =
        std::exp(spec_.delay_sigma * standard_normal(delay_rng_));
    // Clamp the lognormal tails: a 20x outlier is a fault in its own
    // right, an unbounded one would just stall the run unmeasurably.
    return std::clamp(scale, 0.05, 20.0);
}

FaultRealization::Action FaultRealization::on_fire(std::uint32_t node) {
    if (!spec_.any_event_faults()) return Action::kNone;
    // One uniform per firing decides among the fault classes by stacked
    // thresholds, so enabling one class never shifts another's stream.
    const double u = event_rng_.uniform();
    double threshold = spec_.drop_rate;
    if (u < threshold) {
        ++counts_.drops;
        return Action::kDrop;
    }
    threshold += spec_.duplicate_rate;
    if (u < threshold) {
        ++counts_.duplicates;
        return Action::kDuplicate;
    }
    threshold += spec_.stuck_rate;
    if (u < threshold) {
        stuck_[node] = 1;
        ++counts_.stuck_nodes;
        return Action::kStuck;
    }
    return Action::kNone;
}

void validate_glitch(const GlitchSpec& spec) {
    if (!spec.active()) return;
    // Negated forms, so that a NaN duration fails them too.
    if (!(spec.min_duration_s >= 0.0) ||
        !(spec.max_duration_s >= spec.min_duration_s) ||
        std::isinf(spec.max_duration_s)) {
        throw std::invalid_argument(
            "GlitchSpec: need 0 <= min_duration_s <= max_duration_s, "
            "both finite");
    }
    // An infinite rate draws zero-length gaps: the arrivals never pass
    // the horizon.
    if (std::isinf(spec.rate_hz)) {
        throw std::invalid_argument("GlitchSpec: rate_hz must be finite");
    }
}

GlitchedSchedule splice_glitches(const tech::VoltageSchedule& base,
                                 const GlitchSpec& spec, std::uint64_t seed,
                                 double horizon_s) {
    GlitchedSchedule out;
    if (!spec.active() || horizon_s <= 0.0) {
        out.schedule = base;
        return out;
    }
    validate_glitch(spec);
    if (!std::isfinite(horizon_s)) {
        throw std::invalid_argument(
            "splice_glitches: horizon_s must be finite (the arrivals would "
            "never reach it)");
    }

    // Poisson arrivals: exponential inter-arrival times at rate_hz.
    // Windows are merged when a droop arrives inside the previous one.
    util::Rng rng(util::stream_seed(seed, kStreamGlitch));
    double t = 0.0;
    for (;;) {
        const double u = std::max(rng.uniform(), 1e-12);
        t += -std::log(u) / spec.rate_hz;
        if (t >= horizon_s) break;
        const double duration =
            spec.min_duration_s +
            (spec.max_duration_s - spec.min_duration_s) * rng.uniform();
        const double end = std::min(t + duration, horizon_s);
        if (!out.windows.empty() && t <= out.windows.back().end_s) {
            out.windows.back().end_s =
                std::max(out.windows.back().end_s, end);
        } else {
            out.windows.push_back({t, end});
        }
        t = std::max(t, end);
    }

    if (out.windows.empty()) {
        out.schedule = base;
        return out;
    }

    // Rebuild the schedule from the union of base breakpoints and window
    // edges; inside a window the base voltage is drooped (clamped >= 0).
    const std::vector<std::pair<double, double>> points = base.breakpoints();
    std::vector<double> edges{0.0};
    edges.reserve(1 + points.size() + 2 * out.windows.size());
    for (const auto& point : points) edges.push_back(point.first);
    for (const auto& w : out.windows) {
        edges.push_back(w.start_s);
        edges.push_back(w.end_s);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    // One walk over the sorted edges, with a cursor into the base
    // breakpoints and one into the windows (sorted and disjoint), so each
    // edge costs amortised O(1).
    std::size_t next_point = 0;   // first base breakpoint after `start`
    std::size_t open_window = 0;  // first window ending after `start`
    tech::VoltageSchedule spliced;
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const double start = edges[i];
        const double end =
            (i + 1 < edges.size()) ? edges[i + 1] : start + 1.0;
        if (end <= start) continue;
        while (next_point < points.size() &&
               points[next_point].first <= start) {
            ++next_point;
        }
        while (open_window < out.windows.size() &&
               out.windows[open_window].end_s <= start) {
            ++open_window;
        }
        double v = next_point > 0 ? points[next_point - 1].second : 0.0;
        if (open_window < out.windows.size() &&
            out.windows[open_window].start_s <= start) {
            v = std::max(0.0, v - spec.droop_v);
        }
        spliced.add_segment(end - start, v);
    }
    out.schedule = std::move(spliced);
    return out;
}

}  // namespace rap::asim
