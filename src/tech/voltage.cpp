#include "tech/voltage.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace rap::tech {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

double speed_factor(double v) {
    if (v <= kFreezeV) return 0.0;
    // The normalisation that makes speed_factor(kNominalV) == 1.
    static const double norm =
        std::pow(kNominalV - kFreezeV, kAlpha) / kNominalV;
    return std::pow(v - kFreezeV, kAlpha) / v / norm;
}

double energy_factor(double v) {
    const double r = v / kNominalV;
    return r * r;
}

double leakage_power(double v, double gates) {
    if (v <= 0) return 0.0;
    const double r = v / kNominalV;
    return kLeakagePerGateW * gates * r * r * r;
}

VoltageSchedule VoltageSchedule::constant(double v) {
    VoltageSchedule s;
    s.add_segment(1.0, v);  // the last segment holds forever
    return s;
}

void VoltageSchedule::add_segment(double duration_s, double v) {
    // Written so that NaN fails both tests: a NaN duration would start
    // every later segment at NaN and break the sorted starts voltage_at
    // and SupplyTimeline search.
    if (!(duration_s > 0.0) || std::isinf(duration_s) || !(v >= 0.0) ||
        std::isinf(v)) {
        throw std::invalid_argument(
            "VoltageSchedule::add_segment: need a positive finite duration "
            "and a finite non-negative voltage");
    }
    segments_.push_back({cursor_, v});
    cursor_ += duration_s;
}

double VoltageSchedule::voltage_at(double t) const {
    const auto after = [](double at, const Segment& s) {
        return at < s.start;
    };
    const auto later =
        std::upper_bound(segments_.begin(), segments_.end(), t, after);
    return later == segments_.begin() ? 0.0 : std::prev(later)->voltage;
}

std::vector<std::pair<double, double>> VoltageSchedule::breakpoints() const {
    std::vector<std::pair<double, double>> out;
    out.reserve(segments_.size());
    for (const Segment& s : segments_) out.emplace_back(s.start, s.voltage);
    return out;
}

double VoltageSchedule::finish_time(double t0, double work) const {
    return SupplyTimeline(*this).finish_time(t0, work);
}

double VoltageSchedule::leakage_energy(double gates, double t0,
                                       double t1) const {
    if (t1 <= t0) return 0.0;
    double energy = 0.0;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        const double seg_start = segments_[i].start;
        const double seg_end =
            (i + 1 < segments_.size()) ? segments_[i + 1].start : kInf;
        const double lo = std::max(seg_start, t0);
        const double hi = std::min(seg_end, t1);
        if (hi <= lo) continue;
        energy += leakage_power(segments_[i].voltage, gates) * (hi - lo);
    }
    return energy;
}

SupplyTimeline::SupplyTimeline(const VoltageSchedule& schedule) {
    rows_.reserve(schedule.segments_.size());
    for (const VoltageSchedule::Segment& s : schedule.segments_) {
        rows_.push_back({s.start, speed_factor(s.voltage)});
    }
}

double SupplyTimeline::finish_time(double t0, double work) const {
    if (work <= 0) return t0;
    if (rows_.empty()) return kInf;  // 0V everywhere
    // Row i ends where row i + 1 starts: jump past the rows that end at
    // or before t0 (the loop's skip test still covers t0 = +inf).
    const auto after = [](double t, const Row& r) { return t < r.start; };
    auto later = std::upper_bound(rows_.begin() + 1, rows_.end(), t0, after);
    std::size_t i = static_cast<std::size_t>(later - rows_.begin()) - 1;
    double remaining = work;
    double t = t0;
    for (; i < rows_.size(); ++i) {
        const double seg_end =
            (i + 1 < rows_.size()) ? rows_[i + 1].start : kInf;
        if (seg_end <= t) continue;
        const double rate = rows_[i].speed;
        const double span = seg_end - t;
        if (rate > 0) {
            const double need = remaining / rate;
            if (need <= span) return t + need;
            remaining -= span * rate;
        }
        t = seg_end;
        if (t == kInf) break;
    }
    return kInf;  // frozen in the trailing segment
}

}  // namespace rap::tech
