#include "flow/metrics.hpp"

#include <cmath>
#include <cstdio>

namespace rap::flow {

namespace {

/// Prometheus numbers: integers render without an exponent or trailing
/// zeros, everything else through %.17g (round-trippable doubles).
std::string render_value(double value) {
    if (std::isfinite(value) && value == std::floor(value) &&
        std::fabs(value) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", value);
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

}  // namespace

void Metrics::set(std::string_view name, std::string_view help, Type type,
                  double value) {
    for (Family& family : families_) {
        if (family.name == name) {
            family.value = value;
            return;
        }
    }
    families_.push_back(
        Family{std::string(name), std::string(help), type, value});
}

double Metrics::value(std::string_view name) const {
    for (const Family& family : families_) {
        if (family.name == name) return family.value;
    }
    return 0.0;
}

namespace metrics {

std::string to_prometheus(const Metrics& registry) {
    std::string out;
    for (const Metrics::Family& family : registry.families()) {
        out += "# HELP " + family.name + " " + family.help + "\n";
        out += "# TYPE " + family.name + " " +
               (family.type == Metrics::Type::kCounter ? "counter"
                                                       : "gauge") +
               "\n";
        out += family.name + ' ' + render_value(family.value) + '\n';
    }
    return out;
}

}  // namespace metrics

}  // namespace rap::flow
