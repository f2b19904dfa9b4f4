#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rap::flow {

/// A small Prometheus-style metrics registry: named counter or gauge
/// families of one unlabelled value each, rendered to the text
/// exposition format by metrics::to_prometheus(). Value type, no locks —
/// producers (flow::Sweep::Handle::metrics(), benches) build a snapshot
/// on demand; scraping a snapshot is free of engine state.
class Metrics {
public:
    enum class Type { kCounter, kGauge };

    struct Family {
        std::string name;  ///< e.g. "rap_sweep_configs_done"
        std::string help;
        Type type = Type::kGauge;
        double value = 0.0;
    };

    /// Sets family `name` to `value`, creating it on first use. Families
    /// keep their registration order, so expositions diff cleanly.
    void set(std::string_view name, std::string_view help, Type type,
             double value);

    const std::vector<Family>& families() const noexcept {
        return families_;
    }

    /// The family's value, or 0 when absent (scrape-side convenience for
    /// tests and benches).
    double value(std::string_view name) const;

private:
    std::vector<Family> families_;
};

namespace metrics {

/// Renders the registry in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` comment pairs per family, then
/// one `name value` line.
std::string to_prometheus(const Metrics& registry);

}  // namespace metrics

}  // namespace rap::flow
