#pragma once

#include <string>
#include <vector>

#include "petri/predicate.hpp"

namespace rap::verify {

/// Fluent property specification: which properties one verification pass
/// must answer. The Spec *owns* its predicates, so callers can build them
/// inline:
///
///     auto report = design.verify(verify::Spec{}
///                                     .deadlock()
///                                     .persistence()
///                                     .custom("no gap", std::move(pred)));
///
/// However the spec is assembled, the compiled pass is always a single
/// state-space exploration, and the report lists findings in the
/// canonical order: Deadlock, ControlConflict, Persistence, then custom
/// properties in registration order.
class Spec {
public:
    struct CustomProperty {
        std::string description;
        petri::Predicate predicate;
    };

    /// All three standard checks (what Verifier::verify_all runs).
    static Spec standard() {
        return Spec{}.deadlock().control_conflict().persistence();
    }

    Spec& deadlock() {
        deadlock_ = true;
        return *this;
    }
    Spec& control_conflict() {
        control_conflict_ = true;
        return *this;
    }
    Spec& persistence() {
        persistence_ = true;
        return *this;
    }
    Spec& custom(std::string description, petri::Predicate predicate) {
        customs_.push_back({std::move(description), std::move(predicate)});
        return *this;
    }

    bool wants_deadlock() const noexcept { return deadlock_; }
    bool wants_control_conflict() const noexcept { return control_conflict_; }
    bool wants_persistence() const noexcept { return persistence_; }
    const std::vector<CustomProperty>& customs() const noexcept {
        return customs_;
    }
    bool empty() const noexcept {
        return !deadlock_ && !control_conflict_ && !persistence_ &&
               customs_.empty();
    }

private:
    bool deadlock_ = false;
    bool control_conflict_ = false;
    bool persistence_ = false;
    std::vector<CustomProperty> customs_;
};

}  // namespace rap::verify
