#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "asim/timed_sim.hpp"
#include "dfs/dynamics.hpp"
#include "dfs/model.hpp"
#include "dfs/simulator.hpp"
#include "dfs/state.hpp"
#include "dfs/translate.hpp"
#include "netlist/netlist.hpp"
#include "petri/compiled.hpp"
#include "pipeline/builder.hpp"
#include "tech/voltage.hpp"
#include "verify/artifacts.hpp"
#include "verify/spec.hpp"
#include "verify/verifier.hpp"

namespace rap::flow {

/// Session-wide settings, fixed at construction: how the session
/// verifies. The technology is no setting: every session maps onto the
/// one NCL-D library (tree completion) and simulates in the one tech::
/// process. Validated by the Design constructor (and therefore by
/// make_design and flow::Sweep): a zero state cap throws
/// std::invalid_argument naming the field.
struct DesignOptions {
    verify::VerifyOptions verify{};  ///< state-space cap, POR, stop hook
};

/// Throws std::invalid_argument if `options` is inconsistent (see
/// DesignOptions). Called by every Design constructor; exposed so batch
/// drivers can reject a bad configuration before spinning up workers.
void validate_options(const DesignOptions& options);

/// One design session over one DFS model — the paper's flow (dataflow
/// structure → Petri-net verification → direct mapping → silicon) as a
/// single object. The Design owns the model and lazily builds + caches
/// every derived artifact:
///
///   dynamics()        token-game semantics (structure-only)
///   compiled_model()  PN translation + CompiledNet (shared artifact)
///   verifier()        model checker over the shared artifact
///   netlist()         NCL-D direct mapping (tree completion)
///   timing()          per-node delay/energy annotation
///   timed_sim()       event-driven timed simulator over all of the above
///
/// A session's structure is fixed at construction. Reconfiguration
/// (set_depth / set_initial / reset_ring) is its only mutation and
/// changes only initial markings, so the PN-derived artifacts are fetched
/// again on next use while dynamics, the netlist mapping and timing
/// (structure-only) are built once. pn_builds() / netlist_builds() count
/// the fetches and builds, so tests and benches can assert the caching
/// contract.
///
/// ## Pinning contract (the one place it is documented)
///
/// A Design is pinned in place: no copies, no moves. Cached artifacts
/// (dynamics, verifier, netlist, timing) point into the owned graph, and
/// every reference the Design hands out stays valid only while the
/// Design itself stays at its address and alive. Consequences:
///
/// - Anything that needs to *store or move* sessions — containers,
///   `flow::Sweep` workers, hand-rolled pools — holds them through
///   `flow::make_design(...)`, which returns std::unique_ptr<Design>:
///   the pointer moves freely while the session stays pinned.
/// - References obtained from a Design (translation(), netlist(), ...)
///   must not outlive it; copy the data out if it must survive.
///
/// Constructors validate their DesignOptions (see validate_options) and
/// throw std::invalid_argument with a field-naming message on bad input.
class Design {
public:
    explicit Design(dfs::Graph graph, DesignOptions options = {});

    /// Wraps a built pipeline, keeping its stage handles available for
    /// reconfiguration (set_depth / ring access).
    explicit Design(pipeline::Pipeline pipeline, DesignOptions options = {});

    Design(const Design&) = delete;
    Design& operator=(const Design&) = delete;

    const dfs::Graph& graph() const noexcept;
    const std::string& name() const noexcept { return graph().name(); }
    const DesignOptions& options() const noexcept { return options_; }

    bool has_pipeline() const noexcept { return pipeline_.has_value(); }
    /// The wrapped pipeline; throws std::logic_error for graph-backed
    /// designs.
    const pipeline::Pipeline& pipeline() const;

    // -- reconfiguration (initial-marking mutations) --------------------
    // These model writing the chip's `config` input between runs: the
    // structure is untouched, so only the PN-derived artifacts (which
    // encode the initial marking) are invalidated.

    /// pipeline::set_depth on the wrapped pipeline. Throws
    /// std::logic_error ("set_depth needs a pipeline-backed design") for
    /// graph-backed designs, std::invalid_argument for an out-of-range
    /// depth or a bypassed static stage (see pipeline::set_depth). On
    /// any throw the model, the cached artifacts and the build counters
    /// are all untouched — a failed reconfiguration leaves the session
    /// exactly as it was.
    void set_depth(int depth);

    /// dfs::Graph::set_initial with artifact invalidation.
    void set_initial(dfs::NodeId node, bool marked,
                     dfs::TokenValue token = dfs::TokenValue::True);

    /// pipeline::reset_ring with artifact invalidation (the mis-init
    /// seeding hook of the Section III-A workflow).
    void reset_ring(const pipeline::ControlRing& ring,
                    dfs::TokenValue polarity);

    // -- cached artifacts ------------------------------------------------

    const dfs::Dynamics& dynamics() const;
    std::shared_ptr<const verify::CompiledModel> compiled_model() const;
    const dfs::Translation& translation() const;
    const petri::CompiledNet& compiled_net() const;
    const verify::Verifier& verifier() const;
    const netlist::Netlist& netlist() const;
    const asim::TimingMap& timing() const;

    // -- verification -----------------------------------------------------

    /// All standard checks (deadlock, control conflict, persistence) in
    /// one exploration, whose statistics the report carries.
    verify::Report verify() const;

    /// Exactly the properties `spec` asks for, one exploration.
    verify::Report verify(const verify::Spec& spec) const;

    // -- simulation -------------------------------------------------------

    dfs::State initial_state() const;

    /// Untimed random token game over the cached dynamics.
    dfs::Simulator simulator(std::uint64_t seed = 1) const;

    /// Event-driven timed simulator annotated from the mapped netlist
    /// (delays, energies, leakage gate count) under the given supply
    /// schedule.
    asim::TimedSimulator timed_sim(tech::VoltageSchedule schedule) const;

    /// timed_sim at a constant tech::kNominalV supply.
    asim::TimedSimulator timed_sim() const;

    // -- exports ----------------------------------------------------------

    std::string to_dot() const;      ///< Graphviz rendering of the model
    std::string to_astg() const;     ///< .g (petrify/Workcraft) of the PN
    std::string to_verilog() const;  ///< Verilog of the mapped netlist

    // -- cache observability ----------------------------------------------

    /// Times this design fetched its PN translation + CompiledNet
    /// artifact, whether the process cache served it or built it: at most
    /// one fetch per reconfiguration. verify::artifact_builds() counts
    /// the builds.
    std::size_t pn_builds() const noexcept { return pn_builds_; }

    /// Times the netlist mapping was built for this design.
    std::size_t netlist_builds() const noexcept { return netlist_builds_; }

private:
    dfs::Graph& graph_mut() noexcept;
    void invalidate_marking_artifacts();

    DesignOptions options_;
    /// Exactly one of the two holds the model.
    std::optional<pipeline::Pipeline> pipeline_;
    std::optional<dfs::Graph> graph_;

    mutable std::optional<dfs::Dynamics> dynamics_;
    mutable std::shared_ptr<const verify::CompiledModel> model_;
    mutable std::optional<verify::Verifier> verifier_;
    mutable std::unique_ptr<netlist::Netlist> netlist_;
    mutable std::optional<asim::TimingMap> timing_;

    mutable std::size_t pn_builds_ = 0;
    mutable std::size_t netlist_builds_ = 0;
};

/// Heap-pinned session factory: the way to own a Design that has to be
/// stored, moved or pooled (Design itself is non-movable — see the
/// pinning contract above). flow::Sweep holds its per-configuration
/// sessions through exactly this.
std::unique_ptr<Design> make_design(dfs::Graph graph,
                                    DesignOptions options = {});
std::unique_ptr<Design> make_design(pipeline::Pipeline pipeline,
                                    DesignOptions options = {});

}  // namespace rap::flow
