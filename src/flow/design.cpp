#include "flow/design.hpp"

#include <stdexcept>

#include "dfs/dot.hpp"
#include "netlist/verilog.hpp"
#include "petri/astg.hpp"

namespace rap::flow {

void validate_options(const DesignOptions& options) {
    if (options.verify.max_states == 0) {
        throw std::invalid_argument(
            "flow::DesignOptions: verify.max_states must be positive — a "
            "zero state cap would truncate every exploration at the "
            "initial marking and make all verdicts inconclusive");
    }
}

Design::Design(dfs::Graph graph, DesignOptions options)
    : options_(std::move(options)), graph_(std::move(graph)) {
    validate_options(options_);
}

Design::Design(pipeline::Pipeline pipeline, DesignOptions options)
    : options_(std::move(options)), pipeline_(std::move(pipeline)) {
    validate_options(options_);
}

std::unique_ptr<Design> make_design(dfs::Graph graph,
                                    DesignOptions options) {
    return std::make_unique<Design>(std::move(graph), std::move(options));
}

std::unique_ptr<Design> make_design(pipeline::Pipeline pipeline,
                                    DesignOptions options) {
    return std::make_unique<Design>(std::move(pipeline),
                                    std::move(options));
}

const dfs::Graph& Design::graph() const noexcept {
    return pipeline_ ? pipeline_->graph : *graph_;
}

dfs::Graph& Design::graph_mut() noexcept {
    return pipeline_ ? pipeline_->graph : *graph_;
}

const pipeline::Pipeline& Design::pipeline() const {
    if (!pipeline_) {
        throw std::logic_error("flow::Design '" + name() +
                               "' does not wrap a pipeline");
    }
    return *pipeline_;
}

// -- invalidation --------------------------------------------------------

void Design::invalidate_marking_artifacts() {
    // The PN translation encodes the initial marking; the verifier holds
    // the compiled artifact. Dynamics, netlist and timing read only the
    // structure and survive reconfiguration.
    model_.reset();
    verifier_.reset();
}

void Design::set_depth(int depth) {
    if (!pipeline_) {
        throw std::logic_error("flow::Design '" + name() +
                               "': set_depth needs a pipeline-backed design");
    }
    pipeline::set_depth(*pipeline_, depth);
    invalidate_marking_artifacts();
}

void Design::set_initial(dfs::NodeId node, bool marked,
                         dfs::TokenValue token) {
    graph_mut().set_initial(node, marked, token);
    invalidate_marking_artifacts();
}

void Design::reset_ring(const pipeline::ControlRing& ring,
                        dfs::TokenValue polarity) {
    pipeline::reset_ring(graph_mut(), ring, polarity);
    invalidate_marking_artifacts();
}

// -- artifacts -----------------------------------------------------------

const dfs::Dynamics& Design::dynamics() const {
    if (!dynamics_) dynamics_.emplace(graph());
    return *dynamics_;
}

std::shared_ptr<const verify::CompiledModel> Design::compiled_model() const {
    if (!model_) {
        // compile_model may serve the artifact from the process cache
        // (e.g. a sibling session over the same model content, or a
        // marking this design held before); pn_builds_ counts this
        // design's fetches, served or built.
        model_ = verify::compile_model(graph());
        ++pn_builds_;
    }
    return model_;
}

const dfs::Translation& Design::translation() const {
    return compiled_model()->translation();
}

const petri::CompiledNet& Design::compiled_net() const {
    return compiled_model()->compiled();
}

const verify::Verifier& Design::verifier() const {
    if (!verifier_) {
        verifier_.emplace(graph(), compiled_model(), options_.verify);
    }
    return *verifier_;
}

const netlist::Netlist& Design::netlist() const {
    if (!netlist_) {
        netlist_ =
            std::make_unique<netlist::Netlist>(graph(), netlist::Library());
        ++netlist_builds_;
    }
    return *netlist_;
}

const asim::TimingMap& Design::timing() const {
    if (!timing_) timing_ = netlist().timing();
    return *timing_;
}

// -- verification --------------------------------------------------------

verify::Report Design::verify() const { return verifier().verify_all(); }

verify::Report Design::verify(const verify::Spec& spec) const {
    return verifier().verify(spec);
}

// -- simulation ----------------------------------------------------------

dfs::State Design::initial_state() const {
    return dfs::State::initial(graph());
}

dfs::Simulator Design::simulator(std::uint64_t seed) const {
    return dfs::Simulator(dynamics(), seed);
}

asim::TimedSimulator Design::timed_sim(tech::VoltageSchedule schedule) const {
    return asim::TimedSimulator(dynamics(), timing(), std::move(schedule),
                                netlist().total_gates());
}

asim::TimedSimulator Design::timed_sim() const {
    return timed_sim(tech::VoltageSchedule::constant(tech::kNominalV));
}

// -- exports -------------------------------------------------------------

std::string Design::to_dot() const { return dfs::to_dot(graph()); }

std::string Design::to_astg() const {
    return petri::to_astg(translation().net);
}

std::string Design::to_verilog() const {
    return netlist::to_verilog(netlist());
}

}  // namespace rap::flow
