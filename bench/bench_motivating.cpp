// E2 — Fig. 1a vs Fig. 1b: conditional application of an expensive
// function. The SDFS model (static registers/logic only) must evaluate
// `comp` for every item; the DFS model bypasses it via the control/push/
// pop trio when `cond` is False. We sweep the probability of cond=True
// and report throughput and energy per item for both models — the
// "performance and power degrade to the worst case" claim of Section II.

#include <cstdio>

#include "asim/timed_sim.hpp"
#include "bench_util.hpp"
#include "dfs/dynamics.hpp"
#include "dfs/model.hpp"
#include "tech/voltage.hpp"
#include "util/table.hpp"

namespace {

using namespace rap;

struct Model {
    dfs::Graph graph;
    dfs::NodeId out;
    dfs::NodeId comp;
};

/// Fig. 1a: both cond and comp always execute; filt (logic) merges them.
Model make_sdfs() {
    Model m{dfs::Graph("fig1a"), {}, {}};
    auto& g = m.graph;
    const auto in = g.add_register("in");
    const auto cond = g.add_logic("cond");
    const auto flag = g.add_register("flag");
    m.comp = g.add_register("comp");  // the shaded comp pipeline
    const auto filt = g.add_logic("filt");
    const auto out = g.add_register("out");
    g.connect(in, cond);
    g.connect(cond, flag);
    g.connect(in, m.comp);
    g.connect(flag, filt);
    g.connect(m.comp, filt);
    g.connect(filt, out);
    m.out = out;
    return m;
}

/// Fig. 1b: the DFS model with ctrl / push filt / pop out.
Model make_dfs() {
    Model m{dfs::Graph("fig1b"), {}, {}};
    auto& g = m.graph;
    const auto in = g.add_register("in");
    const auto cond = g.add_logic("cond");
    const auto ctrl = g.add_control("ctrl", false, dfs::TokenValue::True);
    const auto filt = g.add_push("filt");
    m.comp = g.add_register("comp");
    const auto out = g.add_pop("out");
    g.connect(in, cond);
    g.connect(cond, ctrl);
    g.connect(in, filt);
    g.connect(ctrl, filt);
    g.connect(filt, m.comp);
    g.connect(m.comp, out);
    g.connect(ctrl, out);
    m.out = out;
    return m;
}

struct Point {
    double time_per_item;
    double energy_per_item;
    double comp_activity;
};

Point measure(const Model& m, double true_bias, std::uint64_t items) {
    const dfs::Dynamics dynamics(m.graph);
    // comp is the expensive pipelined function: 20x the delay and 50x
    // the energy of the plumbing around it.
    asim::TimingMap timing = asim::uniform_timing(m.graph, 1e-9, 1e-12);
    timing[m.comp.value] = {20e-9, 50e-12};
    asim::TimedSimulator sim(dynamics, timing,
                             tech::VoltageSchedule::constant(1.2), 0.0);
    sim.set_seed(7);
    sim.set_true_bias(true_bias);
    dfs::State state = dfs::State::initial(m.graph);
    asim::RunLimits limits;
    limits.target_marks = items;
    limits.observe = m.out;
    const auto stats = sim.run(state, limits);
    const auto outputs = stats.marks_at(m.out);
    return {stats.time_s / static_cast<double>(outputs),
            stats.dynamic_energy_j / static_cast<double>(outputs),
            static_cast<double>(stats.marks_at(m.comp)) /
                static_cast<double>(outputs)};
}

}  // namespace

int main() {
    bench::Stopwatch watch;
    bench::print_header("E2 / Fig. 1a vs 1b",
                        "conditional comp: SDFS worst-case vs DFS bypass");

    const Model sdfs = make_sdfs();
    const Model dfs_model = make_dfs();
    constexpr std::uint64_t kItems = 2000;

    util::Table table({"P(cond=True)", "SDFS ns/item", "DFS ns/item",
                       "speedup", "SDFS pJ/item", "DFS pJ/item",
                       "energy ratio", "DFS comp activity"});
    for (const double p : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
        const Point s = measure(sdfs, p, kItems);
        const Point d = measure(dfs_model, p, kItems);
        table.add_row({util::Table::num(p, 2),
                       util::Table::num(s.time_per_item * 1e9, 2),
                       util::Table::num(d.time_per_item * 1e9, 2),
                       util::Table::num(s.time_per_item / d.time_per_item, 2),
                       util::Table::num(s.energy_per_item * 1e12, 2),
                       util::Table::num(d.energy_per_item * 1e12, 2),
                       util::Table::num(
                           d.energy_per_item / s.energy_per_item, 3),
                       util::Table::num(d.comp_activity, 3)});
    }
    std::printf("%s\n", table.to_ascii().c_str());
    std::printf(
        "Expected shape: the SDFS columns are flat at the worst case;\n"
        "the DFS columns improve towards P=0 (full bypass), converging\n"
        "to the SDFS cost at P=1.\n");
    bench::print_footer(watch);
    return 0;
}
