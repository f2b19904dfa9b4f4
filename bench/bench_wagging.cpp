// E11 (extension) — wagging ablation. Section II-D lists wagging among
// the "advanced performance optimisation techniques" the tool-chain's
// analysis supports, and Section II-B sketches the inverting-arc algebra
// this library implements to express it. We quantify what the transform
// buys: throughput of a pipeline dominated by a slow function, plain vs
// 2-way wagged, across a range of function/plumbing delay ratios.

#include <cstdio>

#include "asim/timed_sim.hpp"
#include "bench_util.hpp"
#include "dfs/dynamics.hpp"
#include "pipeline/wagging.hpp"
#include "util/table.hpp"

namespace {

using namespace rap;

double run_rate(const dfs::Graph& g, dfs::NodeId observe,
                const std::vector<dfs::NodeId>& slow_nodes,
                double slow_delay) {
    const dfs::Dynamics dyn(g);
    asim::TimingMap timing = asim::uniform_timing(g, 1.0);
    for (const auto n : slow_nodes) timing[n.value].delay_s = slow_delay;
    asim::TimedSimulator sim(dyn, timing,
                             tech::VoltageSchedule::constant(1.2), 0.0);
    dfs::State s = dfs::State::initial(g);
    asim::RunLimits limits;
    limits.target_marks = 120;
    limits.observe = observe;
    const auto stats = sim.run(s, limits);
    return static_cast<double>(stats.marks_at(observe)) / stats.time_s;
}

}  // namespace

int main() {
    bench::Stopwatch watch;
    bench::print_header(
        "E11 / wagging ablation (paper extension)",
        "2-way wagging of a slow function via inverting control arcs");

    util::Table table({"f delay / plumbing delay", "plain tok/s",
                       "wagged tok/s", "speedup"});
    for (const double slow : {1.0, 2.0, 5.0, 10.0, 40.0, 100.0}) {
        dfs::Graph plain("plain");
        const auto pin = plain.add_register("in");
        const auto pf = plain.add_logic("f");
        const auto preg = plain.add_register("reg");
        plain.connect(pin, pf);
        plain.connect(pf, preg);
        const double base = run_rate(plain, preg, {pf}, slow);

        dfs::Graph wagged("wagged");
        const auto win = wagged.add_register("in");
        const auto stage = pipeline::add_wagging_stage(wagged, "w", win);
        const double improved =
            run_rate(wagged, stage.out, {stage.f_a, stage.f_b}, slow);

        table.add_row({util::Table::num(slow, 0),
                       util::Table::num(base, 4),
                       util::Table::num(improved, 4),
                       util::Table::num(improved / base, 2)});
    }
    std::printf("%s\n", table.to_ascii().c_str());
    std::printf(
        "Expected shape: no benefit (even a small control tax) while the\n"
        "plumbing dominates; the speedup approaches 2x as the duplicated\n"
        "function becomes the bottleneck (Brej's wagging bound for two\n"
        "ways).\n");
    bench::print_footer(watch);
    return 0;
}
