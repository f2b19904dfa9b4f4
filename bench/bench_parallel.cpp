// Parallel-frontier reachability scaling: states/s of the
// ParallelReachabilityExplorer at 1, 2, 4 and all hardware threads,
// head-to-head with the sequential compiled engine on the 191k-state
// 3-stage reconfigurable OPE model — the hot path of the verification
// flow — for a bare exploration and for the full verify_all pass.
//
// --json PATH writes the machine-readable summary bench/compare.py
// gates (multi-thread scaling floor on multi-core runners; skipped
// gracefully on 1-core containers).
//
// Exit is non-zero on any cross-engine disagreement, so the harness
// doubles as an end-to-end differential smoke.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "dfs/model.hpp"
#include "dfs/translate.hpp"
#include "ope/dfs_models.hpp"
#include "petri/parallel.hpp"
#include "petri/reachability.hpp"
#include "util/table.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace rap;

double run_explore(petri::ParallelReachabilityExplorer& explorer,
                   petri::ReachabilityResult& out) {
    bench::Stopwatch watch;
    out = explorer.explore_all();
    return watch.elapsed_s();
}

}  // namespace

int main(int argc, char** argv) {
    const char* json_path = nullptr;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
    }
    bench::Stopwatch watch;
    bench::print_header(
        "parallel-frontier reachability scaling",
        "states/s vs the sequential engine, 3-stage reconfigurable OPE");

    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("hardware threads: %u\n\n", hw ? hw : 1);

    const auto p = ope::build_reconfigurable_ope_dfs(3, 3);
    const auto tr = dfs::to_petri(p.graph);
    const petri::CompiledNet compiled(tr.net);

    // Sequential baseline (the PR-2 engine, exactly).
    petri::ReachabilityExplorer sequential(compiled);
    bench::Stopwatch seq_watch;
    const auto baseline = sequential.explore_all();
    const double seq_s = seq_watch.elapsed_s();
    const double seq_rate =
        static_cast<double>(baseline.states_explored) / seq_s;

    util::Table table(
        {"engine", "threads", "states", "edges", "time [ms]", "states/s",
         "speedup"});
    table.add_row({"sequential", "1",
                   std::to_string(baseline.states_explored),
                   std::to_string(baseline.edges_explored),
                   util::Table::num(seq_s * 1e3, 1),
                   util::Table::num(seq_rate, 0), "1.00x"});

    bool ok = true;
    double best_speedup = 0.0;
    std::vector<std::size_t> counts{1, 2, 4};
    if (hw > 4) counts.push_back(hw);
    for (const std::size_t threads : counts) {
        petri::ReachabilityOptions options;
        options.threads = threads;
        petri::ParallelReachabilityExplorer explorer(compiled, options);
        petri::ReachabilityResult result;
        // Two runs, keep the second: the first warms the allocator and
        // page cache so the curve reflects steady-state throughput.
        run_explore(explorer, result);
        const double par_s = run_explore(explorer, result);
        const double rate =
            static_cast<double>(result.states_explored) / par_s;
        const double speedup = rate / seq_rate;
        best_speedup = std::max(best_speedup, speedup);
        table.add_row({"parallel", std::to_string(threads),
                       std::to_string(result.states_explored),
                       std::to_string(result.edges_explored),
                       util::Table::num(par_s * 1e3, 1),
                       util::Table::num(rate, 0),
                       util::Table::num(speedup, 2) + "x"});
        if (result.states_explored != baseline.states_explored ||
            result.edges_explored != baseline.edges_explored) {
            std::printf("ENGINE MISMATCH at %zu threads: %zu/%zu states, "
                        "%zu/%zu edges\n",
                        threads, result.states_explored,
                        baseline.states_explored, result.edges_explored,
                        baseline.edges_explored);
            ok = false;
        }
    }
    std::printf("explore_all scaling:\n%s\n", table.to_ascii().c_str());
    std::printf("best parallel speedup: %.2fx states/s "
                "(target: >=3x at 4+ cores)\n\n",
                best_speedup);

    // The same curve for the full verification workload — deadlock +
    // control-conflict + persistence in one pass through the Verifier
    // facade, i.e. what flow::Design::verify() pays.
    util::Table verify_table({"threads", "states", "time [ms]", "speedup"});
    double verify_seq_s = 0.0;
    for (const std::size_t threads : counts) {
        verify::VerifyOptions options;
        options.threads = threads;
        const verify::Verifier verifier(p.graph, options);
        const auto warm = verifier.verify_all();
        bench::Stopwatch verify_watch;
        const auto report = verifier.verify_all();
        const double s = verify_watch.elapsed_s();
        if (threads == 1) verify_seq_s = s;
        if (!report.clean() || !warm.clean()) {
            std::printf("UNEXPECTED VIOLATION in clean OPE model\n");
            ok = false;
        }
        verify_table.add_row(
            {std::to_string(threads),
             std::to_string(report.findings[0].states_explored),
             util::Table::num(s * 1e3, 1),
             util::Table::num(verify_seq_s / s, 2) + "x"});
    }
    std::printf("verify_all (3 properties, one pass):\n%s\n",
                verify_table.to_ascii().c_str());

    if (json_path != nullptr) {
        if (FILE* f = std::fopen(json_path, "w")) {
            std::fprintf(
                f,
                "{\n"
                "  \"hardware_threads\": %u,\n"
                "  \"best_speedup\": %.3f,\n"
                "  \"ok\": %s\n"
                "}\n",
                hw ? hw : 1, best_speedup, ok ? "true" : "false");
            std::fclose(f);
        } else {
            std::printf("cannot write %s\n", json_path);
            ok = false;
        }
    }

    bench::print_footer(watch);
    return ok ? 0 : 1;
}
