// End-to-end integration: the full Section II-D / III flow on one model —
// build, serialise, verify, analyse, map to the NCL-D netlist, export
// Verilog, run the timed chip simulation, and cross-check the functional
// checksum against the behavioural model. Each step's output feeds the
// next, so any cross-layer inconsistency breaks here.

#include <gtest/gtest.h>

#include "chip/chip.hpp"
#include "dfs/serialize.hpp"
#include "dfs/simulator.hpp"
#include "flow/design.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "ope/dfs_models.hpp"
#include "perf/cycles.hpp"
#include "verify/verifier.hpp"

namespace rap {
namespace {

TEST(Integration, FullFlowOnReconfigurableOpe) {
    // 1. Model (Fig. 7 shape, 3 stages for tractable verification),
    //    opened as ONE design session carrying every later step.
    flow::DesignOptions options;
    options.verify.max_states = 3'000'000;
    const flow::Design design(ope::build_reconfigurable_ope_dfs(3, 3),
                              options);
    ASSERT_TRUE(design.graph().validate().empty());

    // 2. Serialisation survives the full structure.
    const auto reloaded = dfs::from_text(dfs::to_text(design.graph()));
    EXPECT_EQ(reloaded.node_count(), design.graph().node_count());
    EXPECT_EQ(reloaded.edge_count(), design.graph().edge_count());

    // 3. Formal verification is clean.
    const auto report = design.verify();
    EXPECT_TRUE(report.clean()) << report.to_string();

    // 4. Performance analysis sees live cycles only.
    const auto cycles = perf::analyse_cycles(design.graph());
    EXPECT_FALSE(cycles.cycles.empty());
    EXPECT_GT(cycles.throughput_bound(), 0.0);

    // 5. Netlist mapping and Verilog export off the same session; the
    //    PN artifact from step 3 was not rebuilt along the way.
    EXPECT_EQ(design.netlist().instances().size(),
              design.graph().node_count());
    const std::string verilog = design.to_verilog();
    EXPECT_NE(verilog.find("module ope_reconfig_3"), std::string::npos);
    EXPECT_EQ(design.pn_builds(), 1u);
    EXPECT_EQ(design.netlist_builds(), 1u);

    // 6. Timed simulation of the mapped design completes and the
    //    mapped timing covers every node.
    chip::ChipOptions coptions;
    coptions.stages = 3;
    coptions.depth = 3;
    coptions.core = chip::Core::Reconfigurable;
    const chip::Evaluation chip_eval(coptions);
    const auto measurement = chip_eval.measure(1.2, 100);
    EXPECT_EQ(measurement.items, 100u);
    EXPECT_FALSE(measurement.deadlocked);
    EXPECT_GT(measurement.energy_j(), 0.0);

    // 7. Functional equivalence with the behavioural model.
    const auto functional = chip::run_random_mode(coptions, 0xAB, 4000);
    EXPECT_EQ(functional.checksum, chip::reference_checksum(3, 0xAB, 4000));
}

TEST(Integration, StaticAndReconfigurableAgreeFunctionally) {
    // Same stream through the static core and through every depth of the
    // reconfigurable core set to full depth must agree (the chip's two
    // cores compute the same function when depth == stages).
    for (const int stages : {3, 6, 10}) {
        chip::ChipOptions st;
        st.stages = stages;
        st.depth = stages;
        st.core = chip::Core::Static;
        chip::ChipOptions rc = st;
        rc.core = chip::Core::Reconfigurable;
        EXPECT_EQ(chip::run_random_mode(st, 0x11, 2000).checksum,
                  chip::run_random_mode(rc, 0x11, 2000).checksum)
            << stages << " stages";
    }
}

TEST(Integration, TimedAndUntimedSemanticsAgreeOnTokenCounts) {
    // The timed simulator and the untimed random walk must agree on the
    // conservation structure: one output token per input token.
    const auto model = ope::build_reconfigurable_ope_dfs(4, 3);
    const dfs::Dynamics dyn(model.graph);

    dfs::Simulator untimed(dyn, 3);
    dfs::State s1 = dfs::State::initial(model.graph);
    const auto ustats = untimed.run(s1, 100000);
    ASSERT_FALSE(ustats.deadlocked);
    EXPECT_NEAR(static_cast<double>(ustats.marks_at(model.in)),
                static_cast<double>(ustats.marks_at(model.out)), 6.0);

    asim::TimedSimulator timed(dyn, asim::uniform_timing(model.graph, 1.0),
                               tech::VoltageSchedule::constant(1.2), 0.0);
    dfs::State s2 = dfs::State::initial(model.graph);
    asim::RunLimits limits;
    limits.target_marks = 200;
    limits.observe = model.out;
    const auto tstats = timed.run(s2, limits);
    EXPECT_NEAR(static_cast<double>(tstats.marks_at(model.in)),
                static_cast<double>(tstats.marks_at(model.out)), 6.0);
}

TEST(Integration, VerilogExportScalesTo18Stages) {
    const auto model = ope::build_reconfigurable_ope_dfs(18, 18);
    const netlist::Netlist mapped(
        model.graph, netlist::Library(netlist::SyncTopology::DaisyChain));
    const std::string verilog = netlist::to_verilog(mapped);
    // Every stage instantiated; chain topology selected.
    for (int i = 1; i <= 18; ++i) {
        EXPECT_NE(verilog.find("u_s" + std::to_string(i) + "_global_in"),
                  std::string::npos)
            << i;
    }
    EXPECT_NE(verilog.find(".TOPOLOGY(1)"), std::string::npos);
    EXPECT_GT(verilog.size(), 50000u);
}

}  // namespace
}  // namespace rap
