// Link-coverage sanity check for librap: every module contributes at
// least one out-of-line symbol referenced here, so a module silently
// dropped from the build graph fails this test's link, not a downstream
// consumer. Includes go through the public `rap/...` facade to keep the
// installed header layout honest too.

#include <gtest/gtest.h>

#include "rap/asim/timed_sim.hpp"
#include "rap/chip/lfsr.hpp"
#include "rap/dfs/model.hpp"
#include "rap/flow/design.hpp"
#include "rap/netlist/netlist.hpp"
#include "rap/ope/encoder.hpp"
#include "rap/perf/cycles.hpp"
#include "rap/petri/net.hpp"
#include "rap/pipeline/builder.hpp"
#include "rap/tech/voltage.hpp"
#include "rap/util/bitvec.hpp"
#include "rap/verify/verifier.hpp"

namespace {

using namespace rap;

TEST(BuildSanity, EveryModuleLinks) {
    // util
    util::BitVec bits(8);
    bits.set(3, true);
    EXPECT_EQ(bits.count(), 1u);

    // tech
    EXPECT_DOUBLE_EQ(tech::speed_factor(tech::kNominalV), 1.0);

    // petri
    petri::Net net("sanity");
    const auto place = net.add_place("p0", true);
    EXPECT_TRUE(net.initial_marking().get(place.value));

    // dfs
    dfs::Graph graph("sanity");
    const auto src = graph.add_register("src", true);
    const auto dst = graph.add_register("dst");
    graph.connect(src, dst);
    EXPECT_EQ(graph.node_count(), 2u);

    // pipeline
    const auto pipe = pipeline::build_pipeline(
        "sanity_pipe", {pipeline::StageOptions{}, pipeline::StageOptions{}});
    EXPECT_EQ(pipe.active_depth(), 2);

    // ope
    ope::ReferenceEncoder encoder(3);
    encoder.push(1);

    // asim
    const auto timing = asim::uniform_timing(graph, 1e-9);
    EXPECT_EQ(timing.size(), graph.node_count());

    // netlist
    const netlist::Netlist mapped(graph, netlist::Library{});
    EXPECT_EQ(mapped.instances().size(), graph.node_count());

    // perf
    const auto cycles = perf::analyse_cycles(pipe.graph);
    EXPECT_FALSE(cycles.truncated);
    EXPECT_GT(cycles.throughput_bound(), 0.0);

    // verify
    const verify::Verifier verifier(graph);
    const auto deadlock =
        verifier.verify(verify::Spec{}.deadlock()).findings[0];
    EXPECT_FALSE(deadlock.truncated);
    EXPECT_GT(deadlock.states_explored, 0u);

    // flow
    const flow::Design design(graph);
    EXPECT_EQ(design.graph().node_count(), graph.node_count());
    EXPECT_EQ(design.verify(verify::Spec{}.deadlock()).findings.size(), 1u);
    EXPECT_EQ(design.pn_builds(), 1u);

    // chip
    chip::Lfsr lfsr(1);
    EXPECT_NE(lfsr.next(), 0u);
}

}  // namespace
