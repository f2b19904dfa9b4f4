// Tests for the interchange exporters: VCD waveforms from timed runs and
// the ASTG/.g Petri-net format.

#include <gtest/gtest.h>

#include <map>

#include "asim/timed_sim.hpp"
#include "asim/vcd.hpp"
#include "dfs/dynamics.hpp"
#include "dfs/translate.hpp"
#include "dfs_helpers.hpp"
#include "petri/astg.hpp"
#include "util/strings.hpp"

namespace rap {
namespace {

using dfs::testing::make_fig1b;

asim::TimedStats traced_run(const dfs::Graph& g, dfs::NodeId observe,
                            std::uint64_t marks,
                            std::size_t cap = 1'000'000) {
    const dfs::Dynamics dyn(g);
    asim::TimedSimulator sim(dyn, asim::uniform_timing(g, 1.0),
                             tech::VoltageSchedule::constant(1.2), 0.0);
    sim.enable_event_trace(cap);
    dfs::State s = dfs::State::initial(g);
    asim::RunLimits limits;
    limits.target_marks = marks;
    limits.observe = observe;
    return sim.run(s, limits);
}

TEST(EventTrace, RecordsEveryEventInOrder) {
    const auto m = make_fig1b();
    const auto stats = traced_run(m.graph, m.out, 20);
    ASSERT_EQ(stats.events_log.size(), stats.events);
    double prev = 0;
    for (const auto& te : stats.events_log) {
        EXPECT_GE(te.t_s, prev);
        prev = te.t_s;
    }
}

TEST(EventTrace, CapBoundsMemory) {
    const auto m = make_fig1b();
    const auto stats = traced_run(m.graph, m.out, 50, /*cap=*/10);
    EXPECT_EQ(stats.events_log.size(), 10u);
    EXPECT_GT(stats.events, 10u);
}

TEST(Vcd, HeaderDeclaresAllSignals) {
    const auto m = make_fig1b();
    const auto stats = traced_run(m.graph, m.out, 10);
    const std::string vcd =
        asim::to_vcd(m.graph, stats.events_log, 1e-12);
    EXPECT_NE(vcd.find("$timescale 1 ps $end"), std::string::npos);
    EXPECT_NE(vcd.find("$scope module fig1b $end"), std::string::npos);
    for (const char* signal :
         {"C_cond", "M_in", "M_ctrl", "T_ctrl", "M_filt", "T_filt",
          "M_comp", "M_out", "T_out"}) {
        EXPECT_NE(vcd.find(std::string(" ") + signal + " $end"),
                  std::string::npos)
            << signal;
    }
    // No T_ wire for static registers.
    EXPECT_EQ(vcd.find("T_comp"), std::string::npos);
    EXPECT_EQ(vcd.find("T_in"), std::string::npos);
}

TEST(Vcd, InitialDumpMatchesInitialMarking) {
    auto m = make_fig1b();
    m.graph.set_initial(m.comp, true);
    const auto stats = traced_run(m.graph, m.out, 5);
    const std::string vcd = asim::to_vcd(m.graph, stats.events_log);
    // Within $dumpvars, comp's code must be set to 1.
    const auto dump_at = vcd.find("$dumpvars");
    const auto end_at = vcd.find("$end", dump_at);
    ASSERT_NE(dump_at, std::string::npos);
    // Find comp's identifier code from its $var line.
    const auto var_at = vcd.find(" M_comp $end");
    ASSERT_NE(var_at, std::string::npos);
    const auto line_start = vcd.rfind('\n', var_at) + 1;
    const auto fields = util::split(
        vcd.substr(line_start, var_at - line_start), ' ');
    ASSERT_GE(fields.size(), 4u);  // $var wire 1 <code>
    const std::string code = fields[3];
    EXPECT_NE(vcd.substr(dump_at, end_at - dump_at).find("1" + code),
              std::string::npos);
}

TEST(Vcd, ValueChangesFollowEvents) {
    const auto m = make_fig1b();
    const auto stats = traced_run(m.graph, m.out, 10);
    const std::string vcd =
        asim::to_vcd(m.graph, stats.events_log, 1e-12);
    // Timestamps appear as monotonically increasing #ticks.
    long long prev = -1;
    for (const auto& line : util::split(vcd, '\n')) {
        if (line.empty() || line[0] != '#') continue;
        const long long tick = std::stoll(line.substr(1));
        EXPECT_GT(tick, prev);
        prev = tick;
    }
    EXPECT_GT(prev, 0);
}

TEST(Vcd, NanosecondTimescale) {
    const auto m = make_fig1b();
    const auto stats = traced_run(m.graph, m.out, 5);
    const std::string vcd = asim::to_vcd(m.graph, stats.events_log, 1e-9);
    EXPECT_NE(vcd.find("$timescale 1 ns $end"), std::string::npos);
}

// ---------------------------------------------------------------- astg --

TEST(Astg, StructureOfFig1bNet) {
    const auto m = make_fig1b();
    const auto tr = dfs::to_petri(m.graph);
    const std::string g = petri::to_astg(tr.net);
    EXPECT_NE(g.find(".model fig1b_pn"), std::string::npos);
    EXPECT_NE(g.find(".graph"), std::string::npos);
    EXPECT_NE(g.find(".end"), std::string::npos);
    // Every transition listed as dummy.
    const auto dummy_at = g.find(".dummy");
    ASSERT_NE(dummy_at, std::string::npos);
    const auto dummy_line = g.substr(dummy_at, g.find('\n', dummy_at) -
                                                   dummy_at);
    EXPECT_NE(dummy_line.find("Mt_ctrl_p"), std::string::npos);
    EXPECT_NE(dummy_line.find("Mt_ctrl_m"), std::string::npos);
    EXPECT_NE(dummy_line.find("C_cond_p"), std::string::npos);
    // All dummy names are distinct (the +/- polarity must survive the
    // identifier sanitisation).
    std::map<std::string, int> counts;
    for (const auto& word : util::split(dummy_line, ' ')) ++counts[word];
    for (const auto& [word, count] : counts) {
        EXPECT_EQ(count, 1) << word;
    }
}

TEST(Astg, MarkingListsInitialPlaces) {
    const auto m = make_fig1b();
    const auto tr = dfs::to_petri(m.graph);
    const std::string g = petri::to_astg(tr.net);
    const auto marking_at = g.find(".marking {");
    ASSERT_NE(marking_at, std::string::npos);
    const auto marking_line =
        g.substr(marking_at, g.find('\n', marking_at) - marking_at);
    // Empty places of unmarked variables are the *_0 places.
    EXPECT_NE(marking_line.find("M_in_0"), std::string::npos);
    EXPECT_NE(marking_line.find("C_cond_0"), std::string::npos);
    EXPECT_EQ(marking_line.find("M_in_1"), std::string::npos);
}

TEST(Astg, ReadArcsExpandToSelfLoops) {
    petri::Net net("rw");
    const auto g1 = net.add_place("guard", true);
    const auto s = net.add_place("s", true);
    const auto d = net.add_place("d", false);
    const auto t = net.add_transition("go");
    net.add_input_arc(s, t);
    net.add_output_arc(t, d);
    net.add_read_arc(g1, t);
    const std::string text = petri::to_astg(net);
    // Both directions present for the read place.
    EXPECT_NE(text.find("guard go"), std::string::npos);
    EXPECT_NE(text.find("go guard"), std::string::npos);
    // Plain arcs only once in their direction.
    EXPECT_NE(text.find("s go"), std::string::npos);
    EXPECT_EQ(text.find("go s"), std::string::npos);
}

TEST(Astg, ArcCountMatchesNet) {
    const auto m = make_fig1b();
    const auto tr = dfs::to_petri(m.graph);
    const std::string text = petri::to_astg(tr.net);
    // Count arc lines between .graph and .marking.
    const auto begin = text.find(".graph\n") + 7;
    const auto end = text.find(".marking");
    std::size_t lines = 0;
    for (std::size_t i = begin; i < end; ++i) {
        if (text[i] == '\n') ++lines;
    }
    std::size_t reads = 0;
    for (std::uint32_t i = 0; i < tr.net.transition_count(); ++i) {
        reads += tr.net.readset(petri::TransitionId{i}).size();
    }
    // Every read arc contributes two lines.
    EXPECT_EQ(lines, tr.net.arc_count() + reads);
}

}  // namespace
}  // namespace rap
