#include <gtest/gtest.h>

#include "dfs_helpers.hpp"
#include "netlist/library.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "ope/dfs_models.hpp"

namespace rap::netlist {
namespace {

using dfs::testing::make_fig1b;

TEST(Library, SyncDepthTopologies) {
    const Library daisy(SyncTopology::DaisyChain);
    const Library tree;  // default Tree
    EXPECT_EQ(daisy.sync(), SyncTopology::DaisyChain);
    EXPECT_EQ(tree.sync(), SyncTopology::Tree);
    EXPECT_EQ(daisy.sync_depth(18), 18);
    EXPECT_EQ(tree.sync_depth(18), 6);  // ceil(log2 18) + 1
    EXPECT_EQ(daisy.sync_depth(1), 1);
    EXPECT_EQ(tree.sync_depth(1), 1);
    EXPECT_EQ(tree.sync_gates(18), 17);
    EXPECT_EQ(daisy.sync_gates(18), 17);  // same C-element count
}

TEST(Library, SpecsCoverAllKinds) {
    const auto m = make_fig1b();
    const Library lib;
    const auto reg = lib.spec_for(m.graph, m.comp);
    const auto ctrl = lib.spec_for(m.graph, m.ctrl);
    const auto push = lib.spec_for(m.graph, m.filt);
    const auto pop = lib.spec_for(m.graph, m.out);
    const auto fn = lib.spec_for(m.graph, m.cond);
    EXPECT_EQ(reg.type, "ncld_register");
    EXPECT_EQ(ctrl.type, "ncld_control");
    EXPECT_EQ(push.type, "ncld_push");
    EXPECT_EQ(pop.type, "ncld_pop");
    EXPECT_EQ(fn.type, "ncld_function");
    // Dynamic registers cost more than plain ones; control is tiny.
    EXPECT_GT(push.gate_count, reg.gate_count);
    EXPECT_LT(ctrl.gate_count, reg.gate_count);
    for (const auto& spec : {reg, ctrl, push, pop, fn}) {
        EXPECT_GT(spec.gate_count, 0);
        EXPECT_GT(spec.crit_path_gates, 0);
        EXPECT_GT(spec.switched_gates, 0);
    }
}

TEST(Library, DelayAndEnergyDeriveFromSpec) {
    const Library lib;
    ComponentSpec spec;
    spec.crit_path_gates = 10;
    spec.switched_gates = 100;
    EXPECT_NEAR(lib.delay_of(spec), 10 * Library::kGateDelayS, 1e-20);
    EXPECT_NEAR(lib.energy_of(spec), 100 * Library::kEnergyPerGateJ, 1e-20);
}

TEST(Netlist, MapsEveryNode) {
    const auto m = make_fig1b();
    const Netlist netlist(m.graph, Library{});
    EXPECT_EQ(netlist.instances().size(), m.graph.node_count());
    const auto stats = netlist.stats();
    EXPECT_EQ(stats.instances, 6);
    EXPECT_EQ(stats.registers, 2);
    EXPECT_EQ(stats.control_registers, 1);
    EXPECT_EQ(stats.pushes, 1);
    EXPECT_EQ(stats.pops, 1);
    EXPECT_EQ(stats.function_blocks, 1);
    EXPECT_GT(stats.total_gates, 0);
    EXPECT_GT(stats.area_um2, 0);
    EXPECT_NEAR(netlist.total_gates(), stats.total_gates, 1e-9);
}

TEST(Netlist, TimingAnnotationCoversAllNodes) {
    const auto m = make_fig1b();
    const Netlist netlist(m.graph, Library{});
    const auto timing = netlist.timing();
    ASSERT_EQ(timing.size(), m.graph.node_count());
    for (const auto& t : timing) {
        EXPECT_GT(t.delay_s, 0.0);
        EXPECT_GT(t.energy_j, 0.0);
    }
}

TEST(Netlist, ReconfigurableOpeCostsMoreThanStatic) {
    const auto st = ope::build_static_ope_dfs(18);
    const auto rc = ope::build_reconfigurable_ope_dfs(18, 18);
    const Netlist sn(st.graph, Library{});
    const Netlist rn(rc.graph, Library{});
    const auto ss = sn.stats();
    const auto rs = rn.stats();
    // Reconfigurability costs area (rings, pushes, pops)...
    EXPECT_GT(rs.total_gates, ss.total_gates);
    // ...but the control overhead is a modest fraction of the datapath.
    EXPECT_LT(rs.total_gates, static_cast<int>(ss.total_gates * 1.35));
    EXPECT_EQ(rs.pushes, 17 + 17);  // local_in + global_in per reconfig stage
    EXPECT_EQ(rs.pops, 17);
    EXPECT_EQ(rs.control_registers, 3 * (1 + 16 * 2));
}

TEST(Netlist, PaperChipFiguresArePinned) {
    // The chip's two cores as Fig. 8b compares them: the static core
    // with tree completion, the fabricated reconfigurable core (full
    // depth) with the daisy chain. Pins the library's datapath width and
    // area per gate, which no timing or checksum pin reads.
    struct Core {
        const char* name;
        pipeline::Pipeline model;
        SyncTopology sync;
        int instances;
        int total_gates;
        double area_um2;
        const char* header;
    };
    const Core cores[] = {
        {"static", ope::build_static_ope_dfs(18), SyncTopology::Tree, 111,
         11755, 58775.0,
         "// style: NCL-D dual-rail 4-phase, W=16, completion: tree\n"},
        {"reconfigurable", ope::build_reconfigurable_ope_dfs(18, 18),
         SyncTopology::DaisyChain, 210, 14480, 72400.0,
         "// style: NCL-D dual-rail 4-phase, W=16, completion: "
         "daisy-chain\n"},
    };
    for (const Core& core : cores) {
        const Netlist netlist(core.model.graph, Library(core.sync));
        const NetlistStats stats = netlist.stats();
        EXPECT_EQ(stats.instances, core.instances) << core.name;
        EXPECT_EQ(stats.total_gates, core.total_gates) << core.name;
        EXPECT_EQ(stats.area_um2, core.area_um2) << core.name;
        EXPECT_NE(to_verilog(netlist).find(core.header), std::string::npos)
            << core.name;
    }
}

TEST(Verilog, ContainsPrimitivesAndComponents) {
    const auto m = make_fig1b();
    const Netlist netlist(m.graph, Library{});
    const std::string v = to_verilog(netlist);
    for (const char* needle :
         {"module th22", "module c_element", "module ack_join",
          "module ncld_register", "module ncld_push", "module ncld_pop",
          "module ncld_control", "module ncld_function",
          "module fig1b"}) {
        EXPECT_NE(v.find(needle), std::string::npos) << needle;
    }
}

TEST(Verilog, InstantiatesEveryNodeAndWiresConfig) {
    const auto m = make_fig1b();
    const Netlist netlist(m.graph, Library{});
    const std::string v = to_verilog(netlist);
    for (const char* inst :
         {"u_in", "u_cond", "u_ctrl", "u_filt", "u_comp", "u_out"}) {
        EXPECT_NE(v.find(inst), std::string::npos) << inst;
    }
    // The control register drives the push/pop cfg channels.
    EXPECT_NE(v.find(".cfg_d(ctrl_d)"), std::string::npos);
    // Boundary ports for the environment-facing registers.
    EXPECT_NE(v.find("env_in_d"), std::string::npos);
    EXPECT_NE(v.find("out_out_d"), std::string::npos);
}

TEST(Verilog, TopologyParameterFollowsLibrary) {
    const auto m = make_fig1b();
    const std::string v_daisy =
        to_verilog(Netlist(m.graph, Library(SyncTopology::DaisyChain)));
    const std::string v_tree = to_verilog(Netlist(m.graph, Library{}));
    EXPECT_NE(v_daisy.find(".TOPOLOGY(1)"), std::string::npos);
    EXPECT_EQ(v_daisy.find(".TOPOLOGY(0)"), std::string::npos);
    EXPECT_NE(v_tree.find(".TOPOLOGY(0)"), std::string::npos);
}

TEST(Verilog, BalancedParenthesesAndModules) {
    const auto p = ope::build_reconfigurable_ope_dfs(4, 4);
    const Netlist netlist(p.graph, Library{});
    const std::string v = to_verilog(netlist);
    std::size_t modules = 0, endmodules = 0, pos = 0;
    while ((pos = v.find("\nmodule ", pos)) != std::string::npos) {
        ++modules;
        pos += 8;
    }
    pos = 0;
    while ((pos = v.find("endmodule", pos)) != std::string::npos) {
        ++endmodules;
        pos += 9;
    }
    EXPECT_EQ(modules, endmodules);
    int depth = 0;
    for (char c : v) {
        if (c == '(') ++depth;
        if (c == ')') --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(Verilog, SyncTopologyNames) {
    EXPECT_EQ(to_string(SyncTopology::DaisyChain), "daisy-chain");
    EXPECT_EQ(to_string(SyncTopology::Tree), "tree");
}

}  // namespace
}  // namespace rap::netlist
