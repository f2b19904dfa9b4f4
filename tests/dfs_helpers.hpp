#pragma once

// Shared DFS model builders for the test suite: the paper's motivating
// example (Fig. 1b), the canonical 3-register control loop of the
// reconfigurable stage methodology (Fig. 6c) and the seeded fuzz models.

#include <cstdint>
#include <string>
#include <vector>

#include "dfs/model.hpp"
#include "pipeline/builder.hpp"
#include "util/rng.hpp"

namespace rap::dfs::testing {

struct Fig1b {
    Graph graph{"fig1b"};
    NodeId in, cond, ctrl, filt, comp, out;
};

/// Conditional application of `comp` (Fig. 1b): `cond` evaluates the data
/// item in `in`, its True/False outcome lands in the control register
/// `ctrl`, which guards the push `filt` (destroying bypassed tokens) and
/// the pop `out` (producing the matching empty output).
inline Fig1b make_fig1b() {
    Fig1b m;
    Graph& g = m.graph;
    m.in = g.add_register("in");
    m.cond = g.add_logic("cond");
    m.ctrl = g.add_control("ctrl", false, TokenValue::True);
    m.filt = g.add_push("filt");
    m.comp = g.add_register("comp");
    m.out = g.add_pop("out");
    g.connect(m.in, m.cond);
    g.connect(m.cond, m.ctrl);
    g.connect(m.in, m.filt);
    g.connect(m.ctrl, m.filt);
    g.connect(m.filt, m.comp);
    g.connect(m.comp, m.out);
    g.connect(m.ctrl, m.out);
    return m;
}

struct ControlRing {
    NodeId c1, c2, c3;
};

/// Adds a 3-register control loop (the minimum for token oscillation,
/// Section III) carrying one token of the given polarity, with `c1`
/// initially marked.
inline ControlRing add_control_ring(Graph& g, const std::string& prefix,
                                    TokenValue token) {
    ControlRing ring;
    ring.c1 = g.add_control(prefix + "_c1", true, token);
    ring.c2 = g.add_control(prefix + "_c2", false, token);
    ring.c3 = g.add_control(prefix + "_c3", false, token);
    g.connect(ring.c1, ring.c2);
    g.connect(ring.c2, ring.c3);
    g.connect(ring.c3, ring.c1);
    return ring;
}

/// Per-stage options of the Fig. 7 reconfigurable OPE shape: stage 1
/// static, stage 2 reconfigurable but reusing its global ring for the
/// local interface (the s2 optimisation), stages 3..n fully ringed;
/// the first `depth` stages start active.
inline std::vector<pipeline::StageOptions> ope_style_stages(int n,
                                                            int depth) {
    std::vector<pipeline::StageOptions> options;
    for (int i = 0; i < n; ++i) {
        pipeline::StageOptions opt;
        opt.reconfigurable = i > 0;
        opt.reuse_global_ring_for_local = (i == 1);
        opt.active = i < depth;
        options.push_back(opt);
    }
    return options;
}

/// A linear static pipeline: in -> f1 -> r1 -> f2 -> r2 -> ... -> fN -> rN.
inline std::vector<NodeId> add_linear_pipeline(Graph& g,
                                               const std::string& prefix,
                                               int stages) {
    std::vector<NodeId> regs;
    NodeId prev = g.add_register(prefix + "_in");
    regs.push_back(prev);
    for (int i = 1; i <= stages; ++i) {
        const NodeId f = g.add_logic(prefix + "_f" + std::to_string(i));
        const NodeId r = g.add_register(prefix + "_r" + std::to_string(i));
        g.connect(prev, f);
        g.connect(f, r);
        regs.push_back(r);
        prev = r;
    }
    return regs;
}

/// Generates a random valid model: a data chain of random register kinds
/// (with logic between them) fed by a source register, plus 1-2 control
/// rings whose heads guard the dynamic nodes, occasionally through
/// inverting arcs.
inline Graph random_model(std::uint64_t seed) {
    util::Rng rng(seed);
    Graph g("fuzz_" + std::to_string(seed));

    // Control rings.
    const int rings = 1 + static_cast<int>(rng.below(2));
    std::vector<NodeId> heads;
    for (int r = 0; r < rings; ++r) {
        const auto polarity =
            rng.chance(0.5) ? TokenValue::True : TokenValue::False;
        const std::string prefix = "ring" + std::to_string(r);
        const auto c1 = g.add_control(prefix + "_c1", true, polarity);
        const auto c2 = g.add_control(prefix + "_c2", false, polarity);
        const auto c3 = g.add_control(prefix + "_c3", false, polarity);
        g.connect(c1, c2);
        g.connect(c2, c3);
        g.connect(c3, c1);
        heads.push_back(c1);
    }

    // Data chain.
    NodeId prev = g.add_register("src", rng.chance(0.3));
    const int stages = 2 + static_cast<int>(rng.below(3));
    for (int i = 0; i < stages; ++i) {
        const std::string suffix = std::to_string(i);
        if (rng.chance(0.6)) {
            const auto f = g.add_logic("f" + suffix);
            g.connect(prev, f);
            prev = f;
        }
        NodeId reg;
        switch (rng.below(4)) {
            case 0:
            case 1:
                reg = g.add_register("r" + suffix);
                break;
            case 2: {
                reg = g.add_push("p" + suffix);
                const auto head = heads[rng.below(heads.size())];
                if (rng.chance(0.25)) {
                    g.connect_inverted(head, reg);
                } else {
                    g.connect(head, reg);
                }
                break;
            }
            default: {
                reg = g.add_pop("q" + suffix);
                const auto head = heads[rng.below(heads.size())];
                if (rng.chance(0.25)) {
                    g.connect_inverted(head, reg);
                } else {
                    g.connect(head, reg);
                }
                break;
            }
        }
        g.connect(prev, reg);
        prev = reg;
    }
    return g;
}

}  // namespace rap::dfs::testing
