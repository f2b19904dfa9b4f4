// Designing a reconfigurable pipeline with the verifier in the loop: the
// Section III-A workflow on a flow::Design session. We first
// mis-initialise the control registers (one of the real bugs the paper
// reports finding), watch the checker produce a witness trace *in DFS
// event terms*, fix the initialisation through the session's
// reconfiguration API — which invalidates exactly the PN-derived
// artifacts — and re-verify.
//
//   $ ./examples/verify_pipeline

#include <cstdio>

#include "rap/rap.hpp"

int main() {
    using namespace rap;

    // A 3-stage reconfigurable OPE pipeline, intended depth 3, opened as
    // one design session...
    flow::Design design(ope::build_reconfigurable_ope_dfs(3, 3));

    // ...but the designer initialises stage 2's ring with False while
    // stage 3 stays active — a gap configuration.
    design.reset_ring(design.pipeline().stages[1].global_ring,
                      dfs::TokenValue::False);

    std::printf("verifying the mis-initialised pipeline...\n");
    const auto finding = design.verify(verify::Spec{}.deadlock()).findings[0];
    std::printf("%s\n\n", finding.to_string().c_str());
    if (!finding.violated) {
        std::printf("expected a deadlock — model changed?\n");
        return 1;
    }
    std::printf("the `events:` line above replays the witness in DFS\n"
                "terms (token moves of pushes, pops and control rings) —\n"
                "the debugging aid the paper used to analyse and correct\n"
                "its OPE models.\n\n");

    // Fix: restore a contiguous active prefix via the configuration API,
    // which refuses invalid shapes by construction. Reconfiguration
    // invalidates only the marking-derived artifacts; a second verifier
    // construction over the same content would share the same compile.
    std::printf("fixing the configuration (depth=2 via set_depth)...\n");
    design.set_depth(2);
    const auto report = design.verify();
    std::printf("%s\n\n", report.to_string().c_str());
    std::printf("PN artifact builds this session: %zu "
                "(one per configuration, none redundant)\n",
                design.pn_builds());
    std::printf("pipeline is %s\n",
                report.clean() ? "clean — ready for netlist export"
                               : "still broken");
    return report.clean() ? 0 : 1;
}
