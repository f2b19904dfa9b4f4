#pragma once

// Umbrella header for librap: the whole paper flow behind one include.
//
//     #include "rap/rap.hpp"
//
//     rap::flow::Design design(rap::ope::build_reconfigurable_ope_dfs(3, 3));
//     auto report = design.verify();           // PN model checking
//     auto verilog = design.to_verilog();      // NCL-D netlist export
//
// flow::Design is the session entry point (one cached artifact graph from
// DFS model to netlist); the per-module headers below remain the public
// surface for callers that want a single layer.

// model
#include "rap/dfs/dot.hpp"
#include "rap/dfs/dynamics.hpp"
#include "rap/dfs/model.hpp"
#include "rap/dfs/serialize.hpp"
#include "rap/dfs/simulator.hpp"
#include "rap/dfs/state.hpp"
#include "rap/dfs/translate.hpp"

// petri-net semantics + model checking
#include "rap/petri/astg.hpp"
#include "rap/petri/compiled.hpp"
#include "rap/petri/dot.hpp"
#include "rap/petri/net.hpp"
#include "rap/petri/predicate.hpp"
#include "rap/petri/reachability.hpp"
#include "rap/verify/artifacts.hpp"
#include "rap/verify/cache.hpp"
#include "rap/verify/spec.hpp"
#include "rap/verify/verifier.hpp"
#include "rap/verify/witness.hpp"

// structure builders + workloads
#include "rap/ope/dfs_models.hpp"
#include "rap/ope/encoder.hpp"
#include "rap/pipeline/builder.hpp"
#include "rap/pipeline/wagging.hpp"

// implementation + measurement
#include "rap/asim/faults.hpp"
#include "rap/asim/timed_sim.hpp"
#include "rap/asim/vcd.hpp"
#include "rap/chip/chip.hpp"
#include "rap/chip/lfsr.hpp"
#include "rap/netlist/library.hpp"
#include "rap/netlist/netlist.hpp"
#include "rap/netlist/verilog.hpp"
#include "rap/perf/cycles.hpp"
#include "rap/perf/throughput.hpp"
#include "rap/tech/voltage.hpp"

// the session facade + batch sweep/campaign services
#include "rap/flow/campaign.hpp"
#include "rap/flow/design.hpp"
#include "rap/flow/metrics.hpp"
#include "rap/flow/sweep.hpp"
