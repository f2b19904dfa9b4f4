#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "petri/compiled.hpp"
#include "petri/net.hpp"
#include "petri/por.hpp"
#include "petri/predicate.hpp"

namespace rap::petri {

/// A firing sequence from the initial marking, used as counterexample
/// witness (what MPSAT prints as a violation trace).
struct Trace {
    std::vector<TransitionId> firings;

    std::string to_string(const Net& net) const;
};

struct ReachabilityOptions {
    /// Exploration stops (with `truncated = true`) beyond this many states.
    std::size_t max_states = 2'000'000;
    /// When set, exploration stops once the query is answered (the rule
    /// is on MultiQuery::persistence_max_violations) instead of
    /// exhausting the state space.
    bool stop_at_first_match = true;
    /// Not read (one engine thread); perfbench/perfbench.cpp still sets it.
    std::size_t threads = 0;
    /// Partial-order (stubborn-set) reduction: expand a property-aware
    /// stubborn subset of each state's enabled set instead of all of it
    /// (see petri::PorContext). Verdicts are preserved — deadlock sets
    /// exactly, goal reachability and the persistence verdict through
    /// visibility conditions plus the BFS-queue ignoring proviso — while
    /// the explored state count can shrink by large factors on highly
    /// concurrent nets. Under reduction, witnesses remain genuine firing
    /// sequences but need not be globally shortest, a goal's witness
    /// marking may differ from the full pass's, states_explored/
    /// edges_explored count the *reduced* graph, and collected
    /// persistence violations are a subset of the full pass's
    /// (non-emptiness — the verdict — is preserved). Passes carrying a
    /// goal with unknown support places fall back to full exploration
    /// (PorStats::active reports false).
    bool por = false;
    /// Cooperative stop hook, polled every 2048 expanded states AND every
    /// 256 expanded edges (states alone let a heavily POR-reduced or
    /// wide-state pass run far past a cancel). Returning true ends the
    /// exploration early with `truncated = true` — the mechanism behind
    /// flow::Sweep cancellation. It runs on the exploring thread; state
    /// it shares with other threads must be safe to read concurrently
    /// (atomics, as in the sweep's cancel flag). Must not throw. Null
    /// (the default) never stops.
    std::function<bool()> stop;
};

/// Memory footprint of one exploration pass, for capacity planning at the
/// 19M-state scale (surfaced as MultiResult::memory and through
/// verify::Verifier / flow::Design).
struct MemoryStats {
    /// Records + interning table + live enabled-set cache + frontier
    /// bookkeeping, at the end of the pass.
    std::size_t resident_bytes = 0;
    std::size_t peak_bytes = 0;  ///< max resident over the pass
    /// The store's records and arena bytes, and its interning-table
    /// geometry (slots, load factor, table bytes) — the rap_store_*
    /// metrics source.
    StoreStats store;
};

/// Thrown when an exploration dies mid-pass — a goal predicate threw —
/// after states were already interned. Carries the footprint at the
/// moment of death, live enabled-set rows and sampled peak included, so
/// callers can still account for partial-pass memory (flow::Sweep's
/// peak-resident aggregation would otherwise under-report exactly the
/// contended runs that die).
class ExplorationAborted : public std::runtime_error {
public:
    ExplorationAborted(const std::string& what, MemoryStats stats)
        : std::runtime_error(what), memory(stats) {}

    MemoryStats memory;
};

/// A goal's answer: the first explored marking that satisfies it, with
/// the firing sequence from the initial marking that reaches it. The
/// trace is BFS-shortest when POR is off.
struct Witness {
    Marking marking;
    Trace trace;
};

/// A persistence violation: at `marking`, `disabled` was enabled, then
/// firing `fired` withdrew its enabling. In speed-independent circuit
/// terms this is a potential hazard — the paper reports hunting exactly
/// these (plus deadlocks) in the OPE DFS models.
struct PersistenceViolation {
    Marking marking;
    TransitionId fired;
    TransitionId disabled;
    Trace trace_to_marking;

    std::string to_string(const Net& net) const;
};

/// One exploration, many questions: reachability goals, deadlock
/// collection and persistence checking share a single BFS pass instead of
/// re-exploring the state space per property. An aggregate whose every
/// member has a default, so a query names only what it asks:
/// `run_query({.goals = {&goal}, .collect_deadlocks = true})`.
struct MultiQuery {
    /// Goal predicates, each answered independently with its first
    /// witness.
    std::vector<const Predicate*> goals{};
    /// Collect every deadlocked marking.
    bool collect_deadlocks = false;
    /// Check output persistence at every explored state, over its full
    /// enabled set: each enabled u whose enabling an enabled t withdraws
    /// is a violation (t, u) unless the pair is exempt. Violations come
    /// in state order, then t, then u. A pass truncated mid-state still
    /// reports that state's violations for every enabled transition.
    bool check_persistence = false;
    /// Transition pairs for which mutual disabling is *intended* choice
    /// (e.g. the Mt+/Mf+ pair of a control register models an input
    /// choice, not a hazard). Returns true when the pair is exempt. Asked
    /// once per structural pair (u in CompiledNet::disables(t)) when a
    /// persistence pass starts, never during the scan.
    std::function<bool(const Net&, TransitionId, TransitionId)>
        persistence_exempt{};
    /// Keep at most this many violations. A stop_at_first_match pass that
    /// does not collect deadlocks ends once every goal has matched and
    /// this many violations are in; with the default it never stops for
    /// persistence.
    std::size_t persistence_max_violations = SIZE_MAX;
};

struct MultiResult {
    std::size_t states_explored = 0;
    std::size_t edges_explored = 0;
    bool truncated = false;
    MemoryStats memory;
    PorStats por;  ///< reduction statistics (inactive when por was off)

    /// One entry per MultiQuery::goals entry, in order: the goal's first
    /// match in exploration order (whatever stop_at_first_match says), or
    /// nullopt when no explored state satisfied it.
    std::vector<std::optional<Witness>> goals;

    std::vector<Marking> deadlocks;
    std::vector<PersistenceViolation> persistence_violations;
};

/// Explicit-state breadth-first reachability over 1-safe nets, running on
/// a CompiledNet: word-masked enable tests, incremental enabled-set
/// maintenance through the affected-transition index, and an
/// arena-backed interned marking store (no per-state heap allocation on
/// the hot path).
///
/// BFS (rather than DFS) keeps witness traces shortest, which matters for
/// debuggability of DFS model bugs — the paper reports hand-analysing such
/// traces during the OPE design.
class ReachabilityExplorer {
public:
    explicit ReachabilityExplorer(const Net& net,
                                  ReachabilityOptions options = {});
    /// Runs on an externally owned CompiledNet instead of compiling the
    /// net again — the sharing hook behind verify::CompiledModel and
    /// flow::Design: N explorations (or N verifiers) amortise ONE compile.
    /// The artifact must outlive the explorer; it is never written to.
    explicit ReachabilityExplorer(const CompiledNet& compiled,
                                  ReachabilityOptions options = {});

    // compiled_ may point into owned_.
    ReachabilityExplorer(const ReachabilityExplorer&) = delete;
    ReachabilityExplorer& operator=(const ReachabilityExplorer&) = delete;

    /// Answers every question of `query` in one exploration: its goals,
    /// deadlock collection and persistence checking. The only entry
    /// point; a plain state count is `run_query({}).states_explored`.
    /// A goal predicate that throws ends the pass with
    /// ExplorationAborted.
    MultiResult run_query(const MultiQuery& query);

    const CompiledNet& compiled() const noexcept { return *compiled_; }

private:
    ReachabilityOptions options_;
    std::optional<CompiledNet> owned_;  ///< set by the Net constructor only
    const CompiledNet* compiled_;       ///< owned_ or the shared artifact
    /// Each record carries one meta word packing the predecessor link
    /// (parent id | via transition << 32), so witness-trace rebuilding
    /// reads the record itself and is independent of visiting order.
    MarkingStore store_;
};

/// Old name of ReachabilityExplorer, still used by perfbench/perfbench.cpp.
using ParallelReachabilityExplorer = ReachabilityExplorer;

}  // namespace rap::petri
