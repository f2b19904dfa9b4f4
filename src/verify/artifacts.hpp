#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "dfs/model.hpp"
#include "dfs/translate.hpp"
#include "petri/compiled.hpp"

namespace rap::verify {

/// The immutable compiled verification artifact of one DFS model
/// snapshot: the Fig. 3 PN translation plus its CompiledNet. Built once
/// and shared (by shared_ptr) between every Verifier and flow::Design
/// session that asks for the same model — the expensive part of
/// constructing a verifier is paid once per model *content*, not once
/// per construction.
///
/// Never copied or moved: the CompiledNet holds a pointer into the
/// translation's net, so instances live on the heap behind shared_ptr.
class CompiledModel {
public:
    explicit CompiledModel(const dfs::Graph& graph);

    /// Delta compilation: builds the artifact for `graph` with
    /// petri::CompiledNet(net, parent.compiled()), which copies the
    /// parent's compiled tables when the two nets have the same arcs —
    /// the run-time reconfiguration case, where only initial markings
    /// moved (set_depth). A parent with the same structural fingerprint
    /// (model_structure_fingerprint) always qualifies; any other parent
    /// is compiled from scratch. Either way the result equals a full
    /// build. The parent is only read during construction and need not
    /// outlive the new model.
    CompiledModel(const dfs::Graph& graph, const CompiledModel& parent);

    CompiledModel(const CompiledModel&) = delete;
    CompiledModel& operator=(const CompiledModel&) = delete;

    const dfs::Translation& translation() const noexcept {
        return translation_;
    }
    const petri::CompiledNet& compiled() const noexcept { return compiled_; }
    const petri::Net& net() const noexcept { return translation_.net; }

    /// Deterministic size estimate used by the ArtifactCache's
    /// byte-capacity LRU accounting: a rough per-place / per-transition
    /// footprint of the translation and its compiled net, monotone in
    /// model size.
    std::size_t approx_bytes() const noexcept {
        return 4096 + net().place_count() * 96 + net().transition_count() * 256;
    }

private:
    dfs::Translation translation_;
    petri::CompiledNet compiled_;
};

/// Structural fingerprint of a DFS model: every field the Fig. 3
/// translation turns into places, transitions and arcs (names, kinds,
/// edges and inversions), but not the initial markings. Two graphs with
/// equal structural fingerprints translate to nets that differ at most
/// in their initial markings — exactly the condition under which
/// CompiledModel's delta constructor copies its parent's tables. The
/// ArtifactCache keys its parent index by this. Full content, not a
/// hash (no collision risk); names are length-prefixed so separator
/// characters cannot forge another model's key.
std::string model_structure_fingerprint(const dfs::Graph& graph);

/// Appends the per-node initial-marking fields to `key`. Applied to
/// model_structure_fingerprint(graph), it yields model_fingerprint(graph)
/// — so a caller that needs both keys encodes the structure once.
void append_marking_fingerprint(std::string& key, const dfs::Graph& graph);

/// Exact content fingerprint of a DFS model: the structural fingerprint
/// followed by the initial markings, so two graphs with equal
/// fingerprints translate to identical nets. The ArtifactCache key, and
/// the dedup-before-compile content key flow::Sweep groups grid
/// configurations by.
std::string model_fingerprint(const dfs::Graph& graph);

/// Returns the compiled artifact for `graph`, reusing a cached one when
/// an identical model (same nodes, edges, inversions and initial
/// markings) was compiled before. Thread-safe: rides the process-wide
/// verify::ArtifactCache (an LRU with build coalescing — concurrent
/// callers racing on the same content share ONE build). See
/// verify/cache.hpp for held entries and introspection.
std::shared_ptr<const CompiledModel> compile_model(const dfs::Graph& graph);

/// Total CompiledModel constructions in this process — the artifact
/// build counter tests use to assert that repeated Verifier
/// constructions (and flow::Design re-verifications, and whole
/// flow::Sweep grids) share one compile per distinct model content.
std::size_t artifact_builds() noexcept;

/// The subset of artifact_builds() that went through the delta
/// constructor (a structurally identical parent was resident) — lets
/// tests and benches assert that reconfiguration sweeps copy compiled
/// tables instead of repacking them.
std::size_t artifact_delta_builds() noexcept;

}  // namespace rap::verify
