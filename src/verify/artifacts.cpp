#include "verify/artifacts.hpp"

#include <atomic>
#include <charconv>

#include "verify/cache.hpp"

namespace rap::verify {

namespace {

std::atomic<std::size_t> g_builds{0};
std::atomic<std::size_t> g_delta_builds{0};

/// Appends `value` in decimal, then `end`.
void put(std::string& key, std::size_t value, char end) {
    char digits[20];
    char* last = std::to_chars(digits, digits + sizeof digits, value).ptr;
    key.append(digits, last);
    key += end;
}

}  // namespace

std::string model_structure_fingerprint(const dfs::Graph& graph) {
    std::string key;
    put(key, graph.name().size(), ':');
    key += graph.name();
    key += '\x1f';
    for (const dfs::NodeId n : graph.nodes()) {
        const std::string& name = graph.node_name(n);
        put(key, name.size(), ':');
        key += name;
        key += ':';
        put(key, static_cast<unsigned>(graph.kind(n)), ';');
    }
    key += '\x1f';
    for (const dfs::NodeId n : graph.nodes()) {
        for (const dfs::NodeId m : graph.postset(n)) {
            put(key, n.value, '>');
            put(key, m.value, ':');
            key += graph.is_inverted(n, m) ? "1;" : "0;";
        }
    }
    return key;
}

void append_marking_fingerprint(std::string& key, const dfs::Graph& graph) {
    // One ';'-terminated field per node, in node order: the structural
    // part fixes the node count, so the whole key stays unambiguous.
    key += '\x1f';
    for (const dfs::NodeId n : graph.nodes()) {
        const auto& init = graph.initial(n);
        key += init.marked ? '1' : '0';
        put(key, static_cast<unsigned>(init.token), ';');
    }
}

std::string model_fingerprint(const dfs::Graph& graph) {
    std::string key = model_structure_fingerprint(graph);
    append_marking_fingerprint(key, graph);
    return key;
}

CompiledModel::CompiledModel(const dfs::Graph& graph)
    : translation_(dfs::to_petri(graph)), compiled_(translation_.net) {
    g_builds.fetch_add(1, std::memory_order_relaxed);
}

CompiledModel::CompiledModel(const dfs::Graph& graph,
                             const CompiledModel& parent)
    : translation_(dfs::to_petri(graph)),
      compiled_(translation_.net, parent.compiled_) {
    g_builds.fetch_add(1, std::memory_order_relaxed);
    g_delta_builds.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const CompiledModel> compile_model(const dfs::Graph& graph) {
    return ArtifactCache::process_cache().get(graph);
}

std::size_t artifact_builds() noexcept {
    return g_builds.load(std::memory_order_relaxed);
}

std::size_t artifact_delta_builds() noexcept {
    return g_delta_builds.load(std::memory_order_relaxed);
}

}  // namespace rap::verify
