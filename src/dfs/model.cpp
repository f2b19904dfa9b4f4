#include "dfs/model.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.hpp"

namespace rap::dfs {

std::string_view to_string(NodeKind kind) {
    switch (kind) {
        case NodeKind::Logic: return "logic";
        case NodeKind::Register: return "register";
        case NodeKind::Control: return "control";
        case NodeKind::Push: return "push";
        case NodeKind::Pop: return "pop";
    }
    return "?";
}

NodeId Graph::add_logic(std::string_view name) {
    if (find(name)) {
        throw std::invalid_argument("duplicate node name: " +
                                    std::string(name));
    }
    kinds_.push_back(NodeKind::Logic);
    names_.emplace_back(name);
    initials_.push_back({});
    invalidate_cache();
    return NodeId{static_cast<std::uint32_t>(kinds_.size() - 1)};
}

namespace {

NodeId add_reg_impl(std::vector<NodeKind>& kinds,
                    std::vector<std::string>& names,
                    std::vector<InitialMarking>& initials, NodeKind kind,
                    std::string_view name, bool marked, TokenValue token) {
    kinds.push_back(kind);
    names.emplace_back(name);
    initials.push_back({marked, token});
    return NodeId{static_cast<std::uint32_t>(kinds.size() - 1)};
}

}  // namespace

NodeId Graph::add_register(std::string_view name, bool marked) {
    if (find(name)) {
        throw std::invalid_argument("duplicate node name: " +
                                    std::string(name));
    }
    invalidate_cache();
    return add_reg_impl(kinds_, names_, initials_, NodeKind::Register, name,
                        marked, TokenValue::True);
}

NodeId Graph::add_control(std::string_view name, bool marked,
                          TokenValue token) {
    if (find(name)) {
        throw std::invalid_argument("duplicate node name: " +
                                    std::string(name));
    }
    invalidate_cache();
    return add_reg_impl(kinds_, names_, initials_, NodeKind::Control, name,
                        marked, token);
}

NodeId Graph::add_push(std::string_view name, bool marked, TokenValue token) {
    if (find(name)) {
        throw std::invalid_argument("duplicate node name: " +
                                    std::string(name));
    }
    invalidate_cache();
    return add_reg_impl(kinds_, names_, initials_, NodeKind::Push, name,
                        marked, token);
}

NodeId Graph::add_pop(std::string_view name, bool marked, TokenValue token) {
    if (find(name)) {
        throw std::invalid_argument("duplicate node name: " +
                                    std::string(name));
    }
    invalidate_cache();
    return add_reg_impl(kinds_, names_, initials_, NodeKind::Pop, name,
                        marked, token);
}

void Graph::connect(NodeId from, NodeId to) {
    if (from.value >= kinds_.size() || to.value >= kinds_.size()) {
        throw std::invalid_argument("connect: node id out of range");
    }
    if (from == to) {
        throw std::invalid_argument("connect: self-loop on node '" +
                                    names_[from.value] + "'");
    }
    if (std::find(edges_.begin(), edges_.end(),
                  std::make_pair(from, to)) != edges_.end()) {
        throw std::invalid_argument("connect: duplicate edge " +
                                    names_[from.value] + " -> " +
                                    names_[to.value]);
    }
    edges_.emplace_back(from, to);
    edge_inverted_.push_back(false);
    invalidate_cache();
}

void Graph::connect_inverted(NodeId from, NodeId to) {
    if (from.value >= kinds_.size() ||
        kinds_[from.value] != NodeKind::Control) {
        throw std::invalid_argument(
            "connect_inverted: only control registers can drive "
            "inverting arcs");
    }
    connect(from, to);
    edge_inverted_.back() = true;
}

bool Graph::is_inverted(NodeId from, NodeId to) const {
    for (std::size_t i = 0; i < edges_.size(); ++i) {
        if (edges_[i] == std::make_pair(from, to)) return edge_inverted_[i];
    }
    return false;
}

void Graph::set_initial(NodeId node, bool marked, TokenValue token) {
    if (is_logic(node)) {
        throw std::invalid_argument("set_initial: '" + names_[node.value] +
                                    "' is a logic node");
    }
    initials_[node.value] = {marked, token};
}

std::size_t Graph::edge_count() const noexcept { return edges_.size(); }

std::optional<NodeId> Graph::find(std::string_view name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name) {
            return NodeId{static_cast<std::uint32_t>(i)};
        }
    }
    return std::nullopt;
}

std::vector<NodeId> Graph::nodes() const {
    std::vector<NodeId> out;
    out.reserve(kinds_.size());
    for (std::uint32_t i = 0; i < kinds_.size(); ++i) out.push_back(NodeId{i});
    return out;
}

std::vector<NodeId> Graph::registers() const {
    std::vector<NodeId> out;
    for (std::uint32_t i = 0; i < kinds_.size(); ++i) {
        if (kinds_[i] != NodeKind::Logic) out.push_back(NodeId{i});
    }
    return out;
}

std::vector<NodeId> Graph::logics() const {
    std::vector<NodeId> out;
    for (std::uint32_t i = 0; i < kinds_.size(); ++i) {
        if (kinds_[i] == NodeKind::Logic) out.push_back(NodeId{i});
    }
    return out;
}

void Graph::build_cache() const {
    if (cache_valid_) return;
    const std::size_t n = kinds_.size();
    preset_.assign(n, {});
    postset_.assign(n, {});
    r_preset_.assign(n, {});
    r_postset_.assign(n, {});
    control_preset_.assign(n, {});
    control_preset_inverted_.assign(n, {});

    std::unordered_set<std::uint64_t> inverted_pairs;
    for (std::size_t i = 0; i < edges_.size(); ++i) {
        const auto& [from, to] = edges_[i];
        postset_[from.value].push_back(to);
        preset_[to.value].push_back(from);
        if (edge_inverted_[i]) {
            inverted_pairs.insert(
                (static_cast<std::uint64_t>(from.value) << 32) | to.value);
        }
    }

    // R-preset of x: registers y with a logic path y -> ... -> x, where
    // every intermediate node is logic. Backwards BFS through logic.
    for (std::uint32_t i = 0; i < n; ++i) {
        std::unordered_set<std::uint32_t> seen_logic;
        std::unordered_set<std::uint32_t> found;
        std::deque<std::uint32_t> frontier;
        for (NodeId p : preset_[i]) frontier.push_back(p.value);
        while (!frontier.empty()) {
            const std::uint32_t v = frontier.front();
            frontier.pop_front();
            if (kinds_[v] != NodeKind::Logic) {
                found.insert(v);
                continue;
            }
            if (!seen_logic.insert(v).second) continue;
            for (NodeId p : preset_[v]) frontier.push_back(p.value);
        }
        for (std::uint32_t v : found) {
            r_preset_[i].push_back(NodeId{v});
            // x? contains registers only: a logic node is never a member
            // of anyone's R-postset.
            if (kinds_[i] != NodeKind::Logic) {
                r_postset_[v].push_back(NodeId{i});
            }
            if (kinds_[v] == NodeKind::Control) {
                control_preset_[i].push_back(NodeId{v});
            }
        }
    }

    auto sort_all = [](std::vector<std::vector<NodeId>>& sets) {
        for (auto& s : sets) std::sort(s.begin(), s.end());
    };
    sort_all(r_preset_);
    sort_all(r_postset_);
    sort_all(control_preset_);
    // Inversion flags aligned with the sorted control presets. Inverting
    // arcs are direct edges (control -> consumer); a control reached only
    // through logic is never inverted.
    for (std::uint32_t i = 0; i < n; ++i) {
        control_preset_inverted_[i].reserve(control_preset_[i].size());
        for (const NodeId c : control_preset_[i]) {
            const std::uint64_t key =
                (static_cast<std::uint64_t>(c.value) << 32) | i;
            control_preset_inverted_[i].push_back(
                inverted_pairs.contains(key));
        }
    }
    cache_valid_ = true;
}

std::vector<std::string> Graph::validate() const {
    std::vector<std::string> issues;
    build_cache();

    // Logic-only cycles are combinational loops: the evaluation state of
    // the loop is circularly defined (Eq. 1 has no solution order).
    {
        // Colours: 0 unvisited, 1 on stack, 2 done. DFS over logic nodes
        // following logic->logic edges only.
        std::vector<int> colour(kinds_.size(), 0);
        std::vector<std::uint32_t> stack;
        auto visit = [&](std::uint32_t root, auto&& self) -> bool {
            colour[root] = 1;
            for (NodeId next : postset_[root]) {
                if (kinds_[next.value] != NodeKind::Logic) continue;
                if (colour[next.value] == 1) return true;
                if (colour[next.value] == 0 && self(next.value, self)) {
                    return true;
                }
            }
            colour[root] = 2;
            return false;
        };
        for (std::uint32_t i = 0; i < kinds_.size(); ++i) {
            if (kinds_[i] == NodeKind::Logic && colour[i] == 0 &&
                visit(i, visit)) {
                issues.push_back(
                    "combinational loop through logic node '" + names_[i] +
                    "'");
                break;
            }
        }
    }

    for (std::uint32_t i = 0; i < kinds_.size(); ++i) {
        const NodeId node{i};
        const NodeKind k = kinds_[i];
        if ((k == NodeKind::Push || k == NodeKind::Pop) &&
            control_preset_[i].empty()) {
            issues.push_back(std::string(to_string(k)) + " node '" +
                             names_[i] +
                             "' has no control register in its R-preset");
        }
        if (k == NodeKind::Logic) {
            if (preset_[i].empty()) {
                issues.push_back("logic node '" + names_[i] +
                                 "' has an empty preset");
            }
            if (postset_[i].empty()) {
                issues.push_back("logic node '" + names_[i] +
                                 "' has an empty postset");
            }
            if (initials_[i].marked) {
                issues.push_back("logic node '" + names_[i] +
                                 "' cannot be initially marked");
            }
        }
        (void)node;
    }
    return issues;
}

void Graph::ensure_valid() const {
    const auto issues = validate();
    if (issues.empty()) return;
    throw std::invalid_argument("invalid DFS model '" + name_ + "': " +
                                util::join(issues, "; "));
}

}  // namespace rap::dfs
