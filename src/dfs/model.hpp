#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rap::dfs {

/// The five DFS node types of Fig. 2: the two static SDFS kinds (logic,
/// register) plus the dynamic extension (control, push, pop registers).
enum class NodeKind : std::uint8_t {
    Logic,     ///< combinational dataflow component
    Register,  ///< static sequential component (token holder)
    Control,   ///< register holding a True/False reconfiguration token
    Push,      ///< destroys incoming tokens when false-controlled
    Pop,       ///< produces 'empty' tokens when false-controlled
};

std::string_view to_string(NodeKind kind);

/// Token polarity for dynamic registers.
enum class TokenValue : std::uint8_t { False = 0, True = 1 };

struct NodeId {
    std::uint32_t value = UINT32_MAX;
    friend bool operator==(NodeId, NodeId) = default;
    friend auto operator<=>(NodeId, NodeId) = default;
};

/// Initial condition of a register node.
struct InitialMarking {
    bool marked = false;
    /// Token value for marked dynamic registers; True for push/pop means
    /// "was true-controlled when it latched". Ignored for static/logic.
    TokenValue token = TokenValue::True;
};

/// A dataflow structure: DFS = <V, E, M0> with V = L ∪ R (Section II).
///
/// The graph is append-only: analyses precompute and cache the derived
/// structural sets (presets, postsets, R-presets/R-postsets through logic
/// paths, control presets) on first use; any mutation invalidates the
/// cache. Node names must be unique — they become Petri-net place names
/// and Verilog identifiers downstream.
class Graph {
public:
    explicit Graph(std::string name = "dfs") : name_(std::move(name)) {}

    const std::string& name() const noexcept { return name_; }

    // -- construction ------------------------------------------------
    NodeId add_logic(std::string_view name);
    NodeId add_register(std::string_view name, bool marked = false);
    NodeId add_control(std::string_view name, bool marked, TokenValue token);
    NodeId add_push(std::string_view name, bool marked = false,
                    TokenValue token = TokenValue::True);
    NodeId add_pop(std::string_view name, bool marked = false,
                   TokenValue token = TokenValue::True);

    /// Adds a dataflow edge from -> to. Self-loops are rejected.
    void connect(NodeId from, NodeId to);

    /// Adds an *inverting* control arc: `to` observes the complement of
    /// the control token held by `from`. This is the paper's Section II-B
    /// extension ("Boolean algebra on True and False tokens using
    /// inverting arcs"), the building block of wagging-style structures.
    /// Only control registers can drive inverting arcs.
    void connect_inverted(NodeId from, NodeId to);

    /// True iff the (from, to) edge is an inverting control arc.
    bool is_inverted(NodeId from, NodeId to) const;

    /// Changes the initial marking of a register node after construction
    /// (used to seed the buggy initialisations the verifier must catch).
    void set_initial(NodeId node, bool marked,
                     TokenValue token = TokenValue::True);

    // -- basic introspection -------------------------------------------
    std::size_t node_count() const noexcept { return kinds_.size(); }
    std::size_t edge_count() const noexcept;
    NodeKind kind(NodeId n) const { return kinds_.at(n.value); }
    const std::string& node_name(NodeId n) const { return names_.at(n.value); }
    const InitialMarking& initial(NodeId n) const {
        return initials_.at(n.value);
    }
    std::optional<NodeId> find(std::string_view name) const;

    bool is_logic(NodeId n) const { return kind(n) == NodeKind::Logic; }
    bool is_dynamic(NodeId n) const {
        const NodeKind k = kind(n);
        return k == NodeKind::Control || k == NodeKind::Push ||
               k == NodeKind::Pop;
    }

    /// All node ids, in insertion order.
    std::vector<NodeId> nodes() const;
    /// All register-kind node ids (Register/Control/Push/Pop).
    std::vector<NodeId> registers() const;
    /// All logic node ids.
    std::vector<NodeId> logics() const;

    // -- derived structure (cached) ------------------------------------
    // Inline: every enabling test reads these, so a cache hit is one
    // flag test and an index; only a rebuild leaves the header.

    /// Direct preset / postset (• x and x •).
    const std::vector<NodeId>& preset(NodeId n) const {
        return cached(preset_, n);
    }
    const std::vector<NodeId>& postset(NodeId n) const {
        return cached(postset_, n);
    }

    /// R-preset ?x / R-postset x?: registers connected through logic-only
    /// paths (direct register neighbours included).
    const std::vector<NodeId>& r_preset(NodeId n) const {
        return cached(r_preset_, n);
    }
    const std::vector<NodeId>& r_postset(NodeId n) const {
        return cached(r_postset_, n);
    }

    /// Control registers in the R-preset — the registers that decide
    /// whether `n` is true- or false-controlled.
    const std::vector<NodeId>& control_preset(NodeId n) const {
        return cached(control_preset_, n);
    }

    /// Per-entry inversion flags aligned with control_preset(n): true
    /// when the control arc is inverting (the consumer observes the
    /// complement of the token).
    const std::vector<bool>& control_preset_inversion(NodeId n) const {
        return cached(control_preset_inverted_, n);
    }

    // -- validation -----------------------------------------------------
    /// Structural well-formedness diagnostics. Empty result = valid model.
    /// Checked: logic-only cycles (combinational loops), push/pop without
    /// a controlling register, dangling logic (logic with no preset or no
    /// postset cannot stabilise).
    std::vector<std::string> validate() const;

    /// Throws std::invalid_argument listing all diagnostics if invalid.
    void ensure_valid() const;

private:
    void invalidate_cache() const noexcept { cache_valid_ = false; }
    void build_cache() const;
    template <typename Set>
    const Set& cached(const std::vector<Set>& table, NodeId n) const {
        if (!cache_valid_) build_cache();
        return table[n.value];
    }

    std::string name_;
    std::vector<NodeKind> kinds_;
    std::vector<std::string> names_;
    std::vector<InitialMarking> initials_;
    std::vector<std::pair<NodeId, NodeId>> edges_;
    std::vector<bool> edge_inverted_;  // parallel to edges_

    mutable bool cache_valid_ = false;
    mutable std::vector<std::vector<NodeId>> preset_;
    mutable std::vector<std::vector<NodeId>> postset_;
    mutable std::vector<std::vector<NodeId>> r_preset_;
    mutable std::vector<std::vector<NodeId>> r_postset_;
    mutable std::vector<std::vector<NodeId>> control_preset_;
    mutable std::vector<std::vector<bool>> control_preset_inverted_;
};

}  // namespace rap::dfs
