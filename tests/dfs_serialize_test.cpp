#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "dfs/serialize.hpp"
#include "dfs_helpers.hpp"
#include "ope/dfs_models.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace rap::dfs {
namespace {

using testing::make_fig1b;

bool graphs_equivalent(const Graph& a, const Graph& b) {
    if (a.name() != b.name() || a.node_count() != b.node_count() ||
        a.edge_count() != b.edge_count()) {
        return false;
    }
    for (const NodeId n : a.nodes()) {
        const auto other = b.find(a.node_name(n));
        if (!other || b.kind(*other) != a.kind(n)) return false;
        if (!a.is_logic(n)) {
            const auto& ia = a.initial(n);
            const auto& ib = b.initial(*other);
            if (ia.marked != ib.marked) return false;
            if (a.is_dynamic(n) && ia.marked && ia.token != ib.token) {
                return false;
            }
        }
        for (const NodeId succ : a.postset(n)) {
            const auto bsucc = b.find(a.node_name(succ));
            if (!bsucc) return false;
            const auto& post = b.postset(*other);
            if (std::find(post.begin(), post.end(), *bsucc) == post.end()) {
                return false;
            }
            if (a.is_inverted(n, succ) != b.is_inverted(*other, *bsucc)) {
                return false;
            }
        }
    }
    return true;
}

TEST(Serialize, RoundTripFig1b) {
    auto m = make_fig1b();
    m.graph.set_initial(m.ctrl, true, TokenValue::False);
    const std::string text = to_text(m.graph);
    const Graph loaded = from_text(text);
    EXPECT_TRUE(graphs_equivalent(m.graph, loaded));
    // Stable: serialising again yields identical text.
    EXPECT_EQ(to_text(loaded), text);
}

TEST(Serialize, RoundTripWithInvertedArcs) {
    Graph g("inv");
    const auto in = g.add_register("in", true);
    const auto c = g.add_control("c", true, TokenValue::False);
    const auto p = g.add_push("p");
    const auto sink = g.add_register("sink");
    g.connect(in, p);
    g.connect_inverted(c, p);
    g.connect(p, sink);
    const Graph loaded = from_text(to_text(g));
    EXPECT_TRUE(graphs_equivalent(g, loaded));
    EXPECT_TRUE(loaded.is_inverted(*loaded.find("c"), *loaded.find("p")));
}

TEST(Serialize, ParsesHandWrittenModel) {
    const char* text = R"(# the paper's motivating example
dfs fig1b
register in
logic cond
control ctrl
push filt
register comp *
pop out F

edge in cond
edge cond ctrl
edge in filt
edge ctrl filt
edge filt comp
edge comp out
edge ctrl out
)";
    const Graph g = from_text(text);
    EXPECT_EQ(g.name(), "fig1b");
    EXPECT_EQ(g.node_count(), 6u);
    EXPECT_EQ(g.edge_count(), 7u);
    EXPECT_TRUE(g.initial(*g.find("comp")).marked);
    EXPECT_TRUE(g.initial(*g.find("out")).marked);
    EXPECT_EQ(g.initial(*g.find("out")).token, TokenValue::False);
    EXPECT_FALSE(g.initial(*g.find("ctrl")).marked);
}

TEST(Serialize, ErrorsCarryLineNumbers) {
    auto expect_error = [](const char* text, std::size_t line,
                           const char* needle) {
        try {
            from_text(text);
            FAIL() << "expected parse error for: " << text;
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            const std::string prefix =
                "dfs parse error, line " + std::to_string(line) + ": ";
            EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
            EXPECT_NE(what.find(needle), std::string::npos) << what;
        }
    };
    expect_error("register r\n", 1, "header");
    expect_error("dfs a\ndfs b\n", 2, "duplicate");
    expect_error("dfs a\nwidget w\n", 2, "unknown keyword 'widget'");
    expect_error("dfs a\nregister r X\n", 2, "must be '*'");
    expect_error("dfs a\ncontrol c *\n", 2, "'T' or 'F'");
    expect_error("dfs a\nedge x y\n", 2, "unknown node 'x'");
    expect_error("dfs a\nregister r\nregister s\nedge r s wat\n", 4,
                 "unknown edge flag");
    expect_error("dfs a\nlogic l *\n", 2, "no marking");
    expect_error("dfs\n", 1, "missing model name");
    expect_error("dfs a\nedge r\n", 2, "two node names");
    // A word after a line's last field is refused, never dropped.
    expect_error("dfs m extra\n", 1, "unexpected trailing text 'extra'");
    expect_error("dfs a\nregister a * extra\n", 2,
                 "unexpected trailing text 'extra'");
    expect_error("dfs a\ncontrol c T junk\n", 2,
                 "unexpected trailing text 'junk'");
    expect_error("dfs a\ncontrol c T\nregister b\nedge c b inv junk\n", 4,
                 "unexpected trailing text 'junk'");
    // Refusals raised by Graph itself carry the line number too.
    expect_error("dfs a\nregister r\n# gap\nlogic r\n", 4,
                 "duplicate node name");
    expect_error("dfs a\nregister a\nedge a a\n", 3, "self-loop");
    expect_error("dfs a\nregister r\nregister s\nedge r s\nedge r s\n", 5,
                 "duplicate edge");
    expect_error("dfs a\nregister r\nregister s\nedge r s inv\n", 4,
                 "only control registers");
    EXPECT_THROW(from_text(""), std::invalid_argument);
    EXPECT_THROW(from_text("# only a comment\n"), std::invalid_argument);
}

/// Seeded mutation fuzzer over a real model's text: every mutant must
/// either parse or be refused with the documented exception and prefix —
/// never crash, never throw anything else.
TEST(Serialize, MutatedModelTextParsesOrIsRefused) {
    const std::string text =
        to_text(ope::build_reconfigurable_ope_dfs(3, 3).graph);
    const std::vector<std::string> lines = util::split(text, '\n');
    // Replacement tokens: every keyword and flag, a few hostile strings,
    // and the model's own node names (so edges can hit real nodes).
    std::vector<std::string> vocab = {"dfs", "logic", "register", "control",
                                      "push", "pop", "edge", "inv", "*",
                                      "T", "F", "#", "", "x", "edge edge"};
    for (const std::string& line : lines) {
        const std::vector<std::string> tokens = util::split(line, ' ');
        if (tokens.size() >= 2) vocab.push_back(tokens[1]);
    }

    std::size_t parsed = 0;
    std::size_t refused = 0;
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        util::Rng rng(seed);
        std::vector<std::string> mutant = lines;
        const auto pick = [&rng](std::size_t n) {
            return static_cast<std::size_t>(rng.below(n));
        };
        const int mutations = static_cast<int>(rng.range(1, 4));
        for (int m = 0; m < mutations && !mutant.empty(); ++m) {
            switch (rng.below(4)) {
                case 0:  // drop a line
                    mutant.erase(mutant.begin() +
                                 static_cast<std::ptrdiff_t>(
                                     pick(mutant.size())));
                    break;
                case 1: {  // duplicate a line somewhere
                    const std::string copy = mutant[pick(mutant.size())];
                    mutant.insert(mutant.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          pick(mutant.size() + 1)),
                                  copy);
                    break;
                }
                case 2:  // swap two lines
                    std::swap(mutant[pick(mutant.size())],
                              mutant[pick(mutant.size())]);
                    break;
                default: {  // replace one token
                    std::string& line = mutant[pick(mutant.size())];
                    std::vector<std::string> tokens = util::split(line, ' ');
                    tokens[pick(tokens.size())] = vocab[pick(vocab.size())];
                    line = util::join(tokens, " ");
                    break;
                }
            }
        }
        const std::string input = util::join(mutant, "\n");
        try {
            from_text(input);
            ++parsed;
        } catch (const std::invalid_argument& e) {
            ++refused;
            EXPECT_EQ(std::string(e.what()).rfind("dfs parse error", 0), 0u)
                << "seed " << seed << ": " << e.what();
        } catch (const std::exception& e) {
            ADD_FAILURE() << "seed " << seed << " threw " << e.what();
        }
    }
    // Both outcomes occur, so the mutations reach past the first line.
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(refused, 0u);
}

TEST(Serialize, FileRoundTrip) {
    const auto m = make_fig1b();
    const auto path =
        std::filesystem::temp_directory_path() / "rap_serialize_test.dfs";
    save_file(m.graph, path.string());
    const Graph loaded = load_file(path.string());
    EXPECT_TRUE(graphs_equivalent(m.graph, loaded));
    std::filesystem::remove(path);
    EXPECT_THROW(load_file("/nonexistent/nope.dfs"), std::runtime_error);
}

}  // namespace
}  // namespace rap::dfs
