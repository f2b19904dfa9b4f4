#include "dfs/serialize.hpp"

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace rap::dfs {

std::string to_text(const Graph& graph) {
    std::string out = "dfs " + graph.name() + "\n";
    for (const NodeId n : graph.nodes()) {
        out += std::string(to_string(graph.kind(n))) + " " +
               graph.node_name(n);
        if (!graph.is_logic(n)) {
            const InitialMarking& init = graph.initial(n);
            if (init.marked) {
                if (graph.is_dynamic(n)) {
                    out += init.token == TokenValue::True ? " T" : " F";
                } else {
                    out += " *";
                }
            }
        }
        out += "\n";
    }
    for (const NodeId n : graph.nodes()) {
        for (const NodeId succ : graph.postset(n)) {
            out += "edge " + graph.node_name(n) + " " +
                   graph.node_name(succ);
            if (graph.is_inverted(n, succ)) out += " inv";
            out += "\n";
        }
    }
    return out;
}

namespace {

/// A refusal already carrying its line number (see from_text).
struct ParseError : std::invalid_argument {
    using std::invalid_argument::invalid_argument;
};

[[noreturn]] void fail(std::size_t line, const std::string& message) {
    throw ParseError(util::format("dfs parse error, line %zu: %s", line,
                                  message.c_str()));
}

/// Refuses a word left on the line after its last field.
void expect_end(std::istringstream& words, std::size_t line_no) {
    std::string extra;
    if (words >> extra) {
        fail(line_no, "unexpected trailing text '" + extra + "'");
    }
}

/// Applies one non-blank, non-comment line to `graph`.
void parse_line(std::optional<Graph>& graph, std::string_view line,
                std::size_t line_no) {
    std::istringstream words{std::string(line)};
    std::string keyword;
    words >> keyword;

    if (keyword == "dfs") {
        if (graph) fail(line_no, "duplicate 'dfs' header");
        std::string name;
        words >> name;
        expect_end(words, line_no);
        if (name.empty()) fail(line_no, "missing model name");
        graph.emplace(name);
        return;
    }
    if (!graph) fail(line_no, "expected 'dfs <name>' header first");

    if (keyword == "edge") {
        std::string from, to, flag;
        words >> from >> to >> flag;
        expect_end(words, line_no);
        if (from.empty() || to.empty()) {
            fail(line_no, "edge needs two node names");
        }
        const auto src = graph->find(from);
        const auto dst = graph->find(to);
        if (!src) fail(line_no, "unknown node '" + from + "'");
        if (!dst) fail(line_no, "unknown node '" + to + "'");
        if (flag == "inv") {
            graph->connect_inverted(*src, *dst);
        } else if (flag.empty()) {
            graph->connect(*src, *dst);
        } else {
            fail(line_no, "unknown edge flag '" + flag + "'");
        }
        return;
    }

    // Node lines.
    std::string name, marking;
    words >> name >> marking;
    expect_end(words, line_no);
    if (name.empty()) fail(line_no, "missing node name");
    if (keyword == "logic") {
        if (!marking.empty()) {
            fail(line_no, "logic nodes carry no marking");
        }
        graph->add_logic(name);
    } else if (keyword == "register") {
        if (!marking.empty() && marking != "*") {
            fail(line_no, "register marking must be '*'");
        }
        graph->add_register(name, marking == "*");
    } else if (keyword == "control" || keyword == "push" ||
               keyword == "pop") {
        bool marked = false;
        TokenValue token = TokenValue::True;
        if (marking == "T") {
            marked = true;
        } else if (marking == "F") {
            marked = true;
            token = TokenValue::False;
        } else if (!marking.empty()) {
            fail(line_no, "dynamic marking must be 'T' or 'F'");
        }
        if (keyword == "control") {
            graph->add_control(name, marked, token);
        } else if (keyword == "push") {
            graph->add_push(name, marked, token);
        } else {
            graph->add_pop(name, marked, token);
        }
    } else {
        fail(line_no, "unknown keyword '" + keyword + "'");
    }
}

}  // namespace

Graph from_text(std::string_view text) {
    std::optional<Graph> graph;
    std::size_t line_no = 0;

    for (const std::string& raw : util::split(std::string(text), '\n')) {
        ++line_no;
        const std::string_view line = util::trim(raw);
        if (line.empty() || line.front() == '#') continue;
        try {
            parse_line(graph, line, line_no);
        } catch (const ParseError&) {
            throw;
        } catch (const std::invalid_argument& e) {
            // Graph's own refusals (duplicate node names or edges,
            // self-loops, inverting arcs from non-control nodes) get the
            // line number too.
            fail(line_no, e.what());
        }
    }
    if (!graph) throw std::invalid_argument("dfs parse error: empty input");
    return std::move(*graph);
}

void save_file(const Graph& graph, const std::string& path) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot open for writing: " + path);
    os << to_text(graph);
    if (!os) throw std::runtime_error("write failed: " + path);
}

Graph load_file(const std::string& path) {
    std::ifstream is(path);
    if (!is) throw std::runtime_error("cannot open for reading: " + path);
    std::stringstream buffer;
    buffer << is.rdbuf();
    return from_text(buffer.str());
}

}  // namespace rap::dfs
