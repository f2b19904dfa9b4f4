#include "util/table.hpp"

#include <cassert>
#include <ostream>

#include "util/strings.hpp"

namespace rap::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
    assert(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

std::string Table::num(double value, int precision) {
    return format("%.*f", precision, value);
}

std::string Table::to_ascii() const {
    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    auto render_row = [&](const std::vector<std::string>& row) {
        std::string line;
        for (std::size_t c = 0; c < row.size(); ++c) {
            line += row[c];
            line.append(widths[c] - row[c].size(), ' ');
            if (c + 1 < row.size()) line += "  ";
        }
        while (!line.empty() && line.back() == ' ') line.pop_back();
        line += '\n';
        return line;
    };
    std::string out = render_row(headers_);
    std::string rule;
    for (std::size_t c = 0; c < widths.size(); ++c) {
        rule.append(widths[c], '-');
        if (c + 1 < widths.size()) rule += "  ";
    }
    out += rule + '\n';
    for (const auto& row : rows_) out += render_row(row);
    return out;
}

namespace {

std::string csv_cell(const std::string& cell) {
    const bool needs_quotes =
        cell.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quotes) return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"') out += '"';
        out += c;
    }
    out += '"';
    return out;
}

}  // namespace

std::string Table::to_csv() const {
    std::string out;
    auto emit = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c) out += ',';
            out += csv_cell(row[c]);
        }
        out += '\n';
    };
    emit(headers_);
    for (const auto& row : rows_) emit(row);
    return out;
}

std::ostream& operator<<(std::ostream& os, const Table& table) {
    return os << table.to_ascii();
}

}  // namespace rap::util
