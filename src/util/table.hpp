#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace rap::util {

/// Row/column result collector with two render targets:
///  * aligned ASCII tables for human-readable bench output (the rows the
///    paper's tables/figures report), and
///  * CSV for plotting the regenerated figures externally.
class Table {
public:
    explicit Table(std::vector<std::string> headers);

    /// Appends a row; must have exactly as many cells as there are headers.
    void add_row(std::vector<std::string> cells);

    /// Convenience: formats doubles with the given precision.
    static std::string num(double value, int precision = 4);

    std::size_t rows() const noexcept { return rows_.size(); }
    const std::vector<std::string>& row(std::size_t i) const {
        return rows_[i];
    }
    const std::vector<std::string>& headers() const noexcept {
        return headers_;
    }

    /// Renders an aligned ASCII table with a header separator.
    std::string to_ascii() const;

    /// Renders RFC-4180-ish CSV (cells containing comma/quote/newline are
    /// quoted, quotes doubled).
    std::string to_csv() const;

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const Table& table);

}  // namespace rap::util
