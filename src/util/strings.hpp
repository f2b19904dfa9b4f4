#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rap::util {

/// printf-style formatting into a std::string (used for report lines;
/// avoids pulling a full formatting library into the public headers).
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins items with a separator: join({"a","b"}, ", ") == "a, b".
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Splits on a single character, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Sanitises an arbitrary model name into a Verilog/DOT-safe identifier:
/// alphanumerics kept, everything else mapped to '_', prefixed if needed.
std::string identifier(std::string_view name);

}  // namespace rap::util
