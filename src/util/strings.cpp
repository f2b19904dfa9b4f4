#include "util/strings.hpp"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace rap::util {

std::string format(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<std::size_t>(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    }
    va_end(args);
    return out;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i) out.append(sep);
        out.append(items[i]);
    }
    return out;
}

std::vector<std::string> split(std::string_view text, char sep) {
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == sep) {
            out.emplace_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string_view trim(std::string_view text) {
    std::size_t b = 0;
    std::size_t e = text.size();
    while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
    return text.substr(b, e - b);
}

std::string identifier(std::string_view name) {
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0;
        out.push_back(ok ? c : '_');
    }
    if (out.empty() || std::isdigit(static_cast<unsigned char>(out.front()))) {
        out.insert(out.begin(), 'n');
    }
    return out;
}

}  // namespace rap::util
