#include "util/bitvec.hpp"

#include <bit>

namespace rap::util {

BitVec::BitVec(std::size_t bits)
    : bits_(bits), words_((bits + kWordBits - 1) / kWordBits, 0) {}

std::size_t BitVec::count() const noexcept {
    std::size_t n = 0;
    for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
}

bool BitVec::none() const noexcept {
    for (auto w : words_) {
        if (w != 0) return false;
    }
    return true;
}

void BitVec::clear() noexcept {
    for (auto& w : words_) w = 0;
}

std::vector<std::size_t> BitVec::ones() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < bits_; ++i) {
        if (get(i)) out.push_back(i);
    }
    return out;
}

std::size_t BitVec::hash() const noexcept {
    std::size_t h = 1469598103934665603ULL;
    for (auto w : words_) {
        h ^= static_cast<std::size_t>(w);
        h *= 1099511628211ULL;
    }
    h ^= bits_;
    h *= 1099511628211ULL;
    return h;
}

std::string BitVec::to_string() const {
    std::string s;
    s.reserve(bits_);
    for (std::size_t i = 0; i < bits_; ++i) s.push_back(get(i) ? '1' : '0');
    return s;
}

}  // namespace rap::util
