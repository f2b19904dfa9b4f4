#include "util/arena.hpp"

#include <algorithm>
#include <cstring>

namespace rap::util {

WordArena::WordArena(std::size_t record_words)
    : record_words_(std::max<std::size_t>(record_words, 1)),
      records_per_block_(
          std::max<std::size_t>((std::size_t{1} << 16) / record_words_, 1)) {}

std::uint64_t* WordArena::grow_to(std::size_t index) {
    if (index == blocks_.size() * records_per_block_) {
        blocks_.push_back(std::make_unique<std::uint64_t[]>(
            records_per_block_ * record_words_));
    }
    return (*this)[index];
}

std::size_t WordArena::push_zero() {
    std::uint64_t* slot = grow_to(size_);
    std::memset(slot, 0, record_words_ * sizeof(std::uint64_t));
    return size_++;
}

std::size_t WordArena::push(const std::uint64_t* src) {
    std::uint64_t* slot = grow_to(size_);
    std::memcpy(slot, src, record_words_ * sizeof(std::uint64_t));
    return size_++;
}

void WordArena::release_before(std::size_t index) noexcept {
    const std::size_t full_blocks =
        std::min(index / records_per_block_, blocks_.size());
    for (std::size_t b = released_blocks_; b < full_blocks; ++b) {
        blocks_[b].reset();
    }
    released_blocks_ = std::max(released_blocks_, full_blocks);
}

}  // namespace rap::util
