#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace rap::util {

/// Bump allocator for fixed-size records of 64-bit words. Records live in
/// chunked blocks, so the pointers it hands out stay stable while the
/// arena grows and growth never copies existing payload — the properties
/// the reachability engine's interned marking store depends on. There is
/// no per-record heap allocation: one block allocation amortises over
/// thousands of records.
class WordArena {
public:
    /// Every record is exactly `record_words` 64-bit words. Blocks hold
    /// ~2^16 words each, which amortises well for stores that grow
    /// monotonically.
    explicit WordArena(std::size_t record_words);

    std::size_t record_words() const noexcept { return record_words_; }
    std::size_t size() const noexcept { return size_; }

    /// Appends a zero-filled record; returns its dense index.
    std::size_t push_zero();

    /// Appends a copy of `src[0 .. record_words)`; returns its index.
    std::size_t push(const std::uint64_t* src);

    std::size_t records_per_block() const noexcept {
        return records_per_block_;
    }

    /// Heap bytes currently held by live blocks (released blocks do not
    /// count). The arena's contribution to a pass's petri::MemoryStats.
    std::size_t resident_bytes() const noexcept {
        return (blocks_.size() - released_blocks_) * records_per_block_ *
               record_words_ * sizeof(std::uint64_t);
    }

    /// Blocks ever allocated (released ones still count). Monotonic over
    /// an arena's life, so it serves as a cheap geometry signature: the
    /// resident footprint can only change when this (or a sibling
    /// container's capacity) does — the peak-memory sampling hook.
    std::size_t allocated_blocks() const noexcept { return blocks_.size(); }

    /// Frees every block whose records all have index < `index` — the
    /// frontier-only cache hook: once a BFS layer is fully expanded, its
    /// records are never read again and their blocks can go back to the
    /// allocator. Released records must not be accessed again; indices
    /// >= `index` (and future push results) stay valid.
    void release_before(std::size_t index) noexcept;

    std::uint64_t* operator[](std::size_t index) noexcept {
        return blocks_[index / records_per_block_].get() +
               (index % records_per_block_) * record_words_;
    }
    const std::uint64_t* operator[](std::size_t index) const noexcept {
        return blocks_[index / records_per_block_].get() +
               (index % records_per_block_) * record_words_;
    }

    /// Drops every record. Keeps the blocks for reuse — unless some were
    /// released, in which case the block list is discarded wholesale so
    /// the arena never hands out an index backed by a freed block.
    void clear() noexcept {
        size_ = 0;
        if (released_blocks_ != 0) {
            blocks_.clear();
            released_blocks_ = 0;
        }
    }

private:
    std::uint64_t* grow_to(std::size_t index);

    std::size_t record_words_;
    std::size_t records_per_block_;
    std::size_t size_ = 0;
    std::size_t released_blocks_ = 0;
    std::vector<std::unique_ptr<std::uint64_t[]>> blocks_;
};

}  // namespace rap::util
